"""Tanh-sinh (double-exponential) quadrature for endpoint-singular integrands.

Evaluates integrals over (0, 1) whose integrands may blow up like an inverse
power weaker than first order (e.g. x**-0.5 or (1-x)**-0.9) at one or both
endpoints.  The substitution (Takahasi and Mori, 1974)

    x(t) = 1 / (1 + exp(-pi*sinh(t))),      dx/dt = pi*cosh(t) * x * (1 - x)

maps the real line onto (0, 1) and makes the trapezoid rule converge at a
double-exponential rate; halving the step re-uses all previous abscissae.

Everything runs in float64 on numpy arrays.  Near x = 1 the abscissa itself
rounds to 1.0 long before the weighted contributions are negligible, so the
integrand is handed the complement as well: it is called as ``f(x, c)`` with
``c = 1 - x`` taken straight from the node formula, ``c = 1/(1 + exp(pi*sinh(t)))``,
which keeps full relative accuracy down to c ~ 1e-300.  An integrand that
forms its right-endpoint factors from ``c`` (never from ``1 - x``) is
therefore resolved as finely at x = 1 as at x = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MAX_LEVEL = 12

# Nodes are clamped so both x and 1-x stay >= ~1e-304: pi*sinh(t) <= 700.
_T_CAP = 6.1

_MIN_TARGET = 1e-14
_MAX_TARGET = 1e-4


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with its convergence diagnostics.

    ``error_estimate`` is the absolute difference between the last two
    refinement levels; ``evaluations`` counts integrand values.
    """

    value: float
    error_estimate: float
    evaluations: int


class QuadratureNonconvergence(RuntimeError):
    """Raised when level doubling fails to converge; carries the best estimate."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


@functools.cache
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x, complements c = 1 - x and weights introduced at `level`.

    Level 0 holds the integer steps t = 0, 1, 2, ...; every later level holds
    the odd multiples of its step 2**-level, so the union over levels 0..L is
    the full grid of spacing 2**-L.  Each t > 0 contributes the mirror pair
    x(t), x(-t) = c(t).  The arrays are read-only: the cache shares them.
    """
    step = 2.0**-level
    if level == 0:
        t = np.arange(0.0, math.floor(_T_CAP) + 1.0)
    else:
        t = np.arange(1.0, _T_CAP / step, 2.0) * step
    s = math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-s))
    c = 1.0 / (1.0 + np.exp(s))  # = 1 - x, computed without cancellation
    w = math.pi * np.cosh(t) * x * c
    mirror = t > 0.0
    nodes = (
        np.concatenate([x, c[mirror]]),
        np.concatenate([c, x[mirror]]),
        np.concatenate([w, w[mirror]]),
    )
    for a in nodes:
        a.setflags(write=False)
    return nodes


def integrate_endpoint_singular(f: Callable, target_rel_err: float) -> QuadResult:
    """Integrate ``f`` over (0, 1), tolerating integrable endpoint singularities.

    Parameters
    ----------
    f : callable
        Integrand, called as ``f(x, c)`` on float64 arrays of abscissae x and
        their complements c = 1 - x; it returns an array (or a scalar) of
        values.  Factors that blow up at x = 1 must be formed from ``c``.
    target_rel_err : float
        Requested relative accuracy, in [1e-14, 1e-4].  The step is halved
        until two successive levels agree to this tolerance.

    Returns
    -------
    QuadResult

    Raises
    ------
    QuadratureNonconvergence
        If agreement is not reached within 12 halvings.  The exception carries
        the best available estimate in ``.best``.  A level also counts as
        unconverged while ``f`` returns a non-finite value at any node so far
        (such values enter the estimate as 0), or while the weighted integrand
        at the outermost integer step t = 6 (about 1e-275 from an endpoint) is
        not negligible: the part of the integral beyond the last node is then
        not negligible either.
    """
    if not (_MIN_TARGET <= target_rel_err <= _MAX_TARGET):
        raise ValueError(
            f"target_rel_err must lie in [{_MIN_TARGET:g}, {_MAX_TARGET:g}], "
            f"got {target_rel_err:g}"
        )
    tail_floor = 1e-300
    total = 0.0  # running sum of w*f over all nodes generated so far
    evals = 0
    resolved = True
    edge = 0.0
    prev = None
    diff = math.inf
    for level in range(_MAX_LEVEL + 1):
        x, c, w = _level_nodes(level)
        terms = w * f(x, c)
        evals += x.size
        finite = np.isfinite(terms)
        if not finite.all():
            resolved = False
            terms = np.where(finite, terms, 0.0)
        if level == 0:
            # the last integer step sits at index 6 (+x side) and 12 (-x side)
            last = math.floor(_T_CAP)
            edge = max(abs(terms[last]), abs(terms[2 * last]))
        total += float(terms.sum())
        value = 2.0**-level * total
        if prev is not None:
            diff = abs(value - prev)
            tol = target_rel_err * (abs(value) + tail_floor)
            if level >= 2 and resolved and diff <= tol and edge <= tol:
                return QuadResult(value, diff, evals)
        prev = value
    best = QuadResult(prev, diff, evals)
    unresolved = "" if resolved else ", non-finite integrand values"
    raise QuadratureNonconvergence(
        f"quadrature nonconvergence: inter-level difference {diff:.3e}, "
        f"tail term {edge:.3e}{unresolved} after {_MAX_LEVEL} levels (target {target_rel_err:g})",
        best,
    )
