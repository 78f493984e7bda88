"""Critical coupling location, zero-eigenvalue duality, interval rescaling.

The eigenvalue is nondecreasing in the coupling and saturates at the twisted
value pi^2, so the critical coupling is found by bisection on the predicate
"lambda has reached the grid-consistent pi^2".  Comparing against the sampled
sine quotient rather than the analytic pi^2 cancels the O(h^2) discretization
bias that would otherwise shift the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import GridFunction, ProblemParams, apply_stiffness, quotient_terms
from .solver import SolverOptions, _descend, minimize, saturation_reference

_PI2 = math.pi**2

# The paper-level lower bound 3*pi^2/2^(1+2/q) is attained exactly at q = 2,
# where the O(h^2) discrete threshold sits a hair below it; the margin keeps
# the bisection bracket valid at every resolution.
_BRACKET_MARGIN = 0.1


class BracketViolation(RuntimeError):
    """The saturation predicate failed on a bracket endpoint (solver or grid fault)."""


class DualityMismatch(RuntimeError):
    """Zero-crossing coupling and the dual quotient minimum disagree."""


@dataclass(frozen=True)
class CriticalResult:
    """Bisection outcome for the critical coupling at fixed q."""

    q: float
    alpha_q: float
    bracket: tuple[float, float]
    saturation_value: float
    tolerance: float
    solver_calls: int


def lower_bound(q: float) -> float:
    """Test-function lower bound 3*pi^2 / 2^(1+2/q) for the critical coupling."""
    return 3.0 * _PI2 / 2.0 ** (1.0 + 2.0 / q)


def alpha_critical(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> CriticalResult:
    """Locate the smallest coupling at which the eigenvalue saturates.

    Bisects the predicate lambda(alpha, q) >= saturation_reference - delta with
    delta tied to the measured discretization error; the initial bracket runs
    from the test-function lower bound (minus a small safety margin) to 2*pi^2.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    if tol < 1e-4:
        raise ValueError(f"tol must be at least 1e-4, got {tol!r}")
    sat = saturation_reference(opts.n, q)
    delta = 10.0 * abs(sat - _PI2) + 1e-8
    calls = 0

    def saturated(alpha: float) -> bool:
        nonlocal calls
        calls += 1
        return minimize(ProblemParams(alpha, q), opts).lam >= sat - delta

    lo = lower_bound(q) - _BRACKET_MARGIN
    hi = 2.0 * _PI2
    if saturated(lo):
        raise BracketViolation(
            f"bracket violation: eigenvalue already saturated at alpha = {lo:.6f} (q = {q})"
        )
    if not saturated(hi):
        raise BracketViolation(
            f"bracket violation: eigenvalue not saturated at alpha = {hi:.6f} (q = {q})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if saturated(mid):
            hi = mid
        else:
            lo = mid
    return CriticalResult(
        q=q,
        alpha_q=0.5 * (lo + hi),
        bracket=(lo, hi),
        saturation_value=sat,
        tolerance=tol,
        solver_calls=calls,
    )


def dual_quotient_and_gradient(v: np.ndarray, h: float, q: float) -> tuple[float, np.ndarray]:
    """The dual quotient R(v) = D(v) / P^(2/q), P = int|v|^q, and its gradient in v."""
    energy, p, _ = quotient_terms(v, h, q)
    big_p = h * float(np.abs(v) @ p)
    expo = 2.0 / q
    value = energy / big_p**expo
    g = apply_stiffness(v, h) - value * big_p ** (expo - 1.0) * np.sign(v) * p
    return value, 2.0 * g


def dual_quotient_min(q: float, opts: SolverOptions = SolverOptions()) -> tuple[float, GridFunction]:
    """Minimize int|w'|^2 / (int|w|^q)^(2/q) by the solver's descent machinery.

    Returns the minimum and its (q-norm normalized) minimizer; the minimizer
    has constant sign.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    n = opts.n
    h = 2.0 / (n + 1)
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]

    def normalize(v):
        return v / (h * float(np.sum(np.abs(v) ** q))) ** (1.0 / q)

    u0 = np.sin(0.5 * np.pi * (x + 1.0))
    evaluate = partial(dual_quotient_and_gradient, h=h, q=q)
    w, tau, _, converged = _descend(u0, evaluate, normalize, h, opts.max_iterations, opts.lambda_tol)
    if not converged:
        raise RuntimeError(f"dual quotient descent did not converge for q = {q}")
    return tau, GridFunction(w)


def alpha_zero(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> float:
    """Coupling at which the eigenvalue crosses zero, cross-checked by duality.

    Bisects lambda(alpha, q) = 0 over alpha < 0, then verifies that -alpha
    equals the dual quotient minimum to within the relative tolerance; raises
    DualityMismatch on disagreement.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")

    def lam(alpha: float) -> float:
        return minimize(ProblemParams(alpha, q), opts).lam

    lo = -2.0
    while lam(lo) > 0.0:
        lo *= 2.0
        if lo < -1e4:
            raise RuntimeError("failed to bracket the zero crossing")
    hi = 0.0  # lambda(0, q) = pi^2/4 > 0
    mid = lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lam_mid = lam(mid)
        if abs(lam_mid) <= 0.25 * tol and hi - lo <= tol * abs(mid):
            break
        if lam_mid > 0.0:
            hi = mid
        else:
            lo = mid

    tau, _ = dual_quotient_min(q, opts)
    if abs(tau + mid) > tol * abs(tau):
        raise DualityMismatch(
            f"duality mismatch at q = {q}: zero crossing at alpha = {mid:.8f} "
            f"but dual quotient minimum is {tau:.8f}"
        )
    return mid


def rescale_lambda(
    a: float, b: float, alpha: float, q: float, opts: SolverOptions = SolverOptions()
) -> float:
    """Eigenvalue on the interval (a, b) via the reference-interval solve.

        lambda(alpha, q; (a, b)) = (2/(b-a))^2 * lambda( ((b-a)/2)^(1+2/q) * alpha, q )
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a!r}, {b!r})")
    scale = 0.5 * (b - a)
    lam_ref = minimize(ProblemParams(scale ** (1.0 + 2.0 / q) * alpha, q), opts).lam
    return lam_ref / scale**2
