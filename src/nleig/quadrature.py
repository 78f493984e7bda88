"""Graded composite Gauss-Legendre quadrature for integrands singular at x = 1.

Evaluates integrals over (0, 1) whose integrands may blow up like an inverse
power c**-a, a < 1, of the complement c = 1 - x at the right endpoint x = 1
(e.g. (1-x)**-0.9), and are smooth everywhere else, x = 0 included.  The
mesh is graded toward x = 1 only, as in the hp-graded meshes of Schwab
(1998): geometric panels [2**-(k+1), 2**-k] in c for k < depth, each with 8
Gauss-Legendre nodes.  Every panel has the same width relative to its
distance from the singularity, so a power of c is resolved as finely on the
last panel as on the first.  An integrand singular at x = 0 is not resolved
and raises QuadratureNonconvergence.

One round calls the integrand once, on the nodes of two rules: the panels
cut into ``split`` equal parts, and the panels cut into 2*``split``.  It
returns the sum of the finer rule, whose error estimate is its difference
from the coarser sum.  The part of the integral below the innermost node c0
is bounded by c0*|f(c0)|/(1 - a), with the exponent a of f ~ c**-a taken from
the two innermost nodes; it must be negligible too.  A round that fails
refines: the depth doubles while the tail bound fails, and ``split``
doubles while the estimate fails, each up to its cap.  A round that only
deepens evaluates the new panels alone and adds their sums.

Everything runs in float64 on numpy arrays.  Near x = 1 the abscissa itself
rounds to 1.0 long before the weighted contributions are negligible, so the
integrand is handed the complement as well: it is called as ``f(x, c)``
with c placed from the panel edges, which keeps full relative accuracy down
to the deepest panel, c ~ 1e-301.  An integrand must form its right-endpoint
factors from ``c`` (never from ``1 - x``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)

_DEPTH = 64
# the deepest panel edge, 2**-1000 ~ 9e-302, keeps c and c**-1 normal and finite
_MAX_DEPTH = 1000
_MAX_SPLIT = 8

_MIN_TARGET = 1e-14
_MAX_TARGET = 1e-4


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with its convergence diagnostics.

    ``error_estimate`` is the absolute difference between the two rules of
    the last round; ``evaluations`` counts integrand values.
    """

    value: float
    error_estimate: float
    evaluations: int


class QuadratureNonconvergence(RuntimeError):
    """Raised when refinement fails to converge; carries the best estimate."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


def gauss_panels(c_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complements c of the Gauss-Legendre nodes on the panels between successive edges, and the half-widths.

    ``c_edges`` descend in c, so the panels ascend in x = 1 - c.  Row i of the
    (panels, 8) node array holds c = mid_i - half_i*xi_j for the ascending
    reference nodes xi_j, so the nodes ascend in x within a panel too; the
    weight of node j is half_i*GAUSS_WEIGHTS[j].  Half-widths come as a
    (panels, 1) column.
    """
    half = 0.5 * (c_edges[:-1] - c_edges[1:])[:, None]
    return 0.5 * (c_edges[:-1] + c_edges[1:])[:, None] - half * GAUSS_NODES, half


def _geometric_edges(first: int, depth: int, split: int) -> np.ndarray:
    """Edges of the panels [2**-(k+1), 2**-k], first <= k < depth, each cut into ``split`` equal parts, descending in c."""
    top = 0.5 ** np.arange(first, depth)
    cuts = top[:, None] * (1.0 - 0.5 * np.arange(split) / split)
    return np.append(cuts.ravel(), 0.5**depth)


# bounded: a round's panels and split take a few values each, and the
# largest table, (0, 1000, 8), holds 192 000 nodes
@functools.lru_cache(maxsize=8)
def _round_nodes(first: int, depth: int, split: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x, complements c and weights on the panels first <= k < depth, the coarse rule's nodes first.

    The coarse rule cuts each geometric panel into ``split`` parts, the fine
    rule into 2*``split``; the fine rule's last two nodes are the innermost.
    The arrays are read-only: the cache shares them.
    """
    cs, ws = [], []
    for parts in (split, 2 * split):
        c, half = gauss_panels(_geometric_edges(first, depth, parts))
        cs.append(c.ravel())
        ws.append((half * GAUSS_WEIGHTS).ravel())
    c = np.concatenate(cs)
    nodes = (1.0 - c, c, np.concatenate(ws))
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _tail_bound(c0: float, f0: float, c1: float, f1: float) -> float:
    """Integral over (0, c0) of the power c**-a through (c0, f0) and (c1, f1), c0 < c1; +inf unless a < 1."""
    if f0 == 0.0:
        return 0.0
    if f1 == 0.0:
        return math.inf
    a = (math.log(abs(f0)) - math.log(abs(f1))) / math.log(c1 / c0)
    return c0 * abs(f0) / (1.0 - a) if a < 1.0 else math.inf


def integrate_endpoint_singular(f: Callable, target_rel_err: float) -> QuadResult:
    """Integrate ``f`` over (0, 1), tolerating an integrable singularity at x = 1.

    Parameters
    ----------
    f : callable
        Integrand, called as ``f(x, c)`` on float64 arrays of abscissae x and
        their complements c = 1 - x; it returns an array (or a scalar) of
        values.  Factors that blow up at x = 1 must be formed from ``c``; the
        integrand must be smooth on the rest of [0, 1], x = 0 included.
    target_rel_err : float
        Requested relative accuracy, in [1e-14, 1e-4].  Both the difference
        of the two rules of a round and the bound on the tail below the
        innermost node must lie within it.

    Returns
    -------
    QuadResult
        The finer rule's sum of the first round that meets the target.

    Raises
    ------
    QuadratureNonconvergence
        If the target is not met once the depth reaches 1000 panels (where
        the tail fails) or ``split`` reaches 8 (where the estimate fails).
        The exception carries the last round's estimate in ``.best``.  A round
        also counts as unconverged while ``f`` returns a non-finite value at
        any node (such values enter the sums as 0); it refines like a failed
        estimate.
    """
    if not (_MIN_TARGET <= target_rel_err <= _MAX_TARGET):
        raise ValueError(
            f"target_rel_err must lie in [{_MIN_TARGET:g}, {_MAX_TARGET:g}], "
            f"got {target_rel_err:g}"
        )
    tail_floor = 1e-300
    first, depth, split = 0, _DEPTH, 1
    value = coarse = 0.0  # sums over the panels k < first
    evals = 0
    while True:
        x, c, w = _round_nodes(first, depth, split)
        terms = w * f(x, c)
        evals += x.size
        cut = GAUSS_NODES.size * (depth - first) * split
        fine_sum, coarse_sum = float(terms[cut:].sum()), float(terms[:cut].sum())
        resolved = math.isfinite(fine_sum + coarse_sum)
        if not resolved:
            terms = np.where(np.isfinite(terms), terms, 0.0)
            fine_sum, coarse_sum = float(terms[cut:].sum()), float(terms[:cut].sum())
        value += fine_sum
        coarse += coarse_sum
        diff = abs(value - coarse)
        tail = _tail_bound(c[-1], float(terms[-1] / w[-1]), c[-2], float(terms[-2] / w[-2]))
        tol = target_rel_err * (abs(value) + tail_floor)
        deep = tail <= tol
        fine = resolved and diff <= tol
        if deep and fine:
            return QuadResult(value, diff, evals)
        if (not deep and depth == _MAX_DEPTH) or (not fine and split == _MAX_SPLIT):
            break
        if fine:  # only the new panels remain to be summed
            first = depth
        else:
            split *= 2
            first, value, coarse = 0, 0.0, 0.0
        if not deep:
            depth = min(2 * depth, _MAX_DEPTH)
    unresolved = "" if resolved else ", non-finite integrand values"
    raise QuadratureNonconvergence(
        f"quadrature nonconvergence: rule difference {diff:.3e}, tail bound {tail:.3e}{unresolved} "
        f"at depth {depth}, split {split} (target {target_rel_err:g})",
        QuadResult(value, diff, evals),
    )
