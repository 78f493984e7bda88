"""Eigenfunction branches rebuilt from first integrals and closed forms.

Independent oracles for the variational solver: the sign-changing branch
parametrized by the normalized depth m (eigenvalue = half_period(m, q)^2,
profile recovered by inverting the first-integral arclength map), the explicit
q = 1 constant-sign branch, the one-parameter family of flat minimizers
that coexist at q = 1 when the coupling reaches pi^2/2, and the closed-form
coupling alpha_0 at which the eigenvalue crosses zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFunction, check_n, check_q, nodes
from .period import (
    DEFAULT_TARGET_REL_ERR,
    GAUSS_NODES,
    arc_densities,
    arc_variables,
    check_finite_half_period,
    first_integral_coeffs,
    gauss_panels,
    half_period,
    tail_bound,
)

_PI2 = math.pi**2

# Graded mesh of the arclength accumulation on the square-root variable u in
# [0, 1] of each arc, in two blocks.  The coarse block is 63 panels of width
# 1/64 in the complement c = 1 - u, down to c = 1/64; the fine block is 7
# panels of width c0 = 1/512 down to c = c0, then geometric panels
# [c0*2^-(k+1), c0*2^-k] for k < 60, which resolve the y^(-q/2) end of the
# positive arc at u -> 1 as m -> 0.  Nodes and half-widths come from
# ``period.gauss_panels``, the helper of the graded Gauss-Legendre rule behind
# ``half_period``, so both place 8 nodes per panel by their complements in one
# code path; 8 nodes integrate a 1/64 panel's densities to rounding.  The
# rebuild interpolates between the points at which the cumulative is read:
# each coarse panel at 56 evenly spaced points, its right edge last, 2.8e-4
# apart in c, below the 3.6e-4 between the middle Gauss nodes of a 1/512
# panel; each fine panel at its 8 nodes and its right edge.  The geometry is
# fixed, so it is built once; the arrays are read-only because every rebuild
# shares them.  The table stops at c = c0*2^-60 ~ 1.7e-21:
# ``reconstruct_profile`` refuses a depth whose positive arc has a tail below
# it above _TAIL_LIMIT of the period.
_C_COARSE = 1.0 / 64
_COARSE_PANELS = int(1.0 / _C_COARSE) - 1  # down to c = _C_COARSE
_COARSE_READS = 56
_C0 = 1.0 / 512
_GEOMETRIC_PANELS = 60
_TAIL_LIMIT = 1e-8


def _graded_geometry() -> tuple[np.ndarray, ...]:
    """u^2 and ln y at the Gauss nodes, the two blocks' partial-integral matrices, fine half-widths, y at all points, c of the last panel.

    Nodes are placed by their complements c, taken from the panel edges, so
    that c keeps full relative accuracy at u -> 1; the node arrays hold the
    coarse panels' rows, then the fine panels'.  Row j of a partial-integral
    matrix maps the value at node j to its share of the integrals of the
    degree-7 interpolant over [-1, xi] of the reference panel, one column
    per read-out point xi, ascending to xi = 1, where the column holds the
    Gauss weights.  The coarse block reads xi = -1 + 2k/56, k = 1..56, and
    its (8, 56) matrix carries the coarse half-width 1/128; the fine block
    reads its 8 nodes and 1 through an (8, 9) matrix, with its half-widths
    repeated over the 9 columns.  "All points" are u = 0 and the read-out
    points in order of increasing u.  The complements c of the last panel's
    nodes descend, so the last is the innermost node's.
    """
    legendre = np.polynomial.legendre
    coarse_edges = 1.0 - _C_COARSE * np.arange(_COARSE_PANELS + 1)
    fine_edges = np.concatenate((np.arange(_C_COARSE, 0.0, -_C0), _C0 * 0.5 ** np.arange(1, _GEOMETRIC_PANELS + 1)))
    coarse_c, coarse_half = gauss_panels(coarse_edges)
    fine_c, fine_half = gauss_panels(fine_edges)
    pts_c = np.concatenate((coarse_c, fine_c))
    u2, ln_y = arc_variables(1.0 - pts_c, pts_c)
    lagrange = np.linalg.inv(legendre.legvander(GAUSS_NODES, GAUSS_NODES.size - 1))  # column j: basis l_j
    primitive = legendre.legint(lagrange, lbnd=-1.0)
    reads = np.arange(1, _COARSE_READS + 1) / (0.5 * _COARSE_READS) - 1.0
    coarse = legendre.legval(reads, primitive) * coarse_half[0, 0]  # a power of two: exact
    fine = legendre.legval(np.append(GAUSS_NODES, 1.0), primitive)
    c_all = np.concatenate((
        [1.0],
        (coarse_edges[:-1, None] - coarse_half * (reads + 1.0)).ravel(),
        np.column_stack((fine_c, fine_edges[1:])).ravel(),
    ))
    fine_half = np.repeat(fine_half, fine.shape[1], axis=1)
    geometry = (u2, ln_y, coarse, fine, fine_half, c_all * (2.0 - c_all), pts_c[-1])  # y = 1 - u^2 = c*(2 - c)
    for a in geometry:
        a.setflags(write=False)
    return geometry


_PTS_U2, _PTS_LN_Y, _COARSE_PARTIALS, _FINE_PARTIALS, _FINE_HALF, _Y_ALL, _C_LAST = _graded_geometry()


@dataclass(frozen=True)
class BranchPoint:
    """Sign-changing branch data at depth m: the eigenvalue and the first-integral constant c = (lam/2)*t(m, q)."""

    lam: float
    c: float


def _check_depth(m: float) -> None:
    """Raise ValueError unless the depth m of a sign-changing profile lies in (0, 1]; NaN does not."""
    if not 0.0 < m <= 1.0:
        raise ValueError(f"m must lie in (0, 1], got {m!r}")


def branch_point(m: float, q: float, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> BranchPoint:
    """Assemble the branch data: eigenvalue half_period(m, q)^2 and first-integral constant."""
    _check_depth(m)
    value = half_period(m, q, target_rel_err).value
    try:
        lam = value**2
    except OverflowError:  # at q = 2, about (1.11/m)^2, for m below about 8.3e-155
        raise ValueError(f"the eigenvalue half_period^2 overflows float64 at (m, q) = ({m!r}, {q!r})") from None
    t = first_integral_coeffs(m, q)[1]
    return BranchPoint(lam=lam, c=0.5 * lam * t)


def _arc_cumulative(density: np.ndarray) -> np.ndarray:
    """Cumulative integral of one arclength density sampled at the Gauss nodes of the graded panels.

    ``density`` has shape (panels, 8), the coarse panels' rows first.  The
    returned table has one entry per point of ``_Y_ALL``, in order of
    increasing u, starting at 0 and ending at the integral over (0, 1).  One
    product per block, written into the table, gives the integrals from each
    panel's left edge to its read-out points; only the panel totals, the
    last column of each block, are then accumulated, as offsets.
    """
    split = _COARSE_PANELS * _COARSE_READS + 1
    out = np.empty(split + _FINE_HALF.size)
    out[0] = 0.0
    coarse = out[1:split].reshape(_COARSE_PANELS, -1)
    fine = out[split:].reshape(_FINE_HALF.shape)
    np.matmul(density[:_COARSE_PANELS], _COARSE_PARTIALS, out=coarse)
    np.matmul(density[_COARSE_PANELS:], _FINE_PARTIALS, out=fine)
    fine *= _FINE_HALF
    ends = np.add.accumulate(np.concatenate((coarse[:, -1], fine[:-1, -1])))
    coarse[1:] += ends[: _COARSE_PANELS - 1, None]
    fine += ends[_COARSE_PANELS - 1 :, None]
    return out


def reconstruct_profile(m: float, q: float, n: int) -> GridFunction:
    """Rebuild the sign-changing profile of depth m on (-1, 1) from its first integral.

    The arclength map of each arc is accumulated from its extremum, in the
    square-root variables y = 1 - u^2 (positive arc) and |y| = m*(1 - v^2)
    (negative arc), where the densities (``period.arc_densities``) are
    smooth.  A node x is then placed by its distance |x - x_ext|*half_period
    from the extremum x_ext of its arc and inverted by piecewise-linear
    interpolation on the ascending tables of the read-out points: 56 evenly
    spaced points per coarse panel, the Gauss nodes and right edge of each
    fine panel.  The densities are sampled only at the Gauss nodes, 1 040
    per arc.  The positive arc is anchored first: the profile
    rises from 0 at x = -1 to its maximum 1, crosses zero once, and dips to
    -m before x = 1.  Raises ValueError where the tables stop short of the
    positive arc's y^(-q/2) end: when ``period.tail_bound`` puts its part
    below the innermost node above 1e-8 of the period (m below about 1e-15
    for q near 2).
    """
    _check_depth(m)
    check_n(n)
    check_finite_half_period(m, q)
    pos, neg = arc_densities(_PTS_U2, _PTS_LN_Y, m, q)
    pos_cum, neg_cum = _arc_cumulative(pos), _arc_cumulative(neg)
    len_pos = pos_cum[-1]
    period = len_pos + neg_cum[-1]  # equals half_period(m, q)
    tail = tail_bound(float(_C_LAST[-1]), float(pos[-1, -1]), float(_C_LAST[-2]), float(pos[-1, -2]))
    if not tail <= _TAIL_LIMIT * period:
        raise ValueError(
            f"the rebuild's tables cannot resolve depth m = {m!r} at q = {q!r}: the bound on the "
            f"positive arc's tail below them is {tail / period:.1e} of the half period (limit {_TAIL_LIMIT:g})"
        )
    max_point = -1.0 + len_pos / period
    zero = -1.0 + 2.0 * len_pos / period
    min_point = 1.0 - neg_cum[-1] / period

    x = nodes(n)[1:-1]
    i_zero = np.searchsorted(x, zero, side="right")  # x is sorted: the positive arc ends at the zero
    # arclength from the extremum of each node's arc
    s = np.empty_like(x)
    np.subtract(x[:i_zero], max_point, out=s[:i_zero])
    np.subtract(x[i_zero:], min_point, out=s[i_zero:])
    np.abs(s, out=s)
    s *= period
    values = np.empty_like(x)
    # np.interp holds the end values beyond the tables, which clamps the arcs at y = 0
    values[:i_zero] = np.interp(s[:i_zero], pos_cum, _Y_ALL)
    values[i_zero:] = np.interp(s[i_zero:], neg_cum, _Y_ALL)
    values[i_zero:] *= -m
    return GridFunction(values)


def q1_coupling_of_eigenvalue(lam: float) -> float:
    """Coupling alpha sustaining eigenvalue lam on the q = 1 constant-sign branch.

        alpha = lam*sqrt(lam) / (2*sqrt(lam) - 2*tan(sqrt(lam)))

    Valid for pi^2/4 < lam < pi^2, where tan(sqrt(lam)) < 0 keeps the
    denominator positive; alpha -> pi^2/2 as lam -> pi^2.
    """
    if not _PI2 / 4.0 < lam < _PI2:
        raise ValueError(f"lam must lie strictly inside (pi^2/4, pi^2), got {lam!r}")
    root = math.sqrt(lam)
    return lam * root / (2.0 * root - 2.0 * math.tan(root))


def q1_eigenvalue_of_coupling(alpha: float) -> float:
    """Eigenvalue of the q = 1 constant-sign branch at coupling alpha, the inverse of ``q1_coupling_of_eigenvalue``.

    Valid for 0 < alpha < pi^2/2.  The coupling map is strictly increasing
    on (pi^2/4, pi^2), so bisection between the floats next inside its ends
    brackets the eigenvalue to the last bit.
    """
    if not 0.0 < alpha < 0.5 * _PI2:
        raise ValueError(f"alpha must lie strictly inside (0, pi^2/2), got {alpha!r}")
    lo, hi = math.nextafter(_PI2 / 4.0, math.inf), math.nextafter(_PI2, 0.0)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if q1_coupling_of_eigenvalue(mid) < alpha:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def q1_positive_profile(lam: float, n: int) -> GridFunction:
    """The q = 1 constant-sign minimizer profile at eigenvalue lam, unit average scale.

        y(x) = (alpha/lam) * (1 - cos(sqrt(lam)*x)/cos(sqrt(lam)))

    Positive on the open interval and vanishing at both endpoints.
    """
    alpha = q1_coupling_of_eigenvalue(lam)
    root = math.sqrt(lam)
    scale = alpha / lam
    return GridFunction.from_callable(
        lambda x: scale * (1.0 - np.cos(root * x) / math.cos(root)), n
    )


def q1_flat_family(avg: float, n: int) -> GridFunction:
    """Member of the q = 1 flat minimizer family with prescribed average.

        y(x) = (avg/2)*(1 + cos(pi*x)) - sqrt(1 - avg)*sin(pi*x),  0 <= avg <= 1

    Every member attains the same quotient pi^2 at coupling pi^2/2.
    """
    if not 0.0 <= avg <= 1.0:
        raise ValueError(f"avg must lie in [0, 1], got {avg!r}")
    root = math.sqrt(1.0 - avg)
    return GridFunction.from_callable(
        lambda x: 0.5 * avg * (1.0 + np.cos(np.pi * x)) - root * np.sin(np.pi * x), n
    )


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def alpha_zero_exact(q: float) -> float:
    """Coupling at which lambda(alpha, q) crosses zero: minus the dual constant tau_q.

    tau_q = min int|w'|^2 / (int|w|^q)^(2/q).  The minimizer with max 1 on
    (-1, 1) has first integral w'^2 = c*(1 - w^q), so int|w'|^2 = (q*c/2)*S
    with S = int w^q; with B the Beta function,

        sqrt(c) = B(1/q, 1/2)/q,  S = 2*B(1 + 1/q, 1/2)/(q*sqrt(c)),  alpha_0 = -(q*c/2)*S^(1 - 2/q).

    q = 1 gives -3/2 (w = 1 - x^2) and q = 2 gives -pi^2/4.
    """
    check_q(q)
    root_c = _beta(1.0 / q, 0.5) / q
    s = 2.0 * _beta(1.0 + 1.0 / q, 0.5) / (q * root_c)
    return -0.5 * q * root_c**2 * s ** (1.0 - 2.0 / q)
