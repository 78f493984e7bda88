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
# [0, 1] of each arc: panels of width c0 = 1/512 in the complement c = 1 - u
# down to c = c0, then geometric panels [c0*2^-(k+1), c0*2^-k] for k < 60, which
# resolve the y^(-q/2) end of the positive arc at u -> 1 as m -> 0.  Nodes and
# half-widths come from ``period.gauss_panels``, the helper of the graded
# Gauss-Legendre rule behind ``half_period``, so both place 8 nodes per panel
# by their complements in one code path.  The table is finer than that rule's
# geometric panels alone: the rebuild interpolates between its points.  The
# geometry is fixed, so it is built once; the arrays are read-only because
# every rebuild shares them.  The table stops at c = c0*2^-60 ~ 1.7e-21:
# ``reconstruct_profile`` refuses a depth whose positive arc has a tail below
# it above _TAIL_LIMIT of the period.
_C0 = 1.0 / 512
_GEOMETRIC_PANELS = 60
_TAIL_LIMIT = 1e-8


def _graded_geometry() -> tuple[np.ndarray, ...]:
    """u^2 and ln y at the Gauss nodes, half-widths, partial-integral matrix, y at all points, c of the last panel.

    Nodes are placed by their complements c, taken from the panel edges, so
    that c keeps full relative accuracy at u -> 1.  "All points" are the panel
    edges and Gauss nodes in order of increasing u: edge, its 8 nodes, next
    edge, ..., last edge.  Row j of the (8, 9) partial-integral matrix maps
    the value at node j to its share of the integrals of the degree-7
    interpolant over [-1, xi_0], [-1, xi_1], ..., [-1, xi_7], [-1, 1] of the
    reference panel; its last column holds the Gauss weights.  The
    half-widths are repeated over those 9 columns.  The complements c of the
    last panel's nodes descend, so the last is the innermost node's.
    """
    legendre = np.polynomial.legendre
    c_edges = np.concatenate((np.arange(1.0, 0.0, -_C0), _C0 * 0.5 ** np.arange(1, _GEOMETRIC_PANELS + 1)))
    pts_c, half = gauss_panels(c_edges)
    u2, ln_y = arc_variables(1.0 - pts_c, pts_c)
    lagrange = np.linalg.inv(legendre.legvander(GAUSS_NODES, GAUSS_NODES.size - 1))  # column j: basis l_j
    primitive = legendre.legint(lagrange, lbnd=-1.0)
    partials = legendre.legval(np.append(GAUSS_NODES, 1.0), primitive)
    c_all = np.append(np.column_stack((c_edges[:-1], pts_c)).ravel(), c_edges[-1])
    half = np.repeat(half, partials.shape[1], axis=1)
    geometry = (u2, ln_y, half, partials, c_all * (2.0 - c_all), pts_c[-1])  # y = 1 - u^2 = c*(2 - c)
    for a in geometry:
        a.setflags(write=False)
    return geometry


_PTS_U2, _PTS_LN_Y, _HALF, _PARTIALS, _Y_ALL, _C_LAST = _graded_geometry()


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

    ``density`` has shape (panels, 8).  The returned table has one entry per
    edge and node of the panels, in order of increasing u, starting at 0 and
    ending at the integral over (0, 1).  One product, written into the table,
    gives the integrals from each panel's left edge; only the panel totals
    are then accumulated, as offsets.
    """
    out = np.empty(density.shape[0] * _PARTIALS.shape[1] + 1)
    out[0] = 0.0
    within = out[1:].reshape(density.shape[0], -1)
    np.matmul(density, _PARTIALS, out=within)
    within *= _HALF
    ends = np.add.accumulate(within[:-1, -1])
    within[1:] += ends[:, None]
    return out


def reconstruct_profile(m: float, q: float, n: int) -> GridFunction:
    """Rebuild the sign-changing profile of depth m on (-1, 1) from its first integral.

    The arclength map of each arc is accumulated from its extremum, in the
    square-root variables y = 1 - u^2 (positive arc) and |y| = m*(1 - v^2)
    (negative arc), where the densities (``period.arc_densities``) are
    smooth.  A node x is then placed by its distance |x - x_ext|*half_period
    from the extremum x_ext of its arc and inverted by piecewise-linear
    interpolation on the ascending tables of the edges and Gauss nodes of
    the graded panels.  The positive arc is anchored first: the profile
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
    on (pi^2/4, pi^2), so bisection brackets the eigenvalue to 1e-12.
    """
    if not 0.0 < alpha < 0.5 * _PI2:
        raise ValueError(f"alpha must lie strictly inside (0, pi^2/2), got {alpha!r}")
    lo, hi = _PI2 / 4.0 + 1e-9, _PI2 - 1e-9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if q1_coupling_of_eigenvalue(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
