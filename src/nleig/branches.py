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

from .core import GridFunction, check_q, nodes
from .period import (
    DEFAULT_TARGET_REL_ERR,
    arc_densities,
    arc_variables,
    first_integral_coeffs,
    half_period,
)

_PI2 = math.pi**2

# Graded mesh of the arclength accumulation on the square-root variable u in
# [0, 1] of each arc: panels of width c0 = 1/512 in the complement c = 1 - u
# down to c = c0, then geometric panels [c0*2^-(k+1), c0*2^-k] for k < 60, which
# resolve the y^(-q/2) end of the positive arc at u -> 1 as m -> 0 (hp-style
# grading, Schwab 1998).  Each panel carries 8 Gauss-Legendre nodes.  The
# geometry is fixed, so it is built once; the arrays are read-only because
# every rebuild shares them.
_GL_ORDER = 8
_C0 = 1.0 / 512
_GEOMETRIC_PANELS = 60


def _graded_geometry() -> tuple[np.ndarray, ...]:
    """u^2 and ln y at the Gauss nodes, panel half-widths, increment matrix, y at all points.

    Nodes are placed by their complements c, taken from the panel edges, so
    that c keeps full relative accuracy at u -> 1.  "All points" are the panel
    edges and Gauss nodes in order of increasing u: edge, its 8 nodes, next
    edge, ..., last edge.  Row j of the (8, 9) increment matrix maps the value
    at node j to its share of the integrals of the degree-7 interpolant over
    [-1, xi_0], [xi_0, xi_1], ..., [xi_7, 1] of the reference panel; each row
    sums to the Gauss weight of its node.
    """
    legendre = np.polynomial.legendre
    c_edges = np.concatenate((np.arange(1.0, 0.0, -_C0), _C0 * 0.5 ** np.arange(1, _GEOMETRIC_PANELS + 1)))
    half = 0.5 * (c_edges[:-1] - c_edges[1:])[:, None]
    nodes, _ = legendre.leggauss(_GL_ORDER)
    pts_c = 0.5 * (c_edges[:-1] + c_edges[1:])[:, None] - half * nodes
    u2, ln_y = arc_variables(1.0 - pts_c, pts_c)
    lagrange = np.linalg.inv(legendre.legvander(nodes, _GL_ORDER - 1))  # column j: basis l_j
    primitive = legendre.legint(lagrange, lbnd=-1.0)
    increments = np.diff(legendre.legval(np.append(nodes, 1.0), primitive), axis=1, prepend=0.0)
    c_all = np.append(np.column_stack((c_edges[:-1], pts_c)).ravel(), c_edges[-1])
    geometry = (u2, ln_y, half, increments, c_all * (2.0 - c_all))  # y = 1 - u^2 = c*(2 - c)
    for a in geometry:
        a.setflags(write=False)
    return geometry


_PTS_U2, _PTS_LN_Y, _HALF, _INCREMENTS, _Y_ALL = _graded_geometry()


@dataclass(frozen=True)
class BranchPoint:
    """Sign-changing branch data at depth m_bar: eigenvalue and first-integral constants.

    ``gamma_alpha`` stores the coupling-free product gamma*alpha =
    (q*lam/2)*z(m_bar, q); ``c`` is the first-integral constant (lam/2)*t(m_bar, q).
    """

    q: float
    m_bar: float
    lam: float
    gamma_alpha: float
    c: float


def eigenvalue_from_depth(m: float, q: float, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> float:
    """Eigenvalue of the sign-changing branch at depth m: half_period(m, q)^2."""
    if not 0.0 < m <= 1.0:
        raise ValueError(f"m must lie in (0, 1], got {m!r}")
    return half_period(m, q, target_rel_err).value ** 2


def branch_point(m: float, q: float, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> BranchPoint:
    """Assemble the branch data (eigenvalue, gamma*alpha, first-integral constant)."""
    lam = eigenvalue_from_depth(m, q, target_rel_err)
    co = first_integral_coeffs(m, q)
    return BranchPoint(q=q, m_bar=m, lam=lam, gamma_alpha=0.5 * q * lam * co.z, c=0.5 * lam * co.t)


def _arc_cumulative(density: np.ndarray) -> np.ndarray:
    """Cumulative integral of an arclength density sampled at the Gauss nodes of the graded panels.

    The returned array has one entry per edge and node of the panels, in order
    of increasing u, starting at 0 and ending at the integral over (0, 1).
    """
    steps = (density @ _INCREMENTS) * _HALF
    out = np.empty(steps.size + 1)
    out[0] = 0.0
    np.cumsum(steps.ravel(), out=out[1:])
    return out


def reconstruct_profile(m: float, q: float, n: int) -> GridFunction:
    """Rebuild the sign-changing profile of depth m on (-1, 1) from its first integral.

    The arclength maps x(y) on the rising and falling arcs are accumulated in
    the square-root variables y = 1 - u^2 (positive arc) and |y| = m*(1 - v^2)
    (negative arc), where the densities (``period.arc_densities``) are
    smooth, then inverted by piecewise-linear interpolation on the edges and
    Gauss nodes of the graded panels.  The positive arc is anchored first:
    the profile rises from x = -1, crosses zero once, and dips to -m before
    x = 1.
    """
    if not 0.0 < m <= 1.0:
        raise ValueError(f"m must lie in (0, 1], got {m!r}")
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    pos, neg = arc_densities(_PTS_U2, _PTS_LN_Y, m, q)
    pos_cum = _arc_cumulative(pos)  # distance from the max toward y = 0
    neg_cum = _arc_cumulative(neg)  # distance from the min toward y = 0
    len_pos = pos_cum[-1]
    len_neg = neg_cum[-1]
    period = len_pos + len_neg  # equals half_period(m, q)
    lam_sqrt = period

    # map: arclength from the zero end -> height on the positive arc
    s_pos = (len_pos - pos_cum)[::-1]
    y_pos = _Y_ALL[::-1]
    # map: arclength from the zero end -> depth on the negative arc
    s_neg = (len_neg - neg_cum)[::-1]
    w_neg = m * y_pos

    zero = -1.0 + 2.0 * len_pos / period
    max_point = -1.0 + len_pos / period
    min_point = zero + len_neg / period

    x = nodes(n)[1:-1]
    # x is sorted: the cut points split it at max_point <= zero <= min_point
    i_max, i_zero, i_min = np.searchsorted(x, (max_point, zero, min_point), side="right")
    s = np.empty_like(x)
    s[:i_max] = x[:i_max] + 1.0
    s[i_max:i_zero] = zero - x[i_max:i_zero]
    s[i_zero:i_min] = x[i_zero:i_min] - zero
    s[i_min:] = 1.0 - x[i_min:]
    s *= lam_sqrt

    values = np.empty_like(x)
    # np.interp holds the end values outside [0, len], which clamps the arcs
    values[:i_zero] = np.interp(s[:i_zero], s_pos, y_pos)
    values[i_zero:] = -np.interp(s[i_zero:], s_neg, w_neg)
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
