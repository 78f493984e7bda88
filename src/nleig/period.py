"""Half-period integral of the sign-changing branch, its quadrature rule and its study functions.

A sign-changing minimizer normalized to max 1 and min -m satisfies the first
integral  (y')^2 = lambda * [1 - z*(1 - |y|^(q-1) y) - y^2]  with

    z(m, q) = (1 - m^2) / (1 + m^q),        t(m, q) = 1 - z(m, q) = (m^q + m^2) / (1 + m^q).

Integrating dx = dy/|y'| from the minimum to the maximum shows that the
eigenvalue equals the square of

    half_period(m, q) = int_0^1 [ 1/sqrt((1-z) + z*y^q - y^2)
                                + m/sqrt((1-z) - z*m^q*y^q - m^2*y^2) ] dy,

where both integrand terms carry an inverse-square-root singularity at y = 1.
``half_period`` removes it with the square-root variable y = 1 - u^2
(``arc_densities``, the densities ``branches.reconstruct_profile`` also
accumulates).  The value is pi on the whole q = 1 line and at m = 1, and
exceeds pi strictly for m < 1, q > 1; the auxiliary functions at the bottom
certify the strict monotonicity of the integrand in q that drives that bound.

What stays singular in u is the positive arc at u = 1 (y = 0) as m -> 0,
where the density grows like y^(-q/2).  ``integrate_endpoint_singular``
integrates over u in (0, 1) integrands that may blow up like an inverse
power c**-a, a < 1, of the complement c = 1 - u at the right endpoint u = 1
and are smooth everywhere else, u = 0 included, by a graded composite
Gauss-Legendre rule.  The mesh is graded toward u = 1 only, as in the
hp-graded meshes of Schwab (1998): geometric panels [2**-(k+1), 2**-k] in c
for k < depth, each with 8 Gauss-Legendre nodes.  Every panel has the same
width relative to its distance from the singularity, so a power of c is
resolved as finely on the last panel as on the first.  An integrand singular
at u = 0 is not resolved and raises QuadratureNonconvergence.

One round calls the integrand once, on the nodes of two rules: the panels
cut into ``split`` equal parts, and the panels cut into 2*``split``.  It
returns the sum of the finer rule, whose error estimate is its difference
from the coarser sum.  The part of the integral below the innermost node c0
is bounded by c0*|f(c0)|/(1 - a), with the exponent a of f ~ c**-a taken from
the two innermost nodes; it must be negligible too.  A round that fails
refines: the depth doubles from 64 while the tail bound fails, up to 1000
panels, and ``split`` doubles from 1 while the estimate fails, up to 8; a
non-finite integrand value enters the sums as 0 and fails the estimate.  A
round that only deepens evaluates the new panels alone and adds their sums.
Past either cap the rule raises QuadratureNonconvergence with the last
round's estimate.

Everything runs in float64 on numpy arrays.  The rule calls its integrand as
``f(u2, ln_y)``, with the arc variables u^2 and ln y, y = 1 - u^2, that each
of its node tables carries, computed once by ``arc_variables``.  Near u = 1,
u itself rounds to 1.0 long before the weighted contributions are
negligible, so the nodes are placed by their complements c = 1 - u, and ln y
is formed from c: it keeps full relative accuracy down to c ~ 1e-301.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_q

DEFAULT_TARGET_REL_ERR = 1e-10

# below the smallest normal float, t has lost digits and the positive radicand is formed in logs
_TINY = np.finfo(float).tiny


def _check_mq(m: float, q: float) -> None:
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m!r}")
    check_q(q)


def first_integral_coeffs(m: float, q: float) -> tuple[float, float]:
    """The pair (z, t): z = (1-m^2)/(1+m^q) and its complement t = (m^q+m^2)/(1+m^q), formed without cancellation as m -> 0."""
    _check_mq(m, q)
    mq = m**q
    return (1.0 - m * m) / (1.0 + mq), (mq + m * m) / (1.0 + mq)


def arc_variables(u, c) -> tuple[np.ndarray, np.ndarray]:
    """u^2 and ln y, with y = 1 - u^2, at nodes u in (0, 1) with complements c = 1 - u.

    ln y comes from log1p(-u^2) for u < 1/2 and from the complement, as
    log(c*(1+u)), otherwise, which keeps it accurate down to c ~ 1e-300.
    u^2 is floored at 1e-200: below that y = 1 in float64, and the floor keeps
    the quotients -expm1(a*ln y)/u^2 of ``arc_densities`` at their limit a
    where u^2 would underflow.
    """
    u2 = np.maximum(u * u, 1e-200)
    ln_y = np.log(c * (1.0 + u))
    near = u < 0.5
    ln_y[near] = np.log1p(-u2[near])
    return u2, ln_y


def arc_densities(u2: np.ndarray, ln_y: np.ndarray, m: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Arclength densities dx/du of the positive and the negative arc, at unit eigenvalue.

    The arcs are parametrized in their square-root variables, y = 1 - u^2 on
    the positive arc and |y| = m*(1 - u^2) on the negative arc, so that the
    inverse-square-root singularity at each extremum (u = 0) disappears:

        pos(u) = 2 / sqrt(r(u)),          r(u) = t*(1+y) + z*y^q*(-expm1((2-q)*ln y))/u^2,
        neg(u) = 2*sqrt(p) / sqrt(s(u)),  s(u) = p*(1+y) + z*(-expm1(q*ln y))/u^2,  p = m^(2-q).

    ``u2`` and ``ln_y`` are float64 arrays from ``arc_variables``, z and t
    come from ``first_integral_coeffs``.  Both radicands are sums of
    non-negative terms, so nothing cancels: the expm1 quotients tend to 2 - q
    and q as u -> 0.  Integrating pos + neg over (0, 1) gives half_period(m, q).
    p lies in [m, 1], so neg neither underflows nor overflows as m -> 0, and
    is 0 at m = 0.  Where t is subnormal or underflows to 0 (and z = 1), r is
    formed in logs, from ln t and q*ln y, since t and y^q would lose their
    digits or underflow to a zero radicand; a pos beyond float64 (q = 2) is +inf.

    Where t is normal, the densities are formed in place, in four buffers the
    size of ``u2``, with the operations of the formulas above in their order,
    each negated quotient entering by a subtraction, so they keep their bits;
    q*ln y is formed once for both arcs.  The log form, reached only below
    about m = 1e-154, is one expression.
    """
    z, t = first_integral_coeffs(m, q)
    q_ln_y = np.multiply(q, ln_y)
    # the expm1 quotients are kept negated, expm1(a*ln y)/u^2, and subtracted:
    # a - b is a + (-b) in float64, so each radicand keeps its bits
    pos = np.multiply(2.0 - q, ln_y)
    np.expm1(pos, out=pos)
    pos /= u2
    one_y = np.subtract(2.0, u2)  # 1 + y
    if t < _TINY:
        # ln t = q*ln m + log1p(m^(2-q)) - log1p(m^q); ln 0 = -inf at m = 0 and for the quotient at q = 2
        with np.errstate(divide="ignore", over="ignore"):
            ln_t = q * np.log(m) + math.log1p(m ** (2.0 - q)) - math.log1p(m**q)
            pos = 2.0 * np.exp(-0.5 * np.logaddexp(ln_t + np.log(one_y), q_ln_y + np.log(-pos)))
    else:
        term = np.exp(q_ln_y)
        term *= z
        pos *= term
        np.multiply(t, one_y, out=term)
        np.subtract(term, pos, out=pos)
        np.sqrt(pos, out=pos)
        np.divide(2.0, pos, out=pos)
    p = m ** (2.0 - q)
    neg = np.expm1(q_ln_y, out=q_ln_y)
    neg /= u2
    neg *= z
    one_y *= p
    np.subtract(one_y, neg, out=neg)
    np.sqrt(neg, out=neg)
    np.divide(2.0 * math.sqrt(p), neg, out=neg)
    return pos, neg


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)

_DEPTH = 64
# the deepest panel edge, 2**-1000 ~ 9e-302, keeps c and c**-1 normal and finite
_MAX_DEPTH = 1000
_MAX_SPLIT = 8

_MIN_TARGET = 1e-14
_MAX_TARGET = 1e-4

# q = 2 depths below this are refused: the half period, about 1.11/m, overflows the rule's sums below m = 1.24e-308
_Q2_MIN_DEPTH = 2e-308


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
_NODE_TABLES = 8


@functools.lru_cache(maxsize=_NODE_TABLES)
def _round_nodes(first: int, depth: int, split: int) -> tuple[np.ndarray, ...]:
    """u^2, ln y, complements c and weights on the panels first <= k < depth, the coarse rule's nodes first.

    The coarse rule cuts each geometric panel into ``split`` parts, the fine
    rule into 2*``split``; the fine rule's last two nodes are the innermost.
    u^2 and ln y, the arguments of the integrand ``f(u2, ln_y)``, are
    ``arc_variables(1 - c, c)``; c serves the tail bound.  The arrays are
    read-only: the cache shares them.
    """
    cs, ws = [], []
    for parts in (split, 2 * split):
        c, half = gauss_panels(_geometric_edges(first, depth, parts))
        cs.append(c.ravel())
        ws.append((half * GAUSS_WEIGHTS).ravel())
    c = np.concatenate(cs)
    nodes = (*arc_variables(1.0 - c, c), c, np.concatenate(ws))
    for a in nodes:
        a.setflags(write=False)
    return nodes


def tail_bound(c0: float, f0: float, c1: float, f1: float) -> float:
    """Integral over (0, c0) of the power c**-a through (c0, f0) and (c1, f1), c0 < c1; +inf unless a < 1."""
    if f0 == 0.0:
        return 0.0
    if f1 == 0.0:
        return math.inf
    a = (math.log(abs(f0)) - math.log(abs(f1))) / math.log(c1 / c0)
    return c0 * abs(f0) / (1.0 - a) if a < 1.0 else math.inf


def integrate_endpoint_singular(f: Callable, target_rel_err: float) -> QuadResult:
    """Integrate ``f(u2, ln_y)`` over u in (0, 1) by the graded Gauss-Legendre rule of the module docstring.

    ``f`` takes read-only float64 arrays of u^2 and ln y, y = 1 - u^2, at the
    rule's nodes and returns an array (or a scalar) of values.
    ``target_rel_err``, in [1e-14, 1e-4], bounds both the rule difference
    and the tail bound relative to the value.  Returns the finer rule's sum
    of the first round that meets it; raises QuadratureNonconvergence, whose
    ``.best`` holds the last round's estimate, when no round does.
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
        u2, ln_y, c, w = _round_nodes(first, depth, split)
        terms = w * f(u2, ln_y)
        evals += c.size
        cut = GAUSS_NODES.size * (depth - first) * split
        fine_sum, coarse_sum = float(terms[cut:].sum()), float(terms[:cut].sum())
        resolved = math.isfinite(fine_sum + coarse_sum)
        if not resolved:
            terms = np.where(np.isfinite(terms), terms, 0.0)
            fine_sum, coarse_sum = float(terms[cut:].sum()), float(terms[:cut].sum())
        value += fine_sum
        coarse += coarse_sum
        diff = abs(value - coarse)
        tail = tail_bound(c[-1], float(terms[-1] / w[-1]), c[-2], float(terms[-2] / w[-2]))
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


def check_finite_half_period(m: float, q: float) -> None:
    """Raise ValueError unless 0 <= m <= 1, 1 <= q <= 2 and half_period(m, q) is finite in float64."""
    _check_mq(m, q)
    if m == 0.0 and q == 2.0:
        raise ValueError("divergent: the half-period integral is +inf at (m, q) = (0, 2)")
    if q == 2.0 and m < _Q2_MIN_DEPTH:
        raise ValueError(f"the half period, about 1.11/m, overflows float64 at q = 2 for m below {_Q2_MIN_DEPTH:g}, got m = {m!r}")


def half_period(m: float, q: float, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> QuadResult:
    """Evaluate the half-period integral by ``integrate_endpoint_singular`` (see the module docstring).

    (m, q) = (0, 2) diverges and raises ValueError, and so does q = 2 with
    0 < m < 2e-308, where the value, about 1.11/m, overflows the rule's
    float64 sums.  For m = 0 with q close to 2 the tail below the deepest
    panel, c ~ 1e-301, stops being negligible and the rule raises
    QuadratureNonconvergence.  The density is called once per round of the
    rule, which is once in all for m in [0.05, 1] at targets down to 1e-13;
    the rule calls it as ``f(u2, ln_y)``, so it forms only the densities.
    """
    check_finite_half_period(m, q)

    def density(u2, ln_y):
        pos, neg = arc_densities(u2, ln_y, m, q)
        pos += neg
        return pos

    return integrate_endpoint_singular(density, target_rel_err)


def _check_mq_open(m: float, q: float) -> None:
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie strictly inside (0, 1), got {m!r}")
    check_q(q)


def _finite(f: Callable) -> Callable:
    """f with a ValueError, in place of an OverflowError or a non-finite value, where f leaves float64."""

    @functools.wraps(f)
    def checked(*args, **kwargs):
        try:
            value = f(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{f.__name__} is not finite in float64 at {args}{kwargs or ''}")
        return value

    return checked


@_finite
def monotonicity_gap(m: float, q: float, y: float) -> float:
    """Positivity gap certifying that the integrand strictly increases in q.

        [ -(1-y^q) m^q log m - y^q (1+m^q) log y ]
      + [ (y^q - 1) log m + (1+m^q) y^q log y ] * m^(q-2)

    Vanishes at y = 1 and is positive for 0 < y < 1, 0 < m < 1.  Raises
    ValueError where the value leaves float64 (m below about 1e-306 at q = 1).
    """
    _check_mq_open(m, q)
    if not 0.0 < y <= 1.0:
        raise ValueError(f"y must lie in (0, 1], got {y!r}")
    mq = m**q
    yq = y**q
    lm = math.log(m)
    ly = math.log(y)
    first = -(1.0 - yq) * mq * lm - yq * (1.0 + mq) * ly
    second = ((yq - 1.0) * lm + (1.0 + mq) * yq * ly) * m ** (q - 2.0)
    return first + second


@_finite
def offset_positivity_margin(m: float, q: float) -> float:
    """Margin (m^q + m^(q-2)) log(1/m) - (1+m^q)(m^(q-2)-1), positive on (0,1).

    The lemma bounds log y away from the zero set of the gap derivative by
    the offset (m^q + m^(q-2)) log(1/m) / ((1+m^q)(m^(q-2)-1)), which must
    exceed 1.  For 1 <= q < 2 the denominator is positive, so the offset
    exceeds 1 exactly when this margin is positive; at q = 2 the offset is
    +inf and the margin (1+m^2) log(1/m) is positive.  The margin tends to 0
    as m -> 1.  Raises ValueError where the value leaves float64.
    """
    _check_mq_open(m, q)
    return (m**q + m ** (q - 2.0)) * math.log(1.0 / m) - (1.0 + m**q) * (
        m ** (q - 2.0) - 1.0
    )
