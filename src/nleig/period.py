"""Half-period integral of the sign-changing branch and its study functions.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_q
from .quadrature import QuadResult, integrate_endpoint_singular

DEFAULT_TARGET_REL_ERR = 1e-10


@dataclass(frozen=True)
class FirstIntegralCoeffs:
    """Coefficients z = (1-m^2)/(1+m^q) and t = 1-z = (m^q+m^2)/(1+m^q) of the first integral."""

    z: float
    t: float
    m: float
    q: float


def _check_mq(m: float, q: float) -> None:
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m!r}")
    check_q(q)


def first_integral_coeffs(m: float, q: float) -> FirstIntegralCoeffs:
    """Evaluate z(m, q) and its complement t, formed without cancellation as m -> 0."""
    _check_mq(m, q)
    mq = m**q
    return FirstIntegralCoeffs(z=(1.0 - m * m) / (1.0 + mq), t=(mq + m * m) / (1.0 + mq), m=m, q=q)


def pos_arc_radical(m: float, q: float, y: float) -> float:
    """sqrt(1 - z*(1 - y^q) - y^2), the slope factor on the positive arc.

    Bounded above by sqrt(1 - y^2) for every admissible (m, q).
    """
    co = first_integral_coeffs(m, q)
    r = co.t + co.z * y**q - y * y
    return math.sqrt(_guard_radicand(r))


def neg_arc_radical(m: float, q: float, y: float) -> float:
    """sqrt(1 - z*(1 + m^q y^q) - m^2 y^2), the slope factor on the negative arc.

    Bounded below by m*sqrt(1 - y^2) for every admissible (m, q).
    """
    co = first_integral_coeffs(m, q)
    r = co.t - co.z * m**q * y**q - (m * y) ** 2
    return math.sqrt(_guard_radicand(r))


def _guard_radicand(r: float) -> float:
    if r <= -1e-14:
        raise ValueError(f"integrand domain violation: radicand {r:.3e} is negative")
    return max(r, 0.0)


def integrand(m: float, q: float, y: float) -> float:
    """The half-period integrand 1/pos_arc_radical + m/neg_arc_radical.

    Finite for 0 <= y < 1; tends to +inf as y -> 1 where both radicands vanish.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must lie in [0, 1], got {y!r}")
    fi = pos_arc_radical(m, q, y)
    fii = neg_arc_radical(m, q, y)
    first = 1.0 / fi if fi > 0.0 else math.inf
    if m == 0.0:
        return first
    second = m / fii if fii > 0.0 else math.inf
    return first + second


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


def arc_densities(u2, ln_y, m: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Arclength densities dx/du of the positive and the negative arc, at unit eigenvalue.

    The arcs are parametrized in their square-root variables, y = 1 - u^2 on
    the positive arc and |y| = m*(1 - u^2) on the negative arc, so that the
    inverse-square-root singularity at each extremum (u = 0) disappears:

        pos(u) = 2 / sqrt(r(u)),   r(u) = t*(1+y) + z*y^q*(-expm1((2-q)*ln y))/u^2,
        neg(u) = 2m / sqrt(s(u)),  s(u) = m^2*(1+y) + z*m^q*(-expm1(q*ln y))/u^2.

    ``u2`` and ``ln_y`` come from ``arc_variables``, z and t from
    ``first_integral_coeffs``.  Both radicands are sums of non-negative terms,
    so nothing cancels: the expm1 quotients tend to 2 - q and q as u -> 0.
    Integrating pos + neg over (0, 1) gives half_period(m, q).  At m = 0, neg
    is 0 and y^q is factored out of r, where it would underflow to a zero
    radicand as y -> 0.
    """
    co = first_integral_coeffs(m, q)
    pos_quot = -np.expm1((2.0 - q) * ln_y) / u2
    if m == 0.0:  # t = 0, z = 1
        pos = 2.0 * np.exp(-0.5 * q * ln_y) / np.sqrt(pos_quot)
        return pos, np.zeros_like(pos)
    one_y = 2.0 - u2  # 1 + y
    pos = 2.0 / np.sqrt(co.t * one_y + co.z * np.exp(q * ln_y) * pos_quot)
    neg_quot = -np.expm1(q * ln_y) / u2
    neg = 2.0 * m / np.sqrt(m * m * one_y + co.z * m**q * neg_quot)
    return pos, neg


def half_period(m: float, q: float, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> QuadResult:
    """Evaluate the half-period integral by the graded Gauss-Legendre rule of ``quadrature``.

    Both arcs are integrated together in their square-root variables (see
    ``arc_densities``), where the integrand is finite at the extrema u = 0;
    the rule grades toward u = 1 only, which is all this integrand needs.
    What remains singular is the positive arc at u = 1 (y = 0) as m -> 0,
    where the density grows like y^(-q/2); the rule resolves it through the
    complement c = 1 - u on geometric panels.  (m, q) = (0, 2) diverges and
    raises ValueError; for m = 0 with q close to 2 the tail below the
    deepest panel, c ~ 1e-301, stops being negligible and the rule raises
    QuadratureNonconvergence.  Returns the rule's value, error estimate and
    count of density evaluations; the density is called once per round of
    the rule, which is once in all for m in [0.05, 1] at targets down to
    1e-13.
    """
    _check_mq(m, q)
    if m == 0.0 and q == 2.0:
        raise ValueError("divergent: the half-period integral is +inf at (m, q) = (0, 2)")

    def density(u, c):
        pos, neg = arc_densities(*arc_variables(u, c), m, q)
        return pos + neg

    return integrate_endpoint_singular(density, target_rel_err)


def _check_mq_open(m: float, q: float) -> None:
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie strictly inside (0, 1), got {m!r}")
    check_q(q)


def monotonicity_gap(m: float, q: float, y: float) -> float:
    """Positivity gap certifying that the integrand strictly increases in q.

        [ -(1-y^q) m^q log m - y^q (1+m^q) log y ]
      + [ (y^q - 1) log m + (1+m^q) y^q log y ] * m^(q-2)

    Vanishes at y = 1 and is positive for 0 < y < 1, 0 < m < 1.
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


def log_bound_offset(m: float, q: float) -> float:
    """Offset (m^q + m^(q-2)) log(1/m) / ((1+m^q)(m^(q-2)-1)), exceeding 1.

    Bounds log y away from the zero set of the gap derivative; +inf at q = 2
    where the denominator vanishes.
    """
    _check_mq_open(m, q)
    denom = (1.0 + m**q) * (m ** (q - 2.0) - 1.0)
    if denom == 0.0:
        return math.inf
    return (m**q + m ** (q - 2.0)) * math.log(1.0 / m) / denom


def offset_positivity_margin(m: float, q: float) -> float:
    """Margin (m^q + m^(q-2)) log(1/m) - (1+m^q)(m^(q-2)-1), positive on (0,1).

    Its positivity is what pushes the log bound offset above 1; it tends to 0
    as m -> 1.
    """
    _check_mq_open(m, q)
    return (m**q + m ** (q - 2.0)) * math.log(1.0 / m) - (1.0 + m**q) * (
        m ** (q - 2.0) - 1.0
    )
