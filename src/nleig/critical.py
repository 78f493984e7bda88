"""Critical coupling location, zero crossing, interval rescaling.

The paper's dichotomy puts the critical coupling alpha_q where the
constant-sign branch lambda_c(alpha) reaches the saturated value: below
alpha_q a constant-sign minimizer wins, above it the odd one with the value
pi^2.  Each quotient Q_u(alpha) = (D + alpha*|S|^(2/q))/M is affine and
nondecreasing in alpha, so lambda_c(alpha) >= sigma holds exactly when
alpha >= F_sigma(u) = (sigma*M - D)/|S|^(2/q) for every u.  Hence both
couplings here are maxima of one quotient, found by one ascent
(``solver.threshold_ascent``): alpha_q = max_u F_sat(u) and the zero
crossing alpha_0 = max_u F_0(u).  The ascent's value is a certified lower
bound: F_sigma(u) <= alpha_sigma for every u.

The saturation ascent starts at cos(pi*x/2)^(2/q), the solver's bump raised
to ``power=2/q``, the paper's maximizer at both ends of its range: the
cosine at q = 2 and the flat-family member (1 + cos(pi*x))/2 at q = 1, where
the discrete ascent takes no step; in between it takes fewer steps than from
the bump at most q.  The zero-crossing ascent keeps the bump cos(pi*x/2),
the default power 1, from which it takes fewer steps than from that power.

The ascent's maximizer u certifies the lower end of the dichotomy without a
solve: Q_u(alpha_q) = sat, so below alpha_q the constant-sign u gives
lambda(alpha_q - d) <= Q_u(alpha_q - d) = sat - d*|S(u)|^(2/q)/M(u) < sat.
One full solve at alpha_q + tol/2, started from u, confirms the upper end.
lambda is nondecreasing in alpha, so its saturation there shows saturation
at every larger alpha, up to 2*pi^2.

The target is the sampled sine quotient rather than the analytic pi^2: it
is what the discrete odd branch saturates at, which cancels the O(h^2)
discretization bias that would otherwise shift the threshold.

At the zero crossing alpha_0 the quotient's numerator vanishes at the
minimizer, so -alpha_0 is the dual constant min int|w'|^2 / (int|w|^q)^(2/q).
``alpha_zero`` returns the ascent's value and judges nothing: verify
criterion 10 compares it with that constant's closed form
(``branches.alpha_zero_exact``), within the grid's O(h^2) bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ProblemParams, check_q, is_constant_sign, rayleigh_quotient
from .solver import ALPHA_TOP, SATURATION_BAND, SolverOptions, minimize, saturation_reference, threshold_ascent

_PI2 = math.pi**2

# The paper-level lower bound 3*pi^2/2^(1+2/q) is attained exactly at q = 2,
# where the O(h^2) discrete threshold sits a hair below it; the margin keeps
# the lower end of the search window valid at every resolution.  The
# ascent's value must lie in the window.
_BRACKET_MARGIN = 0.1


class BracketViolation(RuntimeError):
    """The dichotomy failed at a bracket or confirmation point (solver or grid fault)."""


@dataclass(frozen=True)
class CriticalResult:
    """Critical coupling at fixed q, with the bracket that confirms it.

    ``alpha_q`` is the ascent's value, a certified lower bound of the
    discrete critical coupling.  ``bracket`` is (alpha_q - tol/2, alpha_q +
    tol/2), rounded inward so that its width is at most the search's
    ``tol``: at its lower end the ascent's constant-sign maximizer has a
    quotient below saturation, at its upper end a full solve found a
    saturated eigenvalue.  ``solver_calls`` counts the ``minimize`` calls of
    the search, the one confirming solve; ``iterations`` sums the ascent's
    steps, from the bump cos(pi*x/2) raised to 2/q, and that solve's, so it
    holds the ascent's work too.  The sine wins the confirming solve, whose
    descent stops once it cannot come within the saturation band of the sine
    (``solver.minimize``).
    """

    alpha_q: float
    bracket: tuple[float, float]
    solver_calls: int
    iterations: int


def lower_bound(q: float) -> float:
    """Test-function lower bound 3*pi^2 / 2^(1+2/q) for the critical coupling; q must lie in [1, 2]."""
    check_q(q)
    return 3.0 * _PI2 / 2.0 ** (1.0 + 2.0 / q)


def alpha_critical(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> CriticalResult:
    """Locate the smallest coupling at which the eigenvalue saturates.

    The ascent of F_sat from the solver's bump cos(pi*x/2) raised to 2/q
    (``threshold_ascent(..., power=2/q)``, module docstring) returns its
    value alpha_q, a certified lower bound of the discrete critical coupling,
    and the constant-sign minimizer there.  alpha_q must lie in the search
    window [lower_bound(q) - 0.1, ALPHA_TOP = 2*pi^2], and the ascent must converge
    (SolverNonconvergence otherwise).  The dichotomy is then confirmed at alpha_q
    -/+ tol/2: below, the maximizer must be constant-sign with a quotient
    under saturation, which bounds lambda there without a solve; above, one
    full solve started from the maximizer must be saturated.  "Saturated"
    means lambda >= saturation_reference - ``solver.SATURATION_BAND``, the
    band within which ``minimize`` reports a tie.  lambda is nondecreasing in
    alpha, so the solve above also shows saturation at every larger alpha,
    2*pi^2 included.  A window or confirmation failure raises
    BracketViolation.
    ``tol`` must lie between 1e-4 and the width of the search window.
    """
    check_q(q)
    lo = lower_bound(q) - _BRACKET_MARGIN
    hi = ALPHA_TOP
    if not 1e-4 <= tol <= hi - lo:
        raise ValueError(f"tol must lie in [1e-4, {hi - lo!r}] (the search window), got {tol!r}")
    sat = saturation_reference(opts.n, q)
    up = threshold_ascent(opts.n, q, sat, power=2.0 / q)
    alpha_q = up.alpha
    if not lo <= alpha_q <= hi:
        raise BracketViolation(
            f"bracket violation: the ascent's alpha = {alpha_q:.6f} lies outside the search "
            f"window [{lo:.6f}, {hi:.6f}] (q = {q})"
        )
    # a hair inside alpha_q -/+ tol/2, so that the rounded pair is at most tol wide
    half = 0.5 * tol - math.ulp(alpha_q)
    below, above = alpha_q - half, alpha_q + half
    u = up.maximizer
    if not is_constant_sign(u.values) or rayleigh_quotient(u, ProblemParams(below, q)) >= sat - SATURATION_BAND:
        raise BracketViolation(
            f"bracket violation: no unsaturated constant-sign minimizer at alpha = {below:.6f} (q = {q})"
        )
    res_above = minimize(ProblemParams(above, q), opts, start=u)
    if res_above.lam < sat - SATURATION_BAND:
        raise BracketViolation(
            f"bracket violation: eigenvalue not saturated at alpha = {above:.6f} (q = {q})"
        )
    return CriticalResult(
        alpha_q=alpha_q,
        bracket=(below, above),
        solver_calls=1,
        iterations=up.iterations + res_above.iterations,
    )


def alpha_zero(q: float, opts: SolverOptions = SolverOptions()) -> float:
    """Coupling at which the eigenvalue crosses zero: the ascent's value.

    The ascent of F_0 = -D/|S|^(2/q) from the positive bump (module
    docstring) returns alpha_0 = -min_u D/|S|^(2/q), a certified lower bound
    of the discrete zero crossing; it must converge (SolverNonconvergence
    otherwise).  Verify criterion 10 compares it with the closed form
    ``branches.alpha_zero_exact(q)`` within h^2 relative, h = 2/(n + 1).
    """
    check_q(q)
    return threshold_ascent(opts.n, q, 0.0).alpha


def rescale_lambda(
    a: float, b: float, alpha: float, q: float, opts: SolverOptions = SolverOptions()
) -> float:
    """Eigenvalue on the interval (a, b) via the solve on (-1, 1).

        lambda(alpha, q; (a, b)) = (2/(b-a))^2 * lambda( ((b-a)/2)^(1+2/q) * alpha, q )

    The problem itself is posed on (-1, 1) only; this is where any other
    interval enters.  (a, b) must be a finite ordered pair, the factor
    ((b-a)/2)^(1+2/q) may neither underflow nor overflow, and neither may the
    rescaled coupling or the rescaled eigenvalue overflow.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"interval must be an ordered finite pair, got {(a, b)!r}")
    ProblemParams(alpha, q)
    unscalable = ValueError(f"interval {(a, b)!r} is too short or too long to rescale to (-1, 1)")
    scale = 0.5 * (b - a)
    try:
        factor = scale ** (1.0 + 2.0 / q)  # a power >= 2: scale**2 is nonzero and finite if this is
    except OverflowError:
        factor = math.inf
    if not (0.0 < factor < math.inf and math.isfinite(factor * alpha)):
        raise unscalable
    lam = float(minimize(ProblemParams(factor * alpha, q), opts).lam) / scale**2
    if not math.isfinite(lam):
        raise unscalable
    return lam
