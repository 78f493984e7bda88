"""Critical coupling location, zero-eigenvalue duality, interval rescaling.

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

Two full solves at alpha_q -/+ tol/2 then confirm the dichotomy.  lambda is
nondecreasing in alpha, so the saturated solve above alpha_q shows
saturation at every larger alpha, up to 2*pi^2.  Both continue in alpha
along the constant-sign branch, a predictor-corrector scheme with the
descent of ``minimize`` as the corrector.  The ascent's maximizer is the
constant-sign minimizer at alpha_q, and the lower solve starts there.  The
upper solve starts from the secant prediction through the two constant-sign
minimizers, w1 + (alpha - alpha1)/(alpha1 - alpha0)*(w1 - w0), or from the
lower one, w1, when the secant changes sign.

The target is the sampled sine quotient rather than the analytic pi^2: it
is what the discrete odd branch saturates at, which cancels the O(h^2)
discretization bias that would otherwise shift the threshold.

At the zero crossing alpha_0 the quotient's numerator vanishes at the
minimizer, so -alpha_0 is the dual constant min int|w'|^2 / (int|w|^q)^(2/q).
That constant has a closed form (``branches.alpha_zero_exact``), which checks
the ascent's value up to the grid's O(h^2) bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .branches import alpha_zero_exact
from .core import GridFunction, ProblemParams, check_q, is_constant_sign
from .solver import _LAMBDA_TOL, SolverOptions, minimize, saturation_reference, threshold_ascent

_PI2 = math.pi**2

# The paper-level lower bound 3*pi^2/2^(1+2/q) is attained exactly at q = 2,
# where the O(h^2) discrete threshold sits a hair below it; the margin keeps
# the lower end of the search window valid at every resolution.  The
# ascent's value must lie in the window.
_BRACKET_MARGIN = 0.1

# A descent stops once a step lowers the quotient by less than _LAMBDA_TOL,
# which leaves lambda above the discrete minimum by up to a few _LAMBDA_TOL
# (measured: at most 6e-12 at _LAMBDA_TOL = 1e-11).  Eigenvalues within this
# many _LAMBDA_TOL of the saturation value count as saturated.
_NOISE_FACTOR = 100.0


class BracketViolation(RuntimeError):
    """The dichotomy failed at a bracket or confirmation point (solver or grid fault)."""


class DualityMismatch(RuntimeError):
    """The zero-crossing coupling is off minus the closed-form dual quotient minimum."""


@dataclass(frozen=True)
class CriticalResult:
    """Critical coupling at fixed q, with the pair of full solves that confirm it.

    ``alpha_q`` is the ascent's value, a certified lower bound of the
    discrete critical coupling.  ``bracket`` is (alpha_q - tol/2, alpha_q +
    tol/2), rounded inward so that its width is at most the search's
    ``tol``: the full solve at its lower end found a constant-sign,
    unsaturated minimizer, the one at its upper end a saturated eigenvalue.
    ``solver_calls`` counts the ``minimize`` calls of the search, the two
    confirming solves; ``iterations`` sums the ascent's steps and the steps
    of those solves, so it holds the ascent's work too.
    """

    alpha_q: float
    bracket: tuple[float, float]
    saturation_value: float
    solver_calls: int
    iterations: int


def lower_bound(q: float) -> float:
    """Test-function lower bound 3*pi^2 / 2^(1+2/q) for the critical coupling."""
    return 3.0 * _PI2 / 2.0 ** (1.0 + 2.0 / q)


def _secant(a0: float, u0: GridFunction, a1: float, u1: GridFunction, alpha: float) -> GridFunction:
    """The secant prediction at alpha through (a0, u0) and (a1, u1), or u1 when it changes sign."""
    secant = u1.values - u0.values
    secant *= (alpha - a1) / (a1 - a0)
    secant += u1.values
    return GridFunction(secant) if is_constant_sign(secant) else u1


def alpha_critical(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> CriticalResult:
    """Locate the smallest coupling at which the eigenvalue saturates.

    The ascent of F_sat from the positive bump (module docstring) returns its
    value alpha_q, a certified lower bound of the discrete critical coupling,
    and the constant-sign minimizer there.  alpha_q must lie in the search
    window [lower_bound(q) - 0.1, 2*pi^2], and the ascent must converge
    (RuntimeError otherwise).  Two full solves at alpha_q -/+ tol/2 then
    confirm the dichotomy: constant-sign and unsaturated below, saturated
    above, where "saturated" means lambda >= saturation_reference - a band at
    the solver's noise level, tied to its stopping tolerance.  lambda is
    nondecreasing in alpha, so the solve above also shows saturation at every
    larger alpha, 2*pi^2 included.  The lower solve starts from the ascent's
    maximizer, the upper one from the secant through it and the lower
    minimizer, or from the lower minimizer when that secant changes sign.
    A window or confirmation failure raises BracketViolation.
    ``tol`` must lie between 1e-4 and the width of the search window.
    """
    check_q(q)
    lo = lower_bound(q) - _BRACKET_MARGIN
    hi = 2.0 * _PI2
    if not 1e-4 <= tol <= hi - lo:
        raise ValueError(f"tol must lie in [1e-4, {hi - lo!r}] (the search window), got {tol!r}")
    sat = saturation_reference(opts.n, q)
    band = _NOISE_FACTOR * _LAMBDA_TOL
    up = threshold_ascent(opts.n, q, sat)
    alpha_q = up.alpha
    if not lo <= alpha_q <= hi:
        raise BracketViolation(
            f"bracket violation: the ascent's alpha = {alpha_q:.6f} lies outside the search "
            f"window [{lo:.6f}, {hi:.6f}] (q = {q})"
        )
    # a hair inside alpha_q -/+ tol/2, so that the rounded pair is at most tol wide
    half = 0.5 * tol - math.ulp(alpha_q)
    below, above = alpha_q - half, alpha_q + half
    res_below = minimize(ProblemParams(below, q), opts, start=up.maximizer)
    if not is_constant_sign(res_below.minimizer.values) or res_below.lam >= sat - band:
        raise BracketViolation(
            f"bracket violation: no unsaturated constant-sign minimizer at alpha = {below:.6f} (q = {q})"
        )
    start = _secant(alpha_q, up.maximizer, below, res_below.minimizer, above)
    res_above = minimize(ProblemParams(above, q), opts, start=start)
    if res_above.lam < sat - band:
        raise BracketViolation(
            f"bracket violation: eigenvalue not saturated at alpha = {above:.6f} (q = {q})"
        )
    return CriticalResult(
        alpha_q=alpha_q,
        bracket=(below, above),
        saturation_value=sat,
        solver_calls=2,
        iterations=up.iterations + res_below.iterations + res_above.iterations,
    )


def alpha_zero(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> float:
    """Coupling at which the eigenvalue crosses zero, cross-checked by duality.

    The ascent of F_0 = -D/|S|^(2/q) from the positive bump (module
    docstring) returns alpha_0 = -min_u D/|S|^(2/q), a certified lower bound
    of the discrete zero crossing; it must converge (RuntimeError
    otherwise).  Then -alpha_0 must equal the dual quotient minimum tau =
    -``branches.alpha_zero_exact(q)`` to within (tol + h^2)*tau, h = 2/(n + 1):
    the h^2 term covers the discretization bias of the discrete minimum
    (measured below 0.26*h^2*tau).  Raises DualityMismatch on disagreement.
    """
    check_q(q)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")

    root = threshold_ascent(opts.n, q, 0.0).alpha
    tau = -alpha_zero_exact(q)
    h = 2.0 / (opts.n + 1)
    if abs(tau + root) > (tol + h * h) * tau:
        raise DualityMismatch(
            f"duality mismatch at q = {q}: zero crossing at alpha = {root:.8f} "
            f"but dual quotient minimum is {tau:.8f}"
        )
    return root


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
