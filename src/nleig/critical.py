"""Critical coupling location, zero-eigenvalue duality, interval rescaling.

The paper's dichotomy makes the critical coupling alpha_q the simple root of
lambda_c(alpha) = pi^2, where lambda_c is the constant-sign branch: below
alpha_q a constant-sign minimizer wins, above it the odd one with the
saturated value pi^2.  Both roots here (alpha_q and the zero crossing) are
found by Newton's method on that branch.  Its slope is free: by the envelope
theorem d lambda / d alpha = |S|^(2/q) at a normalized minimizer, and every
solve returns S as ``q_average``.  lambda_c is a minimum of quotients that
are each affine in alpha, so it is concave: every tangent lies above it, and
from a point left of the root each Newton step lands left of the root again.
The iterates climb to the root monotonically and never overshoot.

Each quotient is also nondecreasing in alpha (the nonlocal term
alpha*|S|^(2/q) has slope |S|^(2/q) >= 0), and so is their minimum lambda.
A saturated solve at some alpha therefore proves saturation at every larger
alpha: the confirming solve just above alpha_q covers the whole top of the
search window, and 2*pi^2 is solved only if Newton reaches it.

Both searches continue in alpha along the constant-sign branch, a
predictor-corrector scheme with the descent of ``minimize`` as the
corrector.  Their first solve descends cold from the positive bump.  Every
later solve starts its descent from the secant prediction in alpha through
the last two constant-sign minimizers, w1 + (alpha - alpha1)/(alpha1 -
alpha0)*(w1 - w0); from the last one while there is only one, or when the
secant changes sign.  Below alpha_q the winners are constant-sign, so the
kept pair lies on the branch that Newton follows; a saturated solve returns
the odd sine, which is not kept.

The target is the sampled sine quotient rather than the analytic pi^2: it
is what the discrete odd branch saturates at, which cancels the O(h^2)
discretization bias that would otherwise shift the threshold.

At the zero crossing alpha_0 the quotient's numerator vanishes at the
minimizer, so -alpha_0 is the dual constant min int|w'|^2 / (int|w|^q)^(2/q).
That constant has a closed form (``branches.alpha_zero_exact``), which checks
the Newton root up to the grid's O(h^2) bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .branches import alpha_zero_exact
from .core import GridFunction, ProblemParams, is_constant_sign
from .solver import _LAMBDA_TOL, SolverOptions, minimize, saturation_reference

_PI2 = math.pi**2

# The paper-level lower bound 3*pi^2/2^(1+2/q) is attained exactly at q = 2,
# where the O(h^2) discrete threshold sits a hair below it; the margin keeps
# the lower end of the search valid at every resolution.
_BRACKET_MARGIN = 0.1

# A descent stops once a step lowers the quotient by less than _LAMBDA_TOL,
# which leaves lambda above the discrete minimum by up to a few _LAMBDA_TOL
# (measured: at most 6e-12 at _LAMBDA_TOL = 1e-11).  Eigenvalues within this
# many _LAMBDA_TOL of the saturation value count as saturated.
_NOISE_FACTOR = 100.0

# Newton on the concave branch converges quadratically from the left: the
# searches here solve one to three Newton points.  A run of this many steps
# means the branch is not concave or the root is not in the bounds.
_NEWTON_STEPS = 20


class BracketViolation(RuntimeError):
    """The dichotomy failed at a bracket or confirmation point (solver or grid fault)."""


class DualityMismatch(RuntimeError):
    """The zero-crossing coupling is off minus the closed-form dual quotient minimum."""


@dataclass(frozen=True)
class CriticalResult:
    """Critical coupling at fixed q, with the pair of full solves that confirm it.

    ``bracket`` is (alpha_q - tol/2, alpha_q + tol/2), rounded inward so that
    its width is at most the search's ``tol``: the full solve at its lower end
    found a constant-sign, unsaturated minimizer, the one at its upper end a
    saturated eigenvalue.  ``solver_calls`` counts every ``minimize`` call of the
    search: the full solve that checks the lower end, the single-restart
    Newton solves on the constant-sign branch, the two full confirming solves,
    and a full solve at 2*pi^2 only when a Newton step is clamped there.
    """

    alpha_q: float
    bracket: tuple[float, float]
    saturation_value: float
    solver_calls: int


def lower_bound(q: float) -> float:
    """Test-function lower bound 3*pi^2 / 2^(1+2/q) for the critical coupling."""
    return 3.0 * _PI2 / 2.0 ** (1.0 + 2.0 / q)


def _continued(q: float, opts: SolverOptions):
    """``minimize`` at fixed q, each solve started from the last constant-sign minimizers.

    Keeps the last two constant-sign minimizers with their alpha (a solve at
    an alpha already kept replaces it); ``minimize`` reads a start through
    its left half, the even function it determines.  The first solve starts
    cold; a later one from the secant prediction through the two kept
    minimizers, from the last one while only one is kept, and from the last
    one too when the secant is not of constant sign.  A solve may take other
    options than ``opts``, but on the same grid.
    """
    kept = []  # (alpha, minimizer), oldest first

    def solve(alpha: float, o: SolverOptions = opts):
        start = kept[-1][1] if kept else None
        if len(kept) == 2:
            (a0, u0), (a1, u1) = kept
            secant = u1.values - u0.values
            secant *= (alpha - a1) / (a1 - a0)
            secant += u1.values
            if is_constant_sign(secant):
                start = GridFunction(secant)
        res = minimize(ProblemParams(alpha, q), o, start=start)
        if is_constant_sign(res.minimizer.values):
            kept[:] = [k for k in kept[-1:] if k[0] != alpha] + [(alpha, res.minimizer)]
        return res

    return solve


def _newton(solve, alpha, res, target, q, done, bounds):
    """Newton's method on lambda(alpha) = target along the constant-sign branch.

    ``res`` is the solve at ``alpha``.  Each step uses the envelope slope
    |S|^(2/q) of the last solve, and its end point is clamped to ``bounds``.
    The iteration ends when ``done(alpha, step, res)`` holds for the step
    proposed from the last solve; the returned root is that step's end point,
    which is not solved.
    """
    a, b = bounds
    for _ in range(_NEWTON_STEPS):
        step = float(target - res.lam) / abs(res.q_average) ** (2.0 / q)
        end = min(max(alpha + step, a), b)
        if done(alpha, step, res):
            return end
        alpha, res = end, solve(end)
    raise RuntimeError(
        f"Newton's method on the constant-sign branch took more than {_NEWTON_STEPS} "
        f"steps (q = {q}, alpha = {alpha:.6f}, lambda = {res.lam:.6f})"
    )


def alpha_critical(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> CriticalResult:
    """Locate the smallest coupling at which the eigenvalue saturates.

    A full solve first checks that the eigenvalue is unsaturated at the
    test-function lower bound minus a small margin; "saturated" means
    lambda >= saturation_reference - a band at the solver's noise level, tied
    to its stopping tolerance.  Newton's method then runs from there on
    lambda_c(alpha) = saturation_reference, where each step solves only the
    constant-sign branch (the ``positive_bump`` restart) and its slope is the
    envelope derivative |S|^(2/q).  By concavity the iterates increase and
    stay left of the root; they are clamped at 2*pi^2, and only a Newton point
    clamped there costs a full solve at 2*pi^2, which must be saturated.  The
    search stops when the proposed step is at most ``tol`` or a solve lands
    within the noise band of saturation.  Two full solves at alpha_q -/+ tol/2
    then confirm the dichotomy: constant-sign and unsaturated below, saturated
    above; otherwise BracketViolation is raised.  lambda is nondecreasing in
    alpha, so the saturated solve above alpha_q also shows saturation at every
    larger alpha, 2*pi^2 included.  The check at the lower end descends cold
    from the positive bump; every later solve starts its constant-sign
    descent from the secant prediction through the last two constant-sign
    minimizers (the module docstring has the rule).  ``tol`` must lie between
    1e-4 and the width of the search window.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    lo = lower_bound(q) - _BRACKET_MARGIN
    hi = 2.0 * _PI2
    if not 1e-4 <= tol <= hi - lo:
        raise ValueError(f"tol must lie in [1e-4, {hi - lo!r}] (the search window), got {tol!r}")
    sat = saturation_reference(opts.n, q)
    band = _NOISE_FACTOR * _LAMBDA_TOL
    branch_opts = replace(opts, starts=("positive_bump",))
    continued = _continued(q, opts)
    calls = 0

    def solve(alpha: float, o: SolverOptions = opts):
        nonlocal calls
        calls += 1
        return continued(alpha, o)

    def branch(alpha: float):
        # the upper end needs its own full solve only once Newton is clamped there
        if alpha == hi and solve(hi).lam < sat - band:
            raise BracketViolation(
                f"bracket violation: eigenvalue not saturated at alpha = {hi:.6f} (q = {q})"
            )
        return solve(alpha, branch_opts)

    res_lo = solve(lo)
    if res_lo.lam >= sat - band:
        raise BracketViolation(
            f"bracket violation: eigenvalue already saturated at alpha = {lo:.6f} (q = {q})"
        )
    alpha_q = _newton(
        branch, lo, res_lo, sat, q,
        lambda alpha, step, res: abs(step) <= tol or abs(res.lam - sat) <= band,
        (lo, hi),
    )
    # a hair inside alpha_q -/+ tol/2, so that the rounded pair is at most tol wide
    half = 0.5 * tol - math.ulp(alpha_q)
    below, above = alpha_q - half, alpha_q + half
    res_below = solve(below)
    if not is_constant_sign(res_below.minimizer.values) or res_below.lam >= sat - band:
        raise BracketViolation(
            f"bracket violation: no unsaturated constant-sign minimizer at alpha = {below:.6f} (q = {q})"
        )
    if solve(above).lam < sat - band:
        raise BracketViolation(
            f"bracket violation: eigenvalue not saturated at alpha = {above:.6f} (q = {q})"
        )
    return CriticalResult(
        alpha_q=alpha_q,
        bracket=(below, above),
        saturation_value=sat,
        solver_calls=calls,
    )


def alpha_zero(q: float, tol: float, opts: SolverOptions = SolverOptions()) -> float:
    """Coupling at which the eigenvalue crosses zero, cross-checked by duality.

    Runs Newton's method on lambda(alpha, q) = 0 from alpha = 0, where
    lambda = pi^2/4 > 0, with the envelope slope.  The solve at 0 descends
    cold from the positive bump; each later one starts from the secant
    prediction through the last two constant-sign minimizers, as in
    ``alpha_critical``.  By concavity the first step lands at or left of the
    root and the later ones climb to it from the left.
    It stops once |lambda| <= tol/4 at a solve and the next step is at most
    tol*|alpha|, and returns that step's end point.  Then -alpha must equal the
    dual quotient minimum tau = -``branches.alpha_zero_exact(q)`` to within
    (tol + h^2)*tau, h = 2/(n + 1): the h^2 term covers the discretization bias
    of the discrete minimum (measured below 0.26*h^2*tau).  Raises
    DualityMismatch on disagreement.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")

    solve = _continued(q, opts)
    root = _newton(
        solve, 0.0, solve(0.0), 0.0, q,
        lambda alpha, step, res: abs(res.lam) <= 0.25 * tol and abs(step) <= tol * abs(alpha),
        (-math.inf, 0.0),  # lambda(0, q) = pi^2/4 > 0
    )

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
