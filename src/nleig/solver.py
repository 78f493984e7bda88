"""Variational solver: projected descent for the nonlocal Rayleigh quotient.

Minimizes  Q(u) = ( D(u) + alpha*|S(u)|^(2/q) ) / M(u)  over grid functions,
restarted once per branch of the minimizer dichotomy: a positive bump for the
constant-sign branch (alpha <= alpha_q) and an odd sine for the sign-changing
one (alpha > alpha_q); the smaller quotient wins.  The descent direction is
the quotient gradient preconditioned by the inverse Dirichlet stiffness
operator, which keeps the step count mesh-independent; a raw L2 gradient would
need O(1/h^2) iterations at the default resolution.  That inverse is applied
in closed form through the discrete Green's function of -u'': a double prefix
sum of the right-hand side and one weighted correction, no factorization.
One kernel evaluates each trial point once, returning the quotient and its
gradient from a single |v|^(q-1) and stencil apply; the accepted trial's
gradient starts the next step.  What depends on the grid size alone, the
Green's weights and the normalized start vectors, is built once per n and
kept read-only.

On the constant-sign branch the descent converges linearly with one dominant
error mode; while the iterate keeps one sign and the last step was a full
one, each step first tries a depth-1 Anderson (secant) extrapolation of the
last two unit-step points, which removes that mode.  Sign-changing iterates,
which sit near the kink S = 0 of alpha*|S|^(2/q), take plain steps.

Work that cannot lower the quotient by the stopping tolerance is skipped.
An S inside a rounding band counts as the kink S = 0, so the sampled odd
sine, already the discrete odd minimizer, is a stationary point: the odd
restart evaluates it once and takes no step.  Backtracking stops before a
step whose predicted decrease is at most the tolerance, and restarts are
told apart by the constant-sign test alone, so only the winner is analysed
in full.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import EigenResult, GridFunction, ProblemParams, analyze, apply_stiffness, is_constant_sign
from .core import quotient_terms

_START_TAGS = ("positive_bump", "odd_sine")

# discrete stand-in for the exact zero-average case S = 0, where gamma is 0:
# odd minimizers keep S of 1e-17 to a few 1e-10, constant-sign ones S near 1
_GAMMA_ZERO_TOL = 1e-8

# |S| at or below this counts as the kink S = 0 of alpha*|S|^(2/q).  The sampled
# odd sine carries a rounding residue S of about 1e-17 at n = 4000; odd winners
# reached by descent keep S of up to a few 1e-10, and their gradient term with
# it.  Inside the band, on a normalized v with |alpha| <= 2*pi^2, the whole
# nonlocal term alpha*|S|^(2/q) is at most 2e-13, below _LAMBDA_TOL, so
# leaving its gradient out moves lambda by less than that.
_S_ROUNDING_BAND = 1e-14

# branch quotients closer than this are reported as a degenerate tie
_TIE_TOL = 1e-9

_ARMIJO = 1e-4

# a descent converges once a step lowers the quotient by less than this
_LAMBDA_TOL = 1e-11

# descent steps per restart; a winner that reaches the cap raises SolverNonconvergence
_MAX_ITERATIONS = 50000


@dataclass(frozen=True)
class SolverOptions:
    """Interior grid size and the restarts to descend from.

    ``starts`` is a nonempty subset of ("positive_bump", "odd_sine"); one
    restart per branch of the dichotomy by default.  The stopping tolerance
    and the iteration cap are the module constants _LAMBDA_TOL and
    _MAX_ITERATIONS.
    """

    n: int = 4000
    starts: tuple[str, ...] = _START_TAGS

    def __post_init__(self):
        if self.n < 100:
            raise ValueError(f"n must be at least 100, got {self.n}")
        starts = tuple(self.starts)
        object.__setattr__(self, "starts", starts)
        unknown = set(starts) - set(_START_TAGS)
        if unknown or not starts:
            raise ValueError(f"starts must be a nonempty subset of {_START_TAGS}, got {starts}")


class SolverNonconvergence(RuntimeError):
    """Raised when the winning restart hits the iteration cap; carries the result."""

    def __init__(self, message: str, result: EigenResult):
        super().__init__(message)
        self.result = result


def _dirichlet_solve(r: np.ndarray, h: float) -> np.ndarray:
    """Solve (2*u_i - u_{i-1} - u_{i+1}) / h^2 = r_i with u_0 = u_{n+1} = 0.

    Discrete Green's function of -u'' as a double prefix sum.  With 1-based
    i and C_k = sum_{m<=k} sum_{j<=m} r_j (so C_0 = 0, and C_n equals
    sum_j (n+1-j)*r_j):

        u_i = h^2 * ( i/(n+1) * C_n  -  C_{i-1} )
    """
    weights = _grid(r.shape[0])[0]
    c = np.add.accumulate(r)
    np.add.accumulate(c, out=c)
    u = weights * c[-1]
    u[1:] -= c[:-1]
    u *= h * h
    return u


def _quotient(v: np.ndarray, h: float, alpha: float, q: float) -> tuple[float, np.ndarray, float]:
    """The quotient Q(v) = (D + alpha*|S|^(2/q)) / (h*v.v), with |v|^(q-1) and S."""
    energy, p, s = quotient_terms(v, h, q)
    return (energy + alpha * abs(s) ** (2.0 / q)) / (h * float(v @ v)), p, s


def quotient_and_gradient(v: np.ndarray, h: float, alpha: float, q: float) -> tuple[float, np.ndarray]:
    """The quotient Q(v) = (D + alpha*|S|^(2/q)) / (h*v.v) and its gradient in v.

    The gradient carries the nonlocal density 2*alpha*|S|^(2/q-1)*sign(S)*|v|^(q-1).
    Inside the rounding band |S| <= _S_ROUNDING_BAND it is dropped: there S
    stands for the kink S = 0, where the limit (q < 2) and the subgradient
    choice (q = 2) are both 0.  The value keeps alpha*|S|^(2/q) as computed.
    """
    value, p, s = _quotient(v, h, alpha, q)
    g = apply_stiffness(v, h)
    if abs(s) > _S_ROUNDING_BAND:
        p *= alpha * abs(s) ** (2.0 / q - 1.0) * math.copysign(1.0, s)
        g += p
    g -= value * v
    g *= 2.0
    return value, g


def _descend(u: np.ndarray, h: float, alpha: float, q: float) -> tuple[np.ndarray, float, int, int, bool]:
    """Armijo-backtracked preconditioned descent of the quotient on the unit L2 sphere.

    Returns the iterate, its quotient, the steps taken, the kernel
    evaluations made and whether the descent converged.
    ``quotient_and_gradient`` runs once per trial point.  The descent
    converges when an accepted step lowers the quotient by less than
    _LAMBDA_TOL, or when backtracking reaches a step whose first-order
    decrease step*slope is at most _LAMBDA_TOL: such a step could only end the
    descent, so it is not tried.  A start at the minimum costs one
    evaluation.  At most _MAX_ITERATIONS steps are taken.

    On a constant-sign iterate the unit step converges linearly with one
    dominant error mode, which a depth-1 Anderson (secant) extrapolation
    removes (Walker & Ni 2011).  With G_k = u_k - d_k the unit-step point
    and d_k the scaled preconditioned gradient, the step first tries
    G_k - gamma*(G_k - G_{k-1}), gamma = d_k.(d_k - d_{k-1}) / |d_k - d_{k-1}|^2,
    and keeps it under the unit step's Armijo test; otherwise the line
    search runs as without it, at the cost of one more evaluation.  The
    history holds only across unit or extrapolated steps.  Sign-changing
    iterates never extrapolate: near the kink S = 0 of alpha*|S|^(2/q) a
    secant through two sides of it can send the descent astray.
    """
    u = u / math.sqrt(h * float(u @ u))
    q_val, g = quotient_and_gradient(u, h, alpha, q)
    evaluations = 1
    iterations = 0
    converged = False
    step_init = 1.0
    prev = None  # (u, d) of the last iterate that a unit or extrapolated step left
    while iterations < _MAX_ITERATIONS:
        # the half factor makes the unit step coincide with inverse iteration
        # on the local problem, which crushes high-frequency error modes
        d = _dirichlet_solve(g, h)
        d *= 0.5
        slope = h * float(g @ d)
        step = step_init
        accepted = False
        if prev is not None and slope > _LAMBDA_TOL and is_constant_sign(u):
            dd = d - prev[1]
            gamma = float(d @ dd) / float(dd @ dd)
            # G_k - G_{k-1} = (u_k - u_{k-1}) - (d_k - d_{k-1})
            trial = u - d
            trial -= gamma * ((u - prev[0]) - dd)
            trial /= math.sqrt(h * float(trial @ trial))
            q_trial, g_trial = quotient_and_gradient(trial, h, alpha, q)
            evaluations += 1
            accepted = q_trial <= q_val - _ARMIJO * slope
        if not accepted:
            while step * slope > _LAMBDA_TOL:
                trial = u - step * d
                trial /= math.sqrt(h * float(trial @ trial))
                q_trial, g_trial = quotient_and_gradient(trial, h, alpha, q)
                evaluations += 1
                if q_trial <= q_val - _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                converged = True  # no step accepted: no decrease above tol left
                break
        step_init = min(1.0, 2.0 * step)  # warm-start the next search
        prev = (u, d) if step == 1.0 else None
        decrease = q_val - q_trial
        u, q_val, g = trial, q_trial, g_trial
        iterations += 1
        if decrease < _LAMBDA_TOL:
            converged = True
            break
    return u, q_val, iterations, evaluations, converged


def _starts(tag: str, x: np.ndarray) -> np.ndarray:
    if tag == "positive_bump":
        return np.sin(np.pi * (x + 1.0) / 2.0)
    # odd_sine: equals sin(pi*x)
    return -np.sin(2.0 * np.pi * (x + 1.0) / 2.0)


# bounded, since each entry keeps three n-vectors alive
@functools.lru_cache(maxsize=8)
def _grid(n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read-only constants of the n-node grid: the Green's weights i/(n+1),
    i = 1..n, and the L2-normalized start vector of each tag in _START_TAGS."""
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    h = 2.0 / (n + 1)
    weights = np.arange(1.0, n + 1) / (n + 1)
    starts = {tag: _starts(tag, x) for tag in _START_TAGS}
    for u in starts.values():
        u /= math.sqrt(h * float(u @ u))
    for a in (weights, *starts.values()):
        a.flags.writeable = False
    return weights, starts


def _euler_lagrange_residual(
    v: np.ndarray, lam: float, gamma: float, alpha: float, q: float, h: float
) -> float:
    """RMS interior residual of -v'' + alpha*gamma*|v|^(q-1) = lam*v, by the energy's stencil."""
    r = apply_stiffness(v, h)  # the stencil computes -v'' directly
    r += alpha * gamma * np.abs(v) ** (q - 1.0)
    r -= lam * v
    return float(np.sqrt(np.mean(r * r)))


def minimize(params: ProblemParams, opts: SolverOptions = SolverOptions()) -> EigenResult:
    """Compute lambda(alpha, q) and a minimizer by projected descent.

    By default takes one restart per branch of the dichotomy, a descent from
    a positive bump and the evaluated odd sine (the exact discrete odd
    minimizer, 0 steps), and returns the restart with the smallest quotient;
    when the best constant-sign and best sign-changing quotients agree to
    within 1e-9 the constant-sign result is reported with the ``degenerate``
    flag set.  Restarts are classified by the constant-sign test alone
    (``core.is_constant_sign``); only the winner is analysed in full.  Raises
    SolverNonconvergence (carrying the result) if the winner hit the
    iteration cap.
    """
    n = opts.n
    h = 2.0 / (n + 1)
    starts = _grid(n)[1]
    alpha, q = params.alpha, params.q
    runs = []
    total_iterations = 0
    for tag in opts.starts:
        if tag == "odd_sine":
            # the sampled sine is the discrete odd minimizer: a descent from it
            # stops at its first evaluation, so evaluate it instead
            u = starts[tag].copy()
            q_val, iters, conv = _quotient(u, h, alpha, q)[0], 0, True
        else:
            u, q_val, iters, _, conv = _descend(starts[tag], h, alpha, q)
        total_iterations += iters
        runs.append((q_val, u, conv, is_constant_sign(u)))

    runs.sort(key=lambda r: r[0])
    best = runs[0]
    if not best[2]:
        # a capped run that ties a converged one to rounding level is no winner
        near = [r for r in runs if r[2] and r[0] - best[0] <= 10.0 * _LAMBDA_TOL * max(1.0, abs(best[0]))]
        if near:
            best = near[0]
    degenerate = False
    const = [r for r in runs if r[3]]
    changing = [r for r in runs if not r[3]]
    if const and changing and abs(const[0][0] - changing[0][0]) < _TIE_TOL:
        best = const[0]
        degenerate = True

    q_best, v, conv, _ = best  # normalized by the descent
    s = quotient_terms(v, h, q)[2]
    if s < 0.0:
        v, s = -v, -s
    gamma = s ** (2.0 / q - 1.0) if s > _GAMMA_ZERO_TOL else 0.0

    minimizer = GridFunction(v)
    result = EigenResult(
        lam=q_best,
        minimizer=minimizer,
        profile=analyze(minimizer),
        q_average=s,
        gamma=gamma,
        iterations=total_iterations,
        residual=_euler_lagrange_residual(v, q_best, gamma, alpha, q, h),
        converged=conv,
        degenerate=degenerate,
    )
    if not conv:
        raise SolverNonconvergence(
            f"nonconverged: iteration cap {_MAX_ITERATIONS} hit at "
            f"(alpha={alpha}, q={q})",
            result,
        )
    return result


def saturation_reference(n: int, q: float) -> float:
    """Discrete Rayleigh quotient of sampled sin(pi*x): the grid-consistent pi^2.

    The q-average of the sine vanishes by odd symmetry, so the value is the
    pure Dirichlet quotient and is independent of both alpha and q.  It is
    the quotient of the stored ``odd_sine`` start, the vector the odd
    restart of ``minimize`` evaluates.
    """
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    return _quotient(_grid(n)[1]["odd_sine"], 2.0 / (n + 1), 0.0, q)[0]
