"""Variational solver: projected descent for the nonlocal Rayleigh quotient.

Minimizes  Q(u) = ( D(u) + alpha*|S(u)|^(2/q) ) / M(u)  over grid functions,
restarted once per branch of the minimizer dichotomy: a positive bump for the
constant-sign branch (alpha <= alpha_q) and an odd sine for the sign-changing
one (alpha > alpha_q); the smaller quotient wins.  The descent direction is
the quotient gradient preconditioned by the inverse Dirichlet stiffness
operator, which keeps the step count mesh-independent; a raw L2 gradient would
need O(1/h^2) iterations at the default resolution.  That inverse is applied
in closed form through the discrete Green's function of -u'' (two prefix
sums, no factorization).  One kernel evaluates each trial point once,
returning the quotient and its gradient from a single |v|^(q-1) and stencil
apply; the accepted trial's gradient starts the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import EigenResult, GridFunction, ProblemParams, analyze, apply_stiffness, quotient_terms
from .core import rayleigh_quotient
from .period import first_integral_coeffs

_START_TAGS = ("positive_bump", "odd_sine")

# discrete stand-in for the exact zero-average case S = 0, where gamma is 0:
# odd minimizers keep S of 1e-17 to a few 1e-10, constant-sign ones S near 1
_GAMMA_ZERO_TOL = 1e-8

# branch quotients closer than this are reported as a degenerate tie
_TIE_TOL = 1e-9

_ARMIJO = 1e-4


@dataclass(frozen=True)
class SolverOptions:
    """Grid size, iteration budget, stopping rule and restart list."""

    n: int = 4000
    max_iterations: int = 50000
    lambda_tol: float = 1e-11
    starts: tuple[str, ...] = _START_TAGS

    def __post_init__(self):
        if self.n < 100:
            raise ValueError(f"n must be at least 100, got {self.n}")
        if not self.lambda_tol > 0:
            raise ValueError("lambda_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
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

    Discrete Green's function of -u'', with N = n + 1 and 1-based i, j:

        u_i = h^2 * [ (N-i) * sum_{j<=i} j*r_j  +  i * sum_{j>i} (N-j)*r_j ] / N
    """
    n = r.shape[0]
    big_n = n + 1
    j = np.arange(1.0, big_n)
    head = np.cumsum(j * r)
    tail = np.zeros(n)
    tail[:-1] = np.cumsum(((big_n - j) * r)[:0:-1])[::-1]
    return (h * h / big_n) * ((big_n - j) * head + j * tail)


def quotient_and_gradient(v: np.ndarray, h: float, alpha: float, q: float) -> tuple[float, np.ndarray]:
    """The quotient Q(v) = (D + alpha*|S|^(2/q)) / (h*v.v) and its gradient in v.

    The gradient carries the nonlocal density 2*alpha*|S|^(2/q-1)*sign(S)*|v|^(q-1);
    at S = 0 the limit (q < 2) and the subgradient choice (q = 2) are both 0.
    """
    energy, p, s = quotient_terms(v, h, q)
    expo = 2.0 / q
    value = (energy + alpha * abs(s) ** expo) / (h * float(v @ v))
    g = apply_stiffness(v, h)
    if s != 0.0:
        g += alpha * abs(s) ** (expo - 1.0) * math.copysign(1.0, s) * p
    return value, 2.0 * (g - value * v)


def _descend(
    u: np.ndarray,
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]],
    normalize: Callable[[np.ndarray], np.ndarray],
    h: float,
    max_iterations: int,
    tol: float,
) -> tuple[np.ndarray, float, int, bool]:
    """Armijo-backtracked preconditioned descent on a normalized manifold.

    ``evaluate(v)`` gives (objective, gradient) and runs once per trial point.
    """
    u = normalize(u)
    q_val, g = evaluate(u)
    iterations = 0
    converged = False
    step_init = 1.0
    while iterations < max_iterations:
        # the half factor makes the unit step coincide with inverse iteration
        # on the local problem, which crushes high-frequency error modes
        d = 0.5 * _dirichlet_solve(g, h)
        slope = h * float(g @ d)
        if slope <= 0.0:
            converged = True  # gradient numerically zero
            break
        step = step_init
        accepted = False
        while step > 1e-14:
            trial = normalize(u - step * d)
            q_trial, g_trial = evaluate(trial)
            if q_trial <= q_val - _ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no admissible decrease left
            break
        step_init = min(1.0, 2.0 * step)  # warm-start the next search
        decrease = q_val - q_trial
        u, q_val, g = trial, q_trial, g_trial
        iterations += 1
        if decrease < tol:
            converged = True
            break
    return u, q_val, iterations, converged


def _starts(tag: str, x: np.ndarray, interval) -> np.ndarray:
    a, b = interval
    span = b - a
    if tag == "positive_bump":
        return np.sin(np.pi * (x - a) / span)
    # odd_sine: equals sin(pi*x) on the reference interval (-1, 1)
    return -np.sin(2.0 * np.pi * (x - a) / span)


def _el_residual_values(
    v: np.ndarray, lam: float, gamma: float, alpha: float, q: float, h: float
) -> float:
    r = apply_stiffness(v, h)  # the stencil computes -v'' directly
    r += alpha * gamma * np.abs(v) ** (q - 1.0)
    r -= lam * v
    return float(np.sqrt(np.mean(r * r)))


def minimize(params: ProblemParams, opts: SolverOptions = SolverOptions()) -> EigenResult:
    """Compute lambda(alpha, q) and a minimizer by projected descent.

    By default descends once from each branch of the dichotomy, a positive
    bump and an odd sine, and returns the restart with the smallest quotient;
    when the best constant-sign and best sign-changing quotients agree to
    within 1e-9 the constant-sign result is reported with the ``degenerate``
    flag set.  Raises SolverNonconvergence (carrying the result) if the winner
    hit the iteration cap.
    """
    a, b = params.interval
    n = opts.n
    h = (b - a) / (n + 1)
    x = np.linspace(a, b, n + 2)[1:-1]
    alpha, q = params.alpha, params.q
    evaluate = partial(quotient_and_gradient, h=h, alpha=alpha, q=q)

    def normalize(v):
        return v / math.sqrt(h * float(v @ v))

    runs = []
    total_iterations = 0
    for tag in opts.starts:
        u0 = _starts(tag, x, params.interval)
        u, q_val, iters, conv = _descend(
            u0, evaluate, normalize, h, opts.max_iterations, opts.lambda_tol
        )
        total_iterations += iters
        runs.append((q_val, tag, u, conv))

    runs.sort(key=lambda r: r[0])
    best = runs[0]
    if not best[3]:
        # a capped run that ties a converged one to rounding level is no winner
        near = [r for r in runs if r[3] and r[0] - best[0] <= 10.0 * opts.lambda_tol * max(1.0, abs(best[0]))]
        if near:
            best = near[0]
    degenerate = False
    profiles = {id(u): analyze(GridFunction(u, params.interval)) for _, _, u, _ in runs}
    const = [r for r in runs if profiles[id(r[2])].sign_class != "sign_changing"]
    changing = [r for r in runs if profiles[id(r[2])].sign_class == "sign_changing"]
    if const and changing and abs(const[0][0] - changing[0][0]) < _TIE_TOL:
        best = const[0]
        degenerate = True

    q_best, _, v, conv = best  # normalized by the descent
    # the flip below changes neither "sign_changing" nor m_bar, since analyze
    # orients a sign-changing input with its dominant hump positive
    profile = profiles[id(v)]
    s = quotient_terms(v, h, q)[2]
    if s < 0.0:
        v, s = -v, -s
    gamma = s ** (2.0 / q - 1.0) if s > _GAMMA_ZERO_TOL else 0.0

    minimizer = GridFunction(v, params.interval)
    c = None
    if profile.sign_class == "sign_changing":
        c = 0.5 * q_best * first_integral_coeffs(profile.m_bar, q).t

    result = EigenResult(
        lam=q_best,
        minimizer=minimizer,
        q_average=s,
        gamma=gamma,
        first_integral_constant=c,
        iterations=total_iterations,
        residual=_el_residual_values(v, q_best, gamma, alpha, q, h),
        restarts_used=len(opts.starts),
        converged=conv,
        degenerate=degenerate,
    )
    if not conv:
        raise SolverNonconvergence(
            f"nonconverged: iteration cap {opts.max_iterations} hit at "
            f"(alpha={alpha}, q={q})",
            result,
        )
    return result


def el_residual(result: EigenResult, params: ProblemParams) -> float:
    """RMS interior residual of -y'' + alpha*gamma*|y|^(q-1) = lambda*y.

    Uses the same difference stencil as the energy.
    """
    u = result.minimizer
    return _el_residual_values(
        u.values, result.lam, result.gamma, params.alpha, params.q, u.h
    )


def saturation_reference(n: int, q: float) -> float:
    """Discrete Rayleigh quotient of sampled sin(pi*x): the grid-consistent pi^2.

    The q-average of the sine vanishes by odd symmetry, so the value is the
    pure Dirichlet quotient and is independent of both alpha and q.
    """
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    u = GridFunction.from_callable(lambda x: np.sin(np.pi * x), n)
    return rayleigh_quotient(u, ProblemParams(alpha=0.0, q=q))
