"""Variational solver: projected descent for the nonlocal Rayleigh quotient.

Minimizes  Q(u) = ( D(u) + alpha*|S(u)|^(2/q) ) / M(u)  over grid functions.
The minimizer dichotomy leaves two candidates, and the smaller quotient wins.
A constant-sign minimizer is even (symmetric decreasing rearrangement keeps
M and |S| and lowers D), so that branch is one descent from a positive bump
that runs on the even half grid.  The sign-changing branch above alpha_q is
the odd sine, whose value D/M comes by symmetry and is stored per grid.

The descent works on w = v[:m], m = (n + 1)//2, which represents the even
grid function v; for odd n the last entry is the centre node x = 0.  A
full-grid product of two even vectors is the folded product
2*a.b - (n mod 2)*a[-1]*b[-1], and D = 2*(sum (w_{i+1} - w_i)^2 + w_0^2)/h for
either parity.  The stiffness stencil reflects at the last entry: that row
subtracts w[-1] once more for even n and w[-2] once more for odd n.

The descent direction is the quotient gradient preconditioned by the inverse
Dirichlet stiffness operator, which keeps the step count mesh-independent; a
raw L2 gradient would need O(1/h^2) iterations at the default resolution.
On the half grid that inverse is two accumulates: the flux of an even
solution vanishes at the centre, so it is the reversed prefix sum of the
right-hand side (the centre node's own entry halved for odd n), and the
solution is the prefix sum of the flux.  One kernel evaluates each trial
point once, returning the quotient and its gradient from a single |w|^(q-1)
and stencil apply; the accepted trial's gradient starts the next step.  The
quotient's kernel and the threshold's share the half-grid energy and stencil
(``_half_energy_and_stiffness``).  What
depends on the grid size alone, the half bump start, the odd sine and its
quotient, is built once per n and kept read-only.

On the constant-sign branch the descent converges linearly with one dominant
error mode; while the iterate keeps one sign and the last step was a full
one, each step first tries a depth-1 Anderson (secant) extrapolation of the
last two unit-step points, which removes that mode.  Sign-changing iterates,
which sit near the kink S = 0 of alpha*|S|^(2/q), take plain steps.

The same loop ascends the coupling threshold of a constant-sign function,
F_sigma(u) = (sigma*M - D)/|S|^(2/q).  Each quotient is affine in alpha, so
Q_u(alpha) >= sigma exactly when alpha >= F_sigma(u): the smallest alpha at
which lambda_c reaches sigma is max_u F_sigma(u), and every u certifies a
lower bound of it.  The ascent's step is the descent's with (alpha, Q)
replaced by (F_sigma(u), sigma), so its unit step is the same inverse
iteration; trials that leave the constant-sign functions are rejected.

Work that cannot lower the quotient by the stopping tolerance is skipped.
The sampled odd sine is the discrete odd minimizer and its S is 0 by
symmetry, so it takes its value D/M, the same for every alpha, and no step.
Backtracking stops before a step whose predicted decrease is at most the
tolerance.  A descent that reaches the iteration cap and loses to the sine
is reported by a RuntimeWarning.  Nothing is analysed: the result's gamma,
profile and residual are computed on first read.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import EigenResult, GridFunction, ProblemParams, apply_stiffness, check_q, is_constant_sign, nodes
from .core import quotient_terms

# Not called here (EigenResult.profile calls core.analyze); the name stays
# because perfbench/tracing.py counts analyze calls by rebinding it.
from .core import analyze

# |S| at or below this counts as the kink S = 0 of alpha*|S|^(2/q) in the
# gradient, where the limit (q < 2) and the subgradient choice (q = 2) are
# both 0: an iterate crossing S = 0 lands there only by rounding.  The value
# keeps alpha*|S|^(2/q) as computed, so the band moves no quotient, whatever
# alpha is; leaving the term's gradient out changes only the direction of
# the next step.  The odd sine never meets the band: its S is 0 by symmetry,
# not by computation.
_S_ROUNDING_BAND = 1e-14

# branch quotients closer than this are reported as a degenerate tie
_TIE_TOL = 1e-9

_ARMIJO = 1e-4

# a descent converges once a step lowers the quotient by less than this
_LAMBDA_TOL = 1e-11

# descent steps per call; a winner that reaches the cap raises
# SolverNonconvergence, a loser that reaches it a RuntimeWarning
_MAX_ITERATIONS = 50000


@dataclass(frozen=True)
class SolverOptions:
    """Interior grid size, at least 100.

    The stopping tolerance and the iteration cap are the module constants
    _LAMBDA_TOL and _MAX_ITERATIONS.
    """

    n: int = 4000

    def __post_init__(self):
        if self.n < 100:
            raise ValueError(f"n must be at least 100, got {self.n}")


class SolverNonconvergence(RuntimeError):
    """Raised when the winning descent hits the iteration cap; carries the result."""

    def __init__(self, message: str, result: EigenResult):
        super().__init__(message)
        self.result = result


def _fold(a: np.ndarray, b: np.ndarray, odd: int) -> float:
    """The full-grid product of two even vectors from their halves a and b."""
    full = 2.0 * float(a @ b)
    return full - float(a[-1] * b[-1]) if odd else full


def _unfold(w: np.ndarray, n: int) -> np.ndarray:
    """The n nodal values of the even grid function whose half is w."""
    return np.concatenate((w, w[::-1][n % 2 :]))


def _dirichlet_solve(r: np.ndarray, n: int) -> np.ndarray:
    """Solve (2*u_i - u_{i-1} - u_{i+1}) / h^2 = r_i, u_0 = u_{n+1} = 0, for even r and u.

    Both are given by their halves.  An even solution has no flux at the
    centre, so u = h^2 * cumsum(F) with F the reversed cumulative sum of r,
    less r[-1]/2 for odd n, where r[-1] is the centre node's entry.
    """
    h = 2.0 / (n + 1)
    f = np.add.accumulate(r[::-1])[::-1]
    if n % 2:
        f -= 0.5 * r[-1]
    u = np.add.accumulate(f)
    u *= h * h
    return u


def _half_energy_and_stiffness(w: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """The Dirichlet energy D of the even v with half w, and the half of stiffness v.

    The stencil's last row reflects: its mirror neighbour is w[-1] for even n
    and w[-2] for odd n.
    """
    h = 2.0 / (n + 1)
    d = w[1:] - w[:-1]
    energy = 2.0 * (float(d @ d) + w[0] * w[0]) / h
    g = apply_stiffness(w, h)
    g[-1] -= w[-1 - n % 2] / (h * h)
    return energy, g


def quotient_and_gradient(w: np.ndarray, n: int, alpha: float, q: float) -> tuple[float, np.ndarray, float]:
    """The quotient Q(v) = (D + alpha*|S|^(2/q)) / (h*v.v) of the even v with half w, its gradient and slope factor 1.

    The gradient is the half of the even gradient in v,
    2*(stiffness v + alpha*|S|^(2/q-1)*sign(S)*|v|^(q-1) - Q*v).  Inside the
    rounding band |S| <= _S_ROUNDING_BAND the nonlocal term is dropped:
    there S stands for the kink S = 0.  The value keeps alpha*|S|^(2/q) as
    computed.
    """
    h = 2.0 / (n + 1)
    odd = n % 2
    energy, g = _half_energy_and_stiffness(w, n)
    p = np.abs(w) ** (q - 1.0)
    s = h * _fold(w, p, odd)
    value = (energy + alpha * abs(s) ** (2.0 / q)) / (h * _fold(w, w, odd))
    if abs(s) > _S_ROUNDING_BAND:
        p *= alpha * abs(s) ** (2.0 / q - 1.0) * math.copysign(1.0, s)
        g += p
    g -= value * w
    g *= 2.0
    return value, g, 1.0


def threshold_and_gradient(w: np.ndarray, n: int, sigma: float, q: float) -> tuple[float, np.ndarray | None, float]:
    """-F_sigma(v) = (D - sigma*M)/|S|^(2/q) of the even v with half w, its step gradient and slope factor.

    The step gradient is the half of the even 2*(stiffness v +
    F*S^(2/q-1)*v^(q-1) - sigma*v): the quotient's gradient with (alpha, Q)
    replaced by (F, sigma).  The gradient of -F is that over
    |S|^(2/q), the slope factor.  F is even in v, so the ascent keeps to
    positive v: a v that is not of constant sign, or whose S is not above
    _S_ROUNDING_BAND (a negative v, or S = 0 to rounding), is outside it,
    with value +inf and no gradient.
    """
    h = 2.0 / (n + 1)
    odd = n % 2
    p = np.abs(w) ** (q - 1.0)
    s = h * _fold(w, p, odd)
    if s <= _S_ROUNDING_BAND or not is_constant_sign(w):
        return math.inf, None, 1.0
    energy, g = _half_energy_and_stiffness(w, n)
    weight = s ** (2.0 / q)
    value = (energy - sigma * h * _fold(w, w, odd)) / weight
    p *= -value * weight / s
    g += p
    g -= sigma * w
    g *= 2.0
    return value, g, 1.0 / weight


def _descend(w: np.ndarray, n: int, kernel) -> tuple[np.ndarray, float, int, int, bool]:
    """Armijo-backtracked preconditioned descent of an objective on the unit L2 sphere of even functions.

    ``w`` is the half of the start.  ``kernel(u)`` returns the objective at
    the half u, its step gradient g and the factor c that makes c*h*g.d the
    objective's first-order decrease along d: the quotient's kernel
    (``quotient_and_gradient``) or the threshold's (``threshold_and_gradient``).
    A trial of objective +inf is rejected.  Returns the half of the iterate,
    its objective, the steps taken, the kernel evaluations made and whether
    the descent converged.  The kernel runs once per trial point.  The
    descent converges when an accepted step lowers the objective by less
    than _LAMBDA_TOL, or when backtracking reaches a step whose first-order
    decrease step*slope is at most _LAMBDA_TOL: such a step could only end
    the descent, so it is not tried.  A start at the minimum costs one
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
    h = 2.0 / (n + 1)
    odd = n % 2
    u = w / math.sqrt(h * _fold(w, w, odd))
    q_val, g, rate = kernel(u)
    evaluations = 1
    iterations = 0
    converged = False
    step_init = 1.0
    prev = None  # (u, d) of the last iterate that a unit or extrapolated step left
    while iterations < _MAX_ITERATIONS:
        # the half factor makes the unit step coincide with inverse iteration
        # on the local problem, which crushes high-frequency error modes
        d = _dirichlet_solve(g, n)
        d *= 0.5
        slope = rate * h * _fold(g, d, odd)
        step = step_init
        accepted = False
        if prev is not None and slope > _LAMBDA_TOL and is_constant_sign(u):
            dd = d - prev[1]
            gamma = _fold(d, dd, odd) / _fold(dd, dd, odd)
            # G_k - G_{k-1} = (u_k - u_{k-1}) - (d_k - d_{k-1})
            trial = u - d
            trial -= gamma * ((u - prev[0]) - dd)
            trial /= math.sqrt(h * _fold(trial, trial, odd))
            q_trial, g_trial, rate_trial = kernel(trial)
            evaluations += 1
            accepted = q_trial <= q_val - _ARMIJO * slope
        if not accepted:
            while step * slope > _LAMBDA_TOL:
                trial = u - step * d
                trial /= math.sqrt(h * _fold(trial, trial, odd))
                q_trial, g_trial, rate_trial = kernel(trial)
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
        u, q_val, g, rate = trial, q_trial, g_trial, rate_trial
        iterations += 1
        if decrease < _LAMBDA_TOL:
            converged = True
            break
    return u, q_val, iterations, evaluations, converged


# bounded, since each entry keeps one n-vector and one half alive
@functools.lru_cache(maxsize=8)
def _grid(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only constants of the n-node grid.

    The half of the positive bump start, L2-normalized in the folded mass;
    the L2-normalized odd sine; and the sine's quotient D/M, its value for
    every alpha and q since its S is 0 by symmetry.
    """
    x = nodes(n)[1:-1]
    h = 2.0 / (n + 1)
    bump = np.sin(np.pi * (x[: (n + 1) // 2] + 1.0) / 2.0)
    bump /= math.sqrt(h * _fold(bump, bump, n % 2))
    sine = -np.sin(2.0 * np.pi * (x + 1.0) / 2.0)  # equals sin(pi*x)
    sine /= math.sqrt(h * float(sine @ sine))
    # D/M, the quotient at S = 0; the q given to quotient_terms shapes only S
    saturation = quotient_terms(sine, h, 2.0)[0] / (h * float(sine @ sine))
    for a in (bump, sine):
        a.flags.writeable = False
    return bump, sine, saturation


def minimize(
    params: ProblemParams, opts: SolverOptions = SolverOptions(), start: GridFunction | None = None
) -> EigenResult:
    """Compute lambda(alpha, q) and a minimizer by projected descent.

    Descends once on the even half grid from the positive bump, or from
    ``start`` if given, and compares the result with the stored value D/M of
    the odd sine (the exact discrete odd minimizer, by symmetry), which
    counts as one evaluation and no step.  Of ``start`` only the left half
    v[:(n + 1)//2] is read, as the even function it determines, so it must
    have opts.n nodes and be nonzero there (ValueError otherwise).

    The descent wins when it is constant-sign and within _TIE_TOL of the
    sine, with the ``degenerate`` flag set, and when its quotient is at most
    the sine's, unless it hit the iteration cap within
    10*_LAMBDA_TOL*max(1, |lambda|) of the sine; otherwise the sine wins.
    Nothing is analysed: the result's gamma, profile and residual are
    computed on first read.  The winner's values are read-only.  Raises
    SolverNonconvergence (carrying the result) if the winning descent hit
    the iteration cap, and warns (RuntimeWarning) if a losing one did.
    """
    n = opts.n
    h = 2.0 / (n + 1)
    bump, sine, saturation = _grid(n)
    if start is not None:
        if start.n != n:
            raise ValueError(f"start must have n = {n} nodes, got {start.n}")
        bump = start.values[: (n + 1) // 2]
        if not bump.any():
            raise ValueError("start must be nonzero on its left half")
    alpha, q = params.alpha, params.q
    kernel = functools.partial(quotient_and_gradient, n=n, alpha=alpha, q=q)
    w, lam, iterations, evaluations, converged = _descend(bump, n, kernel)
    evaluations += 1  # the sine's, evaluated rather than descended
    degenerate = bool(abs(lam - saturation) < _TIE_TOL) and is_constant_sign(w)
    # a capped descent that ties the sine to rounding level is no winner
    capped_tie = not converged and saturation - lam <= 10.0 * _LAMBDA_TOL * max(1.0, abs(lam))
    if degenerate or (lam <= saturation and not capped_tie):
        s = h * _fold(w, np.abs(w) ** (q - 1.0), n % 2)
        v = _unfold(w, n)
        if s < 0.0:
            v, s = -v, -s
    else:
        if not converged:
            warnings.warn(
                f"losing restart positive_bump hit the iteration cap {_MAX_ITERATIONS} at "
                f"(alpha={alpha}, q={q}, n={n})",
                RuntimeWarning,
                stacklevel=2,
            )
        lam, v, s, converged = saturation, sine.copy(), 0.0, True

    v.flags.writeable = False
    result = EigenResult(
        lam=lam,
        minimizer=GridFunction(v),
        params=params,
        q_average=s,
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
        degenerate=degenerate,
    )
    if not converged:
        raise SolverNonconvergence(
            f"nonconverged: iteration cap {_MAX_ITERATIONS} hit at "
            f"(alpha={alpha}, q={q})",
            result,
        )
    return result


class ThresholdAscent(NamedTuple):
    """The largest coupling threshold F_sigma found by ``threshold_ascent``, and where."""

    alpha: float  # F_sigma(maximizer), a lower bound of the smallest alpha with lambda_c >= sigma
    maximizer: GridFunction  # even, positive, L2-normalized; read-only
    iterations: int


def threshold_ascent(n: int, q: float, sigma: float) -> ThresholdAscent:
    """Maximize F_sigma(u) = (sigma*M - D)/|S|^(2/q) over even positive u on the n-node grid.

    lambda_c(alpha) >= sigma holds exactly when alpha >= F_sigma(u) for every
    u, so the maximum is the smallest alpha at which the constant-sign branch
    reaches sigma, and F_sigma of any iterate is a lower bound of it.  The
    ascent is ``_descend`` on -F_sigma from the positive bump, with the
    stopping tolerance _LAMBDA_TOL on the rise of F_sigma and the cap
    _MAX_ITERATIONS; it raises RuntimeError if it hits the cap.  At the
    maximizer u, the quotient Q_u(alpha) equals sigma: u is a constant-sign
    minimizer at the returned alpha.
    """
    w, value, iterations, _, converged = _descend(
        _grid(n)[0], n, functools.partial(threshold_and_gradient, n=n, sigma=sigma, q=q)
    )
    if not converged:
        raise RuntimeError(
            f"the ascent of the coupling threshold reached its iteration cap after "
            f"{iterations} steps (q = {q}, sigma = {sigma!r}, alpha = {-value:.6f})"
        )
    v = _unfold(w, n)
    v.flags.writeable = False
    return ThresholdAscent(-value, GridFunction(v), iterations)


def saturation_reference(n: int, q: float) -> float:
    """Discrete Rayleigh quotient of sampled sin(pi*x): the grid-consistent pi^2.

    The q-average of the sine vanishes by odd symmetry, so the value is the
    pure Dirichlet quotient D/M and is independent of both alpha and q.  It
    is the odd sine's value in ``minimize``.
    """
    if n < 100:
        raise ValueError(f"n must be at least 100, got {n}")
    check_q(q)
    return _grid(n)[2]
