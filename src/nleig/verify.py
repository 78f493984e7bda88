"""Self-contained acceptance checks, shared by ``nleig verify`` and the test suite.

Each criterion yields its checks, with their tolerances pinned here.  A check
``(label, lhs, rhs)`` holds when lhs <= rhs; a strict A < B is yielded as
(A, nextafter(B, -inf)), exact for finite floats, and a value that could not
be computed as an lhs of +inf.  ``run_criterion`` alone decides: a criterion
passes when every check holds.  A FAIL detail lists the first four failing
checks with both sides; a PASS detail gives the number of checks and the one
nearest its bound, of largest lhs/rhs among those with rhs > 0 (else the
first).  Solver-heavy intermediates (eigenvalue solves, critical couplings)
are cached so criteria can share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branches import alpha_zero_exact, q1_eigenvalue_of_coupling, q1_flat_family, reconstruct_profile
from .core import EigenResult, ProblemParams, rayleigh_quotient
from .critical import alpha_critical, alpha_zero, lower_bound, rescale_lambda
from .period import arc_densities, half_period, monotonicity_gap, offset_positivity_margin
from .solver import SolverOptions, minimize

_PI = math.pi
_PI2 = math.pi**2
_N = 4000
_H = 2.0 / (_N + 1)
_CRIT_TOL = 0.04

# At alpha = 0, and at q = 2 below alpha_2 plus alpha, the discrete lambda is
# the grid's first Dirichlet eigenvalue (4/h^2)sin^2(pi*h/4).  Its band is the
# descent's stopping tolerance 1e-11 (solver._LAMBDA_TOL), taken relative;
# measured: at most 2.6e-16, the sine taking no step.
_GRID_LAMBDA = (4.0 / _H**2) * math.sin(0.25 * _PI * _H) ** 2
_GRID_BAND = 1e-11


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _solve(alpha: float, q: float) -> EigenResult:
    return minimize(ProblemParams(alpha, q), SolverOptions(n=_N))


@lru_cache(maxsize=None)
def _crit(q: float):
    return alpha_critical(q, _CRIT_TOL, SolverOptions(n=_N))


def _below(b: float) -> float:
    """The largest float below b: for finite a and b, a <= _below(b) exactly when a < b."""
    return math.nextafter(b, -math.inf)


def _c1_poincare_baseline():
    for q in (1.0, 1.5, 2.0):
        yield f"lambda(0,{q}) rel dev from the grid's eigenvalue", abs(_solve(0.0, q).lam - _GRID_LAMBDA) / _GRID_LAMBDA, _GRID_BAND
    # the band h^2 covers the grid's bias pi^2*h^2/48 from the continuum, measured 5.14e-8
    yield "lambda(0,1.5) rel dev from pi^2/4", abs(_solve(0.0, 1.5).lam - _PI2 / 4.0) / (_PI2 / 4.0), _H * _H


def _c2_closed_forms():
    for m in (0.0, 0.25, 0.5, 0.75, 1.0):
        yield f"half_period({m},1) rel dev from pi", abs(half_period(m, 1.0).value - _PI) / _PI, 1e-9
    for q in (1.0, 1.5, 2.0):
        yield f"half_period(1,{q}) rel dev from pi", abs(half_period(1.0, q).value - _PI) / _PI, 1e-9
    for k in range(1, 11):
        m = k / 10.0
        closed = 0.5 * _PI * math.sqrt((1.0 + m * m) / 2.0) * (1.0 / m + 1.0)
        yield f"half_period({m},2) rel dev from closed form", abs(half_period(m, 2.0).value - closed) / closed, 1e-8
    for q in (1.0, 1.25, 1.5, 1.75):
        closed = _PI / (2.0 - q)
        yield f"half_period(0,{q}) rel dev from pi/(2-q)", abs(half_period(0.0, q).value - closed) / closed, 1e-8


def _c3_monotonicity_positivity():
    ms = [k / 10.0 for k in range(1, 10)]
    ys = [k / 20.0 for k in range(1, 20)]
    qs = (1.0, 1.25, 1.5, 1.75, 2.0)
    u2, ln_y = 1.0 - np.array(ys), np.log(ys)
    two_u = 2.0 * np.sqrt(u2)
    for m in ms:
        # the half-period integrand (pos + neg)/(2u) at every height, one row per q
        rows = [(np.add(*arc_densities(u2, ln_y, m, q)) / two_u).tolist() for q in qs]
        for j, y in enumerate(ys):
            for q0, q1, a, b in zip(qs, qs[1:], rows, rows[1:]):
                yield f"integrand(m={m}, y={y}) at q={q0} below q={q1}", a[j], _below(b[j])
    for m in ms:
        for q in qs[1:]:
            hv = half_period(m, q)
            yield f"half_period({m},{q}): 10*error below value - pi", 10.0 * hv.error_estimate, _below(hv.value - _PI)
    for m in (0.3, 0.7):
        for q in (1.2, 1.9):
            yield f"|gap({m},{q},1)|", abs(monotonicity_gap(m, q, 1.0)), 1e-12
    for m in ms:
        for q in qs[1:]:
            for y in ys:
                yield f"gap({m},{q},{y}) positive", 0.0, _below(monotonicity_gap(m, q, y))
            yield f"offset margin({m},{q}) positive", 0.0, _below(offset_positivity_margin(m, q))


def _c4_critical_constants():
    # the grid's alpha_q, where the constant-sign branch reaches the sine's
    # mu_2: at q = 1 the secular equation of _q1_grid_lambda solved for alpha
    # at lam = mu_2, at q = 2 mu_2 - mu_1 (lambda = mu_1 + alpha); measured:
    # at most 3.6e-16 at q = 1 and 2.4e-16 at q = 2
    mu, tan2, sine = _grid_spectrum()
    grid = {1.0: -1.0 / (_H * _H * float(np.sum(1.0 / (tan2 * (mu - sine))))), 2.0: sine - float(mu[0])}
    for q, exact in ((1.0, 0.5 * _PI2), (2.0, 0.75 * _PI2)):
        res = _crit(q)
        yield f"alpha_critical({q}) rel dev from the grid's closed form", abs(res.alpha_q - grid[q]) / grid[q], _GRID_BAND
        # the band 2h^2 covers the grid's bias from the continuum: 0.82 h^2 at q = 1, 1.03 h^2 at q = 2
        yield f"alpha_critical({q}) rel dev from the continuum", abs(res.alpha_q - exact) / exact, 2.0 * _H * _H
        # measured: at most 7 iterations on q in [1, 2], 2 at q = 1
        yield f"alpha_critical({q}) iterations", res.iterations, 50


def _c5_threshold_transition():
    sine = _grid_spectrum()[2]
    for q in (1.5, 2.0):
        aq = _crit(q).alpha_q
        above = _solve(aq + 0.5, q)
        prof = above.profile
        # measured: 1.8e-16, the stored sine's value
        yield f"q={q}: lambda at alpha_q+0.5 rel dev from the sine's value", abs(above.lam - sine) / sine, _GRID_BAND
        yield f"q={q}: q_average at alpha_q+0.5", above.q_average, _below(1e-6)
        yield f"q={q}: odd defect at alpha_q+0.5", prof.odd_defect, _below(1e-3)
        # one crossing within 2h of the midpoint; any other number of zeros reads +inf
        yield f"q={q}: |zero| at alpha_q+0.5", abs(prof.zeros[0]) if len(prof.zeros) == 1 else math.inf, 2.0 * _H
        below = _solve(aq - 0.5, q)
        yield f"q={q}: sign change at alpha_q-0.5 (1 if so)", float(below.profile.sign_class == "sign_changing"), 0.0
        yield f"q={q}: lambda at alpha_q-0.5 below pi^2", below.lam, _below(_PI2)
    # the band h^2 covers the grid's bias pi^2*h^2/12 = 0.82 h^2 from the continuum
    lam = _solve(_crit(2.0).alpha_q + 0.5, 2.0).lam
    yield "q=2.0: lambda at alpha_q+0.5 rel dev from pi^2", abs(lam - _PI2) / _PI2, _H * _H


def _c6_q2_linear_branch():
    for alpha in (0.0, 1.0, 2.0, 4.0, 7.0):
        target = _GRID_LAMBDA + alpha
        yield f"lambda({alpha},2) rel dev from the grid's eigenvalue+alpha", abs(_solve(alpha, 2.0).lam - target) / target, _GRID_BAND
    # the band h^2 covers the grid's bias from the continuum, measured 1.96e-8
    target = _PI2 / 4.0 + 4.0
    yield "lambda(4.0,2) rel dev from pi^2/4+alpha", abs(_solve(4.0, 2.0).lam - target) / target, _H * _H


def _grid_spectrum(n: int = _N) -> tuple[np.ndarray, np.ndarray, float]:
    """The Dirichlet stencil K's eigenvalues mu_k = (4/h^2)sin^2(k*pi*h/4) on the n-node grid.

    Returns mu_k and tan^2(k*pi*h/4) for odd k, whose eigenvectors are the
    even ones, and mu_2, the value D/M of the sampled odd sine.
    """
    h = 2.0 / (n + 1)
    theta = np.arange(1, n + 1, 2) * (0.25 * _PI * h)
    return (4.0 / h**2) * np.sin(theta) ** 2, np.tan(theta) ** 2, (4.0 / h**2) * math.sin(0.5 * _PI * h) ** 2


def _q1_grid_lambda(alpha: float, n: int = _N) -> float:
    """The discrete lambda(alpha, 1): the smallest eigenvalue of K + alpha*h*11^T, K the Dirichlet stencil.

    At q = 1 the quotient of every v is (v.Kv + alpha*h*(1.v)^2)/(v.v).  K's
    eigenvalues are mu_k (``_grid_spectrum``), and the constant 1 meets
    only the even eigenvectors, odd k, with squared unit projection
    h*cot^2(k*pi*h/4).  The smallest eigenvalue is the odd mu_2, the sine's
    value, or the root of the secular equation 1 + alpha*h^2*sum_k
    cot^2(k*pi*h/4)/(mu_k - lam) = 0, found to the last bit by bisection:
    in (mu_1, mu_3) for alpha > 0, and in (mu_1 + 2*alpha, mu_1) for alpha < 0,
    since the update lowers no eigenvalue by more than |alpha|*h*n < 2|alpha|.
    """
    h = 2.0 / (n + 1)
    mu, tan2, sine = _grid_spectrum(n)
    weight = alpha * h * h / tan2
    # the secular function rises with lam for alpha > 0 and falls for alpha < 0
    lo, hi = (mu[0], mu[1]) if alpha > 0.0 else (mu[0] + 2.0 * alpha, mu[0])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if (1.0 + float(np.sum(weight / (mu - mid))) < 0.0) == (alpha > 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return min(float(mid), sine)


def _c7_q1_branch_oracle():
    # the grid's own eigenvalue, at _GRID_BAND; measured: at most 3.6e-13, at alpha = -5
    for alpha in (-5.0, 1.0, 2.5, 4.0):
        exact = _q1_grid_lambda(alpha)
        yield f"lambda({alpha},1) rel dev from the grid's secular root", abs(_solve(alpha, 1.0).lam - exact) / abs(exact), _GRID_BAND
    # the band h^2 covers the grid's bias from the continuum branch, measured 7.2e-8
    root = q1_eigenvalue_of_coupling(2.5)
    yield "lambda(2.5,1) rel dev from the branch root", abs(_solve(2.5, 1.0).lam - root) / root, _H * _H
    for avg in (0.0, 0.25, 0.5, 1.0):
        quot = rayleigh_quotient(q1_flat_family(avg, _N), ProblemParams(0.5 * _PI2, 1.0))
        yield f"flat family avg={avg}: quotient rel dev from pi^2", abs(quot - _PI2) / _PI2, 1e-6


def _c8_lipschitz_monotone():
    alphas = (-2.0, 0.0, 1.0, 3.0, 6.0, 9.0)
    for q in (1.0, 1.5, 2.0):
        lams = [_solve(a, q).lam for a in alphas]
        slope = 2.0 ** ((2.0 - q) / q)
        for a0, a1, l0, l1 in zip(alphas, alphas[1:], lams, lams[1:]):
            yield f"q={q}: lambda({a0}) - 1e-6 vs lambda({a1})", l0 - 1e-6, l1
            yield f"q={q}: increment over ({a0},{a1}) vs Lipschitz bound + 1e-6", l1 - l0, slope * (a1 - a0) + 1e-6


def _c9_lower_bound():
    for q in (1.25, 1.5, 1.75, 2.0):
        yield f"q={q}: lower bound - tol vs alpha_q", lower_bound(q) - _CRIT_TOL, _crit(q).alpha_q


def _c10_duality():
    # the band h^2 covers the grid's bias: measured -0.25*h^2 at q = 1, at most +0.21*h^2 for q in (1, 2]
    for q in (1.0, 1.5, 2.0):
        exact = alpha_zero_exact(q)
        yield f"alpha_zero({q}) rel dev from closed form", abs(alpha_zero(q, SolverOptions(n=_N)) - exact) / abs(exact), _H * _H


def _c11_rescaling():
    # on (-2, 2) the reference coupling is 2^(1+2/q)*alpha = 4 and lambda scales by 1/4
    for q, alpha, exact in ((2.0, 1.0, (_PI2 / 4.0 + 4.0) / 4.0), (1.0, 0.5, q1_eigenvalue_of_coupling(4.0) / 4.0)):
        rel = abs(rescale_lambda(-2.0, 2.0, alpha, q, SolverOptions(n=_N)) - exact) / exact
        yield f"q={q}: rescaled (-2,2) lambda rel dev from closed form", rel, 1e-6


def _c12_profile_oracle():
    # the band h^2 covers the rebuild's interpolation error, measured 6.6e-9 at both q
    for q in (1.5, 2.0):
        u = _solve(_crit(q).alpha_q + 0.5, q).minimizer.values
        rp = reconstruct_profile(1.0, q, _N).values
        rp = rp / math.sqrt(_H * float(rp @ rp))
        if _H * float(rp @ u) < 0.0:
            rp = -rp
        yield f"q={q}: L2 distance of the rebuild from the minimizer", math.sqrt(_H * float((rp - u) @ (rp - u))), _H * _H


CRITERIA = (
    (1, "poincare-baseline", _c1_poincare_baseline),
    (2, "half-period-closed-forms", _c2_closed_forms),
    (3, "monotonicity-positivity", _c3_monotonicity_positivity),
    (4, "critical-constants", _c4_critical_constants),
    (5, "threshold-transition", _c5_threshold_transition),
    (6, "q2-linear-branch", _c6_q2_linear_branch),
    (7, "q1-branch-oracle", _c7_q1_branch_oracle),
    (8, "lipschitz-monotone", _c8_lipschitz_monotone),
    (9, "alpha-q-lower-bound", _c9_lower_bound),
    (10, "zero-crossing-duality", _c10_duality),
    (11, "interval-rescaling", _c11_rescaling),
    (12, "solver-branch-equivalence", _c12_profile_oracle),
)


def run_criterion(cid: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == cid:
            checks = list(fn())
            failed = [c for c in checks if not c[1] <= c[2]]
            if failed:
                shown = "; ".join(f"{label}: {lhs:.8g} > {rhs:.8g}" for label, lhs, rhs in failed[:4])
                detail = f"{len(failed)} of {len(checks)} checks fail: {shown}"
            else:
                label, lhs, rhs = max(checks, key=lambda c: c[1] / c[2] if c[2] > 0 else -math.inf)
                detail = f"{len(checks)} checks hold, nearest its bound {label}: {lhs:.8g} <= {rhs:.8g}"
            return CriterionResult(num, name, not failed, detail)
    raise ValueError(f"unknown criterion id {cid}")


def run_all(only=None) -> list[CriterionResult]:
    """Run every criterion, or those whose ids are in ``only``; ValueError names any id outside 1-12."""
    ids = [num for num, _, _ in CRITERIA]
    if only is not None:
        unknown = sorted(set(only) - set(ids))
        if unknown:
            raise ValueError(f"unknown criterion ids {unknown}: valid ids are {ids[0]}-{ids[-1]}")
        ids = [num for num in ids if num in only]
    return [run_criterion(cid) for cid in ids]
