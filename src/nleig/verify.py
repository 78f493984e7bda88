"""Self-contained acceptance checks, shared by ``nleig verify`` and the test suite.

Each criterion pins its numeric tolerances here; results carry a measured
detail string.  Solver-heavy intermediates (eigenvalue solves, critical
couplings) are cached so criteria can share them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branches import alpha_zero_exact, q1_eigenvalue_of_coupling, q1_flat_family, reconstruct_profile
from .core import EigenResult, ProblemParams, rayleigh_quotient
from .critical import DualityMismatch, alpha_critical, alpha_zero, lower_bound, rescale_lambda
from .period import half_period, integrand, monotonicity_gap, offset_positivity_margin
from .solver import SolverOptions, minimize

_PI = math.pi
_PI2 = math.pi**2
_N = 4000
_CRIT_TOL = 0.04


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


def _c1_poincare_baseline():
    worst = 0.0
    for q in (1.0, 1.5, 2.0):
        rel = abs(_solve(0.0, q).lam - _PI2 / 4.0) / (_PI2 / 4.0)
        worst = max(worst, rel)
    return worst <= 1e-4, f"max rel dev of lambda(0,q) from pi^2/4: {worst:.2e} (tol 1e-4)"


def _c2_closed_forms():
    fails = []
    worst = 0.0
    for m in (0.0, 0.25, 0.5, 0.75, 1.0):
        dev = abs(half_period(m, 1.0).value - _PI) / _PI
        worst = max(worst, dev)
        if dev > 1e-9:
            fails.append(f"half_period({m},1) off by {dev:.1e}")
    for q in (1.0, 1.5, 2.0):
        dev = abs(half_period(1.0, q).value - _PI) / _PI
        worst = max(worst, dev)
        if dev > 1e-9:
            fails.append(f"half_period(1,{q}) off by {dev:.1e}")
    for k in range(1, 11):
        m = k / 10.0
        closed = 0.5 * _PI * math.sqrt((1.0 + m * m) / 2.0) * (1.0 / m + 1.0)
        dev = abs(half_period(m, 2.0).value - closed) / closed
        worst = max(worst, dev)
        if dev > 1e-8:
            fails.append(f"half_period({m},2) off closed form by {dev:.1e}")
    for q in (1.0, 1.25, 1.5, 1.75):
        closed = _PI / (2.0 - q)
        dev = abs(half_period(0.0, q).value - closed) / closed
        worst = max(worst, dev)
        if dev > 1e-8:
            fails.append(f"half_period(0,{q}) off pi/(2-q) by {dev:.1e}")
    return not fails, "; ".join(fails) or f"all closed forms match, worst rel dev {worst:.1e}"


def _c3_monotonicity_positivity():
    fails = []
    ms = [k / 10.0 for k in range(1, 10)]
    ys = [k / 20.0 for k in range(1, 20)]
    qs = (1.0, 1.25, 1.5, 1.75, 2.0)
    for m in ms:
        for y in ys:
            vals = [integrand(m, q, y) for q in qs]
            if not all(b > a for a, b in zip(vals, vals[1:])):
                fails.append(f"integrand not strictly increasing in q at (m={m}, y={y})")
    for m in ms:
        for q in (1.25, 1.5, 1.75, 2.0):
            hv = half_period(m, q)
            if not hv.value - _PI > 10.0 * hv.error_estimate:
                fails.append(f"half_period({m},{q}) margin over pi too small")
    for m in (0.3, 0.7):
        for q in (1.2, 1.9):
            g1 = monotonicity_gap(m, q, 1.0)
            if abs(g1) > 1e-12:
                fails.append(f"gap({m},{q},1) = {g1:.1e} not ~0")
    for m in ms:
        for q in (1.25, 1.5, 1.75, 2.0):
            if not all(monotonicity_gap(m, q, y) > 0.0 for y in ys):
                fails.append(f"gap not positive at (m={m}, q={q})")
            if not offset_positivity_margin(m, q) > 0.0:
                fails.append(f"offset margin <= 0 at (m={m}, q={q})")
    return not fails, "; ".join(fails[:4]) or "integrand q-monotone; gap and offset margin positive on the grid"


def _c4_critical_constants():
    fails = []
    details = []
    for q, exact in ((1.0, 0.5 * _PI2), (2.0, 0.75 * _PI2)):
        res = _crit(q)
        rel = abs(res.alpha_q - exact) / exact
        details.append(f"q={q}: alpha={res.alpha_q:.5f} rel={rel:.1e} iterations={res.iterations}")
        if rel > 1e-5:  # measured 2.1e-7 at q = 1 and 2.6e-7 at q = 2
            fails.append(f"alpha_critical({q}) rel dev {rel:.1e} > 1e-5")
        if res.iterations > 50:  # measured at most 13, at q = 1, on q in [1, 2]
            fails.append(f"alpha_critical({q}) took {res.iterations} > 50 iterations")
    return not fails, "; ".join(fails + details) if fails else "; ".join(details)


def _c5_threshold_transition():
    fails = []
    h = 2.0 / (_N + 1)
    for q in (1.5, 2.0):
        aq = _crit(q).alpha_q
        above = _solve(aq + 0.5, q)
        prof = above.profile
        if abs(above.lam - _PI2) > 1e-4 * _PI2:
            fails.append(f"q={q}: lambda at alpha_q+0.5 off pi^2 by {abs(above.lam-_PI2)/_PI2:.1e}")
        if not above.q_average < 1e-6:
            fails.append(f"q={q}: q_average {above.q_average:.1e} >= 1e-6 above threshold")
        if not prof.odd_defect < 1e-3:
            fails.append(f"q={q}: odd defect {prof.odd_defect:.1e} >= 1e-3 above threshold")
        if len(prof.zeros) != 1 or abs(prof.zeros[0]) > 2.0 * h:
            fails.append(f"q={q}: zeros {prof.zeros} not a single midpoint crossing")
        below = _solve(aq - 0.5, q)
        prof_b = below.profile
        if prof_b.sign_class == "sign_changing":
            fails.append(f"q={q}: minimizer below threshold changes sign")
        if not below.lam < _PI2:
            fails.append(f"q={q}: lambda below threshold not < pi^2")
    return not fails, "; ".join(fails) or "saturation, odd symmetry and sign dichotomy hold at alpha_q +/- 0.5"


def _c6_q2_linear_branch():
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0, 4.0, 7.0):
        target = _PI2 / 4.0 + alpha
        worst = max(worst, abs(_solve(alpha, 2.0).lam - target) / target)
    return worst <= 1e-4, f"max rel dev of lambda(alpha,2) from pi^2/4+alpha: {worst:.2e}"


def _c7_q1_branch_oracle():
    fails = []
    for alpha in (1.0, 2.5, 4.0):
        root = q1_eigenvalue_of_coupling(alpha)
        lam_solver = _solve(alpha, 1.0).lam
        rel = abs(lam_solver - root) / root
        if rel > 1e-3:
            fails.append(f"alpha={alpha}: solver {lam_solver:.6f} vs branch root {root:.6f} rel {rel:.1e}")
    for avg in (0.0, 0.25, 0.5, 1.0):
        quot = rayleigh_quotient(q1_flat_family(avg, _N), ProblemParams(0.5 * _PI2, 1.0))
        rel = abs(quot - _PI2) / _PI2
        if rel > 1e-6:
            fails.append(f"flat family avg={avg}: quotient rel dev {rel:.1e} > 1e-6")
    return not fails, "; ".join(fails) or "variational lambda matches the q=1 branch; flat family quotients are pi^2"


def _c8_lipschitz_monotone():
    fails = []
    alphas = (-2.0, 0.0, 1.0, 3.0, 6.0, 9.0)
    for q in (1.0, 1.5, 2.0):
        lams = [_solve(a, q).lam for a in alphas]
        slope = 2.0 ** ((2.0 - q) / q)
        for (a0, l0), (a1, l1) in zip(zip(alphas, lams), zip(alphas[1:], lams[1:])):
            if l1 < l0 - 1e-6:
                fails.append(f"q={q}: lambda decreases from alpha={a0} to {a1}")
            if l1 - l0 > slope * (a1 - a0) + 1e-6:
                fails.append(f"q={q}: increment over ({a0},{a1}) beats Lipschitz bound")
    return not fails, "; ".join(fails) or "lambda nondecreasing with Lipschitz-bounded increments"


def _c9_lower_bound():
    fails = []
    for q in (1.25, 1.5, 1.75, 2.0):
        bound = lower_bound(q)
        aq = _crit(q).alpha_q
        if not aq >= bound - _CRIT_TOL:
            fails.append(f"q={q}: alpha_q {aq:.5f} below bound {bound:.5f} - tol")
    return not fails, "; ".join(fails) or "computed alpha_q respects the test-function lower bound"


def _c10_duality():
    fails = []
    vals = []
    for q in (1.0, 1.5, 2.0):
        exact = alpha_zero_exact(q)
        try:
            root = alpha_zero(q, SolverOptions(n=_N))
        except DualityMismatch as exc:
            fails.append(str(exc))
            continue
        rel = abs(root - exact) / abs(exact)
        vals.append(f"q={q}: alpha_0={root:.7f} rel {rel:.1e} from closed form")
        if rel > 1e-6:
            fails.append(f"q={q}: alpha_0 {root:.7f} off closed form {exact:.7f} by rel {rel:.1e} > 1e-6")
    return not fails, "; ".join(fails) or "; ".join(vals)


def _c11_rescaling():
    # on (-2, 2) the reference coupling is 2^(1+2/q)*alpha = 4 and lambda scales by 1/4
    worst = 0.0
    dists = []
    for q, alpha, exact in ((2.0, 1.0, (_PI2 / 4.0 + 4.0) / 4.0), (1.0, 0.5, q1_eigenvalue_of_coupling(4.0) / 4.0)):
        rel = abs(rescale_lambda(-2.0, 2.0, alpha, q, SolverOptions(n=_N)) - exact) / exact
        worst = max(worst, rel)
        dists.append(f"q={q}: rel {rel:.1e}")
    return worst <= 1e-6, "rescaled (-2,2) lambda vs closed forms (tol 1e-6): " + "; ".join(dists)


def _c12_profile_oracle():
    fails = []
    h = 2.0 / (_N + 1)
    for q in (1.5, 2.0):
        aq = _crit(q).alpha_q
        u = _solve(aq + 0.5, q).minimizer.values
        rp = reconstruct_profile(1.0, q, _N).values
        rp = rp / math.sqrt(h * float(rp @ rp))
        if h * float(rp @ u) < 0.0:
            rp = -rp
        dist = math.sqrt(h * float((rp - u) @ (rp - u)))
        if dist > 1e-3:
            fails.append(f"q={q}: L2 distance {dist:.1e} > 1e-3")
    return not fails, "; ".join(fails) or "reconstructed depth-1 profile matches the saturated minimizer"


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
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            return CriterionResult(cid=num, name=name, passed=passed, detail=f"{detail} [{elapsed:.1f}s]")
    raise ValueError(f"unknown criterion id {cid}")


def run_all(only=None) -> list[CriterionResult]:
    ids = [num for num, _, _ in CRITERIA if only is None or num in only]
    return [run_criterion(cid) for cid in ids]
