"""The benchmark workloads: inputs made from a seed, the timed operation, its oracles.

Each workload hands out its inputs in cycles.  Cycle k draws its jitter from
the generator seeded with (seed, k), so the same seed gives the same input
sequence.  Every timed input is drawn from an interval, so no input repeats
between cycles and a result cache in the program would see distinct keys;
the closed forms at fixed inputs are checked once per run, untimed, in
``static_failures``.  README.md in this directory says why each workload
exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from nleig import (
    GridFunction,
    ProblemParams,
    SolverOptions,
    analyze,
    branch_point,
    half_period,
    minimize,
    q1_coupling_of_eigenvalue,
    rayleigh_quotient,
    reconstruct_profile,
    saturation_reference,
)
from nleig.critical import alpha_critical, lower_bound

from tracing import NullTracer

PI = math.pi
PI2 = math.pi**2

# alpha_q at n = 4000 and bracket width 0.04, measured with the shipped solver
# options; only used to place the upper end of each sweep row near 1.3*alpha_q
_ALPHA_Q = (
    (1.0, 4.9407),
    (1.1, 5.3049),
    (1.2, 5.6450),
    (1.3, 5.9611),
    (1.5, 6.4706),
    (1.7, 6.9042),
    (1.8, 7.0959),
    (1.9, 7.2479),
    (2.0, 7.4115),
)


def approx_alpha_q(q: float) -> float:
    qs, alphas = zip(*_ALPHA_Q)
    return float(np.interp(q, qs, alphas))


def _draw(rng, cell: tuple[float, float]) -> float:
    lo, hi = cell
    return lo + (hi - lo) * float(rng.random())


class Workload:
    """Inputs, timed call and oracles of one workload.

    ``run`` is one timed operation and returns its output; ``check`` returns,
    per operation, None or the reason it missed its oracle.
    """

    name = ""
    # modules of src/nleig no timed call may enter; the traced run checks this
    bypasses: tuple[str, ...] = ()

    def __init__(self, seed: int, toy: bool = False):
        """``toy`` selects n = 100 and the few points the smoke test runs."""
        self.seed = seed
        self.toy = toy
        self.n = 100 if toy else 4000
        self.opts = SolverOptions(n=self.n)

    def rng(self, *key: int):
        return np.random.default_rng([self.seed, *key])

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def run(self, op, tracer):
        raise NotImplementedError

    def check(self, ops: list, outs: list) -> list:
        raise NotImplementedError

    def fingerprint(self, op, out):
        """Exact values of one call's result, for the determinism gate."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Fill lazy caches before timing: one untimed cycle with its own key."""
        for op in self.cycle(1_000_000):
            self.run(op, NullTracer())

    def static_failures(self) -> list[str]:
        """Oracles that are not tied to one timed call."""
        return []


class Sweep(Workload):
    """lambda(alpha, q) rows: one minimize plus analyze per operation."""

    name = "sweep"
    bypasses = ("critical", "quadrature", "branches", "cli")
    _ALPHA_LO = -6.0
    # q = 1 and q = 2 carry closed-form oracles
    _QS = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    _CELLS = 15
    # lambda(alpha, 2) = pi^2/4 + alpha holds up to alpha_2 = 3*pi^2/4
    _Q2_LINEAR_MAX = 0.75 * PI2 - 0.25
    # the q = 1 constant-sign branch ends at alpha_1 = pi^2/2
    _Q1_BRANCH_MAX = 4.5

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.qs, self.cells = ((1.0, 2.0), 3) if toy else (self._QS, self._CELLS)
        self.sat = saturation_reference(self.n, 1.5)  # independent of q
        # grid-consistent pi^2/4: the sampled cosine is the discrete ground
        # state, so comparing against it cancels the O(h^2) bias
        cosine = GridFunction.from_callable(lambda x: np.cos(0.5 * PI * x), self.n)
        self.base = rayleigh_quotient(cosine, ProblemParams(0.0, 1.0))

    def cycle(self, k):
        rng = self.rng(k)
        ops = []
        for q in self.qs:
            hi = 1.3 * approx_alpha_q(q)
            width = (hi - self._ALPHA_LO) / self.cells
            ops.extend((self._ALPHA_LO + (i + float(rng.random())) * width, q) for i in range(self.cells))
        return ops

    def run(self, op, tracer):
        alpha, q = op
        with tracer.span("solver.minimize", "solver") as s:
            res = minimize(ProblemParams(alpha, q), self.opts)
            s.add(iterations=res.iterations)
        with tracer.span("core.analyze", "core"):
            prof = analyze(res.minimizer)
        return res, prof

    def _oracle(self, alpha: float, q: float, lam: float):
        if lam > self.sat * (1.0 + 1e-9):
            return f"lambda {lam!r} above saturation_reference {self.sat!r}"
        if q == 2.0 and alpha <= self._Q2_LINEAR_MAX:
            target = self.base + alpha
            if abs(lam - target) > 1e-4 * max(1.0, abs(target)):
                return f"lambda({alpha!r}, 2) = {lam!r}, not pi^2/4 + alpha"
        if q == 1.0 and 0.0 < alpha <= self._Q1_BRANCH_MAX:
            root = brentq(
                lambda x: q1_coupling_of_eigenvalue(x) - alpha,
                0.25 * PI2 + 1e-9,
                PI2 - 1e-9,
                xtol=1e-12,
            )
            if abs(lam - root) > 1e-3 * root:
                return f"lambda({alpha!r}, 1) = {lam!r}, q = 1 branch root {root!r}"
        return None

    def check(self, ops, outs):
        reasons = []
        prev = {}
        for (alpha, q), out in zip(ops, outs):
            if out is None:
                reasons.append(None)
                continue
            lam = out[0].lam
            reason = self._oracle(alpha, q, lam)
            if reason is None and q in prev:
                # rows run in increasing alpha: monotone, slope at most 2^((2-q)/q)
                a0, l0 = prev[q]
                if lam < l0 - 1e-6:
                    reason = f"lambda decreases from alpha {a0!r} to {alpha!r} at q = {q}"
                elif lam - l0 > 2.0 ** ((2.0 - q) / q) * (alpha - a0) + 1e-6:
                    reason = f"lambda rises faster than the Lipschitz bound on ({a0!r}, {alpha!r}) at q = {q}"
            prev[q] = (alpha, lam)
            reasons.append(reason)
        return reasons

    def fingerprint(self, op, out):
        return [out[0].iterations, out[0].lam]

    def static_failures(self):
        fails = []
        for q in self.qs:
            lam = minimize(ProblemParams(0.0, q), self.opts).lam
            if abs(lam - self.base) > 1e-4 * self.base:
                fails.append(f"lambda(0, {q}) = {lam!r}, not pi^2/4")
        return fails


class Critical(Workload):
    """alpha_critical(q, 0.04) for a handful of q: one search per operation."""

    name = "critical"
    bypasses = ("quadrature", "branches", "cli")
    _TOL = 0.04
    # Narrow q strata.  The cost of the random restart at the top bracket
    # 2*pi^2 jumps with (q, random_seed), up to the 50 000-iteration cap for
    # q in [1.4, 1.6]; inside each stratum it stays within a factor of about
    # 1.4.  Exact q = 1 and q = 2 are checked untimed: their inputs would
    # repeat every cycle, and the cost of a search grows steeply as q -> 1.
    # README.md says why the capped band is not timed here.
    # three medium searches, so that the median operation is one of them
    _STRATA = ((1.02, 1.03), (1.100, 1.105), (1.105, 1.110), (1.90, 1.95), (1.95, 1.99))
    _TOY_STRATA = ((1.02, 1.03), (1.95, 1.99))
    _EXACT = ((1.0, 0.5 * PI2), (2.0, 0.75 * PI2))

    def cycle(self, k):
        rng = self.rng(k)
        strata = self._TOY_STRATA if self.toy else self._STRATA
        return [_draw(rng, cell) for cell in strata]

    def run(self, q, tracer):
        with tracer.span("critical.alpha_critical", "critical") as s:
            res = alpha_critical(q, self._TOL, self.opts)
            s.add(solver_calls=res.solver_calls)
        return res

    def _oracle(self, q: float, res) -> str | None:
        if res.alpha_q < lower_bound(q) - self._TOL:
            return f"alpha_critical({q!r}) = {res.alpha_q!r} below lower_bound - tol"
        if res.solver_calls > 25:
            return f"alpha_critical({q!r}) used {res.solver_calls} > 25 solver calls"
        return None

    def check(self, ops, outs):
        return [None if res is None else self._oracle(q, res) for q, res in zip(ops, outs)]

    def fingerprint(self, op, out):
        return [out.solver_calls, out.alpha_q]

    def warmup(self):
        minimize(ProblemParams(1.0, 1.5), self.opts)

    def static_failures(self):
        fails = []
        for q, exact in self._EXACT:
            res = alpha_critical(q, self._TOL, self.opts)
            if abs(res.alpha_q - exact) > 1e-2 * exact:
                fails.append(f"alpha_critical({q}) = {res.alpha_q!r}, expected {exact!r}")
            reason = self._oracle(q, res)
            if reason is not None:
                fails.append(reason)
        return fails


class Branch(Workload):
    """Sign-changing branch: branch_point plus reconstruct_profile per operation."""

    name = "branch"
    bypasses = ("solver", "critical", "cli")
    _M_CELLS = ((0.05, 0.25), (0.25, 0.45), (0.45, 0.65), (0.65, 0.85), (0.85, 0.95))
    # q = 1 and q = 2 carry closed-form oracles; m is drawn, so inputs differ
    _Q_CELLS = ((1.0, 1.0), (1.1, 1.4), (1.4, 1.7), (1.7, 1.95), (2.0, 2.0))
    _TOLS = (1e-10, 1e-13)

    def cycle(self, k):
        rng = self.rng(k)
        if self.toy:
            m_cells, q_cells = self._M_CELLS[2:3], self._Q_CELLS[::2]
        else:
            m_cells, q_cells = self._M_CELLS, self._Q_CELLS
        ops = []
        for tol in self._TOLS:
            for m_cell in m_cells:
                for q_cell in q_cells:
                    ops.append((_draw(rng, m_cell), _draw(rng, q_cell), tol))
        return ops

    def run(self, op, tracer):
        m, q, tol = op
        with tracer.span("branches.branch_point", "branches"):
            bp = branch_point(m, q, tol)
        with tracer.span("branches.reconstruct_profile", "branches"):
            profile = reconstruct_profile(m, q, self.n)
        return bp, profile

    def check(self, ops, outs):
        reasons = []
        for (m, q, tol), out in zip(ops, outs):
            if out is None:
                reasons.append(None)
                continue
            bp, profile = out
            hp = math.sqrt(bp.lam)
            reason = None
            if q == 1.0 and abs(hp - PI) > 10.0 * tol * PI:
                reason = f"half_period({m!r}, 1) = {hp!r}, not pi"
            elif q == 2.0:
                closed = 0.5 * PI * math.sqrt((1.0 + m * m) / 2.0) * (1.0 / m + 1.0)
                if abs(hp - closed) > 100.0 * tol * closed:
                    reason = f"half_period({m!r}, 2) = {hp!r}, closed form {closed!r}"
            if reason is None and q > 1.0 and not hp - PI > 10.0 * tol * PI:
                reason = f"half_period({m!r}, {q!r}) = {hp!r} not above pi"
            if reason is None:
                prof = analyze(profile)
                if prof.sign_class != "sign_changing" or abs(prof.m_bar - m) > 1e-3:
                    reason = f"reconstructed profile at m = {m!r}, q = {q!r} has m_bar {prof.m_bar!r}"
            reasons.append(reason)
        return reasons

    def fingerprint(self, op, out):
        return [out[0].lam, out[0].c]

    def static_failures(self):
        fails = []
        for q in (1.0, 1.25, 1.5, 1.75):
            closed = PI / (2.0 - q)
            value = half_period(0.0, q).value
            if abs(value - closed) > 1e-8 * closed:
                fails.append(f"half_period(0, {q}) = {value!r}, not pi/(2-q)")
        for q in (1.25, 1.5, 1.75, 2.0):
            value = half_period(1.0, q).value
            if abs(value - PI) > 1e-8 * PI:
                fails.append(f"half_period(1, {q}) = {value!r}, not pi")
        return fails


WORKLOADS = {w.name: w for w in (Sweep, Critical, Branch)}
