"""Per-layer bit-identity digests of nleig.

Prints one line per layer, ``layer records sha256``: the number of records
and the sha256 over the float.hex of the values each layer returns on a small
fixed grid of inputs (the raw float64 bytes for a rebuilt profile or a
minimizer).  A layer that reports its work (steps or evaluations) prints it
apart, on a ``layer.counts`` line.  Two checkouts that print the same lines
return the same bits at every layer, and a change meant to keep the values
but not the work moves only ``.counts`` lines; either is checked by running
this on both:

    PYTHONPATH=src python tools/digest.py

It takes no flags and needs only numpy and nleig.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from nleig.branches import branch_point, reconstruct_profile
from nleig.core import GridFunction, ProblemParams, analyze
from nleig.critical import alpha_critical, alpha_zero
from nleig.period import half_period
from nleig.solver import SolverOptions, minimize, saturation_reference, threshold_ascent

NS = (100, 101)
ALPHAS = (-5.0, 0.0, 3.0, 6.0, 12.0, 2.0 * math.pi**2, 50.0)
QS = (1.0, 1.25, 1.5, 2.0)
DEPTHS = (0.1, 0.5, 0.9)
BRANCH_TARGETS = (1e-10, 1e-13)
CRITICAL_N, CRITICAL_QS, CRITICAL_TOL = 400, (1.0, 1.5, 2.0), 0.04


def _token(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + " ".join(_token(v) for v in value) + ")"
    return str(value)


class _Layer:
    def __init__(self, name: str):
        self.name, self.records, self._sha = name, 0, hashlib.sha256()

    def add(self, *values) -> None:
        self.records += 1
        for v in values:
            self._sha.update(v.tobytes() if isinstance(v, np.ndarray) else _token(v).encode())
            self._sha.update(b" ")
        self._sha.update(b"\n")

    def line(self) -> str:
        return f"{self.name} {self.records} {self._sha.hexdigest()}"


def _analyze_inputs(n: int) -> list[np.ndarray]:
    """Sines, cosines, two humps of heights 1 and 1 +- 1e-10, 1 + 1e-8 or 0.6, and copies at extreme scales."""
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    shapes = [np.sin(k * np.pi * x) for k in (1, 2, 3)]
    shapes += [np.cos(0.5 * np.pi * x), -np.cos(0.5 * np.pi * x)]
    shapes.append(0.25 * (1.0 + np.cos(np.pi * x)) - math.sqrt(0.5) * np.sin(np.pi * x))
    hump = 1.0 - 4.0 * (np.abs(x) - 0.5) ** 2
    for later in (1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 1e-8, 0.6):
        shapes.append(np.where(x <= 0.0, 1.0, -later) * hump)
        shapes.append(np.where(x <= 0.0, -1.0, later) * hump)
    return shapes + [np.ldexp(s, k) for s in shapes[:3] for k in (-1030, 997)]


def main() -> None:
    layers = {name: _Layer(name) for name in (
        "core.analyze", "solver.minimize", "solver.minimize.counts", "solver.threshold_ascent",
        "solver.threshold_ascent.counts", "critical.alpha_critical", "critical.alpha_critical.counts",
        "critical.alpha_zero", "period.half_period", "period.half_period.counts", "branches.reconstruct_profile",
        "branches.branch_point",
    )}

    def analyzed(values: np.ndarray) -> None:
        p = analyze(GridFunction(values))
        layers["core.analyze"].add(p.sign_class, p.zeros, p.m_bar, p.odd_defect)

    for n in NS:
        for values in _analyze_inputs(n):
            analyzed(values)
        for q in QS:
            for alpha in ALPHAS:
                r = minimize(ProblemParams(alpha, q), SolverOptions(n=n))
                layers["solver.minimize"].add(r.lam, r.q_average, r.degenerate, r.minimizer.values)
                layers["solver.minimize.counts"].add(r.iterations, r.evaluations)
                analyzed(r.minimizer.values)
            # the ascents of alpha_zero (sigma = 0) and of alpha_critical (the saturation value)
            for sigma in (0.0, saturation_reference(n, q)):
                a = threshold_ascent(n, q, sigma)
                layers["solver.threshold_ascent"].add(a.alpha, a.maximizer.values)
                layers["solver.threshold_ascent.counts"].add(a.iterations)
            for m in DEPTHS:
                u = reconstruct_profile(m, q, n)
                layers["branches.reconstruct_profile"].add(u.values)
                analyzed(u.values)
    for q in CRITICAL_QS:
        c = alpha_critical(q, CRITICAL_TOL, SolverOptions(n=CRITICAL_N))
        layers["critical.alpha_critical"].add(c.alpha_q, c.bracket)
        layers["critical.alpha_critical.counts"].add(c.iterations)
        layers["critical.alpha_zero"].add(alpha_zero(q, SolverOptions(n=CRITICAL_N)))
    for q in QS:
        for m in DEPTHS:
            h = half_period(m, q)
            layers["period.half_period"].add(h.value, h.error_estimate)
            layers["period.half_period.counts"].add(h.evaluations)
            for target in BRANCH_TARGETS:
                b = branch_point(m, q, target)
                layers["branches.branch_point"].add(b.lam, b.c)
    for layer in layers.values():
        print(layer.line())


if __name__ == "__main__":
    main()
