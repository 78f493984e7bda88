#!/usr/bin/env python3
"""Benchmark of the nleig toolkit.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One workload runs single-process and
closed-loop: one caller, the next operation sent when the last returns, over
whole input cycles until --seconds of operation time has been measured.  Every
output is checked against an oracle.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run.  The exit code is 0 when every check passed, 1 when one failed and
2 when the nleig sources are missing.  --workload all runs every workload, each
in a fresh interpreter.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread: on a small shared machine a second BLAS thread adds up to a
# third to the time of identical work.  Set before numpy loads; the set-up
# interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("sweep", "critical", "branch")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.calls": "count",
    "solver.iterations": "count",
    "solver.share": "%",
    "solver.iter_per_s": "1/s",
    "core.analyze_calls": "count",
    "core.analyze_share": "%",
    "critical.solver_calls": "count",
    "critical.self_share": "%",
    "critical.slowest_solve_share": "%",
    "quadrature.calls": "count",
    "quadrature.evaluations": "count",
    "quadrature.share": "%",
    "quadrature.evals_per_s": "1/s",
    "period.half_period_share": "%",
    "period.self_share": "%",
    "branches.branch_point_share": "%",
    "branches.reconstruct_share": "%",
    "trace.ops_per_s": "1/s",
    "trace.overhead": "%",
}

# set-up runs this many times in a run, each in a fresh interpreter; the
# median is reported
SETUP_REPEATS = 8

# percentiles tried for op_tail_ms, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nleig
nleig.minimize(nleig.ProblemParams(1.0, 1.5), nleig.SolverOptions(n=int(sys.argv[2])))
nleig.half_period(0.5, 1.5)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0, help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="n = 100 and a few points (smoke test)")
    return p.parse_args(argv)


def setup_once(n: int) -> float:
    """Time, in a fresh interpreter, to import nleig and do a first solve and half_period."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(n)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class SetupSampler:
    """Set-up samples spread over the timed loop, taken between its cycles.

    Load from other processes on the host comes in stretches of seconds.
    Samples taken in a row all meet the same stretch; samples spread over the
    run meet several, so their median is steadier from run to run.  The
    loop's clock is stopped while a sample runs.
    """

    def __init__(self, n: int, repeats: int, seconds: float):
        self.n, self.repeats, self.seconds = n, repeats, seconds
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        """Take the samples due once ``elapsed`` seconds of the loop have been measured."""
        due = 1 + math.floor((self.repeats - 1) * min(1.0, elapsed / self.seconds))
        while len(self.times) < due:
            self.times.append(setup_once(self.n))


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Loop:
    """Outcome of the timed loop.

    Every cycle has the same positions (the same kind of input, jittered), so
    ``times[i]`` holds one call time per cycle for position i.
    """

    seconds: float = 0.0  # summed call time
    attempted: int = 0
    failed: int = 0
    calls: int = 0
    latencies_ms: list = field(default_factory=list)
    times: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    first_cycle: list = field(default_factory=list)  # (index, op, fingerprint)

    def ops_per_s(self) -> float:
        """Operations of one cycle over the summed median time of each position."""
        return len(self.times) / sum(statistics.median(t) for t in self.times)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies_ms)


def timed_loop(workload, tracer, seconds: float, after_cycle=None) -> Loop:
    """Run whole cycles until ``seconds`` of call time; ``after_cycle(call time so far)`` runs between them."""
    loop = Loop()
    k = 0
    while True:
        ops = workload.cycle(k)
        outs = []
        if k == 0:
            loop.times = [[] for _ in ops]
        for pos, op in enumerate(ops):
            index = loop.calls
            loop.calls += 1
            t0 = time.perf_counter()
            try:
                with tracer.op(index):
                    out = workload.run(op, tracer)
                error = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            loop.seconds += dt
            loop.attempted += 1
            loop.latencies_ms.append(1e3 * dt)
            loop.times[pos].append(dt)
            outs.append(out)
            if error is not None:
                loop.failed += 1
                loop.reasons.append(error)
        for out, reason in zip(outs, workload.check(ops, outs)):
            if out is not None and reason is not None:
                loop.failed += 1
                loop.reasons.append(reason)
        if k == 0:
            base = loop.calls - len(ops)
            loop.first_cycle = [
                (base + i, op, None if out is None else workload.fingerprint(op, out))
                for i, (op, out) in enumerate(zip(ops, outs))
            ]
        k += 1
        if after_cycle is not None:
            after_cycle(loop.seconds)
        if loop.seconds >= seconds:
            return loop


def tail_ms(latencies: list):
    """Highest ladder percentile with at least ten samples above it, or None."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        value = ordered[min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1)]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10:
            return pct, value, beyond
    return None


def rerun(workload, items, tracer) -> tuple[float, list]:
    """Run the given (index, op) calls again; returns summed call time and fingerprints."""
    total = 0.0
    prints = []
    for index, op in items:
        t0 = time.perf_counter()
        with tracer.op(index):
            out = workload.run(op, tracer)
        total += time.perf_counter() - t0
        prints.append(workload.fingerprint(op, out))
    return total, prints


def traced_run(workload, seconds: float, failures: list):
    """Timed loop with spans; per-layer metrics, determinism gate and bypass checks."""
    import tracing

    with tracing.Tracer() as tracer:
        loop = timed_loop(workload, tracer, seconds)
    metrics = tracing.per_layer_metrics(tracer.spans, loop.seconds, len(loop.first_cycle))

    # determinism gate: visible results and exact counts of first-cycle calls
    # repeat when the same inputs run again
    counts = tracing.op_counts(tracer.spans)
    chosen = [c for c in loop.first_cycle if c[2] is not None]
    items = [(index, op) for index, op, _ in chosen]
    with tracing.Tracer() as gate:
        traced_s, prints = rerun(workload, items, gate)
    gate_counts = tracing.op_counts(gate.spans)
    digest = hashlib.sha256()
    for (index, _, first), again in zip(chosen, prints):
        before = [first, counts.get(index)]
        after = [again, gate_counts.get(index)]
        if json.dumps(before) != json.dumps(after):
            failures.append(f"determinism gate: call {index} gave {before} then {after}")
        digest.update(json.dumps(before).encode())

    untraced_s, prints = rerun(workload, items, tracing.NullTracer())
    for (index, _, first), again in zip(chosen, prints):
        if json.dumps(first) != json.dumps(again):
            failures.append(f"determinism gate: untraced call {index} gave {first} then {again}")
    metrics["trace.ops_per_s"] = loop.ops_per_s()
    metrics["trace.overhead"] = 100.0 * (traced_s / untraced_s - 1.0)

    # bypass predictions: an untimed pass under a profile hook sees every
    # module of the package that the first cycle's calls enter
    with tracing.layers_entered() as entered:
        rerun(workload, items, tracing.NullTracer())
    print(f"  layers entered {', '.join(sorted(entered))}")
    ran = entered.intersection(workload.bypasses)
    if ran:
        failures.append(f"bypass prediction: {', '.join(sorted(ran))} ran on {workload.name}")
    if workload.name == "critical" and metrics["critical.solver_calls"] != metrics["solver.calls"]:
        failures.append("critical.solver_calls disagrees with the minimize calls seen")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl")
    return loop, metrics, digest.hexdigest()


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import nleig

    if Path(nleig.__file__).resolve().parent != SRC / "nleig":
        print(f"error: imported nleig from {nleig.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.toy)

    failures = list(workload.static_failures())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  n {workload.n}")
    if args.trace:
        workload.warmup()
        loop, metrics, digest = traced_run(workload, args.seconds, failures)
        units = PER_LAYER_UNITS
        for name in units:
            print(f"  {name:<30} {metrics[name]:.6g} {units[name]}")
        print(f"  determinism digest {digest}")
    else:
        setup = SetupSampler(workload.n, 1 if args.toy else SETUP_REPEATS, args.seconds)
        setup(0.0)
        workload.warmup()
        loop = timed_loop(workload, tracing.NullTracer(), args.seconds, setup)
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": statistics.median(setup.times),
            "ops_per_s": loop.ops_per_s(),
            "op_p50_ms": loop.p50_ms(),
            "peak_rss_mb": peak_rss_mb(),
        }
        for name in units:
            print(f"  {name:<14} {metrics[name]:.6g} {units[name]}")
        print(f"  all calls      {loop.attempted / loop.seconds:.6g} ops/s over {loop.seconds:.4g} s")
        tail = tail_ms(loop.latencies_ms)
        if tail is None:
            print(f"  op_tail_ms     not defined: {len(loop.latencies_ms)} samples")
        else:
            pct, value, beyond = tail
            print(f"  op_tail_ms     p{pct:g} = {value:.6g} ms ({beyond} of {len(loop.latencies_ms)} samples beyond)")
    print(f"  failed_ratio   {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.6g}")

    failures.extend(loop.reasons)
    for reason in failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    correct = not failures
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nleig" / "__init__.py").is_file():
        print(f"error: no nleig sources at {SRC / 'nleig'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
