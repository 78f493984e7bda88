"""Smoke test of the benchmark: every workload at toy size (n = 100, one cycle).

Checks the output contract against BENCHMARK.json, the oracle gates, the
bypass predictions and the determinism digest.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from nleig import ProblemParams, SolverOptions, minimize  # noqa: E402
from tracing import NullTracer, layers_entered  # noqa: E402
from workloads import Branch, Critical, Sweep  # noqa: E402


def _bench(workload, trace, seed=5, cwd=ROOT):
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = (lines, json.loads(lines[-1]))
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(runs, workload, trace):
    _, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_bypass_predictions(runs):
    for name in ("sweep", "critical"):
        metrics = runs(name, 1)[1]["metrics"]
        assert metrics["quadrature.calls"]["value"] == 0
        assert metrics["solver.iterations"]["value"] > 0
    branch = runs("branch", 1)[1]["metrics"]
    assert branch["solver.calls"]["value"] == 0
    assert branch["quadrature.evaluations"]["value"] > 0


def test_determinism_digest_repeats(runs):
    lines, _ = runs("critical", 1)
    again = _bench("critical", 1)
    assert again.returncode == 0, again.stderr
    digest = [ln for ln in lines if "determinism digest" in ln]
    assert digest and digest == [ln for ln in again.stdout.splitlines() if "determinism digest" in ln]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_layer_entry_hook_sees_a_solve():
    with layers_entered() as entered:
        minimize(ProblemParams(1.0, 1.5), SolverOptions(n=100))
    assert "solver" in entered and "quadrature" not in entered


def test_timed_inputs_do_not_repeat():
    for cls in (Sweep, Critical, Branch):
        workload = cls(1, toy=False)
        assert not set(workload.cycle(0)) & set(workload.cycle(1)), cls.name


def test_oracles_reject_wrong_values():
    null = NullTracer()

    sweep = Sweep(1, toy=True)
    assert sweep.static_failures() == []
    ops = sweep.cycle(0)
    outs = [sweep.run(op, null) for op in ops]
    assert sweep.check(ops, outs) == [None] * len(ops)
    i = next(i for i, (alpha, q) in enumerate(ops) if q == 2.0)
    res, prof = outs[i]
    outs[i] = (replace(res, lam=res.lam * (1.0 + 1e-3)), prof)
    assert sweep.check(ops, outs)[i] is not None

    crit = Critical(1, toy=True)
    assert crit.static_failures() == []
    q = crit.cycle(0)[0]
    res = crit.run(q, null)
    assert crit.check([q], [res]) == [None]
    assert crit.check([q], [replace(res, alpha_q=0.5 * res.alpha_q)]) != [None]

    branch = Branch(1, toy=True)
    assert branch.static_failures() == []
    op = (0.5, 2.0, 1e-10)
    bp, profile = branch.run(op, null)
    assert branch.check([op], [(bp, profile)]) == [None]
    assert branch.check([op], [(replace(bp, lam=bp.lam * (1.0 + 1e-6)), profile)]) != [None]

