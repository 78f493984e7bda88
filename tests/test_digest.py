import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = [
    "core.analyze",
    "solver.minimize",
    "solver.minimize.counts",
    "solver.threshold_ascent",
    "solver.threshold_ascent.counts",
    "critical.alpha_critical",
    "critical.alpha_critical.counts",
    "critical.alpha_zero",
    "period.half_period",
    "period.half_period.counts",
    "branches.reconstruct_profile",
    "branches.branch_point",
]


def _digest() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py")], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_digest_prints_one_stable_line_per_layer():
    first = _digest()
    assert [line.split()[0] for line in first] == LAYERS
    for line in first:
        assert re.fullmatch(r"[a-z_.]+ [1-9][0-9]* [0-9a-f]{64}", line), line
    assert _digest() == first
