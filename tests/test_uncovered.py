import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_uncovered_lists_the_lines_a_run_never_executes():
    # test_boundaries.py only parses the sources: the package is imported, its solver never runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tool, tests = ROOT / "tools" / "uncovered.py", ROOT / "tests" / "test_boundaries.py"
    out = subprocess.run([sys.executable, str(tool), str(tests)], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    report = out.stdout.splitlines()
    summary = max(i for i, line in enumerate(report) if " passed" in line)
    listed = report[summary + 1:]
    for line in listed:
        assert re.fullmatch(r"[a-z_]+:[1-9][0-9]* \S.*", line), line
        assert not line.split(" ", 1)[1].startswith('"""'), line  # docstrings do not count
    assert any(re.fullmatch(r"verify:[0-9]+ return \[run_criterion\(cid\) for cid in ids\]", line) for line in listed)
    assert any(line.startswith("solver:") for line in listed)
