import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import nleig
import nleig.cli as cli
from nleig.core import EigenResult, GridFunction, ProblemParams, analyze
from nleig.critical import BracketViolation
from nleig.solver import SolverNonconvergence

PI2 = math.pi**2


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- lambda ---------------------------------------------------------------------

def test_lambda_json_output(capsys):
    code, out, _ = run(capsys, ["lambda", "--alpha", "0", "--q", "1.5", "--n", "800"])
    assert code == 0
    rec = json.loads(out)
    assert rec["sign_class"] == "positive"
    assert abs(rec["lambda"] - PI2 / 4) <= 1e-4 * PI2 / 4
    assert rec["converged"] is True


def test_lambda_saturated_point(capsys):
    code, out, _ = run(capsys, ["lambda", "--alpha", "10", "--q", "2", "--n", "800"])
    assert code == 0
    rec = json.loads(out)
    assert rec["sign_class"] == "sign_changing"
    assert abs(rec["lambda"] - PI2) <= 1e-4 * PI2
    assert abs(rec["q_average"]) < 1e-6


def test_lambda_q2_linear_point(capsys):
    code, out, _ = run(capsys, ["lambda", "--alpha", "2", "--q", "2", "--n", "800"])
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["lambda"] - (PI2 / 4 + 2.0)) <= 1e-4 * (PI2 / 4 + 2.0)


def test_lambda_invalid_exponent_exits_1(capsys):
    code, _, err = run(capsys, ["lambda", "--alpha", "0", "--q", "3"])
    assert code == 1
    assert "error" in err


def test_lambda_missing_argument_exits_1(capsys):
    code, _, _ = run(capsys, ["lambda", "--alpha", "0"])
    assert code == 1


def test_lambda_seed_flag_is_rejected(capsys):
    code, _, err = run(capsys, ["lambda", "--alpha", "0", "--q", "1.5", "--seed", "3"])
    assert code == 1
    assert "--seed" in err


def test_unknown_command_exits_1(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 1


def test_lambda_nonconvergence_exits_2(capsys, monkeypatch):
    import numpy as np

    result = EigenResult(
        lam=1.0,
        minimizer=GridFunction(np.sin(np.pi * np.linspace(-1, 1, 202)[1:-1])),
        params=ProblemParams(0.0, 1.5),
        q_average=0.0,
        iterations=7,
        evaluations=8,
        converged=False,
    )

    def fake_minimize(params, opts):
        raise SolverNonconvergence("nonconverged", result)

    monkeypatch.setattr(cli, "minimize", fake_minimize)
    code, out, _ = run(capsys, ["lambda", "--alpha", "0", "--q", "1.5"])
    assert code == 2
    assert json.loads(out)["converged"] is False


# --- hfun / alpha-crit -------------------------------------------------------------

def test_hfun_value(capsys):
    code, out, _ = run(capsys, ["hfun", "--m", "0.5", "--q", "1"])
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"] - math.pi) <= 1e-9


def test_hfun_small_depth_tight_tolerance(capsys):
    m = 1e-6
    code, out, _ = run(capsys, ["hfun", "--m", "1e-6", "--q", "2", "--tol", "1e-13"])
    assert code == 0
    closed = 0.5 * math.pi * math.sqrt((1 + m * m) / 2) * (1 / m + 1)
    assert abs(json.loads(out)["value"] - closed) <= 1e-12 * closed


def test_hfun_divergent_exits_1(capsys):
    code, _, err = run(capsys, ["hfun", "--m", "0", "--q", "2"])
    assert code == 1
    assert "divergent" in err


def test_alpha_crit(capsys):
    code, out, _ = run(capsys, ["alpha-crit", "--q", "2", "--tol", "0.5", "--n", "600"])
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["alpha_q"] - 0.75 * PI2) <= 0.5
    assert rec["bracket"][0] <= rec["alpha_q"] <= rec["bracket"][1]
    # at q = 2 the ascent and both confirming solves start at their optimum
    assert (rec["solver_calls"], rec["iterations"]) == (2, 0)


def test_alpha_crit_rejects_tol_wider_than_the_search(capsys):
    code, out, err = run(capsys, ["alpha-crit", "--q", "1.5", "--tol", "1e300", "--n", "400"])
    assert code == 1
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize(
    "exc",
    [SolverNonconvergence("nonconverged", None), BracketViolation("bracket violation")],
)
def test_alpha_crit_failed_search_exits_2(capsys, monkeypatch, exc):
    def fake_alpha_critical(q, tol, opts):
        raise exc

    monkeypatch.setattr(cli, "alpha_critical", fake_alpha_critical)
    code, out, err = run(capsys, ["alpha-crit", "--q", "1.5"])
    assert code == 2
    assert out == ""
    assert err == f"error: {exc}\n"


# --- profile -----------------------------------------------------------------------

def test_profile_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "profile.csv"
    code, out, _ = run(
        capsys,
        ["profile", "--alpha", "10", "--q", "2", "--out", str(out_path), "--n", "500"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["out"] == str(out_path)
    assert len(rec["zeros"]) == 1
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 503  # header + endpoints + interior nodes
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == 0.0 and float(last[1]) == 0.0


def test_profile_unwritable_path_exits_1(capsys):
    code, _, err = run(
        capsys,
        ["profile", "--alpha", "0", "--q", "1.5", "--out", "/nonexistent/dir/x.csv", "--n", "500"],
    )
    assert code == 1
    assert "error" in err


# --- scan ---------------------------------------------------------------------------

SCAN_ARGS = [
    "scan",
    "--alpha-min", "0", "--alpha-max", "10", "--alpha-count", "21",
    "--q-min", "1", "--q-max", "2", "--q-count", "3",
    "--n", "400",
]


def test_scan_csv_shape_and_monotonicity(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, SCAN_ARGS + ["--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 63
    rows = [line.split(",") for line in lines[1:]]
    by_q = {}
    for row in rows:
        by_q.setdefault(row[1], []).append(float(row[2]))
    assert len(by_q) == 3
    for lams in by_q.values():
        assert len(lams) == 21
        assert all(b >= a - 1e-6 for a, b in zip(lams, lams[1:]))


def test_scan_deterministic(capsys, tmp_path):
    p1, p2 = (tmp_path / name for name in ("a.csv", "b.csv"))
    args = [
        "scan",
        "--alpha-min", "0", "--alpha-max", "4", "--alpha-count", "5",
        "--q-min", "1.5", "--q-max", "2", "--q-count", "2",
        "--n", "400",
    ]
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_scan_rejects_bad_grid(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "scan",
            "--alpha-min", "1", "--alpha-max", "0", "--alpha-count", "5",
            "--q-min", "1", "--q-max", "2", "--q-count", "2",
            "--out", str(tmp_path / "x.csv"),
        ],
    )
    assert code == 1
    assert "ordered" in err


def _count_analyze_calls(monkeypatch) -> list:
    """Route every nleig module-level name bound to core.analyze through a counter."""
    calls = []

    def counted(u):
        calls.append(u)
        return analyze(u)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nleig" and getattr(module, "analyze", None) is analyze:
            monkeypatch.setattr(module, "analyze", counted)
    return calls


def test_one_analyze_per_lambda_command_and_scan_point(capsys, monkeypatch):
    calls = _count_analyze_calls(monkeypatch)
    assert run(capsys, ["lambda", "--alpha", "10", "--q", "2", "--n", "400"])[0] == 0
    assert len(calls) == 1
    del calls[:]
    scan = [
        "scan",
        "--alpha-min", "0", "--alpha-max", "10", "--alpha-count", "3",
        "--q-min", "1.5", "--q-max", "2", "--q-count", "2",
        "--n", "400", "--out", "-",
    ]
    assert run(capsys, scan)[0] == 0
    assert len(calls) == 3 * 2


# --- verify ---------------------------------------------------------------------------

def test_verify_subset(capsys):
    code, out, _ = run(capsys, ["verify", "--only", "2,3"])
    assert code == 0
    assert "criterion  2" in out
    assert "criterion  3" in out
    assert "2/2 criteria passed" in out


# --- import path ----------------------------------------------------------------------

def _modules_loaded_by_import(package):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nleig.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, nleig, nleig.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["lambda", "--alpha", "3", "--q", "1.5", "--n", "100"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nleig.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "nleig", *argv], env=env, capture_output=True, text=True, check=True)
    code, expected, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out.stdout) == json.loads(expected)


def test_import_loads_no_scipy():
    assert _modules_loaded_by_import("scipy") == "[]"


def test_no_source_or_test_file_imports_scipy():
    root = pathlib.Path(__file__).resolve().parents[1]
    offenders = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(root)}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_import_loads_no_mpmath():
    assert _modules_loaded_by_import("mpmath") == "[]"


def test_public_names_resolve():
    assert len(set(nleig.__all__)) == len(nleig.__all__)
    for name in nleig.__all__:
        assert getattr(nleig, name) is not None, name
    namespace = {}
    exec("from nleig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nleig.__all__)
