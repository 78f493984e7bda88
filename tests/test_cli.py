import ast
import hashlib
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
from nleig import solver
from nleig.critical import BracketViolation
from nleig.solver import SolverNonconvergence, minimize, saturation_reference

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
    # at m = 1e-170 the coefficient t ~ 2*m^2 of the first integral underflows
    for arg in ("1e-6", "1e-170"):
        code, out, _ = run(capsys, ["hfun", "--m", arg, "--q", "2", "--tol", "1e-13"])
        assert code == 0
        m = float(arg)
        closed = 0.5 * math.pi * math.sqrt((1 + m * m) / 2) * (1 / m + 1)
        assert abs(json.loads(out)["value"] - closed) <= 1e-12 * closed


def test_hfun_divergent_exits_1(capsys):
    code, _, err = run(capsys, ["hfun", "--m", "0", "--q", "2"])
    assert code == 1
    assert "divergent" in err


@pytest.mark.parametrize("m", ["1e-308", "5e-324"])
def test_hfun_overflowing_q2_depth_exits_1(capsys, m):
    code, out, err = run(capsys, ["hfun", "--m", m, "--q", "2"])
    assert (code, out) == (1, "")
    assert "overflows float64" in err


def test_hfun_nonconvergence_exits_2(capsys):
    # at m = 0 the tail of y^(-q/2) below the deepest panel is not negligible near q = 2
    code, out, err = run(capsys, ["hfun", "--m", "0", "--q", "1.99"])
    assert code == 2
    assert out == ""
    assert "quadrature nonconvergence" in err


def test_alpha_crit(capsys):
    code, out, _ = run(capsys, ["alpha-crit", "--q", "2", "--tol", "0.5", "--n", "600"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"q", "alpha_q", "bracket", "saturation_value", "tolerance", "solver_calls", "iterations"}
    assert abs(rec["alpha_q"] - 0.75 * PI2) <= 0.5
    assert rec["bracket"][0] <= rec["alpha_q"] <= rec["bracket"][1]
    assert rec["saturation_value"] == cli._sig12(saturation_reference(600, 2.0))
    assert (rec["q"], rec["tolerance"]) == (2.0, 0.5)
    # at q = 2 the ascent and the one confirming solve start at their optimum
    assert (rec["solver_calls"], rec["iterations"]) == (1, 0)


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


def test_alpha_crit_capped_ascent_exits_2(capsys, monkeypatch):
    # the ascent needs about five steps at q = 1.5; capped at two it fails
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    code, out, err = run(capsys, ["alpha-crit", "--q", "1.5", "--n", "100"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: the ascent of the coupling threshold reached its iteration cap after 2 steps")
    # sigma, the saturation value, prints as a plain number
    assert f"sigma = {float(saturation_reference(100, 1.5))!r}," in err


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


def test_profile_rejects_stdout_as_csv_path(capsys, tmp_path, monkeypatch):
    # the JSON record owns stdout, so "-" is refused, not written as a file
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["profile", "--alpha", "0", "--q", "1.5", "--out", "-", "--n", "500"])
    assert (code, out) == (1, "")
    assert "--out must name a file" in err
    assert list(tmp_path.iterdir()) == []


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


def test_scan_rejects_an_empty_range(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "scan",
            "--alpha-min", "0", "--alpha-max", "1", "--alpha-count", "0",
            "--q-min", "1", "--q-max", "2", "--q-count", "2",
            "--out", str(tmp_path / "x.csv"),
        ],
    )
    assert code == 1
    assert "at least 1" in err
    assert not (tmp_path / "x.csv").exists()


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


# --- golden outputs -------------------------------------------------------------------

GOLDEN_SCAN = [
    "scan",
    "--alpha-min", "0", "--alpha-max", "15", "--alpha-count", "4",
    "--q-min", "1.2", "--q-max", "1.8", "--q-count", "3",
    "--n", "200",
]

GOLDEN = {
    ("lambda", "--alpha", "3", "--q", "1.5", "--n", "400"): (
        '{"alpha": 3.0, "converged": true, "gamma": 1.0340800004, "iterations": 4, "lambda": 5.91278123986, '
        '"n": 400, "q": 1.5, "q_average": 1.10576392257, "residual": 1.09e-06, "sign_class": "positive"}\n'
    ),
    ("lambda", "--alpha", "12", "--q", "1.7", "--n", "400"): (
        '{"alpha": 12.0, "converged": true, "gamma": 0.0, "iterations": 3, "lambda": 9.86940247802, '
        '"n": 400, "q": 1.7, "q_average": 0.0, "residual": 1.65e-11, "sign_class": "sign_changing"}\n'
    ),
    ("alpha-crit", "--q", "1.5", "--n", "400"): (
        '{"alpha_q": 6.48021362535, "bracket": [6.47521362535, 6.48521362535], "iterations": 6, "q": 1.5, '
        '"saturation_value": 9.86940247802, "solver_calls": 1, "tolerance": 0.01}\n'
    ),
    ("hfun", "--m", "0.3", "--q", "1.7"): (
        '{"error_estimate": 2.6645352591e-15, "m": 0.3, "q": 1.7, "value": 4.13816755315}\n'
    ),
    (*GOLDEN_SCAN, "--out", "-"): (
        "alpha,q,lambda,sign_class,q_average,m_bar,odd_defect,residual,iterations\n"
        "0,1.2,2.46735087034,positive,1.20140942388,0,2,1.38e-12,0\n"
        "5,1.2,9.05359791505,positive,1.15322623296,0,2,1.92e-06,6\n"
        "10,1.2,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,5\n"
        "15,1.2,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,9\n"
        "0,1.5,2.46735087034,positive,1.11283479787,0,2,1.38e-12,0\n"
        "5,1.5,8.19229673719,positive,1.10033989721,0,2,8.93e-07,5\n"
        "10,1.5,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,3\n"
        "15,1.5,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,4\n"
        "0,1.8,2.46735087034,positive,1.04097057035,0,2,1.38e-12,0\n"
        "5,1.8,7.6912917618,positive,1.03944697967,0,2,3.73e-07,4\n"
        "10,1.8,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,3\n"
        "15,1.8,9.86880074179,sign_changing,0,1,4.71863315218e-16,4.35e-12,3\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv[:3]))
def test_golden_stdout(capsys, argv):
    assert run(capsys, list(argv)) == (0, GOLDEN[argv], "")


def test_golden_profile_csv(capsys, tmp_path):
    out_path = tmp_path / "profile.csv"
    assert run(capsys, ["profile", "--alpha", "3", "--q", "1.5", "--n", "400", "--out", str(out_path)])[0] == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "d61a46d20bf6cfa0cd6cb7741d4d22b9b3ca3ace67fffdb6608efa999e12fc7d"


def test_scan_writes_the_same_bytes_to_a_file_and_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    assert run(capsys, [*GOLDEN_SCAN, "--out", str(out_path)]) == (0, "", "")
    assert out_path.read_text(encoding="utf-8") == run(capsys, [*GOLDEN_SCAN, "--out", "-"])[1]


def test_residual_is_printed_to_3_digits(capsys):
    # only the residual's leading digits are determined (EigenResult)
    res = minimize(ProblemParams(5.0, 1.5), solver.SolverOptions(n=200))
    _, out, _ = run(capsys, ["lambda", "--alpha", "5", "--q", "1.5", "--n", "200"])
    assert json.loads(out)["residual"] == float(f"{res.residual:.3g}")
    scan = ["scan", "--alpha-min", "5", "--alpha-max", "5", "--alpha-count", "1"]
    _, out, _ = run(capsys, scan + ["--q-min", "1.5", "--q-max", "1.5", "--q-count", "1", "--n", "200", "--out", "-"])
    assert out.splitlines()[1].split(",")[7] == f"{res.residual:.3g}" == "8.93e-07"


# --- verify ---------------------------------------------------------------------------

def test_verify_subset(capsys):
    code, out, _ = run(capsys, ["verify", "--only", "2,3"])
    assert code == 0
    assert "criterion  2" in out
    assert "criterion  3" in out
    assert "2/2 criteria passed" in out


@pytest.mark.parametrize("only, message", [
    ("0,2", "unknown criterion ids [0]: valid ids are 1-12"),
    ("13", "unknown criterion ids [13]: valid ids are 1-12"),
    ("x", "invalid literal for int()"),
])
def test_verify_refuses_an_unknown_id(capsys, only, message):
    # before: 0,2 ran criterion 2 alone and passed, 13 failed on max() of an empty list
    code, out, err = run(capsys, ["verify", "--only", only])
    assert code == 1
    assert out == ""
    assert message in err


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


@pytest.mark.parametrize("argv, status", [
    (["lambda", "--alpha", "3", "--q", "1.5", "--n", "100"], 0),
    (["lambda", "--alpha", "0", "--q", "3"], 1),
])
def test_entry_exits_with_the_status_main_returns(monkeypatch, capsys, argv, status):
    # the nleig script and python -m nleig both run entry(), with the command line in sys.argv
    monkeypatch.setattr(sys, "argv", ["nleig", *argv])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    out = capsys.readouterr().out
    code, expected, _ = run(capsys, argv)
    assert info.value.code == code == status
    assert out == expected


def test_import_loads_exactly_the_package_modules():
    # every module imported adds to the start-up time; a new one must show up here
    expected = ["nleig", "nleig.branches", "nleig.cli", "nleig.core", "nleig.critical", "nleig.period", "nleig.solver", "nleig.verify"]
    assert _modules_loaded_by_import("nleig") == str(expected)


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
