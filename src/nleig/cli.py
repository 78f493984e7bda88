"""Command-line front end: single evaluations, scans, threshold searches, verification.

Single evaluations print one JSON object to stdout; scans write plot-ready CSV.
Exit codes: 0 success, 1 invalid arguments or I/O failure, 2 nonconvergence,
3 verification failure.  Every solve descends from one start per branch of
the minimizer dichotomy, so the output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import verify
from .core import EigenResult, MinimizerProfile, ProblemParams, analyze
from .critical import BracketViolation, alpha_critical
from .period import half_period
from .quadrature import QuadratureNonconvergence
from .solver import SolverNonconvergence, SolverOptions, minimize

CSV_HEADER = "alpha,q,lambda,sign_class,q_average,m_bar,odd_defect,residual,iterations"


@dataclass(frozen=True)
class ScanSpec:
    """Grid of (alpha, q) points, solver options, output path."""

    alpha_range: tuple[float, float, int]
    q_range: tuple[float, float, int]
    options: SolverOptions
    out: str

    def __post_init__(self):
        for lo, hi, count in (self.alpha_range, self.q_range):
            if count < 1:
                raise ValueError("range counts must be at least 1")
            if count > 1 and not lo < hi:
                raise ValueError("ranges must be ordered")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sig12(value: float) -> float:
    """Round-trip a float through 12 significant digits for stable output."""
    return float(f"{value:.12g}")


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _solve(alpha: float, q: float, opts: SolverOptions) -> tuple[EigenResult, bool]:
    """Run the solver; a capped winner is returned too, flagged not converged."""
    try:
        return minimize(ProblemParams(alpha, q), opts), True
    except SolverNonconvergence as exc:
        return exc.result, False


def _lambda_record(result: EigenResult, prof: MinimizerProfile, alpha: float, q: float, n: int) -> dict:
    return {
        "alpha": _sig12(alpha),
        "q": _sig12(q),
        "n": n,
        "lambda": _sig12(result.lam),
        "sign_class": prof.sign_class,
        "q_average": _sig12(result.q_average),
        "gamma": _sig12(result.gamma),
        "residual": _sig12(result.residual),
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _cmd_lambda(args) -> int:
    result, converged = _solve(args.alpha, args.q, SolverOptions(n=args.n))
    _emit_json(_lambda_record(result, analyze(result.minimizer), args.alpha, args.q, args.n))
    return 0 if converged else 2


def _cmd_hfun(args) -> int:
    try:
        hv = half_period(args.m, args.q, args.tol)
    except QuadratureNonconvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_json(
        {
            "m": _sig12(args.m),
            "q": _sig12(args.q),
            "value": _sig12(hv.value),
            "error_estimate": _sig12(hv.error_estimate),
        }
    )
    return 0


def _cmd_alpha_crit(args) -> int:
    try:
        res = alpha_critical(args.q, args.tol, SolverOptions(n=args.n))
    except (SolverNonconvergence, BracketViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_json(
        {
            "q": _sig12(args.q),
            "alpha_q": _sig12(res.alpha_q),
            "bracket": [_sig12(res.bracket[0]), _sig12(res.bracket[1])],
            "saturation_value": _sig12(res.saturation_value),
            "tolerance": _sig12(res.tolerance),
            "solver_calls": res.solver_calls,
        }
    )
    return 0


def _cmd_profile(args) -> int:
    result, converged = _solve(args.alpha, args.q, SolverOptions(n=args.n))
    u = result.minimizer
    a, b = u.interval
    xs = np.concatenate(([a], u.x, [b]))
    ys = np.concatenate(([0.0], u.values, [0.0]))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("x,y\n")
        for xv, yv in zip(xs, ys):
            handle.write(f"{_sig12(xv):.12g},{_sig12(yv):.12g}\n")
    prof = analyze(u)
    record = _lambda_record(result, prof, args.alpha, args.q, args.n)
    record.update(
        {
            "out": args.out,
            "zeros": [_sig12(z) for z in prof.zeros],
            "m_bar": _sig12(prof.m_bar),
            "odd_defect": _sig12(prof.odd_defect),
        }
    )
    _emit_json(record)
    return 0 if converged else 2


def _scan_point(alpha: float, q: float, opts: SolverOptions) -> tuple[str, bool]:
    result, converged = _solve(alpha, q, opts)
    prof = analyze(result.minimizer)
    fields = (
        f"{_sig12(alpha):.12g}",
        f"{_sig12(q):.12g}",
        f"{_sig12(result.lam):.12g}",
        prof.sign_class,
        f"{_sig12(result.q_average):.12g}",
        f"{_sig12(prof.m_bar):.12g}",
        f"{_sig12(prof.odd_defect):.12g}",
        f"{_sig12(result.residual):.12g}",
        str(result.iterations),
    )
    return ",".join(fields), converged


def run_scan(spec: ScanSpec) -> bool:
    """Execute the scan, writing CSV rows in grid order; returns overall convergence."""
    alo, ahi, acount = spec.alpha_range
    qlo, qhi, qcount = spec.q_range
    alphas = np.linspace(alo, ahi, acount)
    qs = np.linspace(qlo, qhi, qcount)
    rows = [_scan_point(float(alpha), float(q), spec.options) for q in qs for alpha in alphas]
    handle = sys.stdout if spec.out == "-" else open(spec.out, "w", encoding="utf-8")
    try:
        handle.write(CSV_HEADER + "\n")
        for line, _ in rows:
            handle.write(line + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    return all(ok for _, ok in rows)


def _cmd_scan(args) -> int:
    spec = ScanSpec(
        alpha_range=(args.alpha_min, args.alpha_max, args.alpha_count),
        q_range=(args.q_min, args.q_max, args.q_count),
        options=SolverOptions(n=args.n),
        out=args.out,
    )
    return 0 if run_scan(spec) else 2


def _cmd_verify(args) -> int:
    only = None
    if args.only:
        only = {int(tok) for tok in args.only.split(",")}
    results = verify.run_all(only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.cid:2d}  {r.name:<{width}}  {status}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="nleig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_args(p):
        p.add_argument("--n", type=int, default=4000, help="interior grid nodes (default 4000)")

    p = sub.add_parser("lambda", help="single eigenvalue evaluation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    add_solver_args(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("hfun", help="half-period integral of the sign-changing branch")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="relative quadrature target")
    p.set_defaults(func=_cmd_hfun)

    p = sub.add_parser("alpha-crit", help="critical coupling by bisection")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-2, help="bracket width target (>= 1e-4)")
    add_solver_args(p)
    p.set_defaults(func=_cmd_alpha_crit)

    p = sub.add_parser("profile", help="solve and export the minimizer profile as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    add_solver_args(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("scan", help="parameter sweep over an (alpha, q) grid, CSV output")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-count", type=int, required=True)
    p.add_argument("--q-min", type=float, required=True)
    p.add_argument("--q-max", type=float, required=True)
    p.add_argument("--q-count", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    add_solver_args(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the acceptance criteria and print a pass/fail table")
    p.add_argument("--only", default=None, help="comma-separated criterion ids to run")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
