"""Command-line front end: single evaluations, scans, threshold searches, verification.

Single evaluations print one JSON object to stdout; scans write plot-ready CSV.
Exit codes: 0 success, 1 invalid arguments or I/O failure, 2 nonconvergence,
3 verification failure.  Every solve is one descent from a fixed start
compared with the stored odd sine, so the output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify
from .core import EigenResult, ProblemParams, nodes
from .critical import BracketViolation, alpha_critical
from .period import half_period
from .quadrature import QuadratureNonconvergence
from .solver import SolverNonconvergence, SolverOptions, minimize

CSV_HEADER = "alpha,q,lambda,sign_class,q_average,m_bar,odd_defect,residual,iterations"


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


def _solve(alpha: float, q: float, opts: SolverOptions) -> EigenResult:
    """Run the solver; a capped winner is returned too, with ``converged`` false."""
    try:
        return minimize(ProblemParams(alpha, q), opts)
    except SolverNonconvergence as exc:
        return exc.result


def _lambda_record(result: EigenResult, alpha: float, q: float, n: int) -> dict:
    return {
        "alpha": _sig12(alpha),
        "q": _sig12(q),
        "n": n,
        "lambda": _sig12(result.lam),
        "sign_class": result.profile.sign_class,
        "q_average": _sig12(result.q_average),
        "gamma": _sig12(result.gamma),
        "residual": _sig12(result.residual),
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _cmd_lambda(args) -> int:
    result = _solve(args.alpha, args.q, SolverOptions(n=args.n))
    _emit_json(_lambda_record(result, args.alpha, args.q, args.n))
    return 0 if result.converged else 2


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
            "tolerance": _sig12(args.tol),
            "solver_calls": res.solver_calls,
            "iterations": res.iterations,
        }
    )
    return 0


def _cmd_profile(args) -> int:
    result = _solve(args.alpha, args.q, SolverOptions(n=args.n))
    u = result.minimizer
    xs = nodes(u.n)
    ys = np.concatenate(([0.0], u.values, [0.0]))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("x,y\n")
        for xv, yv in zip(xs, ys):
            handle.write(f"{_sig12(xv):.12g},{_sig12(yv):.12g}\n")
    prof = result.profile
    record = _lambda_record(result, args.alpha, args.q, args.n)
    record.update(
        {
            "out": args.out,
            "zeros": [_sig12(z) for z in prof.zeros],
            "m_bar": _sig12(prof.m_bar),
            "odd_defect": _sig12(prof.odd_defect),
        }
    )
    _emit_json(record)
    return 0 if result.converged else 2


def _scan_row(result: EigenResult, alpha: float, q: float) -> str:
    prof = result.profile
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
    return ",".join(fields)


def _cmd_scan(args) -> int:
    """Solve on the (alpha, q) grid and write CSV rows in grid order, q outermost."""
    ranges = ((args.alpha_min, args.alpha_max, args.alpha_count), (args.q_min, args.q_max, args.q_count))
    for lo, hi, count in ranges:
        if count < 1:
            raise ValueError("range counts must be at least 1")
        if count > 1 and not lo < hi:
            raise ValueError("ranges must be ordered")
    alphas, qs = (np.linspace(*r) for r in ranges)
    opts = SolverOptions(n=args.n)
    rows, converged = [], True
    for q in map(float, qs):
        for alpha in map(float, alphas):
            result = _solve(alpha, q, opts)
            rows.append(_scan_row(result, alpha, q))
            converged = converged and result.converged
    handle = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        handle.write(CSV_HEADER + "\n")
        for line in rows:
            handle.write(line + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0 if converged else 2


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

    p = sub.add_parser("alpha-crit", help="critical coupling by ascent of the constant-sign threshold, confirmed by two solves")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-2, help="width of the confirmation pair (>= 1e-4)")
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
