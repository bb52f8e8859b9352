"""Command-line interface: analyze grids, run simulations, sweep parameters.

Exit codes are part of the contract. analyze: 0 certified stable equilibrium,
1 equilibrium exists but is unstable at the given b, 2 undetermined,
3 necessary condition failed, 64 input error. simulate: 0 completed,
10 collapsed (a result, not a failure), 64 input error. sweep: 0 on success,
64 input error. Any command exits 70 when a numerical step fails its own check
on a valid input (a residual or definiteness test); stderr names the check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DomainError, NumericalError, SpecError
from .existence import _DUAL_MARGIN, certify, prepare
from .network import load_network
from .simulate import load_scenario, simulate
from .stability import analyze_stability

__all__ = ["main", "cmd_analyze", "cmd_simulate", "cmd_sweep"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, code 64
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcgrid",
                     description="Existence, stability, and simulation for DC "
                                 "grids with constant power loads")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="certificate and stability report for a grid")
    pa.add_argument("spec", help="grid document (JSON)")
    pa.add_argument("--out", help="also write the structured report here (JSON)")
    pa.add_argument("--seed", type=int, default=0,
                    help="accepted for compatibility; the analysis draws no random numbers")

    ps = sub.add_parser("simulate", help="integrate a scenario and write a CSV trace")
    ps.add_argument("scenario", help="scenario document (JSON)")
    ps.add_argument("--out", required=True, help="trace CSV path")

    pw = sub.add_parser("sweep", help="sweep u_ref, a uniform load scale, or b")
    pw.add_argument("spec", help="grid document (JSON)")
    pw.add_argument("--param", required=True, choices=["uref", "load", "b"])
    pw.add_argument("--min", required=True, type=float, dest="vmin")
    pw.add_argument("--max", required=True, type=float, dest="vmax")
    group = pw.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=int)
    group.add_argument("--bisect", type=float, metavar="TOL",
                       help="report the certified solvability boundary (uref only)")
    pw.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; points run in order in one thread")
    pw.add_argument("--out", help="CSV output path (default: stdout)")
    pw.add_argument("--seed", type=int, default=0,
                    help="accepted for compatibility; the analysis draws no random numbers")
    return parser


def _analysis_record(spec, path):
    grid = prepare(spec)
    cert = certify(grid)
    report = None
    if cert.u_load is not None:
        report = analyze_stability(grid, cert.u_load)
    if cert.verdict == "necessary-failed":
        code = 3
    elif cert.verdict == "undetermined":
        code = 2
    else:
        code = 0 if report is not None and report.verdict == "stable" else 1
    return {
        "input": str(path),
        "sources": spec.n,
        "loads": spec.m,
        "u_ref": spec.control.u_ref,
        "b": spec.control.b,
        "certificate": cert.to_dict(),
        "stability": None if report is None else report.to_dict(),
        "exit_code": code,
    }


def _fmt_vec(values):
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _render(record) -> str:
    cert = record["certificate"]
    lines = [
        f"grid: {record['sources']} sources, {record['loads']} loads "
        f"(u_ref = {record['u_ref']:g} V, b = {record['b']:g})",
        "thresholds (V): necessary {0:.4f} | optimized {1:.4f} | "
        "perron-vector {2:.4f} | contraction {3:.4f}".format(
            cert["tau_necessary"], cert["tau_optimized"],
            cert["tau_perron_vector"], cert["tau_contraction"]),
        f"weights q*: {_fmt_vec(cert['q_weights'])}",
        f"verdict: {cert['verdict']}",
    ]
    if cert["bracket_low"] is not None:
        lines.append(f"bracket low (V): {_fmt_vec(cert['bracket_low'])}")
    if cert["u_load"] is not None:
        lines.append(f"u_load (V): {_fmt_vec(cert['u_load'])}")
        lines.append(f"residual: {cert['residual']:.3e}")
    if cert["note"]:
        lines.append(f"note: {cert['note']}")
    st = record["stability"]
    if st is not None:
        b0 = "inf" if st["b0"] is None else f"{st['b0']:.6g}"
        lines.append(
            f"stability: {st['verdict']} (abscissa {st['abscissa']:.6g}, "
            f"lambda1 {st['lambda1']:.6g}, b0 {b0}, "
            f"sufficient-check {st['sufficient_holds']})")
    lines.append(f"exit code: {record['exit_code']}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    spec = load_network(args.spec)
    record = _analysis_record(spec, args.spec)
    print(_render(record))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
    return record["exit_code"]


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if os.path.isdir(args.out):
        raise IsADirectoryError(f"--out is a directory: {args.out}")
    # write the trace beside --out and rename it on success: a bad path fails
    # before integrating, and a rejected scenario leaves an existing file alone
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            trace = simulate(scenario)
            trace.to_csv(fh)
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):  # the run failed after the file was opened
            os.remove(tmp)
    if trace.termination == "collapsed":
        print(f"collapsed at t={trace.collapse_time:g} s "
              f"(node {trace.collapse_node}); trace written to {args.out}")
        return 10
    print(f"completed {trace.t[-1]:g} s, {trace.t.shape[0]} samples; "
          f"trace written to {args.out}")
    return 0


_SWEEP_HEADER = ("param,value,verdict,root_found,tau_necessary,tau_optimized,"
                 "tau_perron_vector,tau_contraction,abscissa,stable")


def _sweep_row(param, value, cert, report):
    abscissa = "" if report is None else f"{report.abscissa:.6g}"
    stable = "" if report is None else str(report.verdict == "stable")
    return (f"{param},{value:.10g},{cert.verdict},{cert.u_load is not None},"
            f"{cert.tau_necessary:.6g},{cert.tau_optimized:.6g},"
            f"{cert.tau_perron_vector:.6g},{cert.tau_contraction:.6g},"
            f"{abscissa},{stable}")


def cmd_sweep(args) -> int:
    spec = load_network(args.spec)
    for flag, value in (("--min", args.vmin), ("--max", args.vmax), ("--bisect", args.bisect)):
        if value is not None and not np.isfinite(value):
            raise SpecError("must be finite", field=flag)
    if args.vmin > args.vmax:
        raise SpecError("min must not exceed max", field="--min/--max")
    if args.points is not None and args.points < 1:
        raise SpecError("need at least one point", field="--points")
    if args.points == 1 and args.vmin < args.vmax:
        raise SpecError("one point needs --min equal to --max", field="--points")
    if args.bisect is not None and args.bisect <= 0:
        raise SpecError("tolerance must be positive", field="--bisect")
    if args.param == "b" and args.vmin <= 0:
        raise SpecError("b must be positive", field="--min")
    if args.bisect is not None and args.param != "uref":
        raise SpecError("bisection applies to uref sweeps only", field="--bisect")

    # the thresholds are computed once: a uref point only moves u_ref, a load
    # point scales them by sqrt(s), and a b point reuses the certificate whole
    grid = prepare(spec)
    base = certify(grid) if args.param == "b" else None
    rows = {}

    def evaluate(value):
        point, cert, b = grid, base, None
        if args.param == "b":
            b = value
        else:
            point = grid.with_uref(value) if args.param == "uref" else grid.scaled(value)
            cert = certify(point)
        report = None
        if cert.u_load is not None:
            report = analyze_stability(point, cert.u_load, b=b)
        rows[value] = _sweep_row(args.param, value, cert, report)
        return cert.u_load is not None

    comments = []
    if args.points is not None:
        if args.vmin == args.vmax:
            values = [args.vmin]
        else:
            values = list(np.linspace(args.vmin, args.vmax, args.points))
        for value in values:
            evaluate(value)
    else:
        found_lo, found_hi = evaluate(args.vmin), evaluate(args.vmax)
        if found_lo or not found_hi:
            comments.append("# boundary not bracketed by the sweep range")
        else:
            # both ends come from the prepared certificate: at lo the dual
            # weights rule out an equilibrium (the test `certify` applies),
            # and at hi, just above tau2, the bracket certifies one
            lo = max(args.vmin, grid.tau_dual * (1.0 - _DUAL_MARGIN))
            hi = min(args.vmax, grid.tau_optimized * (1.0 + _DUAL_MARGIN))
            evaluate(lo)
            if not evaluate(hi):
                hi = args.vmax
            comments.append(f"# boundary lo={lo:.10g} hi={hi:.10g}")
            if hi - lo > args.bisect:
                comments.append(f"# certified interval is wider than the tolerance "
                                f"{args.bisect:g}")

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(_SWEEP_HEADER + "\n")
        for value in sorted(rows):
            out.write(rows[value] + "\n")
        for comment in comments:
            out.write(comment + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_sweep(args)
    except (SpecError, OSError, DomainError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 70 if isinstance(exc, NumericalError) else 64


if __name__ == "__main__":
    sys.exit(main())
