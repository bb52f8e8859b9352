"""Runs one workload's dcgrid commands in a fresh process and records them.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

Each command goes through `dcgrid.cli.main`, the public entry point, with its
report printed to /dev/null. Rounds of commands repeat until the time is
used; the first round always runs whole, a later one stops between commands
at the deadline.
With --trace 1 every command runs twice, untraced and then traced, on twin
copies of its input, so the tracing overhead is measured in pairs. The worker
writes DIR/records.json (and DIR/spans.jsonl when tracing); run.py checks the
outputs and turns the records into metrics.

With --probe INPUT... it instead times `import dcgrid` plus parsing the given
grid and scenario files, prints the seconds and exits: one set-up sample.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def write_inputs(cmds, workdir, round_index):
    files = []
    for i, cmd in enumerate(cmds):
        path = Path(workdir) / f"r{round_index}_{i}_{cmd.kind}.json"
        path.write_text(json.dumps(cmd.doc))
        files.append((str(path), str(path.with_suffix(".out"))))
    return files


def probe(paths):
    """Time `import dcgrid` plus parsing the given inputs; nothing is imported before."""
    start = time.perf_counter()
    import dcgrid
    for path in paths:
        with open(path) as fh:
            is_scenario = "scenario" in json.load(fh)
        (dcgrid.load_scenario if is_scenario else dcgrid.load_network)(path)
    elapsed = time.perf_counter() - start
    _check_source()
    print(repr(elapsed))


def _check_source():
    import dcgrid
    expected = (ROOT / "src" / "dcgrid").resolve()
    if Path(dcgrid.__file__).resolve().parent != expected:
        raise SystemExit(f"imported dcgrid from {dcgrid.__file__}, not from {expected}")


def _run_command(main, cmd, path, out):
    argv = [a.format(input=path, out=out) for a in cmd.argv]
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, error = main(argv), None
        except SystemExit as exc:  # argparse exits on usage errors
            code, error = exc.code, None
        except Exception as exc:  # a raise is a failed operation, not a crash of the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    if error is None and code == 64:
        error = err.getvalue().strip()
    return wall, code, error


def load_flow_us(records, min_seconds=0.2):
    """Direct timing of solve_load_voltages on states of the first simulated trace.

    Each state is a trace row with loads drawing power (source voltages, and
    the load powers in force at that time), warm-started from the previous
    row's load voltages, as the integrator does one step later.
    """
    import numpy as np
    from checks import powers_at
    from dcgrid import build_admittance, parse_network, solve_load_voltages
    rec = next((r for r in records if r["argv"][0] == "simulate" and r["code"] is not None), None)
    if rec is None:
        return None
    doc = json.loads(Path(rec["input"]).read_text())
    n, m = len(doc["sources"]), len(doc["loads"])
    rows = np.loadtxt(rec["out"], delimiter=",", comments="#", skiprows=1, ndmin=2)
    rows = rows[: max(2, int(0.95 * len(rows)))]  # clear of a collapse at the end
    partition = build_admittance(parse_network(doc))
    calls = []
    for i in np.linspace(1, len(rows) - 1, 40).astype(int):
        P = powers_at(doc, rows[i, 0])
        if P.any():
            calls.append((rows[i, 1 + m:1 + m + n], P, partition, rows[i - 1, 1:1 + m]))
    if not calls:
        return None
    done, start = 0, time.perf_counter()
    while True:
        for args in calls:
            solve_load_voltages(*args)
        done += len(calls)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return 1e6 * elapsed / done


def work(args):
    import inputs  # numpy only; imported here so --probe times numpy's import too
    workdir = Path(args.workdir)
    _check_source()
    from dcgrid import cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    warm = inputs.warmup_command(args.workload, args.seed)
    (path, out), = write_inputs([warm], workdir, "warmup")
    _run_command(cli.main, warm, path, out)

    records = []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    round_index = 0
    # Rounds repeat until --seconds are used. A later round stops at the
    # deadline, between commands; the first always runs whole, because the
    # traced counts come from it and every command needs a sample.
    while round_index == 0 or time.perf_counter() < deadline:
        copies = [(False, inputs.round_commands(args.workload, args.seed, round_index))]
        if tracer is not None:
            copies.append((True, inputs.round_commands(args.workload, args.seed, round_index, 1)))
        files = [write_inputs(cmds, workdir, f"{round_index}c{c}")
                 for c, (_, cmds) in enumerate(copies)]
        for i in range(len(copies[0][1])):
            if round_index and time.perf_counter() >= deadline:
                break
            # with tracing, each command runs untraced and then traced, back to
            # back on twin copies of its input, so the overhead is paired
            for (traced, cmds), paths in zip(copies, files):
                cmd, (path, out) = cmds[i], paths[i]
                span_id = None
                if traced:
                    tracer.install()
                    with tracer.span("command") as span_id:
                        wall, code, error = _run_command(cli.main, cmd, path, out)
                    tracer.uninstall()
                else:
                    wall, code, error = _run_command(cli.main, cmd, path, out)
                records.append({**cmd.to_dict(), "round": round_index, "index": i,
                                "input": path, "out": out, "wall_s": wall, "code": code,
                                "error": error, "traced": traced, "span": span_id})
        round_index += 1

    import numpy
    import scipy
    result = {"records": records, "elapsed_s": time.perf_counter() - begin,
              "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        roots = {rec["span"] for rec in records if rec["span"] is not None}
        summary = tracer.summarize(roots)
        for rec in records:
            if rec["span"] is not None:
                rec["layers"] = summary[rec["span"]]
        result["load_flow_us"] = load_flow_us([r for r in records if r["traced"]])
        result["span_count"] = len(tracer.spans)
        tracer.dump(workdir / "spans.jsonl")
    (workdir / "records.json").write_text(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", nargs="+", metavar="INPUT")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args()
    if args.probe:
        probe(args.probe)
    else:
        work(args)


if __name__ == "__main__":
    main()
