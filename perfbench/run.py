"""dcgrid benchmark: one workload per run, or all of them with --workload all.

    python3 perfbench/run.py --workload table1-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a dcgrid checkout; the program is imported from ./src.
A run measures set-up in fresh processes (`import dcgrid` plus parsing the
workload's inputs), then starts one fresh worker process that runs rounds of
dcgrid commands through `dcgrid.cli.main` until --seconds are used, checks
every output by invariants (checks.py) and prints the metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from spans around dcgrid's public
functions (tracer.py). README.md in this directory defines every metric.

Scratch files go to .perfbench_work/ in the checkout. The run deletes its
inputs and outputs at the end and keeps the result and the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0      # a run must end within 180 s
SETUP_PROBES = 5
# One BLAS thread: dcgrid's matrices are at most 100 x 100, and an idle
# OpenBLAS worker thread spins on the second core of a small machine (a pure
# Python loop then shows 1.9 s of process CPU time per wall second).
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONSTARTUP", None)
    return env


def _run_child(argv, timeout):
    """Run a child to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail(f"{Path(argv[1]).name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        _fail(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{err.strip()}")
    return out


def measure_setup(workload, seed, workdir, budget):
    """Median over fresh processes of `import dcgrid` plus parsing round 0's inputs."""
    import inputs
    from worker import write_inputs
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    paths = [p for p, _ in write_inputs(inputs.round_commands(workload, seed, 0), probe_dir, 0)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = _run_child([sys.executable, str(HERE / "worker.py"), "--probe", *paths], budget)
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------------ statistics

def tail(values):
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    index = n - 11  # ten samples lie above ordered[n - 11]
    return 100.0 * (index + 1) / n, ordered[index]


def _median(values):
    return statistics.median(values) if values else float("nan")


# ------------------------------------------------------------------ metrics

def per_command(ok):
    """[(wall time, ops)] for each command of the round (its index): medians over
    the rounds that ran it. A run's last round may stop part way, so pooling
    all commands would change the mix with the number of rounds."""
    walls, units = defaultdict(list), defaultdict(list)
    for r in ok:
        if r["facts"]["units"]:
            walls[r["index"]].append(r["wall_s"])
            units[r["index"]].append(r["facts"]["units"])
    return [(statistics.median(walls[i]), statistics.median(units[i])) for i in sorted(walls)]


def end_to_end(ok, setup, peak_rss_mb):
    """The gated metrics: every workload reports these.

    op_p50_gmean_s is the geometric mean over the round's commands of their
    median wall time per op: a round's commands differ up to tenfold in time
    per op, and a median over all of them together jumps from one command to
    another between runs. ops_per_s is the ops of one round over its time,
    each command at its median."""
    cmds = per_command(ok)
    ops = sum(u for _, u in cmds)
    wall = sum(w for w, _ in cmds)
    return {
        "setup_s": (_median(setup), "s"),
        "op_p50_gmean_s": (statistics.geometric_mean([w / u for w, u in cmds])
                           if cmds else float("nan"), "s"),
        "ops_per_s": (ops / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def workload_detail(workload, records, ok):
    """The workload's own named end-to-end figures, printed, not gated.

    Timings come from untraced commands only; a command kind's time is its
    median over the rounds."""
    lines = []
    facts = [f for r in records for f in r["facts"].get("analyses", [])]
    above = [f for f in facts if f["above_tau1"]]
    if above:
        und = sum(f["undetermined"] for f in above)
        lines.append(f"undetermined_frac = {und / len(above):.4f} ({und}/{len(above)} "
                     "analyses with u_ref > tau1)")
    ok = [r for r in ok if not r["traced"]]
    by_kind = defaultdict(list)
    for r in ok:
        by_kind[r["kind"]].append(r["wall_s"])
    if workload == "table1-sweep":
        sweeps = [kind for kind in by_kind if kind.startswith("sweep-")]
        lines.append(f"sweep_s = {sum(_median(by_kind[k]) for k in sweeps):.4f} s (the three "
                     "--points sweeps, each at its median over "
                     f"{min(len(by_kind[k]) for k in sweeps)}+ rounds)")
        for kind in ("sweep-uref", "sweep-load", "sweep-b", "bisect", "analyze-light",
                     "analyze-heavy"):
            vals = by_kind[kind]
            name = "bisect_s" if kind == "bisect" else f"{kind.replace('-', '_')}_s"
            lines.append(f"{name} = {_median(vals):.4f} s (n={len(vals)})")
    analyses = [r["wall_s"] for r in ok if r["argv"][0] == "analyze"]
    if workload == "ladder-analyze" and analyses:
        pct, val = tail(analyses)
        lines.append(f"analyze_p50_s = {_median(analyses):.4f} s (n={len(analyses)})")
        if pct is None:
            lines.append(f"analyze_tail_s = n/a (n={len(analyses)} < 11)")
        else:
            lines.append(f"analyze_tail_s = {val:.4f} s (p{pct:.1f}, n={len(analyses)}, "
                         "10 beyond)")
        lines.append("analyses_per_s = ops_per_s")
        rungs = defaultdict(list)
        for r in ok:
            rungs[r["expect"]["m"]].append(r["wall_s"])
        lines.append("analyze_p50_s by loads: " + ", ".join(
            f"m={m}: {_median(v):.3f} s" for m, v in sorted(rungs.items())))
    if workload == "scenario-sim":
        lines.append("sim_steps_per_s = ops_per_s")
        kinds = defaultdict(lambda: [0, 0.0])
        for r in ok:
            kinds[r["kind"]][0] += r["facts"]["units"]
            kinds[r["kind"]][1] += r["wall_s"]
        lines.append("steps_per_s by scenario: " + ", ".join(
            f"{k}: {s / w:.1f}" for k, (s, w) in kinds.items()))
    failed = sum(1 for r in records if r["failures"])
    lines.append(f"failed_frac = {failed / len(records):.4f} ({failed}/{len(records)} operations)")
    return lines


# per-layer metrics: (name, unit); computed from the traced commands
TIME_INCLUSIVE = {
    "network.parse_s": "network.parse_network",
    "network.build_admittance_s": "network.build_admittance",
    "linalg.reduce_network_s": "linalg.reduce_network",
    "linalg.perron_s": "linalg.perron",
    "existence.certify_s": "existence.certify",
    "existence.fixed_point_solve_s": "existence.fixed_point_solve",
    "existence.multistart_newton_s": "existence.multistart_newton",
    "stability.analyze_stability_s": "stability.analyze_stability",
    "stability.effective_admittance_s": "stability.effective_admittance",
    "stability.b_max_s": "stability.b_max",
    "simulate.parse_scenario_s": "simulate.parse_scenario",
    "simulate.to_csv_s": "simulate.SimulationTrace.to_csv",
}
TIME_SELF = {"existence.optimize_weights_s": "existence.optimize_weights"}


def per_layer(traced, first, load_flow_us, overhead):
    """Per-layer metrics. Times are per command over every traced command; counts
    come from the first traced round, whose inputs are fixed by the seed, so they
    repeat exactly. build_admittance calls are per analyze command and certify
    calls per --points sweep command; a workload without such commands reads 0."""
    def total(recs, name, field):
        return sum(r["layers"].get(name, (0, 0.0, 0.0, 0))[field] for r in recs)

    n_all, n_first = max(1, len(traced)), max(1, len(first))
    out = {}
    for metric, name in TIME_INCLUSIVE.items():
        out[metric] = (total(traced, name, 1) / n_all, "s")
    for metric, name in TIME_SELF.items():
        out[metric] = (total(traced, name, 2) / n_all, "s")
    for layer in LAYERS:
        self_s = sum(rec[2] for r in traced for name, rec in r["layers"].items()
                     if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (self_s / n_all, "s")
    analyses = [r for r in first if r["argv"][0] == "analyze"]
    out["network.build_admittance_calls"] = (
        total(analyses, "network.build_admittance", 0) / len(analyses)
        if analyses else 0.0, "count")
    out["linalg.reduce_network_calls"] = (
        total(first, "linalg.reduce_network", 0) / n_first, "count")
    sweeps = [r for r in first if r["argv"][0] == "sweep" and "--points" in r["argv"]]
    out["existence.certify_calls"] = (total(sweeps, "existence.certify", 0) / len(sweeps)
                                      if sweeps else 0.0, "count")

    certify = total(first, "existence.certify", 0)
    out["existence.f_matrix_calls"] = (total(first, "existence.f_matrix", 0) / certify
                                       if certify else 0.0, "count")
    fm_calls = total(traced, "existence.f_matrix", 0)
    out["existence.f_matrix_us"] = (1e6 * total(traced, "existence.f_matrix", 1) / fm_calls
                                    if fm_calls else 0.0, "us")
    ms_calls = total(first, "existence.multistart_newton", 0)
    ms_none = total(first, "existence.multistart_newton", 3)
    out["existence.multistart_root_frac"] = ((ms_calls - ms_none) / ms_calls
                                             if ms_calls else 0.0, "ratio")
    bisects = [r for r in first if r["kind"] == "bisect"]
    out["cli.bisect_evals"] = (total(bisects, "existence.certify", 0) / len(bisects)
                               if bisects else 0.0, "count")
    sims = [r for r in traced if r["argv"][0] == "simulate" and r["facts"].get("units")]
    steps = sum(r["facts"]["units"] for r in sims)
    out["simulate.step_us"] = (1e6 * total(sims, "simulate.simulate", 1) / steps
                               if steps else 0.0, "us")
    out["simulate.load_flow_us"] = (load_flow_us or 0.0, "us")
    out["trace.overhead_pct"] = (100.0 * _median(overhead), "%")
    return out


def by_kind_counts(first):
    """Calls of the key functions per command kind in the first traced round."""
    rows = defaultdict(lambda: defaultdict(int))
    seen = defaultdict(int)
    for r in first:
        seen[r["kind"]] += 1
        for name in ("network.build_admittance", "existence.certify", "existence.f_matrix"):
            rows[r["kind"]][name] += r["layers"].get(name, (0,))[0]
    return [f"  {kind}: " + ", ".join(f"{n.split('.')[1]} {c / seen[kind]:g}"
                                      for n, c in counts.items())
            for kind, counts in rows.items()]


# ------------------------------------------------------------------ runs

def run_one(args):
    import checks

    if not (ROOT / "src" / "dcgrid" / "__init__.py").is_file():
        _fail(f"no dcgrid sources under {ROOT / 'src'}; run from the root of a dcgrid checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setup = measure_setup(args.workload, args.seed, workdir, DEADLINE_S)
        budget = DEADLINE_S - (time.perf_counter() - start)
        _run_child([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--workdir", str(workdir)], budget)
        result = json.loads((workdir / "records.json").read_text())
        records = result["records"]
        env = {**result["env"], "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
               "machine": platform.machine()}
        failures = []
        for rec in records:
            fail, facts = checks.check(rec)
            rec["facts"] = facts
            rec["failures"] = fail
            failures += [f"round {rec['round']} {msg}" for msg in fail]
        ok = [r for r in records if not r["failures"]]
        if args.trace:
            traced = [r for r in ok if r["traced"]]
            first = [r for r in records if r["round"] == 0 and "layers" in r]
            twins = {(r["round"], r["index"], r["traced"]): r for r in ok}
            overhead = [r["wall_s"] / twins[r["round"], r["index"], False]["wall_s"] - 1.0
                        for r in traced if (r["round"], r["index"], False) in twins]
            metrics = per_layer(traced, first, result.get("load_flow_us"), overhead)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            shutil.move(str(workdir / "spans.jsonl"), str(spans_dir / f"{tag}.jsonl"))
        else:
            metrics = end_to_end(ok, setup, result["peak_rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len({r["round"] for r in records})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(records)} commands in {rounds} rounds, "
          f"{result['elapsed_s']:.1f} s")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    for line in workload_detail(args.workload, records, ok):
        print(line)
    if args.trace:
        print(f"spans: {result['span_count']} in {WORK.name}/spans/{tag}.jsonl")
        print("calls per command in the first traced round:")
        for line in by_kind_counts(first):
            print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    summary = {"correct": not failures, "attempted": len(records),
               "failed": len(records) - len(ok),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for v in summary["metrics"].values():
        if not math.isfinite(v["value"]):  # no command succeeded; "correct" is already false
            v["value"] = 0.0
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {**summary, "env": env, "setup_samples_s": setup,
         "samples": [{k: r[k] for k in ("kind", "round", "wall_s", "code", "traced",
                                        "failures")} | {"units": r["facts"].get("units")}
                     for r in records]}, indent=1))
    print(json.dumps(summary))


def run_all(args):
    """Every workload, untraced then traced, each in its own run.py process."""
    import inputs
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, text=True, stdout=subprocess.PIPE)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            print()


def main():
    import inputs
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.seed %= 2**32  # numpy seeds must be non-negative
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
