"""Workload inputs for the dcgrid benchmark, and the benchmark's own model math.

Everything here is numpy only and never imports dcgrid, so the thresholds and
equilibria used to check the program's answers are computed independently of
it. All inputs derive from the workload seed: the same seed gives the same
files, command lines and expectations.

A round is the fixed list of dcgrid commands a workload repeats. Every command
gets its own copy of its grid with the line resistances scaled by a factor
within 1e-12 of 1 that is unique to the command, so no cache kept across
`dcgrid.cli.main` calls in the benchmark's single process can serve a later
command. A CLI user gets a fresh process for every command. The two analyses
that check the paper's claims run on the paper's own numbers instead, with
node ids that are unique to the command: the claims are about that grid.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Reference grid: 4 sources, 6 loads, the nine lines in this order.
REFERENCE = {
    "sources": [{"id": str(i), "V": 300.0, "L": 2e-3, "C": c, "k": 1.0}
                for i, c in zip(range(1, 5), (2e-3, 2e-3, 2e-3, 2.5e-3))],
    "loads": [{"id": str(i), "P": p}
              for i, p in zip(range(5, 11), (1000.0, 1000.0, 1000.0, 500.0, 500.0, 500.0))],
    "lines": [{"a": a, "b": b, "r": r} for a, b, r in (
        ("1", "5", 1.0), ("5", "6", 1.0), ("2", "8", 0.2), ("6", "7", 0.2),
        ("7", "8", 0.5), ("3", "7", 1.0), ("6", "9", 0.2), ("9", "10", 0.5),
        ("4", "10", 0.5))],
    "control": {"u_ref": 89.64, "b": 1e-3},
}
HEAVY_P = (2000.0, 2000.0, 2000.0, 1500.0, 1500.0, 1500.0)
HEAVY_UREF = 135.51

# Published thresholds (tau1, tau3, tau4) of the reference grid and the
# tolerances of the acceptance tests.
PAPER = {"light": (89.28, 90.6, 92.19), "heavy": (134.93, 136.67, 140.39)}
PAPER_TOL = (0.05, 0.1, 0.05)

# Ladder rungs: loads per grid, one source per six loads. The 384-load rung
# is left out: one analysis there takes about 40 s.
LADDER_LOADS = (6, 12, 24, 48, 96)
# Grids per rung, all analyzed in every round. The time of one analysis
# varies up to twofold between grids of one size, because the threshold
# optimizer may stop well before its budget, so one grid per rung would
# make the figures depend on the seed more than on the program.
LADDER_GRIDS = 3
# u_ref of the middle band, as a share of the way from tau1 to tau4.
MIDDLE_BAND = 0.25

# The README's sweep commands on the reference grid. The --points sweeps keep
# the README's ranges with fewer points (25, 16 and 16 there), so that a 30 s
# run holds about three rounds; the bisection is the README's own.
SWEEPS = (
    ("sweep-uref", ["--param", "uref", "--min", "88", "--max", "91", "--points", "5"]),
    ("sweep-load", ["--param", "load", "--min", "0.5", "--max", "2.0", "--points", "4"]),
    ("sweep-b", ["--param", "b", "--min", "5e-4", "--max", "5e-3", "--points", "4"]),
    ("bisect", ["--param", "uref", "--min", "88", "--max", "91", "--bisect", "0.01"]),
)

WORKLOADS = ("table1-sweep", "ladder-analyze", "scenario-sim")


# ------------------------------------------------------------------ model math

def node_ids(doc):
    return [s["id"] for s in doc["sources"]] + [l["id"] for l in doc["loads"]]


def laplacian(doc) -> np.ndarray:
    idx = {v: i for i, v in enumerate(node_ids(doc))}
    Y = np.zeros((len(idx), len(idx)))
    for e in doc["lines"]:
        g = 1.0 / e["r"]
        i, j = idx[e["a"]], idx[e["b"]]
        Y[i, i] += g
        Y[j, j] += g
        Y[i, j] -= g
        Y[j, i] -= g
    return Y


def reduced(doc) -> np.ndarray:
    """Y1: the load-side Schur complement with sources behind their droop k."""
    n = len(doc["sources"])
    Y = laplacian(doc)
    k = np.array([s["k"] for s in doc["sources"]])
    return Y[n:, n:] - Y[n:, :n] @ np.linalg.solve(Y[:n, :n] + np.diag(1.0 / k), Y[:n, n:])


def load_powers(doc) -> np.ndarray:
    return np.array([l["P"] for l in doc["loads"]], dtype=float)


def thresholds(Y1, P) -> tuple[float, float]:
    """(tau1, tau4) of A = Y1^-1 diag(P): 2 sqrt(spectral radius), 2 sqrt(max row sum)."""
    A = np.linalg.solve(Y1, np.diag(P))
    tau1 = 2.0 * math.sqrt(max(float(np.max(np.abs(np.linalg.eigvals(A)))), 0.0))
    tau4 = 2.0 * math.sqrt(float(np.abs(A).sum(axis=1).max()))
    return tau1, tau4


def balance_residual(u, Y1, u_ref, P) -> float:
    """Inf-norm of the load power balance u .* (Y1 (u - u_ref)) + P."""
    u = np.asarray(u, dtype=float)
    return float(np.max(np.abs(u * (Y1 @ (u - u_ref)) + P)))


def equilibrium(Y1, P, u_ref) -> np.ndarray:
    """High-voltage equilibrium by monotone iteration u <- u_ref - A (1/u) from u_ref."""
    A = np.linalg.solve(Y1, np.diag(P))
    u = np.full(len(P), float(u_ref))
    for _ in range(200_000):
        nxt = u_ref - A @ (1.0 / u)
        if np.any(nxt <= 0):
            raise ValueError("no equilibrium: the monotone iteration left the orthant")
        if np.max(np.abs(nxt - u)) <= 1e-11 * u_ref:
            return nxt
        u = nxt
    raise ValueError("monotone iteration did not converge")


# ------------------------------------------------------------------ generators

def random_grid(rng, n, m) -> dict:
    """Connected grid with n sources and m loads: a random spanning tree plus m//4 chords."""
    N = n + m
    order = rng.permutation(N)
    edges = set()
    for idx in range(1, N):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < N - 1 + max(1, m // 4):
        a, b = (int(v) for v in rng.integers(0, N, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    names = [f"s{i}" for i in range(n)] + [f"l{j}" for j in range(m)]
    P = rng.uniform(200.0, 2000.0, m)
    P[rng.random(m) < 0.1] = 0.0
    if not np.any(P > 0):
        P[0] = 1000.0
    return {
        "sources": [{"id": names[i], "V": 300.0, "L": 2e-3,
                     "C": float(rng.uniform(1e-3, 3e-3)),
                     "k": float(rng.uniform(0.5, 2.0))} for i in range(n)],
        "loads": [{"id": names[n + j], "P": float(P[j])} for j in range(m)],
        "lines": [{"a": names[a], "b": names[b], "r": float(rng.uniform(0.1, 2.0))}
                  for a, b in sorted(edges)],
        "control": {"u_ref": 1.0, "b": float(rng.uniform(2e-4, 2e-3))},
    }


def perturbed(doc, salt: int) -> dict:
    """Copy of a grid whose line resistances are scaled by 1 + salt * 1e-15."""
    out = copy.deepcopy(doc)
    for line in out["lines"]:
        line["r"] = line["r"] * (1.0 + salt * 1e-15)
    return out


def relabelled(doc, salt: int) -> dict:
    """Copy of a grid with the same numbers whose node ids all get the prefix c<salt>_."""
    out = copy.deepcopy(doc)
    prefix = f"c{salt}_"
    for node in out["sources"] + out["loads"]:
        node["id"] = prefix + node["id"]
    for line in out["lines"]:
        line["a"], line["b"] = prefix + line["a"], prefix + line["b"]
    return out


def _with_control(doc, u_ref=None, P=None):
    out = copy.deepcopy(doc)
    if u_ref is not None:
        out["control"]["u_ref"] = float(u_ref)
    if P is not None:
        for load, p in zip(out["loads"], P):
            load["P"] = float(p)
    return out


@dataclass
class Command:
    """One dcgrid command of a round: its input document and what to expect.

    `argv` holds the placeholders {input} and {out}, which the runner fills
    with file paths. `units` is the work the command does in the workload's
    unit: grid evaluations or analyses. It is None for simulations, whose RK4
    steps are counted from the trace.
    """

    kind: str
    doc: dict
    argv: list
    units: int | None
    expect: dict

    def to_dict(self):
        return {"kind": self.kind, "argv": self.argv, "units": self.units,
                "expect": self.expect}


def _bisect_evals(vmin, vmax, tol) -> int:
    evals, width = 2, vmax - vmin
    while width > tol:
        width /= 2.0
        evals += 1
    return evals


def _analyze_argv(seed):
    return ["analyze", "{input}", "--out", "{out}", "--seed", str(seed)]


def _table1_round(seed):
    heavy = _with_control(REFERENCE, u_ref=HEAVY_UREF, P=HEAVY_P)
    cmds = [
        Command("analyze-light", REFERENCE, _analyze_argv(seed), 1, {"paper": "light"}),
        Command("analyze-heavy", heavy, _analyze_argv(seed), 1, {"paper": "heavy"}),
    ]
    for kind, args in SWEEPS:
        if "--bisect" in args:
            units = _bisect_evals(float(args[3]), float(args[5]), float(args[7]))
        else:
            units = int(args[-1])
        cmds.append(Command(kind, REFERENCE,
                            ["sweep", "{input}", *args, "--jobs", "1", "--seed", str(seed),
                             "--out", "{out}"], units, {}))
    return cmds


def ladder_grid(seed, index, m) -> dict:
    """Grid `index` of the m-load rung. Every round analyzes the same grids, so
    a faster program is timed on the same inputs, not on extra ones; the
    per-command perturbation keeps a cache from serving a later analysis."""
    rng = np.random.default_rng((seed, index, m))
    return random_grid(rng, max(1, m // 6), m)


def _ladder_round(seed):
    cmds = []
    for index, m in itertools.product(range(LADDER_GRIDS), LADDER_LOADS):
        doc = ladder_grid(seed, index, m)
        tau1, tau4 = thresholds(reduced(doc), load_powers(doc))
        bands = (("below", 0.97 * tau1),
                 ("middle", tau1 + MIDDLE_BAND * (tau4 - tau1)),
                 ("above", 1.05 * tau4))
        for band, u_ref in bands:
            cmds.append(Command(f"analyze-m{m}", _with_control(doc, u_ref=u_ref),
                                _analyze_argv(seed), 1, {"band": band, "m": m}))
    return cmds


def _scenario(doc, horizon, events, dt=1e-5):
    out = copy.deepcopy(doc)
    out["scenario"] = {"horizon": horizon, "dt": dt, "events": events}
    return out


def _scenario_round(seed):
    rng = np.random.default_rng((seed, 7))
    light = load_powers(REFERENCE)
    t_step = float(rng.uniform(0.015, 0.025))
    start = float(rng.uniform(0.4, 0.6))
    cmds = []
    settle = _scenario(_with_control(REFERENCE, P=start * light), 0.08, [
        {"t": 0.001, "action": "activate-cpl"},
        {"t": t_step, "action": "set-loads", "P": light.tolist()}])
    cmds.append(("step-settle", settle, {"termination": "completed", "settles": True}))

    # scaled so that tau1 of the stepped profile is at least 10% above u_ref
    tau1, _ = thresholds(reduced(REFERENCE), light)
    scale = (1.1 * REFERENCE["control"]["u_ref"] / tau1) ** 2 * float(rng.uniform(1.0, 1.1))
    collapse = _scenario(_with_control(REFERENCE, P=start * light), 0.08, [
        {"t": 0.001, "action": "activate-cpl"},
        {"t": t_step, "action": "set-loads", "P": (scale * light).tolist()}])
    cmds.append(("step-collapse", collapse,
                 {"termination": "collapsed", "after": t_step}))

    t_on = float(rng.uniform(0.025, 0.035))
    soft_grid = copy.deepcopy(REFERENCE)
    soft_grid["control"] = {"u_ref": 200.0, "b": 3e-3}
    soft = _scenario(soft_grid, 0.1, [
        {"t": 0.0, "action": "set-controller", "k": [0.0] * 4, "b": 3e-3},
        {"t": 0.001, "action": "activate-cpl"},
        {"t": t_on, "action": "set-controller", "k": [1.0] * 4, "b": 3e-3}])
    cmds.append(("soft-start", soft, {"termination": "completed", "settles": True}))

    big = random_grid(rng, 4, 24)
    P = load_powers(big)
    _, tau4 = thresholds(reduced(big), P)
    big["control"]["u_ref"] = 1.3 * tau4
    big = _with_control(big, P=0.5 * P)
    large = _scenario(big, 0.05, [
        {"t": 0.001, "action": "activate-cpl"},
        {"t": t_step, "action": "set-loads", "P": P.tolist()}])
    cmds.append(("step-m24", large, {"termination": "completed", "settles": False}))
    return [Command(kind, doc, ["simulate", "{input}", "--out", "{out}"], None, expect)
            for kind, doc, expect in cmds]


def round_commands(workload, seed, round_index, copy_index=0) -> list[Command]:
    """The commands of round `round_index`, each on its own grid copy: perturbed,
    or relabelled for the paper checks.

    Copies with another `copy_index` run the same commands on other copies.
    """
    if workload == "table1-sweep":
        cmds = _table1_round(seed)
    elif workload == "ladder-analyze":
        cmds = _ladder_round(seed)
    elif workload == "scenario-sim":
        cmds = _scenario_round(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, cmd in enumerate(cmds):
        copy_of = relabelled if "paper" in cmd.expect else perturbed
        cmd.doc = copy_of(cmd.doc, 1 + ((2 * round_index + copy_index) * len(cmds) + i))
    return cmds


def warmup_command(workload, seed) -> Command:
    """An untimed command that loads what the first timed one would load lazily."""
    if workload == "scenario-sim":
        doc = _scenario(REFERENCE, 0.0005, [{"t": 0.0001, "action": "activate-cpl"}])
        return Command("warmup", doc, ["simulate", "{input}", "--out", "{out}"], None, {})
    return Command("warmup", REFERENCE, ["analyze", "{input}", "--out", "{out}"], 1, {})
