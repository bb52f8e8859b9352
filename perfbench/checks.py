"""Correctness checks on dcgrid's outputs, by invariants the benchmark computes itself.

Verdicts are not compared with stored answers, because a better threshold may
rightly turn "undetermined" into "certified-exists". Instead every answer must
agree with tau1 and tau4 computed here with numpy from the input file:

- "necessary-failed" iff u_ref <= tau1, and "certified-exists" whenever u_ref > tau4;
- the reported thresholds keep tau1 <= tau2 <= min(tau3, tau4), and the
  reported tau1 and tau4 match the ones computed here;
- a returned u_load lies in (0, u_ref] and solves the power balance, with the
  residual recomputed here; a certified one lies above its bracket floor;
- on the reference grid the published thresholds hold, and the paper's u_ref
  is certified (tau2 <= u_ref);
- the exit code matches the verdict;
- a simulation ends as its scenario expects, every checked trace row meets the
  load power constraint, and a settling run ends at the equilibrium computed here.

u_load > u_ref/2 is not checked, because it is not an invariant of the model:
the reference grid's own equilibrium has u_5 = 43.57 V < u_ref/2 = 44.82 V.

`check(record)` returns (failures, facts): a list of messages, empty when the
command is correct, and the numbers the metrics need (analyses, steps, ...).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs

# Trace times are written with 10 significant digits, so a row written at an
# event's time can read up to ~1e-11 s away from it; rows are dt = 1e-5 apart.
EVENT_TOL = 1e-9


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _certificate(cert, Y1, P, u_ref, tau1, tau4, where, rel=1e-9):
    """Checks shared by every analysis; returns (failures, facts).

    `rel` is the relative precision of the reported thresholds: full for the
    JSON report, six digits for the sweep CSV.
    """
    fail = []
    verdict = cert["verdict"]
    t1, t2 = cert["tau_necessary"], cert["tau_optimized"]
    t3, t4 = cert["tau_perron_vector"], cert["tau_contraction"]
    if not _close(t1, tau1, rel):
        fail.append(f"{where}: tau1 {t1!r} differs from {tau1!r}")
    if not _close(t4, tau4, rel):
        fail.append(f"{where}: tau4 {t4!r} differs from {tau4!r}")
    slack = rel * max(1.0, t2)
    if not (t1 <= t2 + slack and t2 <= min(t3, t4) + slack):
        fail.append(f"{where}: thresholds out of order {t1}, {t2}, {t3}, {t4}")
    if (verdict == "necessary-failed") != (u_ref <= tau1):
        fail.append(f"{where}: verdict {verdict} at u_ref {u_ref} with tau1 {tau1}")
    if u_ref > tau4 and verdict != "certified-exists":
        fail.append(f"{where}: verdict {verdict} above tau4 {tau4} (u_ref {u_ref})")
    u = cert.get("u_load")
    if u is not None:
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0) or np.any(u > u_ref * (1 + 1e-12)):
            fail.append(f"{where}: u_load outside (0, u_ref]")
        res = inputs.balance_residual(u, Y1, u_ref, P)
        if not res <= 1e-8 * u_ref * u_ref:
            fail.append(f"{where}: power balance residual {res:.3e}")
        low = cert.get("bracket_low")
        if verdict == "certified-exists" and low is not None \
                and np.any(u < np.asarray(low) - 1e-7 * u_ref):
            fail.append(f"{where}: certified u_load below its bracket floor")
    facts = {"above_tau1": u_ref > tau1, "undetermined": verdict == "undetermined"}
    return fail, facts


def _tau3(Y1, P):
    A = np.linalg.solve(Y1, np.diag(P))
    vals, vecs = np.linalg.eig(A)
    eta = np.abs(vecs[:, int(np.argmax(vals.real))].real)
    chi = float(np.max(vals.real))
    return math.sqrt(chi) * (eta.max() + eta.min()) / math.sqrt(eta.max() * eta.min())


def check_analyze(rec, doc):
    with open(rec["out"]) as fh:
        report = json.load(fh)
    Y1, P, u_ref = inputs.reduced(doc), inputs.load_powers(doc), doc["control"]["u_ref"]
    tau1, tau4 = inputs.thresholds(Y1, P)
    cert = report["certificate"]
    fail, fact = _certificate(cert, Y1, P, u_ref, tau1, tau4, rec["kind"])
    verdict = cert["verdict"]
    stable = report["stability"] is not None and report["stability"]["verdict"] == "stable"
    code = {"necessary-failed": 3, "undetermined": 2}.get(verdict, 0 if stable else 1)
    if rec["code"] != code or report["exit_code"] != code:
        fail.append(f"exit code {rec['code']} for verdict {verdict} (expected {code})")
    paper = rec["expect"].get("paper")
    if paper:
        own = (tau1, _tau3(Y1, P), tau4)
        got = (cert["tau_necessary"], cert["tau_perron_vector"], cert["tau_contraction"])
        for name, ref, tol, a, b in zip(("tau1", "tau3", "tau4"), inputs.PAPER[paper],
                                        inputs.PAPER_TOL, own, got):
            if abs(a - ref) > tol or abs(b - ref) > tol:
                fail.append(f"{paper} {name}: computed {a:.4f}, reported {b:.4f}, paper {ref}")
        if cert["tau_optimized"] > u_ref or verdict != "certified-exists":
            fail.append(f"{paper}: not certified at the paper's u_ref {u_ref}")
    return fail, {"analyses": [fact]}


def _sweep_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [l for l in lines if l and not l.startswith("#")]
    comments = [l for l in lines if l.startswith("#")]
    return list(csv.DictReader(body)), comments


def _sweep_row(row, doc, Y1, P):
    param, value = row["param"], float(row["value"])
    u_ref = doc["control"]["u_ref"]
    if param == "uref":
        u_ref = value
    elif param == "load":
        P = value * P
    tau1, tau4 = inputs.thresholds(Y1, P)
    cert = {"verdict": row["verdict"], "tau_necessary": float(row["tau_necessary"]),
            "tau_optimized": float(row["tau_optimized"]),
            "tau_perron_vector": float(row["tau_perron_vector"]),
            "tau_contraction": float(row["tau_contraction"])}
    where = f"{param}={value:g}"
    fail, fact = _certificate(cert, Y1, P, u_ref, tau1, tau4, where, rel=1e-5)
    found = row["root_found"] == "True"
    if row["verdict"] == "certified-exists" and not (found and row["stable"] in ("True", "False")):
        fail.append(f"{where}: certified without a root and stability verdict")
    if row["verdict"] == "necessary-failed" and found:
        fail.append(f"{where}: a root below the necessary threshold")
    return fail, fact, found, tau1


def check_sweep(rec, doc):
    rows, comments = _sweep_rows(rec["out"])
    Y1, P = inputs.reduced(doc), inputs.load_powers(doc)
    argv = rec["argv"]
    fail, facts, found, tau1s = [], [], {}, {}
    if rec["code"] != 0:
        fail.append(f"exit code {rec['code']}")
    for row in rows:
        row_fail, fact, root, tau1 = _sweep_row(row, doc, Y1, P)
        fail += row_fail
        facts.append(fact)
        found[float(row["value"])] = root
        tau1s[float(row["value"])] = tau1
    vmin, vmax = float(argv[argv.index("--min") + 1]), float(argv[argv.index("--max") + 1])
    if "--points" in argv:
        want = np.linspace(vmin, vmax, int(argv[argv.index("--points") + 1]))
        got = np.array(sorted(found))
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9):
            fail.append(f"evaluated {got.size} points, expected {want.size}")
        units = want.size
    else:
        tol = float(argv[argv.index("--bisect") + 1])
        units = rec["units"]
        marks = [c for c in comments if c.startswith("# boundary lo=")]
        if len(marks) != 1:
            fail.append(f"no bisection boundary in {comments}")
        else:
            parts = dict(kv.split("=") for kv in marks[0].split()[2:])
            lo, hi = float(parts["lo"]), float(parts["hi"])
            if not (lo < hi and hi - lo <= tol * (1 + 1e-9)):
                fail.append(f"bisection bracket [{lo}, {hi}] wider than {tol}")
            if lo not in found or hi not in found or found[lo] or not found[hi]:
                fail.append(f"bisection ends [{lo}, {hi}] do not bracket a root")
            elif hi <= tau1s[hi]:
                fail.append(f"bisection boundary {hi} below tau1 {tau1s[hi]}")
    return fail, {"analyses": facts, "units": units}


def _trace(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = np.loadtxt([l for l in lines[1:] if l and not l.startswith("#")],
                      delimiter=",", ndmin=2)
    return rows, comments


def powers_at(doc, t):
    """Load powers in force just after time t (events at t not yet applied)."""
    events = doc["scenario"]["events"]
    P = inputs.load_powers(doc)
    if any(e["action"] == "activate-cpl" for e in events):
        opens = min(e["t"] for e in events if e["action"] == "activate-cpl")
        if t <= opens + EVENT_TOL:
            return np.zeros_like(P)
    for e in events:
        if e["action"] == "set-loads" and e["t"] < t - EVENT_TOL:
            P = np.asarray(e["P"], dtype=float)
    return P


def check_simulate(rec, doc):
    expect = rec["expect"]
    fail = []
    want_code = 10 if expect["termination"] == "collapsed" else 0
    if rec["code"] != want_code:
        fail.append(f"exit code {rec['code']}, expected {want_code}")
    rows, comments = _trace(rec["out"])
    n, m = len(doc["sources"]), len(doc["loads"])
    steps = rows.shape[0] - 1
    last = comments[-1] if comments else ""
    if not last.startswith(f"# terminated {expect['termination']}"):
        fail.append(f"trace ends with {last!r}, expected {expect['termination']}")
    sc = doc["scenario"]
    if expect["termination"] == "collapsed":
        t_end = float(last.split("t=")[1].split()[0]) if "t=" in last else -1.0
        if not t_end > expect["after"]:
            fail.append(f"collapsed at {t_end}, before the step at {expect['after']}")
    elif abs(rows[-1, 0] - sc["horizon"]) > 1e-9:
        fail.append(f"trace ends at t={rows[-1, 0]}, horizon {sc['horizon']}")
    if steps > 99_998:
        fail.append("trace is decimated; steps cannot be counted from it")
    Y = inputs.laplacian(doc)
    Y_LS, Y_LL = Y[n:, :n], Y[n:, n:]
    event_times = [e["t"] for e in sc["events"]]
    for i in np.linspace(0, steps, 60).astype(int):
        t = rows[i, 0]
        if any(abs(t - te) <= EVENT_TOL for te in event_times):
            continue
        u_L, u_S = rows[i, 1:1 + m], rows[i, 1 + m:1 + m + n]
        P = powers_at(doc, t)
        res = np.max(np.abs(u_L * (Y_LS @ u_S + Y_LL @ u_L) + P))
        if not res <= 1e-5 * max(1.0, float(P.max())):
            fail.append(f"t={t:g}: load power constraint off by {res:.3e} W")
            break
    if expect.get("settles"):
        P = powers_at(doc, sc["horizon"] + 1.0)
        target = inputs.equilibrium(inputs.reduced(doc), P, doc["control"]["u_ref"])
        dev = float(np.max(np.abs(rows[-1, 1:1 + m] - target) / target))
        if not dev <= 1e-2:
            fail.append(f"final load voltages {dev:.2%} away from the equilibrium")
    return fail, {"units": steps}


def check(rec):
    """(failures, facts) for one command record."""
    if rec["code"] is None or rec.get("error"):
        return [f"{rec['kind']}: {rec.get('error') or 'raised'}"], {}
    if not Path(rec["out"]).exists():
        return [f"{rec['kind']}: no output written (exit code {rec['code']})"], {}
    with open(rec["input"]) as fh:
        doc = json.load(fh)
    command = rec["argv"][0]
    try:
        if command == "analyze":
            fail, facts = check_analyze(rec, doc)
        elif command == "sweep":
            fail, facts = check_sweep(rec, doc)
        else:
            fail, facts = check_simulate(rec, doc)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"{rec['kind']}: unreadable output ({type(exc).__name__}: {exc})"], {}
    facts.setdefault("units", rec["units"])
    return [f"{rec['kind']}: {msg}" for msg in fail], facts
