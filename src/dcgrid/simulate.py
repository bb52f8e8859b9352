"""Nonlinear time-domain simulation of the closed-loop averaged model.

State is (i_L, u_S): converter inductor currents behind the droop controller
(virtual inductance X = b*K) and the source bus voltages,

    X d(i_L)/dt = u_ref*1 - K i_L - u_S
    C d(u_S)/dt = i_L - i_S,          i_S = Y_SS u_S + Y_SL u_L,

with the load voltages u_L an algebraic variable pinned each evaluation by
the exact constant-power constraint u_i (Y_LS u_S + Y_LL u_L)_i = -P_i
(index-1 DAE, no fictitious load capacitance). Given u_L the dynamics are
linear: with x = (i_L, u_S) every Runge-Kutta stage derivative is
dx = M x + N u_L + e, with M, N and e built once per event-free phase. A step
runs 4 load flows: one for each of stages 2-4 and one at the step's end.
Stage 1 sits at the state where the previous flow already balanced the
loads, so it reuses that u_L. Each flow (`_LoadFlow`) solves the paper's
fixed-point form u_L = zeta - A(1/u_L), zeta = -Y_LL^-1 Y_LS u_S and
A = Y_LL^-1 diag(P). It warm-starts from the previous flow and takes chord
steps on an inverse Jacobian cached across flows until the residual reaches
the rounding floor ||G||_2 <= 1e-14*u_ref volts; when the chord stops short
of it, it falls back to `linalg.balance_newton`, the Newton behind
`existence.fixed_point_solve` too, from the same warm start, which stops at
max|G| <= 1e-12*u_ref. A scenario that schedules an activate-cpl event
starts with the loads open (P = 0, A = 0) until the event fires; otherwise
loads draw power from t = 0. A source with k_i = 0 runs undamped with
X_i = b * 1 ohm: the droop term vanishes and only the virtual inductor
remains.

Collapse is detected by the failure of that Newton fallback (the power
balance lost its real root near the previous solution) or any load voltage
at or below 1 V, and is reported at the last time every load was balanced
above that floor: the start of the step whose stage or end-of-step flow
failed, or the event time when re-pinning the loads after an event fails.

Scenario files extend the grid document with::

    "scenario": {"horizon": 0.12, "dt": 1e-5, "events": [
        {"t": 0.001, "action": "activate-cpl"},
        {"t": 0.05,  "action": "set-loads", "P": [1000, ...]},
        {"t": 0.2,   "action": "set-controller", "k": [1, 1, 1, 1], "b": 3e-3}
    ]}
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._record import Record
from .errors import NumericalError, SpecError
from .linalg import balance_newton
from .network import (AdmittancePartition, NetworkSpec, _number, _number_problem,
                      _read_json, _require, build_admittance, parse_network)

__all__ = [
    "Event",
    "Scenario",
    "SimulationTrace",
    "parse_scenario",
    "load_scenario",
    "solve_load_voltages",
    "simulate",
]

_DEFAULT_DT = 1e-6
_MAX_SAMPLES = 100_000
_COLLAPSE_FLOOR = 1.0          # volts
_CSV_BLOCK = 1024              # trace rows formatted per write
_CHORD_STEPS = 4               # chord steps per load flow before Newton takes over
_REFRESH_STEPS = 3             # chord steps to the floor that refresh J^-1 at the root
_FLOW_FLOOR = 1e-14            # ||G||_2 / u_ref that ends the chord: the rounding floor
# classical RK4: (node, weight) of each stage; the weights sum to 6
_RK4_STAGES = ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0))


@dataclass(frozen=True)
class Event:
    t: float
    action: str                      # set-loads | set-controller | activate-cpl
    P: np.ndarray | None = None      # set-loads payload
    k: np.ndarray | None = None      # set-controller payload (zeros allowed)
    b: float | None = None           # set-controller payload

    def describe(self) -> str:
        if self.action == "set-loads":
            return f"set-loads P={self.P.tolist()}"
        if self.action == "set-controller":
            return f"set-controller k={self.k.tolist()} b={self.b:g}"
        return self.action


@dataclass(frozen=True)
class Scenario:
    """A grid, horizon and step in seconds, and sorted events; every run starts
    at u_S = u_ref*1, i_L = 0, with the load voltages from a load flow."""

    spec: NetworkSpec
    horizon: float
    dt: float = _DEFAULT_DT
    events: tuple[Event, ...] = ()


@dataclass(frozen=True)
class SimulationTrace(Record):
    """Samples at t = 0, after every `simulate` stride-th step and, when the run
    completes, at its horizon; the events as applied; and how the run ended."""

    t: np.ndarray
    u_load: np.ndarray          # samples x m
    u_source: np.ndarray        # samples x n
    i_inductor: np.ndarray      # samples x n
    events: tuple               # (time, description) pairs as applied
    termination: str            # completed | collapsed
    collapse_time: float | None = None
    collapse_node: object = None  # load id whose voltage broke first

    def to_csv(self, fh) -> None:
        """Write the trace in the plot-ready column layout.

        Columns are positional: u_<n+1>..u_<n+m> load voltages,
        us_1..us_n source voltages, il_1..il_n inductor currents. Events and
        the termination status follow as trailing comment lines.
        """
        n = self.u_source.shape[1]
        m = self.u_load.shape[1]
        header = (["t"]
                  + [f"u_{n + i + 1}" for i in range(m)]
                  + [f"us_{i + 1}" for i in range(n)]
                  + [f"il_{i + 1}" for i in range(n)])
        fh.write(",".join(header) + "\n")
        rows = np.column_stack((self.t, self.u_load, self.u_source, self.i_inductor))
        line = ",".join(["%.10g"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK].tolist()
            fh.write("".join([line % tuple(row) for row in block]))
        for when, what in self.events:
            fh.write(f"# event t={when:g} {what}\n")
        if self.termination == "collapsed":
            fh.write(f"# terminated collapsed t={self.collapse_time:g} "
                     f"node={self.collapse_node}\n")
        else:
            fh.write("# terminated completed\n")


def _vector(obj, key, path, length):
    """obj[key] as an array of `length` finite numbers >= 0."""
    field = f"{path}.{key}"
    _require(key in obj, "missing required key", field)
    val = obj[key]
    _require(isinstance(val, list) and len(val) == length,
             f"expected a list of {length} numbers", field)
    for i, v in enumerate(val):
        problem = _number_problem(v, nonnegative=True)
        if problem:
            raise SpecError(problem, field=f"{field}[{i}]")
    return np.array(val, dtype=float)


def parse_scenario(document: dict) -> Scenario:
    """Validate a scenario document (grid document + "scenario" block)."""
    spec = parse_network(document)
    _require("scenario" in document, "missing required key", "$.scenario")
    sc = document["scenario"]
    _require(isinstance(sc, dict), "expected an object", "scenario")
    horizon = _number(sc, "horizon", "scenario", positive=True)
    dt = _number(sc, "dt", "scenario", positive=True) if "dt" in sc else _DEFAULT_DT
    _require(isinstance(sc.get("events", []), list), "expected a list", "scenario.events")
    events = []
    last_t = -np.inf
    for i, ev in enumerate(sc.get("events", [])):
        path = f"scenario.events[{i}]"
        _require(isinstance(ev, dict), "expected an object", path)
        t = _number(ev, "t", path, nonnegative=True)
        _require(t >= last_t, "events must be sorted by time", f"{path}.t")
        last_t = t
        action = ev.get("action")
        if action == "set-loads":
            events.append(Event(t=t, action=action, P=_vector(ev, "P", path, spec.m)))
        elif action == "set-controller":
            events.append(Event(t=t, action=action, k=_vector(ev, "k", path, spec.n),
                                b=_number(ev, "b", path, positive=True)))
        elif action == "activate-cpl":
            events.append(Event(t=t, action=action))
        else:
            raise SpecError("unknown action", field=f"{path}.action")
    _require(not events or horizon >= events[-1].t, "horizon must cover the last event",
             "scenario.horizon")
    return Scenario(spec=spec, horizon=horizon, dt=dt, events=tuple(events))


def load_scenario(path) -> Scenario:
    """Read and parse a scenario document from a JSON file."""
    return parse_scenario(_read_json(path))


def _above(u, floor):
    return all((u > floor).tolist())


class _LoadFlow:
    """The simulator's load flow: chord steps on a cached inverse Jacobian,
    with `linalg.balance_newton` behind them.

    A chord step is a Newton step that reuses J^-1, the inverse of
    G' = I - A diag(1/u^2) at an earlier root. At dt = 1e-5 that Jacobian
    barely moves between Runge-Kutta stages, so one chord step (a matvec)
    usually does the work of a Newton step (a solve). One object serves one
    `simulate` call: it inverts Y_LL once, re-forms A when the loads change
    and keeps J^-1 across its flows.
    """

    def __init__(self, partition: AdmittancePartition, u_ref: float):
        self._Y_inv = Y_inv = np.linalg.inv(partition.Y_LL)
        self._zeta_map = -Y_inv @ partition.Y_LS    # zeta = -Y_LL^-1 Y_LS u_S
        self._u_ref = u_ref
        self._floor_sq = (_FLOW_FLOOR * u_ref) ** 2
        self._eye = np.eye(Y_inv.shape[0])
        self._P = self._A = self._J_inv = None

    def solve(self, u_S, P, warm):
        """Load voltages that balance P at source voltages u_S; returns (u_L, converged).

        The chord has one stop: the rounding floor ||G(u)||_2 <= 1e-14*u_ref,
        a hundredth of the bound max|G| <= 1e-12*u_ref that `balance_newton`
        stops at, tested on the warm start (iterate 0) and after each of at
        most _CHORD_STEPS chord steps. Stopping where rounding decides the
        last digits keeps the answer from depending on how close a warm start
        came to a looser bound. An iterate that leaves the positive orthant
        (checked before 1/u is formed), or a chord that stops short of the
        floor, hands over to Newton from the same warm start, so collapse
        still means that Newton failed; its root meets the looser bound. J^-1
        is refreshed at the root after _REFRESH_STEPS or more chord steps and
        after every Newton fallback. (`ndarray.dot` skips the dispatch of `@`,
        which on vectors this short costs as much as the product itself; a
        NaN in G fails the floor test.)
        """
        if P is not self._P:
            self._P, self._A = P, self._Y_inv * P
        A = self._A
        zeta = self._zeta_map.dot(u_S)
        J_inv = self._J_inv
        if J_inv is not None:
            u = warm
            for step in range(_CHORD_STEPS + 1):
                if step:
                    u = u - J_inv.dot(G)
                    if not _above(u, 0.0):
                        break
                G = u + A.dot(1.0 / u) - zeta
                if G.dot(G) <= self._floor_sq:
                    if step >= _REFRESH_STEPS:
                        self._refresh(self._eye - A / (u * u))
                    return u, True
        u, J, ok = balance_newton(zeta, A, warm, self._u_ref)
        if ok:
            self._refresh(J)
        return u, ok

    def _refresh(self, J):
        try:
            self._J_inv = np.linalg.inv(J)
        except np.linalg.LinAlgError:
            self._J_inv = None


def solve_load_voltages(u_S: np.ndarray, P: np.ndarray,
                        partition: AdmittancePartition,
                        warm_start: np.ndarray) -> np.ndarray:
    """Load voltages satisfying u_i (Y_LS u_S + Y_LL u_L)_i = -P_i.

    One flow of the simulator's load flow with no cached Jacobian, so Newton
    on the fixed-point form from the warm start, stopped at 1e-12*max(u_S)
    volts; raises NumericalError when the balance has no root near the warm
    start (the integrator treats that as voltage collapse).
    """
    u_S = np.asarray(u_S, dtype=float)
    u, ok = _LoadFlow(partition, float(np.max(u_S))).solve(
        u_S, np.asarray(P, dtype=float), np.asarray(warm_start, dtype=float))
    if not ok:
        raise NumericalError("load power balance has no solution near the warm start")
    return u


class _Phase:
    """Controller and load configuration between events, and the constants of
    the state update it implies.

    With the state x = (i_L, u_S), every stage derivative is the linear map
    dx = M x + N u_L + e; `apply` rebuilds M, N, e and the load powers P in
    force whenever an event changes the configuration.
    """

    def __init__(self, spec: NetworkSpec, partition: AdmittancePartition, active: bool):
        self.P_set = spec.p_vector()
        self.k = spec.k_diag()
        self.b = spec.control.b
        self.active = active
        self._u_ref = spec.control.u_ref
        self._C = spec.c_diag()
        self._partition = partition
        self._build()

    def apply(self, ev: Event):
        if ev.action == "set-loads":
            self.P_set = ev.P.copy()
        elif ev.action == "set-controller":
            self.k = ev.k.copy()
            self.b = ev.b
        elif ev.action == "activate-cpl":
            self.active = True
        self._build()

    def _build(self):
        self.P = self.P_set if self.active else np.zeros_like(self.P_set)
        # X d(i_L)/dt = u_ref*1 - K i_L - u_S and C d(u_S)/dt = i_L - Y_SS u_S - Y_SL u_L
        # (e carries u_ref/X as u_ref*(1/X), so that u_S = u_ref cancels exactly)
        inv_X = 1.0 / np.where(self.k > 0, self.b * self.k, self.b)
        C = self._C[:, None]
        self.M = np.block([[np.diag(-self.k * inv_X), np.diag(-inv_X)],
                           [np.diag(1.0 / self._C), -self._partition.Y_SS / C]])
        self.N = np.vstack([np.zeros_like(self._partition.Y_SL),
                            -self._partition.Y_SL / C])
        self.e = np.concatenate([self._u_ref * inv_X, np.zeros_like(inv_X)])


def simulate(scenario: Scenario) -> SimulationTrace:
    """Integrate the scenario with classical fixed-step Runge-Kutta.

    Events are applied exactly at their timestamps (the step is shortened to
    land on them). With steps = ceil(horizon / dt), a sample is stored every
    ceil((steps + 2) / 1e5) steps: after every step when steps <= 99998, and
    about 1e5 samples in all otherwise. On collapse the trace ends early with
    the offending load recorded; collapse is a result, not an error.
    """
    spec = scenario.spec
    partition = build_admittance(spec)
    u_ref = spec.control.u_ref
    n, m = spec.n, spec.m
    load_ids = tuple(l.id for l in spec.loads)
    # scheduling an activate-cpl event means the run starts with loads open
    starts_open = any(ev.action == "activate-cpl" for ev in scenario.events)
    phase = _Phase(spec, partition, active=not starts_open)

    total_steps = max(1, math.ceil(scenario.horizon / scenario.dt))
    # +2 covers the t=0 sample and a possible off-grid final sample
    decimation = max(1, math.ceil((total_steps + 2) / _MAX_SAMPLES))

    events = list(scenario.events)
    applied = []
    tiny = scenario.dt * 1e-9

    t = 0.0
    while events and events[0].t <= tiny:
        ev = events.pop(0)
        phase.apply(ev)
        applied.append((ev.t, ev.describe()))

    x = np.concatenate([np.zeros(n), u_ref * np.ones(n)])
    load_flow = _LoadFlow(partition, u_ref).solve
    u_L, ok = load_flow(x[n:], phase.P, u_ref * np.ones(m))
    if not ok:
        raise SpecError("initial state admits no load-flow solution", field="scenario")

    # one row per sample: t | u_L | i_L | u_S. The size allows for each
    # event splitting a step and each stretch between events ending in a
    # round-off step; the buffer still grows should round-off add more
    samples = np.empty(((total_steps + 2 * len(events) + 1) // decimation + 2,
                        1 + m + 2 * n))
    count = 0

    def record(time):
        nonlocal samples, count
        if count == samples.shape[0]:
            samples = np.concatenate([samples, np.empty_like(samples)])
        row = samples[count]
        row[0] = time
        row[1:1 + m] = u_L
        row[1 + m:] = x
        count += 1

    def finish(termination, collapse_time=None, node=None):
        kept = samples[:count]
        return SimulationTrace(
            t=kept[:, 0], u_load=kept[:, 1:1 + m], u_source=kept[:, 1 + m + n:],
            i_inductor=kept[:, 1 + m:1 + m + n], events=tuple(applied),
            termination=termination, collapse_time=collapse_time, collapse_node=node)

    record(0.0)
    steps = 0

    while t < scenario.horizon - tiny:
        t_stop = min(events[0].t, scenario.horizon) if events else scenario.horizon
        while t < t_stop - tiny:
            h = min(scenario.dt, t_stop - t)
            # stage 1 sits at the step's start, where u_L already balances the
            # loads; each later stage warm-starts its load flow from the
            # previous stage's solution, which also names the node when that
            # solve fails
            warm = u_L
            dx = phase.M.dot(x) + phase.N.dot(warm) + phase.e
            dx_sum = dx
            for node, weight in _RK4_STAGES[1:]:
                x_stage = x + node * h * dx
                warm_next, ok = load_flow(x_stage[n:], phase.P, warm)
                if not ok:
                    return finish("collapsed", t, load_ids[int(np.argmin(warm))])
                warm = warm_next
                dx = phase.M.dot(x_stage) + phase.N.dot(warm) + phase.e
                dx_sum = dx_sum + weight * dx
            x = x + (h / 6.0) * dx_sum
            u_next, ok = load_flow(x[n:], phase.P, warm)
            if not ok or not _above(u_next, _COLLAPSE_FLOOR):
                node = load_ids[int(np.argmin(u_next if ok else warm))]
                return finish("collapsed", t, node)
            t += h
            steps += 1
            u_L = u_next
            if steps % decimation == 0:
                record(t)
        t = t_stop
        while events and events[0].t <= t + tiny:
            ev = events.pop(0)
            phase.apply(ev)
            applied.append((ev.t, ev.describe()))
            # re-pin the algebraic variable under the new load constraint
            u_L, ok = load_flow(x[n:], phase.P, u_L)
            if not ok:
                return finish("collapsed", t, load_ids[int(np.argmin(u_L))])

    if samples[count - 1, 0] < t - tiny:
        record(t)
    return finish("completed")
