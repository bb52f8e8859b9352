"""Scenario parsing, the algebraic load solve, and the RK4 integrator."""

import dataclasses
import importlib
import io
import json
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from dcgrid import (Event, NumericalError, SpecError,
                    build_admittance, load_scenario, parse_network,
                    parse_scenario, prepare, simulate, solve_load_voltages)
from dcgrid.linalg import balance_newton
from conftest import EXAMPLES, LIGHT, TABLE1, random_grid_document
from golden_traces import SCENARIOS, newton_load_flow, shipped_trace

_sim = importlib.import_module("dcgrid.simulate")
with open(TABLE1) as _fh:
    _TABLE1_PARTITION = build_admittance(parse_network(json.load(_fh)))


def _single_node_doc(u_ref=100.0, b=1e-3, P=500.0, r=1.0, k=1.0):
    return {
        "sources": [{"id": "s", "V": 300.0, "L": 2e-3, "C": 2e-3, "k": k}],
        "loads": [{"id": "l", "P": P}],
        "lines": [{"a": "s", "b": "l", "r": r}],
        "control": {"u_ref": u_ref, "b": b},
    }


def _scenario_doc(horizon, dt=None, events=(), **kw):
    doc = _single_node_doc(**kw)
    doc["scenario"] = {"horizon": horizon, "events": list(events)}
    if dt is not None:
        doc["scenario"]["dt"] = dt
    return doc


def test_parse_scenario_defaults():
    sc = parse_scenario(_scenario_doc(0.01))
    assert sc.dt == 1e-6
    assert sc.horizon == 0.01
    assert sc.events == ()


@pytest.mark.parametrize("corrupt, needle", [
    (lambda d: d.pop("scenario"), "scenario"),
    (lambda d: d["scenario"].update(horizon=-1), "horizon"),
    (lambda d: d["scenario"].update(dt=0), "dt"),
    (lambda d: d["scenario"].update(events=[{"t": -1, "action": "activate-cpl"}]), "t"),
    (lambda d: d["scenario"].update(events=[{"t": 0, "action": "warp"}]), "action"),
    (lambda d: d["scenario"].update(events=[
        {"t": 0.02, "action": "activate-cpl"},
        {"t": 0.01, "action": "activate-cpl"}]), "sorted"),
    (lambda d: d["scenario"].update(events=[
        {"t": 0, "action": "set-loads", "P": [1.0, 2.0]}]), "P"),
    (lambda d: d["scenario"].update(events=[
        {"t": 0, "action": "set-controller", "k": [1.0], "b": 0}]), "b"),
    (lambda d: d["scenario"].update(horizon=0.001, events=[
        {"t": 0.5, "action": "activate-cpl"}]), "horizon"),
    # malformed values are rejected with their field path, as in the grid document
    (lambda d: d["scenario"].update(events=5), "scenario.events"),
    (lambda d: d["scenario"].update(horizon=float("inf")), "scenario.horizon"),
    (lambda d: d["scenario"].update(horizon=True), "scenario.horizon"),
    (lambda d: d["scenario"].update(dt=float("nan")), "scenario.dt"),
    (lambda d: d["scenario"].update(events=[{"t": float("nan"), "action": "activate-cpl"}]),
     "scenario.events[0].t"),
    (lambda d: d["scenario"].update(events=[{"t": True, "action": "activate-cpl"}]),
     "scenario.events[0].t"),
    (lambda d: d["scenario"].update(events=[{"t": 0, "action": "set-loads", "P": ["x"]}]),
     "scenario.events[0].P[0]"),
    (lambda d: d["scenario"].update(events=[{"t": 0, "action": "set-loads", "P": [True]}]),
     "scenario.events[0].P[0]"),
    (lambda d: d["scenario"].update(events=[
        {"t": 0, "action": "set-controller", "k": [1.0], "b": float("nan")}]),
     "scenario.events[0].b"),
])
def test_parse_scenario_diagnostics(corrupt, needle):
    doc = _scenario_doc(0.05)
    corrupt(doc)
    with pytest.raises(SpecError) as err:
        parse_scenario(doc)
    assert needle in str(err.value)


def test_load_scenario_reads_shipped_files():
    for name in ("load_step_stable.json", "load_step_collapse.json",
                 "soft_start_high_uref.json"):
        sc = load_scenario(EXAMPLES / name)
        assert sc.dt == 1e-5
        assert sc.events


def test_event_descriptions():
    assert Event(0.0, "activate-cpl").describe() == "activate-cpl"
    assert "P=[5.0]" in Event(0.0, "set-loads", P=np.array([5.0])).describe()
    e = Event(0.0, "set-controller", k=np.array([1.0]), b=2e-3)
    assert "b=0.002" in e.describe()


def test_solve_load_voltages_satisfies_power_balance(table1_spec, table1_partition):
    P = table1_spec.p_vector()
    u_S = 89.64 * np.ones(4)
    u = solve_load_voltages(u_S, P, table1_partition, 89.64 * np.ones(6))
    balance = u * (table1_partition.Y_LS @ u_S + table1_partition.Y_LL @ u) + P
    assert np.max(np.abs(balance)) <= 1e-6
    # open-circuit case collapses to a linear solve
    u0 = solve_load_voltages(u_S, np.zeros(6), table1_partition, np.ones(6))
    np.testing.assert_allclose(u0, 89.64, rtol=1e-12)


def test_solve_load_voltages_detects_infeasibility(table1_spec, table1_partition):
    with pytest.raises(NumericalError):
        solve_load_voltages(89.64 * np.ones(4), 1e6 * np.ones(6),
                            table1_partition, 89.64 * np.ones(6))


def test_single_node_settles_to_closed_form():
    # one source, one load: i solves (k+r) i^2 - u_ref i + P = 0
    u_ref, P, r, k = 100.0, 500.0, 1.0, 1.0
    i_star = (u_ref - np.sqrt(u_ref**2 - 4 * (k + r) * P)) / (2 * (k + r))
    u_star = u_ref - (k + r) * i_star
    sc = parse_scenario(_scenario_doc(0.08, dt=1e-5, u_ref=u_ref, P=P, r=r, k=k))
    trace = simulate(sc)
    assert trace.termination == "completed"
    assert trace.u_load[-1, 0] == pytest.approx(u_star, abs=1e-3)
    assert trace.i_inductor[-1, 0] == pytest.approx(i_star, abs=1e-3)
    # the source current i_S = Y_SS u_S + Y_SL u_L at the last sample
    partition = build_admittance(sc.spec)
    i_S = partition.Y_SS @ trace.u_source[-1] + partition.Y_SL @ trace.u_load[-1]
    assert i_S[0] == pytest.approx(i_star, abs=1e-3)


def test_loads_active_from_start_without_activation_event():
    sc = parse_scenario(_scenario_doc(0.001, dt=1e-5))
    trace = simulate(sc)
    # power is drawn immediately: the first post-initial sample sags below u_ref
    assert trace.u_load[1, 0] < 100.0 - 1e-3


def test_activation_event_keeps_loads_open_until_fired():
    sc = parse_scenario(_scenario_doc(
        0.02, dt=1e-5, events=[{"t": 0.01, "action": "activate-cpl"}]))
    trace = simulate(sc)
    pre = trace.t < 0.0099
    np.testing.assert_allclose(trace.u_load[pre, 0], 100.0, atol=0.05)
    assert trace.u_load[-1, 0] < 99.0
    assert trace.events == ((0.01, "activate-cpl"),)


def test_set_loads_event_shifts_equilibrium():
    sc = parse_scenario(_scenario_doc(
        0.08, dt=1e-5,
        events=[{"t": 0.04, "action": "set-loads", "P": [900.0]}]))
    trace = simulate(sc)
    u_ref, rk = 100.0, 2.0
    for P_val, t_pick in ((500.0, 0.039), (900.0, 0.079)):
        i = (u_ref - np.sqrt(u_ref**2 - 4 * rk * P_val)) / (2 * rk)
        u = u_ref - rk * i
        idx = int(np.argmin(np.abs(trace.t - t_pick)))
        assert trace.u_load[idx, 0] == pytest.approx(u, abs=5e-3)


def test_set_controller_event_changes_damping():
    sc = parse_scenario(_scenario_doc(
        0.06, dt=1e-5,
        events=[{"t": 0.01, "action": "set-controller", "k": [2.0], "b": 2e-3}]))
    trace = simulate(sc)
    assert trace.termination == "completed"
    # droop doubled: steady load voltage drops to the k=2 equilibrium
    rk = 3.0
    i = (100.0 - np.sqrt(100.0**2 - 4 * rk * 500.0)) / (2 * rk)
    assert trace.u_load[-1, 0] == pytest.approx(100.0 - rk * i, abs=0.05)


def test_short_run_stores_every_step():
    sc = parse_scenario(_scenario_doc(0.001, dt=1e-5))  # 100 steps
    trace = simulate(sc)
    assert trace.t.shape[0] == 101
    np.testing.assert_allclose(np.diff(trace.t), 1e-5, rtol=1e-9)


@pytest.mark.slow
def test_default_decimation_respects_sample_cap():
    sc = parse_scenario(_scenario_doc(0.2, dt=1e-6))  # 200k steps
    trace = simulate(sc)
    assert trace.t.shape[0] <= 100_000
    assert trace.t[-1] == pytest.approx(0.2, abs=1e-9)
    # ceil((200_000 + 2) / 1e5) = 3: every 3rd step is stored, and only the
    # final sample at the horizon lies off that grid
    np.testing.assert_allclose(np.diff(trace.t)[:-1], 3e-6, rtol=1e-9)


def test_collapse_detected_on_infeasible_load():
    sc = parse_scenario(_scenario_doc(
        0.02, dt=1e-5,
        events=[{"t": 0.005, "action": "set-loads", "P": [5000.0]}]))
    trace = simulate(sc)
    assert trace.termination == "collapsed"
    assert trace.collapse_node == "l"
    assert 0.005 <= trace.collapse_time <= 0.02
    assert trace.t[-1] <= 0.02


def test_trace_csv_layout():
    sc = parse_scenario(_scenario_doc(
        0.002, dt=1e-5, events=[{"t": 0.001, "action": "activate-cpl"}]))
    trace = simulate(sc)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,u_2,us_1,il_1"
    assert lines[-2] == "# event t=0.001 activate-cpl"
    assert lines[-1] == "# terminated completed"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == trace.t.shape[0]
    first = [float(v) for v in data[0].split(",")]
    assert first[0] == 0.0 and len(first) == 4


def test_trace_csv_collapse_comment():
    sc = parse_scenario(_scenario_doc(
        0.01, dt=1e-5,
        events=[{"t": 0.002, "action": "set-loads", "P": [3000.0]}]))
    trace = simulate(sc)
    assert trace.termination == "collapsed"
    buf = io.StringIO()
    trace.to_csv(buf)
    assert "# terminated collapsed" in buf.getvalue().splitlines()[-1]


def test_collapse_reported_at_last_balanced_sample():
    # at this coarser step the 2% heavier load step is caught by the
    # end-of-step load flow, not a stage flow; either way the collapse time is
    # the last time every load was balanced, which is the last sample
    with open(EXAMPLES / "load_step_collapse.json") as fh:
        doc = json.load(fh)
    doc["scenario"]["dt"] = 2e-4
    for ev in doc["scenario"]["events"]:
        if ev["action"] == "set-loads":
            ev["P"] = [1.02 * p for p in ev["P"]]
    trace = simulate(parse_scenario(doc))
    assert trace.termination == "collapsed"
    assert trace.collapse_time == trace.t[-1]


def test_infeasible_initial_state_rejected():
    # demanding more than the line can deliver leaves the DAE uninitializable
    with pytest.raises(SpecError):
        simulate(parse_scenario(_scenario_doc(0.01, dt=1e-5, P=3000.0)))


def test_trace_arrays_are_frozen():
    sc = parse_scenario(_scenario_doc(0.001, dt=1e-5))
    trace = simulate(sc)
    with pytest.raises(ValueError):
        trace.u_load[0, 0] = 1.0


def test_four_load_flows_per_step(monkeypatch):
    # stage 1 reuses the load voltages that the previous end-of-step flow (or
    # the initial flow, or an event's re-pin) solved at the same state
    solve = _sim._LoadFlow.solve
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(_sim._LoadFlow, "solve", counted)
    sc = parse_scenario(_scenario_doc(
        0.001, dt=1e-5, events=[{"t": 0.0005, "action": "set-loads", "P": [700.0]}]))
    trace = simulate(sc)
    steps = trace.t.shape[0] - 1
    assert trace.termination == "completed" and steps >= 100
    assert len(calls) == 1 + 4 * steps + 1  # initial flow, 4 per step, the re-pin


@pytest.mark.slow
@pytest.mark.parametrize("name", ["load_step_stable", "load_step_collapse",
                                  "soft_start_high_uref"])
def test_shipped_scenarios_do_not_depend_on_dt(name):
    coarse_sc = load_scenario(EXAMPLES / f"{name}.json")
    coarse = shipped_trace(name)
    fine = simulate(dataclasses.replace(coarse_sc, dt=coarse_sc.dt / 2))
    assert fine.termination == coarse.termination
    assert fine.collapse_node == coarse.collapse_node
    if coarse.termination == "collapsed":
        assert abs(fine.collapse_time - coarse.collapse_time) <= coarse_sc.dt
    # every coarse sample time is also a fine one (up to accumulated round-off)
    tol = 1e-6 * coarse_sc.dt
    idx = np.minimum(np.searchsorted(fine.t, coarse.t - tol), fine.t.shape[0] - 1)
    np.testing.assert_allclose(fine.t[idx], coarse.t, rtol=0, atol=tol)
    gap = np.max(np.abs(fine.u_load[idx] - coarse.u_load))
    assert gap <= 1e-6 * coarse_sc.spec.control.u_ref


def _residual(flow, u_S, P, u):
    """G(u) = u - zeta + A(1/u) on the flow's zeta and A."""
    return u + (flow._Y_inv * P) @ (1.0 / u) - flow._zeta_map @ u_S


def _fixed_point_holds(flow, u_S, P, u):
    """The acceptance check of `balance_newton`: max|G(u)| <= 1e-12*u_ref and u > 0."""
    G = _residual(flow, u_S, P, u)
    return bool(np.max(np.abs(G)) <= 1e-12 * flow._u_ref and (u > 0).all())


def _at_floor(flow, u_S, P, u):
    """The chord's stop: ||G(u)||_2 <= 1e-14*u_ref, and u > 0."""
    G = _residual(flow, u_S, P, u)
    return bool(G.dot(G) <= (1e-14 * flow._u_ref) ** 2 and (u > 0).all())


def _newton_calls(monkeypatch):
    """Record the start and the outcome of every `balance_newton` call of the simulator."""
    calls = []
    newton = _sim.balance_newton

    def recorded(zeta, A, u0, u_ref, steps):
        u, J, ok = newton(zeta, A, u0, u_ref, steps)
        calls.append((u0, ok))
        return u, J, ok

    monkeypatch.setattr(_sim, "balance_newton", recorded)
    return calls


def test_stalled_chord_falls_back_to_newton(monkeypatch):
    # a cached inverse Jacobian of the wrong sign drives every chord step
    # away from the root; Newton from the same warm start still finds it
    partition = _TABLE1_PARTITION
    u_S, P = 89.64 * np.ones(4), LIGHT
    root = solve_load_voltages(u_S, P, partition, 89.64 * np.ones(6))
    A = np.linalg.inv(partition.Y_LL) * P
    calls = _newton_calls(monkeypatch)
    flow = _sim._LoadFlow(partition, 89.64)
    flow._J_inv = -np.linalg.inv(np.eye(6) - A / (root * root))
    warm = 1.001 * root
    u, ok = flow.solve(u_S, P, warm)
    assert ok and _fixed_point_holds(flow, u_S, P, u)
    assert len(calls) == 1 and calls[0][0] is warm
    # the fallback refreshed the Jacobian at its root, so the chord takes the next flow
    u_S = 0.9999 * u_S
    u, ok = flow.solve(u_S, P, u)
    assert ok and _fixed_point_holds(flow, u_S, P, u)
    assert len(calls) == 1


def test_infeasible_load_collapse_comes_from_newton_fallback(monkeypatch):
    # past the load step the chord cannot balance the loads; the collapse is
    # declared only once Newton from the same warm start fails as well
    newton_calls = _newton_calls(monkeypatch)
    solve = _sim._LoadFlow.solve
    flows = []

    def recorded(flow, u_S, P, warm):
        u, ok = solve(flow, u_S, P, warm)
        flows.append((warm, ok))
        return u, ok

    monkeypatch.setattr(_sim._LoadFlow, "solve", recorded)
    sc = parse_scenario(_scenario_doc(
        0.02, dt=1e-5,
        events=[{"t": 0.005, "action": "set-loads", "P": [5000.0]}]))
    trace = simulate(sc)
    assert trace.termination == "collapsed" and trace.collapse_node == "l"
    assert 0.005 <= trace.collapse_time <= 0.02
    assert not flows[-1][1] and all(ok for _, ok in flows[:-1])
    warm, ok = newton_calls[-1]
    assert warm is flows[-1][0] and not ok
    assert all(ok for _, ok in newton_calls[:-1])
    assert len(newton_calls) < len(flows) / 10  # the chord carried the run


def _m24_document():
    """perfbench's step-m24 grid: a seeded 24-load grid at 1.3*tau4."""
    doc = random_grid_document(np.random.default_rng(24), m=24)
    doc["control"]["u_ref"] = 1.3 * prepare(parse_network(doc)).tau_contraction
    return doc


_M24 = parse_network(_m24_document())
# (partition, u_ref, load powers) of the 6-load reference grid and the 24-load grid
_FLOW_GRIDS = ((_TABLE1_PARTITION, 89.64, LIGHT),
               (build_admittance(_M24), _M24.control.u_ref, _M24.p_vector()))


@given(grid=st.sampled_from(_FLOW_GRIDS),
       seed=st.integers(min_value=0, max_value=2**31),
       spread=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1e-1]),
       stale=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2, 1e-1, 0.5]),
       heavy=st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_every_accepted_load_flow_passes_the_balance_check(grid, seed, spread, stale, heavy):
    # random source voltages, load powers, warm starts `spread` away from the
    # root and inverse Jacobians cached at points `stale` away from it: what
    # the chord accepts has ||u - zeta + A(1/u)||_2 <= 1e-14*u_ref and u > 0,
    # what the Newton fallback accepts has max|u - zeta + A(1/u)| <=
    # 1e-12*u_ref and u > 0, and what the flow rejects, Newton from the same
    # warm start rejects too
    partition, u_ref, P0 = grid
    n, m = partition.Y_SS.shape[0], P0.shape[0]
    rng = np.random.default_rng(seed)
    u_S = u_ref * rng.uniform(0.97, 1.03, n)
    P = heavy * P0 * rng.uniform(0.5, 1.5, m)
    P[1:][rng.random(m - 1) < 0.2] = 0.0
    flow = _sim._LoadFlow(partition, u_ref)
    zeta, A = flow._zeta_map @ u_S, flow._Y_inv * P

    def newton(start):
        return balance_newton(zeta, A, start, u_ref, _sim._NEWTON_STEPS)

    root, _, found = newton(u_ref * np.ones(m))
    centre = root if found else u_ref * rng.uniform(0.5, 1.0, m)
    warm = centre * (1 + spread * rng.uniform(-1, 1, m))
    if stale:
        u_J = centre * (1 + stale * rng.uniform(-1, 1, m))
        flow._J_inv = np.linalg.inv(np.eye(m) - A / (u_J * u_J))
    with mock.patch.object(_sim, "balance_newton", wraps=balance_newton) as fallback:
        u, ok = flow.solve(u_S, P, warm)
    if not ok:
        assert not newton(warm)[2]
    elif fallback.called:
        assert _fixed_point_holds(flow, u_S, P, u)
    else:
        assert _at_floor(flow, u_S, P, u)


def test_warm_start_near_the_bound_is_refined():
    # a warm start that meets the Newton bound max|G| <= 1e-12*u_ref with
    # little to spare is not returned as is: the chord takes it to the floor
    partition, u_S, P = _TABLE1_PARTITION, 89.64 * np.ones(4), LIGHT
    flow = _sim._LoadFlow(partition, 89.64)
    A = flow._Y_inv * P
    root = solve_load_voltages(u_S, P, partition, 89.64 * np.ones(6))
    for _ in range(3):  # Newton down to rounding
        J = np.eye(6) - A / (root * root)
        root = root - np.linalg.solve(J, _residual(flow, u_S, P, root))
    J = np.eye(6) - A / (root * root)
    flow._J_inv = np.linalg.inv(J)
    warm = root + np.linalg.solve(J, 0.9e-12 * 89.64 * np.array([1, -1, 1, -1, 1, -1]))
    assert np.max(np.abs(_residual(flow, u_S, P, warm))) == pytest.approx(
        0.9e-12 * 89.64, rel=0.02)
    u, ok = flow.solve(u_S, P, warm)
    assert ok and _at_floor(flow, u_S, P, u)
    assert not np.array_equal(u, warm)


def test_load_step_stable_refreshes_the_jacobian_rarely(monkeypatch):
    # the chord refreshes J^-1 only after 3 or more steps to the floor or a
    # Newton fallback: 3418 refreshes and 3 fallbacks in the 48007 flows of
    # this scenario, where refreshing after every 2-step chord took 8523
    newton_calls = _newton_calls(monkeypatch)
    refresh = _sim._LoadFlow._refresh
    refreshes = []

    def counted(flow, J):
        refreshes.append(J)
        refresh(flow, J)

    monkeypatch.setattr(_sim._LoadFlow, "_refresh", counted)
    trace = simulate(load_scenario(EXAMPLES / "load_step_stable.json"))
    assert trace.termination == "completed"
    assert len(refreshes) <= 4000
    assert len(newton_calls) <= 5


def _comment_lines(trace):
    buf = io.StringIO()
    trace.to_csv(buf)
    return [line for line in buf.getvalue().splitlines() if line.startswith("#")]


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenarios_end_as_with_plain_newton(name):
    # events, termination, collapse time and node match the simulator with
    # every load flow solved by Newton
    assert _comment_lines(shipped_trace(name)) == _comment_lines(shipped_trace(name, 1.0))


def test_m24_load_step_ends_as_with_plain_newton():
    # perfbench's step-m24 shape: the 24-load grid above, whose loads step
    # from half to full power
    doc = _m24_document()
    full = [load["P"] for load in doc["loads"]]
    for load in doc["loads"]:
        load["P"] *= 0.5
    doc["scenario"] = {"horizon": 0.02, "dt": 1e-5, "events": [
        {"t": 0.001, "action": "activate-cpl"},
        {"t": 0.01, "action": "set-loads", "P": full}]}
    sc = parse_scenario(doc)
    chord = simulate(sc)
    with newton_load_flow():
        newton = simulate(sc)
    assert _comment_lines(chord) == _comment_lines(newton)
    assert chord.termination == "completed"
    u_ref = sc.spec.control.u_ref
    assert np.max(np.abs(chord.u_load - newton.u_load)) <= 1e-8 * u_ref
