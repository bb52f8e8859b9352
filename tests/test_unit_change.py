"""The certified equilibrium, the stability report and the simulated trace do
not depend on the units of the grid document.

Multiplying every line resistance and droop gain by c and every load power by
1/c leaves A = Y1^-1 diag(P), and so the equilibrium, unchanged; multiplying
every voltage by s and every power by s^2 scales A by s^2 and the
equilibrium by s. The grids are 100 draws of
`random_grid_document(default_rng(7), n_max=4, m_max=12)`. A change of the
ohm by c also multiplies L by c and divides C by c, as the currents scale by
1/c; a change of the volt by s leaves C and L alone, as the currents scale by
s. Neither touches b, in seconds. So the stability report's b0 and the
Jacobian's spectral abscissa stay put, and a scenario keeps its termination
and its load voltages over s. The averaged model does not read L, so that
part of the rescale is not tested.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from dcgrid import (DomainError, Scenario, analyze_stability, certify, parse_network,
                    parse_scenario, prepare, simulate)
from conftest import EXAMPLES, TABLE1, random_grid_document
from golden_traces import SCENARIOS, shipped_trace

_RNG = np.random.default_rng(7)
DOCS = [random_grid_document(_RNG, n_max=4, m_max=12) for _ in range(100)]


def _rescaled(doc, ohm=1.0, volt=1.0):
    doc = copy.deepcopy(doc)
    power = volt * volt / ohm
    doc["control"]["u_ref"] *= volt
    for line in doc["lines"]:
        line["r"] *= ohm
    for source in doc["sources"]:
        source["k"] *= ohm
        source["V"] *= volt
        source["L"] *= ohm
        source["C"] /= ohm
    for load in doc["loads"]:
        load["P"] *= power
    for ev in doc.get("scenario", {}).get("events", []):
        if "P" in ev:
            ev["P"] = [p * power for p in ev["P"]]
        if "k" in ev:
            ev["k"] = [k * ohm for k in ev["k"]]
    return doc


def _u_load(doc, u_ref):
    cert = certify(prepare(parse_network(doc)).with_uref(u_ref))
    assert cert.verdict == "certified-exists", cert.note
    return cert.u_load


def _worst_relative(u, ref):
    return float(np.max(np.abs(u - ref) / ref))


@pytest.mark.parametrize("above, rtol", [(1 + 1e-9, 1e-9), (1.05, 1e-12)])
@pytest.mark.parametrize("ohm", [1e4, 1e-4])
def test_resistance_unit_leaves_equilibrium(ohm, above, rtol):
    for doc in DOCS:
        u_ref = above * prepare(parse_network(doc)).tau_dual
        u = _u_load(doc, u_ref)
        assert _worst_relative(_u_load(_rescaled(doc, ohm=ohm), u_ref), u) <= rtol


@pytest.mark.parametrize("volt", [1e3, 1e-3])
def test_voltage_unit_scales_equilibrium(volt):
    for doc in DOCS:
        u_ref = 1.05 * prepare(parse_network(doc)).tau_dual
        u = _u_load(doc, u_ref)
        assert _worst_relative(_u_load(_rescaled(doc, volt=volt), volt * u_ref), volt * u) <= 1e-12


def _stability(doc, u_ref):
    grid = prepare(parse_network(doc)).with_uref(u_ref)
    return analyze_stability(grid, _u_load(doc, u_ref))


@pytest.mark.parametrize("ohm, volt", [(1e4, 1.0), (1e-4, 1.0), (1.0, 1e3), (1.0, 1e-3)])
def test_unit_change_leaves_stability_report(ohm, volt):
    for doc in DOCS:
        u_ref = 1.05 * prepare(parse_network(doc)).tau_dual
        ref = _stability(doc, u_ref)
        report = _stability(_rescaled(doc, ohm=ohm, volt=volt), volt * u_ref)
        assert report.verdict == ref.verdict
        assert report.sufficient_holds == ref.sufficient_holds
        if np.isinf(ref.b0):
            assert report.b0 == ref.b0
        else:
            assert report.b0 == pytest.approx(ref.b0, rel=1e-12)
        assert report.abscissa == pytest.approx(ref.abscissa, rel=1e-12)


def _terminated(trace):
    if trace.termination == "collapsed":
        return f"collapsed t={trace.collapse_time:g} node={trace.collapse_node}"
    return trace.termination


def _check_rescaled_trace(name, ohm=1.0, volt=1.0):
    # the load flow stops on a bound in volts, so a change of the units moves
    # the load voltages by rounding alone
    doc = json.loads((EXAMPLES / f"{name}.json").read_text())
    ref = shipped_trace(name)
    trace = simulate(parse_scenario(_rescaled(doc, ohm=ohm, volt=volt)))
    assert _terminated(trace) == _terminated(ref)
    assert trace.u_load.shape == ref.u_load.shape
    assert _worst_relative(trace.u_load / volt, ref.u_load) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("ohm", [1e4, 1e-4])
@pytest.mark.parametrize("name", SCENARIOS)
def test_resistance_unit_leaves_simulated_trace(name, ohm):
    _check_rescaled_trace(name, ohm=ohm)


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIOS)
def test_voltage_unit_scales_simulated_trace(name):
    _check_rescaled_trace(name, volt=1e-3)


@pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
def test_simulate_rejects_a_source_without_finite_positive_droop(k):
    # the parser rejects such a k; a spec built in Python meets this check,
    # as an undamped source's inductance is b times its document's k
    spec = parse_network(json.loads(TABLE1.read_text()))
    sources = (dataclasses.replace(spec.sources[0], k=k),) + spec.sources[1:]
    scenario = Scenario(spec=dataclasses.replace(spec, sources=sources), horizon=1e-4)
    with pytest.raises(DomainError, match="virtual resistances"):
        simulate(scenario)
