"""The certified equilibrium and the simulated trace do not depend on the units
of the grid document.

Multiplying every line resistance and droop gain by c and every load power by
1/c leaves A = Y1^-1 diag(P), and so the equilibrium, unchanged; multiplying
every voltage by s and every power by s^2 scales A by s^2 and the
equilibrium by s. The grids are 100 draws of
`random_grid_document(default_rng(7), n_max=4, m_max=12)`. A scenario whose
every r and k is also multiplied by c and every C divided by c keeps its
load voltages, as the currents scale by 1/c. Its L is multiplied by c too, as
a change of the ohm would, but the averaged model does not read L, so that
part of the rescale is not tested. `soft_start_high_uref` is left
out: its undamped sources (k = 0) run with X = b * 1 ohm, a constant that
carries the ohm.
"""

import copy
import json

import numpy as np
import pytest

from dcgrid import certify, parse_network, parse_scenario, prepare, simulate
from conftest import EXAMPLES, random_grid_document
from golden_traces import shipped_trace

_RNG = np.random.default_rng(7)
DOCS = [random_grid_document(_RNG, n_max=4, m_max=12) for _ in range(100)]


def _rescaled(doc, ohm=1.0, volt=1.0):
    doc = copy.deepcopy(doc)
    for line in doc["lines"]:
        line["r"] *= ohm
    for source in doc["sources"]:
        source["k"] *= ohm
        source["V"] *= volt
    for load in doc["loads"]:
        load["P"] *= volt * volt / ohm
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


def _rescaled_scenario(doc, ohm):
    doc = _rescaled(doc, ohm=ohm)
    for source in doc["sources"]:
        source["L"] *= ohm
        source["C"] /= ohm
    for ev in doc["scenario"]["events"]:
        if "P" in ev:
            ev["P"] = [p / ohm for p in ev["P"]]
        if "k" in ev:
            ev["k"] = [k * ohm for k in ev["k"]]
    return doc


def _terminated(trace):
    if trace.termination == "collapsed":
        return f"collapsed t={trace.collapse_time:g} node={trace.collapse_node}"
    return trace.termination


@pytest.mark.slow
@pytest.mark.parametrize("ohm", [1e4, 1e-4])
@pytest.mark.parametrize("name", ["load_step_stable", "load_step_collapse"])
def test_resistance_unit_leaves_simulated_trace(name, ohm):
    # the load flow stops on a bound in volts, so a change of the ohm moves
    # the load voltages by rounding alone
    doc = json.loads((EXAMPLES / f"{name}.json").read_text())
    ref = shipped_trace(name)
    trace = simulate(parse_scenario(_rescaled_scenario(doc, ohm)))
    assert _terminated(trace) == _terminated(ref)
    assert trace.u_load.shape == ref.u_load.shape
    assert _worst_relative(trace.u_load, ref.u_load) <= 1e-12
