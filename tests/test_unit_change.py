"""The certified equilibrium does not depend on the units of the grid document.

Multiplying every line resistance and droop gain by c and every load power by
1/c leaves A = Y1^-1 diag(P), and so the equilibrium, unchanged; multiplying
every voltage by s and every power by s^2 scales A by s^2 and the
equilibrium by s. The grids are 100 draws of
`random_grid_document(default_rng(7), n_max=4, m_max=12)`.
"""

import copy

import numpy as np
import pytest

from dcgrid import certify, parse_network, prepare
from conftest import random_grid_document

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
