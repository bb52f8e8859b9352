"""Randomized invariants beyond the corpus suites: oracle cross-checks and
hypothesis-driven fuzzing of the public entry points."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcgrid import (SpecError, certify, check_connected,
                    load_network, parse_network, parse_scenario, reduce_network,
                    simulate, build_admittance)
from conftest import TABLE1, random_grid_document
from oracles import f_matrix, is_m_matrix, load_matrix

_SPEC = load_network(TABLE1)
_A = load_matrix(
    reduce_network(build_admittance(_SPEC), _SPEC.k_diag()),
    _SPEC.p_vector())


@given(c=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_pairwise_values_ignore_weight_scaling(c, seed):
    q = np.random.default_rng(seed).uniform(0.1, 10.0, 6)
    np.testing.assert_allclose(f_matrix(_A, c * q), f_matrix(_A, q), rtol=1e-9)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_connectivity_agrees_with_union_find(data):
    n = data.draw(st.integers(min_value=1, max_value=3), label="sources")
    m = data.draw(st.integers(min_value=1, max_value=5), label="loads")
    names = [f"s{i}" for i in range(n)] + [f"l{j}" for j in range(m)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12),
                       label="lines")
    from dcgrid.network import (ControlParams, Line, LoadNode, NetworkSpec,
                                SourceNode)
    spec = NetworkSpec(
        sources=tuple(SourceNode(id=x, V=300.0, L=2e-3, C=2e-3, k=1.0)
                      for x in names[:n]),
        loads=tuple(LoadNode(id=x, P=100.0) for x in names[n:]),
        lines=tuple(Line(a=a, b=b, r=1.0) for a, b in chosen),
        control=ControlParams(u_ref=100.0, b=1e-3),
    )
    uf = _UnionFind(names)
    for a, b in chosen:
        uf.union(a, b)
    expected = len({uf.find(x) for x in names}) == 1
    assert check_connected(spec) == expected


@given(u_ref=st.floats(max_value=0.0, allow_nan=False),
       b=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_parser_rejects_nonpositive_reference(u_ref, b):
    doc = json.loads(TABLE1.read_text())
    doc["control"] = {"u_ref": u_ref, "b": b}
    with pytest.raises(SpecError):
        parse_network(doc)


def test_m_matrix_test_agrees_with_spectral_abscissa():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 7))
        off = -rng.uniform(0.0, 1.0, (m, m))
        Z = off - np.diag(np.diag(off))
        # diagonal between clearly-M and clearly-not territory
        Z += np.diag((-Z.sum(axis=1) + 1e-3) * rng.uniform(0.4, 1.8, m))
        abscissa = np.min(np.linalg.eigvals(Z).real)
        if abs(abscissa) < 1e-9 * max(1.0, np.max(np.abs(Z))):
            continue  # knife edge: both answers defensible
        assert is_m_matrix(Z) == (abscissa > 0)
        checked += 1


def test_certify_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(77)
    for _ in range(10):
        doc = random_grid_document(rng)
        doc["control"]["u_ref"] = 500.0  # far above any desk-scale threshold
        spec = parse_network(doc)
        a = certify(spec)
        b = certify(spec)
        assert a.verdict == b.verdict
        np.testing.assert_array_equal(a.u_load, b.u_load)
        np.testing.assert_array_equal(a.q_weights, b.q_weights)


def test_trace_csv_numeric_round_trip():
    doc = {
        "sources": [{"id": "s", "V": 300.0, "L": 2e-3, "C": 2e-3, "k": 1.0}],
        "loads": [{"id": "l", "P": 400.0}],
        "lines": [{"a": "s", "b": "l", "r": 0.5}],
        "control": {"u_ref": 80.0, "b": 1e-3},
        "scenario": {"horizon": 0.005, "dt": 1e-5,
                     "events": [{"t": 0.001, "action": "activate-cpl"}]},
    }
    trace = simulate(parse_scenario(doc))
    buf = io.StringIO()
    trace.to_csv(buf)
    rows = [l for l in buf.getvalue().splitlines()[1:] if not l.startswith("#")]
    parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
    np.testing.assert_allclose(parsed[:, 0], trace.t, rtol=1e-9)
    np.testing.assert_allclose(parsed[:, 1], trace.u_load[:, 0], rtol=1e-9)
    np.testing.assert_allclose(parsed[:, 2], trace.u_source[:, 0], rtol=1e-9)
    np.testing.assert_allclose(parsed[:, 3], trace.i_inductor[:, 0], rtol=1e-9)
