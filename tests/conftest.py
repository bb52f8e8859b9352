"""Shared fixtures: the reference grid, load profiles, and a corpus of random
connected grids used by the property suites.

Corpus entries are generated once per session (seeded) and carry the reduced
matrices and certified equilibria alongside the parsed network so the
property tests stay cheap. u_ref is drawn 5-50% above the exact threshold,
which keeps every generated grid certifiable by construction.
"""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dcgrid.existence import (_residual, analytic_thresholds, bracket, dual_ascent,
                              fixed_point_solve)
from dcgrid.linalg import perron, reduce_network
from dcgrid.network import ControlParams, LoadNode, build_admittance, parse_network
from oracles import f_matrix, load_matrix, open_circuit

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
TABLE1 = EXAMPLES / "paper_table1.json"

# the two load profiles exercised throughout, watts per load node
LIGHT = np.array([1000.0, 1000.0, 1000.0, 500.0, 500.0, 500.0])
HEAVY = np.array([2000.0, 2000.0, 2000.0, 1500.0, 1500.0, 1500.0])

CORPUS_SIZE = 1000
CORPUS_SEED = 20260813


def variant(spec, u_ref=None, b=None, P=None):
    """Copy of a grid spec with the control point or load profile replaced."""
    control = ControlParams(
        u_ref=spec.control.u_ref if u_ref is None else float(u_ref),
        b=spec.control.b if b is None else float(b))
    loads = spec.loads
    if P is not None:
        loads = tuple(LoadNode(id=l.id, P=float(p)) for l, p in zip(spec.loads, P))
    return dataclasses.replace(spec, control=control, loads=loads)


@pytest.fixture(scope="session")
def table1_doc():
    with open(TABLE1) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def table1_spec(table1_doc):
    return parse_network(table1_doc)


@pytest.fixture(scope="session")
def table1_partition(table1_spec):
    return build_admittance(table1_spec)


def reduction(partition, Y1, k, u_ref):
    """Y1 from the package beside the oracle's beta and zeta at u_ref."""
    beta, zeta = open_circuit(partition, k, u_ref)
    return SimpleNamespace(Y1=Y1, beta=beta, zeta=zeta)


@pytest.fixture(scope="session")
def table1_reduced(table1_spec, table1_partition):
    k = table1_spec.k_diag()
    return reduction(table1_partition, reduce_network(table1_partition, k), k,
                     table1_spec.control.u_ref)


def random_grid_document(rng, n_max=4, m_max=6, m=None):
    """Random connected grid document at desk scale (n <= 4, m <= 6).

    m fixes the number of loads; by default it is drawn from 1..m_max.
    """
    n = int(rng.integers(1, n_max + 1))
    if m is None:
        m = int(rng.integers(1, m_max + 1))
    N = n + m
    order = rng.permutation(N)
    edges = set()
    for idx in range(1, N):  # random spanning tree, then a few chords
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, 3))):
        a, b = (int(v) for v in rng.integers(0, N, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    names = [f"s{i}" for i in range(n)] + [f"l{j}" for j in range(m)]
    sources = [{"id": names[i], "V": 300.0, "L": 2e-3,
                "C": float(rng.uniform(1e-3, 3e-3)),
                "k": float(rng.uniform(0.5, 2.0))} for i in range(n)]
    P = rng.uniform(200.0, 2000.0, m)
    P[rng.random(m) < 0.15] = 0.0
    if not np.any(P > 0):
        P[int(rng.integers(0, m))] = float(rng.uniform(200.0, 2000.0))
    loads = [{"id": names[n + j], "P": float(P[j])} for j in range(m)]
    lines = [{"a": names[a], "b": names[b], "r": float(rng.uniform(0.1, 2.0))}
             for a, b in sorted(edges)]
    return {"sources": sources, "loads": loads, "lines": lines,
            "control": {"u_ref": 1.0, "b": float(rng.uniform(2e-4, 2e-3))}}


class Case:
    """One corpus entry: spec plus everything derived from it."""

    __slots__ = ("spec", "partition", "reduced", "A", "pair", "taus", "q",
                 "bracket", "u_load", "residual")

    def __init__(self, rng, n_max=4, m_max=6):
        doc = random_grid_document(rng, n_max=n_max, m_max=m_max)
        spec = parse_network(doc)
        partition = build_admittance(spec)
        Y1 = reduce_network(partition, spec.k_diag())
        P = spec.p_vector()
        A = load_matrix(Y1, P)
        pair = perron(np.linalg.inv(Y1), P)
        tau1 = 2.0 * np.sqrt(pair.chi)
        tau3, tau4 = analytic_thresholds(A, pair)
        _, x, _ = dual_ascent(A, P * pair.eta / np.dot(P, pair.eta))
        q = 1.0 / x
        tau2 = float(np.sqrt(f_matrix(A, q).max()))
        u_ref = float(tau2 * rng.uniform(1.05, 1.5))
        doc["control"]["u_ref"] = u_ref
        self.spec = parse_network(doc)
        self.partition = partition
        self.reduced = reduction(partition, Y1, spec.k_diag(), u_ref)
        self.A = A
        self.pair = pair
        self.taus = (tau1, tau2, tau3, tau4)
        self.q = q
        self.bracket = bracket(q, u_ref, A)
        assert self.bracket is not None, "generator margin guarantees feasibility"
        self.u_load = fixed_point_solve(u_ref, A, self.bracket)
        self.residual = float(np.max(np.abs(_residual(self.u_load, Y1, u_ref, P))))


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [Case(rng) for _ in range(CORPUS_SIZE)]


def solvability_intervals(A, q, u_ref):
    """Per-load intervals [lo_i, hi_i] for the common bracket scalar h.

    Interval i is the root interval of h^2 - q_i u_ref h + q_i (A q)_i; it is
    empty (None) when the discriminant is negative. The pairwise-overlap value
    f_ij is exactly the smallest u_ref^2 making intervals i and j intersect.
    """
    a = np.asarray(A) @ np.asarray(q)
    out = []
    for i in range(len(q)):
        disc = (q[i] * u_ref) ** 2 - 4.0 * q[i] * a[i]
        if disc < 0:
            out.append(None)
        else:
            root = np.sqrt(disc)
            out.append((0.5 * (q[i] * u_ref - root), 0.5 * (q[i] * u_ref + root)))
    return out


def intervals_overlap(A, q, u_ref, i, j):
    ivs = solvability_intervals(A, q, u_ref)
    if ivs[i] is None or ivs[j] is None:
        return False
    return ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]


def multiset_distance(a, b):
    """Max pairing distance between two complex multisets (optimal matching)."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
