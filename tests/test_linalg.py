"""Reduction, the Perron pair, M-matrix test, and the quadratic eigensolver."""

from pathlib import Path

import numpy as np
import pytest

from dcgrid import (DomainError, NumericalError, analyze_stability, bracket,
                    build_admittance, certify, cpl_linearize, load_network,
                    min_symmetric_eigenvalue, parse_network, perron, prepare,
                    reduce_network)
from conftest import HEAVY, LIGHT, multiset_distance, random_grid_document
from oracles import is_m_matrix, load_matrix, perron_on_support, solve_qep

# reduced load-side matrix for the reference grid, published to 3-4 digits
Y1_REFERENCE = np.array([
    [1.5, -1.0, 0.0, 0.0, 0.0, 0.0],
    [-1.0, 11.0, -5.0, 0.0, -5.0, 0.0],
    [0.0, -5.0, 7.5, -2.0, 0.0, 0.0],
    [0.0, 0.0, -2.0, 2.833, 0.0, 0.0],
    [0.0, -5.0, 0.0, 0.0, 7.0, -2.0],
    [0.0, 0.0, 0.0, 0.0, -2.0, 2.667],
])


def test_reduction_matches_reference(table1_reduced):
    assert np.max(np.abs(table1_reduced.Y1 - Y1_REFERENCE)) <= 5e-3


def test_reduction_open_circuit_voltage(table1_reduced):
    # zeta = -Y1^-1 beta collapses to u_ref at every load node, the identity
    # the existence analysis relies on when it takes zeta = u_ref*1
    np.testing.assert_allclose(table1_reduced.zeta, 89.64, rtol=1e-9)
    np.testing.assert_allclose(
        table1_reduced.Y1 @ table1_reduced.zeta, -table1_reduced.beta, atol=1e-9)


def test_reduction_rejects_bad_droop(table1_partition):
    with pytest.raises(DomainError):
        reduce_network(table1_partition, np.array([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        reduce_network(table1_partition, np.ones(3))


def test_reduced_matrix_is_an_m_matrix(table1_reduced):
    assert is_m_matrix(table1_reduced.Y1)
    assert np.all(np.linalg.inv(table1_reduced.Y1) > 0)


def assert_matches_oracle(Y1, P):
    pair = perron(np.linalg.inv(Y1), P)
    chi, eta = perron_on_support(load_matrix(Y1, P), P)
    assert pair.chi == pytest.approx(chi, rel=1e-12)
    np.testing.assert_allclose(pair.eta, eta, rtol=1e-12, atol=0)
    assert np.all(pair.eta > 0)
    assert np.linalg.norm(pair.eta) == pytest.approx(1.0, rel=1e-14)
    return pair


@pytest.mark.parametrize("P", [LIGHT, HEAVY, [1000.0, 0.0, 1000.0, 500.0, 0.0, 500.0]])
def test_perron_reference_grid(table1_reduced, P):
    P = np.asarray(P)
    pair = assert_matches_oracle(table1_reduced.Y1, P)
    A = load_matrix(table1_reduced.Y1, P)
    np.testing.assert_allclose(A @ pair.eta, pair.chi * pair.eta, atol=1e-12 * pair.chi)


def test_perron_corpus_with_zeroed_loads(corpus):
    for case in corpus:
        P = case.spec.p_vector()
        assert_matches_oracle(case.reduced.Y1, P)
        on = np.flatnonzero(P > 0)
        if on.size > 1:
            assert_matches_oracle(case.reduced.Y1, np.where(np.arange(P.size) == on[0], 0.0, P))


@pytest.mark.parametrize("m", [96, 192, 384])
def test_perron_large_grids(m):
    spec = parse_network(random_grid_document(np.random.default_rng(m), m=m))
    P = spec.p_vector()
    assert np.any(P == 0)
    assert_matches_oracle(reduce_network(build_admittance(spec), spec.k_diag()), P)


# Grids drawn by conftest.random_grid_document(default_rng(5), n_max=4, m_max=12)
# with every line r then every positive P redrawn log-uniformly over 1e-6..1e4
# and 1e-6..1e6: Y1 has condition numbers up to 2e10, so the computed inverse
# leaves diag(sqrt P) Y1^-1 diag(sqrt P) asymmetric by up to 1.5e-9 of its
# largest entry.
WIDE_RANGE = Path(__file__).resolve().parent / "data"
WIDE_RANGE_PERRON = (116, 1122, 1666, 2915)


@pytest.mark.parametrize("draw", WIDE_RANGE_PERRON)
def test_perron_ill_conditioned_reduction(draw):
    spec = load_network(WIDE_RANGE / f"wide_range_{draw}.json")
    Y1, P = reduce_network(build_admittance(spec), spec.k_diag()), spec.p_vector()
    pair = perron(np.linalg.inv(Y1), P)
    chi, eta = perron_on_support(load_matrix(Y1, P), P)
    assert pair.chi == pytest.approx(chi, rel=1e-8)
    np.testing.assert_allclose(pair.eta, eta, rtol=1e-6, atol=0)
    grid = prepare(spec)
    above = grid.with_uref((1 + 1e-6) * grid.tau_dual)
    cert = certify(above)
    assert cert.verdict == "certified-exists"
    assert analyze_stability(above, cert.u_load).verdict == "stable"
    assert certify(grid.with_uref((1 - 1e-6) * grid.tau_dual)).verdict == "undetermined"


def test_perron_ill_conditioned_residual_raises():
    # the symmetric eigen-solve is accepted; the residual check on A then rejects the pair
    spec = load_network(WIDE_RANGE / "wide_range_976.json")
    Y1 = reduce_network(build_admittance(spec), spec.k_diag())
    with pytest.raises(NumericalError, match="Perron pair failed its check"):
        perron(np.linalg.inv(Y1), spec.p_vector())


def test_perron_failed_residual_raises(table1_reduced, monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: (1.01 * eigh(S)[0], eigh(S)[1]))
    with pytest.raises(NumericalError, match="residual"):
        perron(np.linalg.inv(table1_reduced.Y1), LIGHT)


def test_perron_rejects_bad_powers(table1_reduced):
    for P in (np.zeros(6), -LIGHT, np.ones(5)):
        with pytest.raises(DomainError):
            perron(np.linalg.inv(table1_reduced.Y1), P)


def _with(x, v):
    """A copy of the vector x with its first entry replaced by v."""
    x = np.array(x, dtype=float)
    x[0] = v
    return x


@pytest.fixture(scope="module")
def table1_point(table1_spec):
    grid = prepare(table1_spec)
    return grid, certify(grid).u_load


# each public entry point with one of its numbers replaced by v
NONFINITE_ENTRIES = {
    "with_uref": lambda grid, u, v: grid.with_uref(v),
    "scaled": lambda grid, u, v: grid.scaled(v),
    "bracket": lambda grid, u, v: bracket(_with(grid.q_weights, v),
                                          grid.spec.control.u_ref, grid.A),
    "analyze_stability": lambda grid, u, v: analyze_stability(grid, u, b=v),
    "perron": lambda grid, u, v: perron(np.linalg.inv(grid.Y1), _with(grid.P, v)),
    "reduce_network": lambda grid, u, v: reduce_network(grid.partition,
                                                        _with(grid.spec.k_diag(), v)),
    "cpl_linearize": lambda grid, u, v: cpl_linearize(_with(u, v), grid.P),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", list(NONFINITE_ENTRIES))
def test_entry_points_reject_nonfinite_numbers(table1_point, entry, value):
    grid, u = table1_point
    with pytest.raises(DomainError):
        NONFINITE_ENTRIES[entry](grid, u, value)


def test_m_matrix_classification():
    assert is_m_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert not is_m_matrix(np.array([[1.0, -3.0], [-3.0, 1.0]]))
    assert not is_m_matrix(np.zeros((2, 2)))  # singular: not an M-matrix
    with pytest.raises(DomainError):
        is_m_matrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))


def test_min_symmetric_eigenvalue():
    assert min_symmetric_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)
    with pytest.raises(DomainError):
        min_symmetric_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        min_symmetric_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_qep_scalar_closed_form():
    # lambda^2 + 3 lambda + 2 = 0 -> roots -1, -2
    lams = solve_qep(np.eye(1), 3.0 * np.eye(1), 2.0 * np.eye(1))
    assert multiset_distance(lams, np.array([-1.0, -2.0])) < 1e-10


def test_qep_against_block_companion():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        M = rng.normal(size=(m, m)) + 3 * np.eye(m)
        D = rng.normal(size=(m, m))
        S = rng.normal(size=(m, m))
        lams = solve_qep(M, D, S)
        comp = np.block([[np.zeros((m, m)), np.eye(m)],
                         [-np.linalg.solve(M, S), -np.linalg.solve(M, D)]])
        ref = np.linalg.eigvals(comp)
        assert multiset_distance(lams, ref) < 1e-8 * max(1.0, np.abs(ref).max())


def test_qep_rejects_singular_mass():
    with pytest.raises(DomainError):
        solve_qep(np.zeros((2, 2)), np.eye(2), np.eye(2))


def test_qep_rejects_shape_mismatch():
    with pytest.raises(DomainError):
        solve_qep(np.eye(2), np.eye(3), np.eye(2))
