"""Reduction, Perron iteration, M-matrix test, and the quadratic eigensolver."""

import numpy as np
import pytest

from dcgrid import (DomainError, NumericalError, min_symmetric_eigenvalue, perron,
                    reduce_network)
from conftest import multiset_distance
from oracles import is_m_matrix, solve_qep

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


def test_perron_known_pair():
    pair = perron(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert pair.chi == pytest.approx(3.0, rel=1e-10)
    np.testing.assert_allclose(pair.eta, np.ones(2) / np.sqrt(2), rtol=1e-8)


def test_perron_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        A = rng.uniform(0.1, 5.0, (m, m))
        pair = perron(A)
        np.testing.assert_allclose(A @ pair.eta, pair.chi * pair.eta,
                                   atol=1e-9 * pair.chi)
        assert np.all(pair.eta > 0)
        assert pair.eta.shape == (m,)
        assert np.linalg.norm(pair.eta) == pytest.approx(1.0)
        # Collatz-Wielandt: the root is bracketed by the row-sum extremes
        rows = A.sum(axis=1)
        assert rows.min() - 1e-9 <= pair.chi <= rows.max() + 1e-9


def test_perron_rejects_nonpositive():
    with pytest.raises(DomainError):
        perron(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DomainError):
        perron(np.ones((2, 3)))


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
