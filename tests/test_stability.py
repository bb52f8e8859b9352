"""Linearization, effective admittance, Jacobian spectrum, damping bounds."""

import importlib
import json

import numpy as np
import pytest

from dcgrid import (DomainError, analyze_stability, b_max, certify,
                    cpl_linearize, effective_admittance, jacobian,
                    sufficient_stability)
from conftest import HEAVY, LIGHT, multiset_distance, variant
from oracles import solve_qep


@pytest.fixture(scope="module")
def light_equilibrium(table1_spec):
    cert = certify(table1_spec)
    assert cert.verdict == "certified-exists"
    return cert.u_load


def test_cpl_linearize_values():
    r = cpl_linearize(np.array([50.0, 40.0]), np.array([1000.0, 0.0]))
    assert r[0] == pytest.approx(-2.5)
    assert np.isinf(r[1])
    with pytest.raises(DomainError):
        cpl_linearize(np.array([-1.0]), np.array([100.0]))


def test_effective_admittance_symmetric_and_indefinite(table1_partition, light_equilibrium):
    r = cpl_linearize(light_equilibrium, LIGHT)
    Y_eq = effective_admittance(table1_partition, r)
    np.testing.assert_allclose(Y_eq, Y_eq.T)
    lam1 = np.linalg.eigvalsh(Y_eq)[0]
    assert lam1 == pytest.approx(-0.93075, abs=1e-3)


def test_effective_admittance_open_circuit_is_psd(table1_partition):
    r = np.full(6, np.inf)
    Y_eq = effective_admittance(table1_partition, r)
    # pure Kron reduction of a Laplacian: positive semidefinite
    assert np.linalg.eigvalsh(Y_eq)[0] >= -1e-12


def test_jacobian_block_structure(table1_partition, table1_spec, light_equilibrium):
    k = table1_spec.k_diag()
    C = table1_spec.c_diag()
    b = 1e-3
    Y_eq = effective_admittance(table1_partition, cpl_linearize(light_equilibrium, LIGHT))
    J = jacobian(Y_eq, k, C, b)
    n = 4
    np.testing.assert_allclose(J[:n, :n], -np.eye(n) / b)
    np.testing.assert_allclose(J[:n, n:], -np.diag(1.0 / k) / b)
    np.testing.assert_allclose(J[n:, :n], np.diag(1.0 / C))
    np.testing.assert_allclose(J[n:, n:], -np.diag(1.0 / C) @ Y_eq)
    with pytest.raises(DomainError):
        jacobian(Y_eq, np.zeros(4), C, b)
    with pytest.raises(DomainError):
        jacobian(Y_eq, k, C, 0.0)


def test_sufficient_certificate_tracks_damping(table1_partition, table1_spec, light_equilibrium):
    k = table1_spec.k_diag()
    C = table1_spec.c_diag()
    Y_eq = effective_admittance(table1_partition, cpl_linearize(light_equilibrium, LIGHT))
    b0 = b_max(Y_eq, C, k)
    assert b0 == pytest.approx(2.15e-3, rel=0.05)
    assert sufficient_stability(Y_eq, C, k, 1e-3)
    # b0 comes from an eigenvalue lower bound, so everything below it passes;
    # the direct check only fails somewhat beyond it
    assert sufficient_stability(Y_eq, C, k, 0.99 * b0)
    assert not sufficient_stability(Y_eq, C, k, 3e-3)


@pytest.mark.parametrize("u_ref, P", [(89.64, LIGHT), (135.51, HEAVY)])
def test_damping_bound_is_below_the_certificate_ceiling(table1_spec, u_ref, P):
    # b0 bounds C by C_min and K^-1 by 1/k_max, so the certificate outlasts it
    spec = variant(table1_spec, u_ref=u_ref, P=P)
    rep = analyze_stability(spec, certify(spec).u_load)
    assert np.isfinite(rep.b0)
    assert sufficient_stability(rep.Y_eq, spec.c_diag(), spec.k_diag(), 1.05 * rep.b0)


def test_damping_bound_infinite_without_cpl(table1_partition, table1_spec):
    Y_eq = effective_admittance(table1_partition, np.full(6, np.inf))
    assert np.isinf(b_max(Y_eq, table1_spec.c_diag(), table1_spec.k_diag()))


def test_sufficient_stability_rejects_nan_damping(table1_partition, table1_spec,
                                                 light_equilibrium):
    Y_eq = effective_admittance(table1_partition, cpl_linearize(light_equilibrium, LIGHT))
    with pytest.raises(DomainError):
        sufficient_stability(Y_eq, table1_spec.c_diag(), table1_spec.k_diag(), float("nan"))


def test_damping_bound_rejects_nan_capacitance(table1_partition, table1_spec,
                                               light_equilibrium):
    Y_eq = effective_admittance(table1_partition, cpl_linearize(light_equilibrium, LIGHT))
    C = table1_spec.c_diag().copy()
    C[2] = np.nan
    with pytest.raises(DomainError):
        b_max(Y_eq, C, table1_spec.k_diag())


def test_effective_admittance_rejects_nan_resistance(table1_partition, light_equilibrium):
    r = cpl_linearize(light_equilibrium, LIGHT)
    r[3] = np.nan
    with pytest.raises(DomainError):
        effective_admittance(table1_partition, r)


def test_analyze_stable_at_reference_point(table1_spec, light_equilibrium):
    rep = analyze_stability(table1_spec, light_equilibrium)
    assert rep.verdict == "stable"
    assert rep.abscissa == pytest.approx(-65.26, abs=0.5)
    assert rep.lambda1 == pytest.approx(-0.93075, abs=1e-3)
    assert rep.sufficient_holds
    assert rep.b == 1e-3
    assert rep.spectrum.shape == (8,)
    json.dumps(rep.to_dict())  # the structured report must serialize as-is


def test_analyze_unstable_beyond_damping_bound(table1_spec, light_equilibrium):
    rep = analyze_stability(table1_spec, light_equilibrium, b=3e-3)
    assert rep.verdict == "unstable"
    assert rep.abscissa > 0
    assert not rep.sufficient_holds
    # the conservative bound is unchanged by the operating b
    assert rep.b0 == pytest.approx(2.15e-3, rel=0.05)


def test_quadratic_pencil_matches_jacobian_spectrum(table1_spec, table1_partition,
                                                    light_equilibrium):
    k = table1_spec.k_diag()
    C = table1_spec.c_diag()
    for b in (1e-3, 2e-3, 3e-3):
        Y_eq = effective_admittance(table1_partition,
                                    cpl_linearize(light_equilibrium, LIGHT))
        J = jacobian(Y_eq, k, C, b)
        ref = np.linalg.eigvals(J)
        lams = solve_qep(np.diag(C), np.diag(C) / b + Y_eq,
                         (Y_eq + np.diag(1.0 / k)) / b)
        assert multiset_distance(lams, ref) <= 1e-7 * max(1.0, np.abs(ref).max())


def test_heavy_profile_stability(table1_spec):
    spec = variant(table1_spec, u_ref=135.51, P=HEAVY)
    cert = certify(spec)
    rep = analyze_stability(spec, cert.u_load)
    assert rep.verdict == "stable"
    assert rep.lambda1 < 0
    assert rep.b0 > 1e-3


def test_one_eigen_solve_of_y_eq_per_report(monkeypatch, table1_spec, light_equilibrium):
    # lambda1 and b0 share one eigvalsh of Y_eq; b0 is the value b_max gives
    module = importlib.import_module("dcgrid.stability")
    solve = module.min_symmetric_eigenvalue
    seen = []

    def counted(A):
        seen.append(A)
        return solve(A)

    monkeypatch.setattr(module, "min_symmetric_eigenvalue", counted)
    report = analyze_stability(table1_spec, light_equilibrium)
    assert sum(A is report.Y_eq for A in seen) == 1
    monkeypatch.undo()
    assert report.b0 == b_max(report.Y_eq, table1_spec.c_diag(), table1_spec.k_diag())
    assert report.lambda1 == solve(report.Y_eq)
