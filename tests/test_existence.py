"""Thresholds, the threshold certificate, the order bracket, and equilibrium solving."""

from fractions import Fraction

import numpy as np
import pytest

from dcgrid import (DomainError, bracket, build_admittance, certify, cli,
                    fixed_point_solve, linalg, perron, prepare, reduce_network)
from dcgrid import existence
from dcgrid.existence import _F, _residual, analytic_thresholds
from conftest import HEAVY, LIGHT, TABLE1, variant
from oracles import (f_matrix, f_pair, g_exact, load_matrix, multistart_newton,
                     optimize_weights)

# equilibrium and bracket floor for the reference grid, published to 2 decimals
U_STAR_LIGHT = np.array([43.57, 43.49, 47.24, 56.59, 44.33, 52.05])
BRACKET_LOW_LIGHT = np.array([43.25, 43.18, 46.96, 56.39, 44.03, 51.82])
U_STAR_HEAVY = np.array([70.16, 65.99, 71.77, 84.23, 65.43, 75.50])

# the published weights for the light profile, scaled to max 1; the paper's
# floor BRACKET_LOW_LIGHT is the bracket at these weights, not at q = 1/x
Q_STAR_LIGHT = np.array([0.9984, 1.0, 0.9195, 0.7658, 0.9809, 0.8334])


@pytest.fixture(scope="module")
def light(table1_spec, table1_reduced):
    A = load_matrix(table1_reduced.Y1, table1_spec.p_vector())
    return table1_spec, table1_reduced, A


def test_load_matrix_nonnegative_with_zero_columns(table1_spec):
    P = np.array([1000.0, 0.0, 1000.0, 500.0, 0.0, 500.0])
    A = prepare(variant(table1_spec, P=P)).A
    assert np.all(A >= 0)
    np.testing.assert_array_equal(A[:, 1], 0.0)
    np.testing.assert_array_equal(A[:, 4], 0.0)
    assert np.all(A[:, P > 0] > 0)


def test_necessary_threshold_values(table1_spec):
    def tau1(P):
        return prepare(variant(table1_spec, P=P)).tau_necessary
    assert tau1(LIGHT) == pytest.approx(89.2769, abs=1e-3)
    assert tau1(HEAVY) == pytest.approx(134.9282, abs=1e-3)
    assert tau1(np.zeros(6)) == 0.0


def test_f_pair_diagonal_and_symmetry(light):
    _, _, A = light
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.uniform(0.2, 3.0, 6)
        v = A @ q
        for i in range(6):
            assert f_pair(q, A, i, i) == pytest.approx(4.0 * v[i] / q[i])
            for j in range(6):
                assert f_pair(q, A, i, j) == pytest.approx(f_pair(q, A, j, i))


def test_f_matrix_agrees_with_f_pair(light):
    _, _, A = light
    rng = np.random.default_rng(6)
    q = rng.uniform(0.2, 3.0, 6)
    F = f_matrix(A, q)
    for i in range(6):
        for j in range(6):
            assert F[i, j] == pytest.approx(f_pair(q, A, i, j), rel=1e-12)


def test_f_pair_rejects_bad_weights(light):
    _, _, A = light
    with pytest.raises(DomainError):
        f_pair(np.array([1.0, -1, 1, 1, 1, 1]), A, 0, 1)
    with pytest.raises(DomainError):
        f_matrix(A, np.zeros(6))


def test_optimizer_light_profile(light, table1_spec):
    spec, reduced, A = light
    q, tau2 = optimize_weights(A, perron(np.linalg.inv(reduced.Y1), LIGHT).eta)
    assert q.max() == pytest.approx(1.0)
    assert 89.2769 <= tau2 <= 89.64
    # lands on the same weights the reference implementation reports
    np.testing.assert_allclose(q, Q_STAR_LIGHT, atol=5e-3)
    # the exact threshold is no worse than the Nelder-Mead one
    assert certify(table1_spec).tau_optimized <= tau2


def test_analytic_thresholds_light(light):
    _, reduced, A = light
    tau3, tau4 = analytic_thresholds(A, perron(np.linalg.inv(reduced.Y1), LIGHT))
    assert tau3 == pytest.approx(90.5966, abs=1e-3)
    assert tau4 == pytest.approx(92.1933, abs=1e-3)


def test_bracket_feasible_at_reference_point(light):
    spec, reduced, A = light
    q, _ = optimize_weights(A, perron(np.linalg.inv(reduced.Y1), LIGHT).eta)
    low = bracket(q, 89.64, A)
    assert low is not None
    assert np.max(np.abs(low - BRACKET_LOW_LIGHT)) <= 0.2
    # F maps the bracket [low, zeta] into itself at both corners
    zeta = np.full(6, 89.64)
    for u in (low, zeta):
        img = 89.64 - A @ (1.0 / u)
        assert np.all(img >= low - 1e-7)
        assert np.all(img <= zeta + 1e-12)
    # certify's own floor, at q = 1/x, is a sub-solution below the equilibrium
    cert = certify(spec)
    low = cert.bracket_low
    assert np.all(_F(89.64, A, low) >= low)
    assert np.all(low <= cert.u_load)


def test_bracket_infeasible_below_threshold(light):
    _, reduced, A = light
    q, tau2 = optimize_weights(A, perron(np.linalg.inv(reduced.Y1), LIGHT).eta)
    assert bracket(q, 89.6, A) is None
    assert bracket(q, 0.99 * tau2, A) is None
    with pytest.raises(DomainError):
        bracket(-q, 89.64, A)
    with pytest.raises(DomainError):
        bracket(q, -1.0, A)


def test_bracket_none_on_negative_discriminant(light):
    # the clamp keeps the corner finite, so the strict check rejects it
    # rather than a NaN corner slipping through every comparison
    _, _, A = light
    q = np.ones(6)
    u_ref = 60.0
    assert np.any(u_ref * u_ref - 4.0 * (A @ q) / q < 0)
    with np.errstate(invalid="raise"):
        assert bracket(q, u_ref, A) is None


def test_fixed_point_light_equilibrium(light):
    spec, reduced, A = light
    q, _ = optimize_weights(A, perron(np.linalg.inv(reduced.Y1), LIGHT).eta)
    low = bracket(q, 89.64, A)
    u = fixed_point_solve(89.64, A, low)
    assert np.max(np.abs(u - U_STAR_LIGHT)) <= 0.05
    assert np.max(np.abs(_residual(u, reduced.Y1, 89.64, LIGHT))) <= 1e-8 * 89.64**2
    assert np.all(u >= low)
    assert np.all(u <= 89.64)


def test_equilibrium_meets_its_stop_exactly(table1_spec, monkeypatch):
    # the stop max|u + A(1/u) - u_ref| <= 1e-12 u_ref holds in exact
    # arithmetic at the float root, within 20 Newton steps, at the reference
    # point and just above the fold
    monkeypatch.setattr(linalg, "_NEWTON_STEPS", 20)
    grid = prepare(table1_spec)
    for u_ref in (89.64, (1 + 1e-9) * grid.tau_dual):
        cert = certify(grid.with_uref(u_ref))
        assert cert.verdict == "certified-exists", cert.note
        G = g_exact(grid.A, cert.u_load, u_ref)
        assert max(map(abs, G)) <= Fraction(1e-12) * Fraction(u_ref)


# each fault `fixed_point_solve` checks for, forced by wrapping the Newton it
# runs: (newton, zeta, A, u, u_ref) -> what `existence.balance_newton` returns


def _not_converged(newton, zeta, A, u, u_ref):
    u, J, _ = newton(zeta, A, u, u_ref)
    return u, J, False


def _singular_jacobian(newton, zeta, A, u, u_ref):
    u, J, ok = newton(zeta, A, u, u_ref)
    return u, np.zeros_like(J), ok


def _low_voltage_root(newton, zeta, A, u, u_ref):
    # from 0.4 zeta Newton reaches the low-voltage root, below the floor
    return newton(zeta, A, 0.4 * zeta, u_ref)


def _low_voltage_jacobian(newton, zeta, A, u, u_ref):
    # the high root with G' taken at the low-voltage root, where
    # I - A diag(1/u^2) is not an M-matrix: only the last check sees it
    u, _, ok = newton(zeta, A, u, u_ref)
    _, J, ok_low = newton(zeta, A, 0.4 * zeta, u_ref)
    return u, J, ok and ok_low


@pytest.mark.parametrize("fault, message", [
    (_not_converged, "Newton on u = F(u) from zeta did not converge"),
    (_singular_jacobian, "singular Jacobian in Newton on u = F(u)"),
    (_low_voltage_root, "Newton root left the bracket"),
    (_low_voltage_jacobian, "Newton root failed the high-voltage check "
                            "(I - A diag(1/u^2) not an M-matrix)"),
], ids=["not-converged", "singular", "left-bracket", "m-matrix"])
def test_solver_diagnostics_leave_the_verdict_undetermined(table1_spec, monkeypatch,
                                                           capsys, fault, message):
    newton = existence.balance_newton
    monkeypatch.setattr(existence, "balance_newton",
                        lambda *args: fault(newton, *args))
    cert = certify(table1_spec)
    assert cert.verdict == "undetermined"
    assert cert.u_load is None and cert.residual is None
    assert cert.bracket_low is not None
    assert cert.note == f"solver diagnostics: {message}"
    assert cli.main(["analyze", str(TABLE1)]) == 2
    assert f"note: solver diagnostics: {message}" in capsys.readouterr().out


# oracles.multistart_newton searches for roots without any certificate, so
# it checks certify's verdicts from outside: the equilibrium it reports where
# a bracket exists, and no root below the dual bound


def test_multistart_agrees_with_fixed_point(light):
    spec, reduced, _ = light
    root = multistart_newton(89.64, reduced.Y1, LIGHT, seed=0)
    assert root is not None
    assert np.max(np.abs(root - U_STAR_LIGHT)) <= 0.05
    np.testing.assert_allclose(root, certify(spec).u_load, rtol=0, atol=1e-5)


def test_multistart_is_deterministic(light):
    spec, reduced, _ = light
    a = multistart_newton(89.63, reduced.Y1, LIGHT, seed=0)
    b = multistart_newton(89.63, reduced.Y1, LIGHT, seed=0)
    assert a is not None and np.array_equal(a, b)
    c = multistart_newton(89.63, reduced.Y1, LIGHT, seed=1)
    assert c is not None  # a different seed may land on the same root
    # 89.63 V is above tau*: the root is the one certify brackets
    u_load = certify(variant(spec, u_ref=89.63)).u_load
    np.testing.assert_allclose(a, u_load, rtol=0, atol=1e-5)
    np.testing.assert_allclose(c, u_load, rtol=0, atol=1e-5)


def test_multistart_finds_nothing_below_solvability(light):
    spec, reduced, _ = light
    tau_dual = certify(spec).tau_dual
    for u_ref in (89.6, tau_dual * (1.0 - 1e-6)):
        assert multistart_newton(u_ref, reduced.Y1, LIGHT, seed=0) is None
        assert certify(variant(spec, u_ref=u_ref)).verdict == "undetermined"


def test_certify_reference_point(table1_spec):
    cert = certify(table1_spec)
    assert cert.verdict == "certified-exists"
    assert cert.bracket_low is not None
    assert np.max(np.abs(cert.u_load - U_STAR_LIGHT)) <= 0.05
    assert cert.residual <= 1e-8 * 89.64**2
    d = cert.to_dict()
    assert d["verdict"] == "certified-exists"
    assert d["u_load"] is not None


def test_certify_heavy_profile(table1_spec):
    cert = certify(variant(table1_spec, u_ref=135.51, P=HEAVY))
    assert cert.verdict == "certified-exists"
    assert np.max(np.abs(cert.u_load - U_STAR_HEAVY)) <= 0.05
    assert cert.tau_necessary == pytest.approx(134.9282, abs=1e-3)
    assert cert.tau_optimized <= 135.51
    assert cert.tau_perron_vector == pytest.approx(136.6748, abs=1e-3)
    assert cert.tau_contraction == pytest.approx(140.3918, abs=1e-3)


def test_certify_between_exact_and_nelder_mead_threshold(table1_spec):
    # 89.63 V lies above tau* = 89.62295 V but below the 89.6335 V that the
    # Nelder-Mead search used to reach, where no bracket could be built
    cert = certify(variant(table1_spec, u_ref=89.63))
    assert cert.tau_dual <= 89.62296 and cert.tau_optimized <= 89.62296
    assert cert.verdict == "certified-exists"
    assert cert.bracket_low is not None
    assert np.all(cert.u_load >= cert.bracket_low)
    assert cert.residual <= 1e-8 * 89.63**2


def test_certify_undetermined_band_without_root(table1_spec):
    cert = certify(variant(table1_spec, u_ref=89.6))
    assert cert.verdict == "undetermined"
    assert cert.u_load is None
    assert "dual bound 89.622950" in cert.note


def test_certify_necessary_failure(table1_spec):
    cert = certify(variant(table1_spec, u_ref=80.0))
    assert cert.verdict == "necessary-failed"
    assert cert.u_load is None
    assert cert.bracket_low is None


def test_certify_open_circuit_grid(table1_spec):
    cert = certify(variant(table1_spec, P=np.zeros(6)))
    assert cert.verdict == "certified-exists"
    np.testing.assert_allclose(cert.u_load, 89.64)
    assert cert.tau_necessary == 0.0
    assert cert.residual == 0.0


def test_certify_mixed_zero_power_loads(table1_spec):
    cert = certify(variant(table1_spec, P=[1000.0, 0.0, 1000.0, 500.0, 0.0, 500.0]))
    assert cert.verdict == "certified-exists"
    assert np.all(cert.u_load > 0.5 * 89.64)
    Y1 = reduce_network(build_admittance(table1_spec), table1_spec.k_diag())
    res = _residual(cert.u_load, Y1, 89.64,
                    np.array([1000.0, 0.0, 1000.0, 500.0, 0.0, 500.0]))
    assert np.max(np.abs(res)) <= 1e-8 * 89.64**2
