"""The one Newton solver of the constant-power balance, `linalg.balance_newton`.

The balance u_i (c + Y u)_i = -P_i reads u = zeta - A(1/u) with
zeta = -Y^-1 c and A = Y^-1 diag(P). `oracles.solve_balance`, plain Newton
on the balance in watts, is the reference it is checked against.
"""

import numpy as np
import pytest

from dcgrid import build_admittance, certify, solve_load_voltages
from dcgrid.linalg import balance_newton
from conftest import HEAVY, LIGHT, variant
from oracles import solve_balance

G, V = 2.0, 100.0           # one load fed through one line of conductance G from V
P_MAX = G * V * V / 4.0     # largest power the line can transfer


def _one_line(p, u0=V, steps=50):
    # zeta = V and A = p/G: u - V + (p/G)/u = 0
    return balance_newton(np.array([V]), np.array([[p / G]]), np.array([u0]), V, steps)


def _one_line_watts(p):
    return solve_balance(np.array([-G * V]), np.array([[G]]), np.array([p]),
                         np.array([V]), 1e-9 * max(p, 1.0))


@pytest.mark.parametrize("frac", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_one_line_converges_to_high_root(frac):
    p = frac * P_MAX
    u, J, ok = _one_line(p)
    assert ok
    high = 0.5 * (V + np.sqrt(V * V - 4.0 * p / G))
    slope = 1.0 - (p / G) / high**2    # G'(high), the returned Jacobian up to the stop
    assert J[0, 0] == pytest.approx(slope, rel=1e-6)
    # from above, the convex G puts u within |G(u)|/G'(high) <= 1e-12*V/slope of the root
    assert 0.0 <= u[0] - high <= 2e-12 * V / slope
    # the watt-form reference stops within about 1e-9*max(p, 1) W/slope of the same root
    u_w, ok_w = _one_line_watts(p)
    watt_slope = G * np.sqrt(V * V - 4.0 * p / G)
    assert ok_w and abs(u_w[0] - high) <= 2e-9 * max(p, 1.0) / watt_slope


@pytest.mark.parametrize("frac", [1.01, 1.5, 4.0])
def test_one_line_above_max_power_does_not_converge(frac):
    assert not _one_line(frac * P_MAX)[2]
    assert not _one_line_watts(frac * P_MAX)[1]


def test_iterate_checked_after_last_step():
    root = 0.5 * (V + np.sqrt(V * V - 2.0 * P_MAX / G))
    assert _one_line(0.5 * P_MAX, u0=root, steps=0)[2]
    assert not _one_line(0.5 * P_MAX, u0=V, steps=0)[2]
    assert _one_line(0.5 * P_MAX, u0=V, steps=8)[2]


@pytest.mark.parametrize("u_ref,P", [(89.64, LIGHT), (135.51, HEAVY)])
def test_existence_and_load_flow_agree(table1_spec, u_ref, P):
    spec = variant(table1_spec, u_ref=u_ref, P=P)
    cert = certify(spec)
    assert cert.verdict == "certified-exists"
    partition = build_admittance(spec)
    # droop steady state: u_S = u_ref*1 - K i_S with i_S = Y_SS u_S + Y_SL u_L
    K = np.diag(spec.k_diag())
    u_S = np.linalg.solve(np.eye(spec.n) + K @ partition.Y_SS,
                          u_ref * np.ones(spec.n) - K @ partition.Y_SL @ cert.u_load)
    u = solve_load_voltages(u_S, spec.p_vector(), partition, u_ref * np.ones(spec.m))
    assert np.max(np.abs(u - cert.u_load)) <= 1e-9 * u_ref
