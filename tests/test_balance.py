"""The load flow's Newton solver of the constant-power balance u_i (c + Y u)_i = -P_i."""

import importlib

import numpy as np
import pytest

from dcgrid import build_admittance, certify, solve_load_voltages
from conftest import HEAVY, LIGHT, variant

_sim = importlib.import_module("dcgrid.simulate")
_solve_balance = _sim._solve_balance

G, V = 2.0, 100.0           # one load fed through one line of conductance G from V
P_MAX = G * V * V / 4.0     # largest power the line can transfer


def _one_line(p, u0=V):
    return _solve_balance(np.array([-G * V]), np.array([[G]]), np.array([p]),
                          np.array([u0]), 1e-9 * max(p, 1.0))


@pytest.mark.parametrize("frac", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_one_line_converges_to_high_root(frac):
    p = frac * P_MAX
    u, ok = _one_line(p)
    assert ok
    slope = G * np.sqrt(V * V - 4.0 * p / G)   # d(residual)/du at the high root
    high = 0.5 * (V + slope / G)
    # the residual bound 1e-9*max(p, 1) puts u within about bound/slope of the root
    assert abs(u[0] - high) <= 2e-9 * max(p, 1.0) / slope


@pytest.mark.parametrize("frac", [1.01, 1.5, 4.0])
def test_one_line_above_max_power_does_not_converge(frac):
    u, ok = _one_line(frac * P_MAX)
    assert not ok


def test_iterate_checked_after_last_step(monkeypatch):
    root = 0.5 * (V + np.sqrt(V * V - 2.0 * P_MAX / G))
    monkeypatch.setattr(_sim, "_NEWTON_STEPS", 0)
    assert _one_line(0.5 * P_MAX, u0=root)[1]
    assert not _one_line(0.5 * P_MAX, u0=V)[1]
    monkeypatch.setattr(_sim, "_NEWTON_STEPS", 8)
    assert _one_line(0.5 * P_MAX, u0=V)[1]


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
