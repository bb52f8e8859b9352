"""The exact threshold against scipy's Nelder-Mead search.

The package once found tau2 = sqrt(min_q max_ij f_ij(q)) by a Nelder-Mead
search in log coordinates; `dcgrid.dual_ascent` now solves it exactly. By the
paper's theorem every q whose max f_ij stays below u_ref^2 certifies an
equilibrium, and the dual weights prove none exists below tau_dual, so no
point scipy's search visits may fall below tau_dual^2, and the search may
never beat the exact tau2.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from conftest import HEAVY, random_grid_document, variant
from dcgrid import parse_network, perron, prepare

REL = 1e-9  # the certificate's relative gap, with rounding to spare


@pytest.fixture(scope="module")
def grids(table1_spec):
    """The reference grid at both load profiles and seeded random grids of 6-96 loads."""
    cases = {"light": prepare(table1_spec), "heavy": prepare(variant(table1_spec, P=HEAVY))}
    for m, seed in ((6, 1), (24, 2), (96, 3)):
        spec = parse_network(random_grid_document(np.random.default_rng(seed), m=m))
        cases[f"m{m}"] = prepare(spec)
    return cases


def _objective(A):
    """The search's objective: max f_ij at q = exp([z, 0])."""
    return lambda z: float(oracles.f_matrix(A, np.exp(np.append(z, 0.0))).max())


@pytest.mark.parametrize("name", ["light", "heavy", "m6", "m24", "m96"])
def test_grid_objective_matches_scipy(grids, name):
    grid = grids[name]
    objective = _objective(grid.A)
    # at the exact weights, in the search's coordinates, it is the exact tau2
    q = grid.q_weights
    assert objective(np.log(q[:-1] / q[-1])) == pytest.approx(grid.tau_optimized**2,
                                                              rel=1e-12)
    eta = perron(np.linalg.inv(grid.Y1), grid.P).eta
    seen = []
    for z0 in (np.zeros(eta.size - 1), np.log(eta[:-1] / eta[-1])):
        res = minimize(lambda z: seen.append(objective(z)) or seen[-1], z0,
                       method="Nelder-Mead",
                       options={"maxfev": 2000, "xatol": 1e-10, "fatol": 1e-12})
        assert res.fun >= grid.tau_optimized**2 * (1.0 - 2.0 * REL)
    assert min(seen) >= grid.tau_dual**2 * (1.0 - 2.0 * REL)


@pytest.mark.parametrize("name", ["light", "heavy", "m6", "m24", "m96"])
def test_optimize_weights_matches_scipy_copy(grids, name):
    grid = grids[name]
    q, tau2 = oracles.optimize_weights(grid.A, perron(np.linalg.inv(grid.Y1), grid.P).eta)
    assert np.sqrt(oracles.f_matrix(grid.A, q).max()) == pytest.approx(tau2, rel=1e-12)
    assert tau2 >= grid.tau_dual * (1.0 - REL)
    assert grid.tau_optimized <= tau2 * (1.0 + REL)
    if name in ("light", "heavy"):
        # on the reference grid the restarted search nearly converges
        assert tau2 <= grid.tau_optimized * (1.0 + 2e-4)
