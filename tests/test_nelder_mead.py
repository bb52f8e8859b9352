"""The in-package Nelder-Mead against scipy's, bit for bit.

`dcgrid.existence._nelder_mead` must evaluate the same points in the same
order as `scipy.optimize.minimize(method="Nelder-Mead")` and return the same
(x, fun, nfev); `optimize_weights` must then return the same (q*, tau2) bits
as its scipy-driven copy in `tests/oracles.py`.
"""

import numpy as np
import pytest

import oracles
from conftest import HEAVY, LIGHT, random_grid_document
from dcgrid import f_matrix, load_matrix, optimize_weights, parse_network
from dcgrid.existence import _nelder_mead, _perron_on_support
from dcgrid.linalg import reduce_network
from dcgrid.network import build_admittance

XATOL, FATOL = 1e-10, 1e-12  # the tolerances optimize_weights uses


def _weights_problem(spec, P):
    """(A, eta): the load matrix of a grid and its Perron vector."""
    Y1 = reduce_network(build_admittance(spec), spec.k_diag(), 1.0).Y1
    A = load_matrix(Y1, P)
    return A, _perron_on_support(A, P).eta


@pytest.fixture(scope="module")
def grids(table1_spec):
    """The reference grid at both load profiles and seeded random grids of 6-96 loads."""
    cases = {"light": _weights_problem(table1_spec, LIGHT),
             "heavy": _weights_problem(table1_spec, HEAVY)}
    for m, seed in ((6, 1), (24, 2), (96, 3)):
        spec = parse_network(random_grid_document(np.random.default_rng(seed), m=m))
        cases[f"m{m}"] = _weights_problem(spec, spec.p_vector())
    return cases


def _objective(A):
    """optimize_weights's objective: max f_ij at q = exp([z, 0])."""
    return lambda z: float(f_matrix(A, np.exp(np.append(z, 0.0))).max())


def _starts(eta):
    """The two starts optimize_weights uses, in log coordinates: q = 1 and q = eta."""
    return [np.zeros(eta.size - 1), np.log(eta[:-1] / eta[-1])]


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_run(fun, x0, maxfev, xatol=XATOL, fatol=FATOL):
    """Run both searches on fun and require the same points, x, fun and nfev."""
    seen = {"port": [], "scipy": []}

    def recorded(key):
        def wrapped(x):
            seen[key].append(_bits(x))
            return fun(x)
        return wrapped

    x, f, n = _nelder_mead(recorded("port"), np.array(x0, dtype=float), maxfev, xatol, fatol)
    rx, rf, rn = oracles.nelder_mead(recorded("scipy"), np.array(x0, dtype=float),
                                     maxfev, xatol, fatol)
    assert seen["port"] == seen["scipy"]
    assert (_bits(x), _bits(f), n) == (_bits(rx), _bits(rf), rn)
    return n


@pytest.mark.parametrize("name", ["light", "heavy", "m6", "m24", "m96"])
def test_grid_objective_matches_scipy(grids, name):
    A, eta = grids[name]
    for z0 in _starts(eta):
        _assert_same_run(_objective(A), z0, 2000)


def test_ties_sort_like_scipy(grids):
    # rounded to whole V^2, the 96 vertices of the first simplex take about a
    # dozen values, so the order argsort leaves ties in decides the later steps
    A, _ = grids["m96"]
    objective = _objective(A)
    fun = lambda z: float(round(objective(z)))
    values = [fun(z) for z in np.vstack([np.zeros(95), 0.00025 * np.eye(95)])]
    assert len(set(values)) < len(values) // 4
    _assert_same_run(fun, np.zeros(95), 1000)


@pytest.mark.parametrize("name, first_shrink", [("light", 840), ("m6", 918)])
def test_small_budgets_match_scipy(grids, name, first_shrink):
    # from the eta start these runs first shrink after `first_shrink`
    # evaluations, then every 10-20; the budgets stop them inside the first
    # simplex and at every point of the shrinks around there, leaving a partly
    # moved simplex
    A, eta = grids[name]
    fun = _objective(A)
    z0 = _starts(eta)[1]
    for maxfev in [*range(1, 16), *range(first_shrink - 2, first_shrink + 20)]:
        assert _assert_same_run(fun, z0, maxfev) == maxfev


def test_every_small_budget_matches_scipy_on_rosenbrock():
    for maxfev in range(1, 151):
        _assert_same_run(_rosenbrock, [-1.2, 1.0, 0.5], maxfev)


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.0, 1.2, 0.0], [1.3, 0.7, 0.8, 1.9, 1.2]])
def test_rosenbrock_matches_scipy(x0):
    # large budgets: the runs end on the xatol/fatol test, not on maxfev
    assert _assert_same_run(_rosenbrock, x0, 20_000, 1e-8, 1e-8) < 20_000


@pytest.mark.parametrize("name", ["light", "heavy", "m6", "m24", "m96"])
def test_optimize_weights_matches_scipy_copy(grids, name):
    A, eta = grids[name]
    q, tau2 = optimize_weights(A, eta)
    rq, rtau2 = oracles.optimize_weights(A, eta)
    assert (_bits(q), _bits(tau2)) == (_bits(rq), _bits(rtau2))

