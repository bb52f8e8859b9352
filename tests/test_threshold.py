"""The exact solvability threshold and its two-sided certificate.

`dual_ascent` returns dual weights w and a primal floor x. `oracles.threshold_bounds`
recomputes from A alone what each proves: no equilibrium below
2 sum sqrt(w (A'w)), and one at every u_ref >= max(x + A(1/x)). The paper's
tau2, evaluated at q = 1/x, must sit on the dual bound from both sides, and
`oracles.multiplicative_ascent`, a first-order route to the same program,
must reach the same bound.
"""

import numpy as np
import pytest

from dcgrid import certify, dual_ascent, parse_network, perron, prepare
from dcgrid import existence
from conftest import HEAVY, random_grid_document, variant
from oracles import f_matrix, multiplicative_ascent, threshold_bounds

SIZES = (96, 192, 384)


@pytest.fixture(scope="module")
def large_grids():
    """Seeded random grids with 96, 192 and 384 loads, some of them at zero power."""
    grids = []
    for m in SIZES:
        doc = random_grid_document(np.random.default_rng(1000 + m), m=m)
        grid = prepare(parse_network(doc))
        assert np.any(grid.P == 0)
        grids.append(grid)
    return grids


@pytest.fixture(scope="module")
def reference_grids(table1_spec):
    return [prepare(table1_spec), prepare(variant(table1_spec, P=HEAVY))]


def perron_start(grid):
    """The left Perron vector P*eta summing to 1, where `prepare` starts the ascent."""
    eta = perron(np.linalg.inv(grid.Y1), grid.P).eta
    return grid.P * eta / np.dot(grid.P, eta)


def check_certificate(grid):
    lower, upper = threshold_bounds(grid.A, grid.dual_weights, grid.primal_floor)
    assert lower == pytest.approx(grid.tau_dual, rel=1e-12)
    assert upper - lower <= 1e-9 * lower
    # the paper's pairwise threshold at q = 1/x is the exact one, both ways
    assert abs(grid.tau_optimized - grid.tau_dual) <= 1e-9 * grid.tau_dual
    assert grid.tau_necessary <= grid.tau_dual
    # the reported weights are the primal floor's reciprocal, scaled to max 1
    q = 1.0 / grid.primal_floor
    np.testing.assert_allclose(grid.q_weights, q / q.max(), rtol=1e-14)


def test_certificate_on_reference_grid(reference_grids):
    light, heavy = reference_grids
    for grid in reference_grids:
        check_certificate(grid)
    assert light.tau_dual == pytest.approx(89.62295076, abs=1e-7)
    assert heavy.tau_dual == pytest.approx(135.4186622, abs=1e-6)


def test_certificate_on_corpus(corpus):
    for case in corpus:
        check_certificate(prepare(case.spec))


def test_certificate_on_large_grids(large_grids):
    for grid in large_grids:
        check_certificate(grid)


def certify_around_threshold(grid):
    tau = grid.tau_dual
    for u_ref in ((1 + 1e-6) * tau, (1 + 1e-10) * tau):
        above = certify(grid.with_uref(u_ref))
        assert above.verdict == "certified-exists"
        assert above.bracket_low is not None
        assert np.all(above.u_load >= above.bracket_low - 1e-7 * tau)
        assert above.residual <= 1e-8 * u_ref ** 2
    below = certify(grid.with_uref((1 - 1e-6) * tau))
    assert below.u_load is None and below.bracket_low is None
    if (1 - 1e-6) * tau <= grid.tau_necessary:  # a single load: tau1 = tau*
        assert below.verdict == "necessary-failed"
    else:
        assert below.verdict == "undetermined"
        assert f"dual bound {tau:.10g} V" in below.note


def test_verdicts_around_threshold_on_reference_grid(reference_grids):
    for grid in reference_grids:
        certify_around_threshold(grid)


def test_verdicts_around_threshold_on_corpus(corpus):
    for case in corpus:
        certify_around_threshold(prepare(case.spec))


def test_verdicts_around_threshold_on_large_grids(large_grids):
    for grid in large_grids:
        certify_around_threshold(grid)


@pytest.mark.parametrize("cap", [0, 1, 5])
def test_capped_ascent_gives_valid_bounds(monkeypatch, reference_grids, large_grids, cap):
    exact = [(g.spec, g.tau_dual) for g in reference_grids + large_grids]
    monkeypatch.setattr(existence, "_ASCENT_CAP", cap)
    for spec, tau in exact:
        w, x, tau_dual = dual_ascent(prepare(spec).A, perron_start(prepare(spec)))
        lower, upper = threshold_bounds(prepare(spec).A, w, x)
        assert lower == pytest.approx(tau_dual, rel=1e-12)
        assert lower <= tau * (1 + 1e-9) and upper >= tau * (1 - 1e-9)
        grid = prepare(spec)
        assert grid.tau_optimized >= grid.tau_dual * (1 - 1e-9)
        # every verdict still rests on a certificate; none raises
        for u_ref in (0.99 * tau, tau * (1 + 1e-6), 1.01 * grid.tau_optimized):
            cert = certify(grid.with_uref(u_ref))
            if cert.verdict == "certified-exists":
                assert u_ref >= tau * (1 - 1e-9)
            else:
                assert cert.u_load is None
        assert certify(grid.with_uref(1.01 * grid.tau_optimized)).verdict == "certified-exists"


def test_single_load_threshold_is_closed_form():
    # one load behind one line: A = [P/G_eff], tau* = 2 sqrt(A)
    A = np.array([[250.0]])
    w, x, tau_dual = dual_ascent(A, np.ones(1))
    assert tau_dual == pytest.approx(2.0 * np.sqrt(250.0), rel=1e-15)
    np.testing.assert_allclose(x, np.sqrt(250.0), rtol=1e-15)
    assert np.sqrt(f_matrix(A, 1.0 / x).max()) == pytest.approx(tau_dual, rel=1e-15)


def test_newton_matches_multiplicative_ascent(reference_grids, corpus, large_grids):
    grids = reference_grids + [prepare(case.spec) for case in corpus] + large_grids
    for grid in grids:
        _, _, tau_dual = multiplicative_ascent(grid.A)
        assert grid.tau_dual == pytest.approx(tau_dual, rel=1e-12)


def test_twenty_newton_steps_close_the_gap(monkeypatch, corpus, large_grids):
    specs = [case.spec for case in corpus] + [grid.spec for grid in large_grids]
    monkeypatch.setattr(existence, "_ASCENT_CAP", 20)
    for spec in specs:
        grid = prepare(spec)
        lower, upper = threshold_bounds(grid.A, grid.dual_weights, grid.primal_floor)
        assert upper - lower <= existence._ASCENT_GAP * lower


def test_newton_starts_from_the_necessary_threshold(monkeypatch, reference_grids, corpus,
                                                    large_grids):
    # at w = psi the dual bound is 2 sqrt(chi) = tau1; cap 0 returns it unchanged
    specs = ([grid.spec for grid in reference_grids + large_grids]
             + [case.spec for case in corpus])
    monkeypatch.setattr(existence, "_ASCENT_CAP", 0)
    for spec in specs:
        grid = prepare(spec)
        np.testing.assert_array_equal(grid.dual_weights, perron_start(grid))
        assert grid.tau_dual == grid.tau_necessary


def _counted_solves(monkeypatch, fail=False):
    """Count the bordered Newton solves of `dual_ascent`; with `fail`, each raises."""
    calls = []
    solve = np.linalg.solve

    def counted(K, rhs):
        calls.append(K.shape)
        if fail:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(K, rhs)

    monkeypatch.setattr(existence.np.linalg, "solve", counted)
    return calls


def test_singular_bordered_system_returns_the_start_pair(monkeypatch, reference_grids):
    grid = reference_grids[0]
    psi = perron_start(grid)
    calls = _counted_solves(monkeypatch, fail=True)
    w, x, tau_dual = dual_ascent(grid.A, psi)
    assert len(calls) == 1
    np.testing.assert_array_equal(w, psi)
    assert tau_dual == grid.tau_necessary
    assert tau_dual == pytest.approx(89.27691179, abs=1e-8)
    lower, upper = threshold_bounds(grid.A, w, x)
    assert lower == tau_dual
    assert upper == pytest.approx(92.24095514, abs=1e-8)


def test_line_search_gives_up_at_rounding(monkeypatch, reference_grids):
    # with no gap small enough to end the ascent, it stops where no halving
    # shrinks the gap, before the step cap
    grid = reference_grids[0]
    psi = perron_start(grid)
    calls = _counted_solves(monkeypatch)
    dual_ascent(grid.A, psi)
    normal = len(calls)
    calls.clear()
    monkeypatch.setattr(existence, "_ASCENT_GAP", -1.0)
    w, x, tau_dual = dual_ascent(grid.A, psi)
    assert normal < len(calls) < existence._ASCENT_CAP
    assert tau_dual == pytest.approx(grid.tau_dual, rel=1e-12)
    lower, upper = threshold_bounds(grid.A, w, x)
    assert lower == tau_dual
    assert upper - lower <= 1e-10 * lower


def test_certified_interval_ends_have_definite_verdicts(corpus, large_grids):
    # the two points `sweep --bisect` evaluates: no root just below the dual
    # bound, a root just above tau2, and they stay apart in the CSV's %.10g
    ladder = [prepare(parse_network(random_grid_document(np.random.default_rng(1000 + m), m=m)))
              for m in (6, 12, 24, 48)]
    grids = [prepare(case.spec) for case in corpus] + ladder + large_grids
    for grid in grids:
        lo = grid.tau_dual * (1 - existence._DUAL_MARGIN)
        hi = grid.tau_optimized * (1 + existence._DUAL_MARGIN)
        assert certify(grid.with_uref(lo)).u_load is None
        assert certify(grid.with_uref(hi)).u_load is not None
        assert f"{lo:.10g}" != f"{hi:.10g}"
