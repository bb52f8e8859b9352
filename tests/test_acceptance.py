"""End-to-end acceptance checks against the published reference numbers.

The first half pins the reference grid's thresholds, equilibria, damping
bounds, and transient behaviors. The second half runs the property suites
over a seeded corpus of 1000 random connected grids (see conftest.Case).
"""

import numpy as np
import pytest

from dcgrid import (analyze_stability, bracket, build_admittance, certify,
                    cpl_linearize, effective_admittance, jacobian,
                    load_scenario, min_symmetric_eigenvalue, perron, prepare,
                    solve_load_voltages, sufficient_stability)
from dcgrid.cli import main
from dcgrid.existence import _F, _residual
from conftest import (EXAMPLES, HEAVY, LIGHT, TABLE1, Case, intervals_overlap,
                      multiset_distance, variant)
from golden_traces import shipped_trace
from oracles import f_matrix, optimize_weights, solve_qep
from test_existence import BRACKET_LOW_LIGHT, U_STAR_HEAVY, U_STAR_LIGHT
from test_linalg import Y1_REFERENCE


# ---------------------------------------------------------------- reference grid

def test_reduced_matrix_matches_published_table(table1_reduced):
    assert np.max(np.abs(table1_reduced.Y1 - Y1_REFERENCE)) <= 5e-3


def test_light_profile_thresholds(table1_spec):
    cert = certify(table1_spec)
    assert cert.tau_necessary == pytest.approx(89.28, abs=0.05)
    assert cert.tau_perron_vector == pytest.approx(90.6, abs=0.1)
    assert cert.tau_contraction == pytest.approx(92.19, abs=0.05)
    assert cert.tau_necessary <= cert.tau_optimized <= 89.64


def test_light_profile_equilibrium_and_bracket(table1_spec):
    grid = prepare(table1_spec)
    cert = certify(grid)
    assert cert.verdict == "certified-exists"
    assert np.max(np.abs(cert.u_load - U_STAR_LIGHT)) <= 0.05
    assert cert.residual <= 1e-8 * 89.64**2
    # the published floor is the bracket at the published (Nelder-Mead) weights
    q, tau2 = optimize_weights(grid.A, perron(np.linalg.inv(grid.Y1), grid.P).eta)
    assert cert.tau_optimized <= tau2
    published = bracket(q, 89.64, grid.A)
    assert np.max(np.abs(published - BRACKET_LOW_LIGHT)) <= 0.2
    # certify's own floor is a sub-solution below the equilibrium
    low = cert.bracket_low
    assert np.all(_F(89.64, grid.A, low) >= low)
    assert np.all(low <= cert.u_load)


def test_heavy_profile_thresholds_and_equilibrium(table1_spec):
    cert = certify(variant(table1_spec, u_ref=135.51, P=HEAVY))
    assert cert.tau_necessary == pytest.approx(134.93, abs=0.05)
    assert cert.tau_perron_vector == pytest.approx(136.67, abs=0.1)
    assert cert.tau_contraction == pytest.approx(140.39, abs=0.05)
    assert cert.tau_optimized <= 135.51
    assert cert.verdict == "certified-exists"
    assert np.max(np.abs(cert.u_load - U_STAR_HEAVY)) <= 0.05


def test_unsolvable_points_have_no_root(table1_spec):
    for u_ref, P in ((89.6, LIGHT), (135.4, HEAVY)):
        cert = certify(variant(table1_spec, u_ref=u_ref, P=P))
        assert cert.verdict == "undetermined"
        assert cert.bracket_low is None
        assert cert.u_load is None
        assert u_ref < cert.tau_dual
        assert f"dual bound {cert.tau_dual:.10g} V" in cert.note


def test_sweep_bisection_localizes_solvability_boundary(table1_spec, tmp_path):
    out = tmp_path / "bisect.csv"
    assert main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "89.28", "--max", "89.64", "--bisect", "0.02",
                 "--out", str(out)]) == 0
    boundary = [l for l in out.read_text().splitlines() if l.startswith("# boundary")]
    parts = dict(kv.split("=") for kv in boundary[0].split()[2:])
    lo, hi = float(parts["lo"]), float(parts["hi"])
    # the two ends enclose the exact threshold's two-sided certificate
    cert = certify(table1_spec)
    assert lo <= cert.tau_dual <= cert.tau_optimized <= hi
    assert hi - lo <= 2.1e-9 * hi


def test_damping_bounds(table1_spec):
    rep_low = analyze_stability(table1_spec, certify(table1_spec).u_load)
    assert rep_low.b0 == pytest.approx(2.15e-3, rel=0.05)
    high = variant(table1_spec, u_ref=200.0, b=3e-3)
    rep_high = analyze_stability(high, certify(high).u_load)
    assert rep_high.b0 == pytest.approx(0.062, rel=0.05)


# ---------------------------------------------------------------- transients

@pytest.mark.slow
def test_undamped_start_oscillates_then_settles_after_droop_switch():
    scenario = load_scenario(EXAMPLES / "soft_start_high_uref.json")
    spec = scenario.spec
    partition = build_admittance(spec)

    # pre-switch configuration: k = 0, so u_S pins to u_ref and the
    # linearization [[0, -I/X], [C^-1, -C^-1 Y_eq]] must be non-Hurwitz
    u_S = spec.control.u_ref * np.ones(spec.n)
    u_L = solve_load_voltages(u_S, spec.p_vector(), partition,
                              spec.control.u_ref * np.ones(spec.m))
    Y_eq = effective_admittance(partition, cpl_linearize(u_L, spec.p_vector()))
    X = 0.003 * np.ones(spec.n)
    C = spec.c_diag()
    J_pre = np.block([
        [np.zeros((spec.n, spec.n)), -np.diag(1.0 / X)],
        [np.diag(1.0 / C), -np.diag(1.0 / C) @ Y_eq],
    ])
    assert np.linalg.eigvals(J_pre).real.max() > 0

    trace = shipped_trace("soft_start_high_uref")
    assert trace.termination == "completed"

    def ptp(lo, hi):
        window = (trace.t >= lo) & (trace.t <= hi)
        return np.ptp(trace.u_load[window, 0])

    assert ptp(0.15, 0.2) > ptp(0.05, 0.1)  # amplitude grows while undamped

    post = variant(spec, b=0.003)
    u_star = certify(post).u_load
    tail = trace.t >= 0.35
    rel = np.abs(trace.u_load[tail] - u_star) / u_star
    assert rel.max() <= 0.02


@pytest.mark.slow
def test_load_step_settles_close_to_reference_equilibrium(table1_spec):
    trace = shipped_trace("load_step_stable")
    assert trace.termination == "completed"
    u_star = certify(table1_spec).u_load
    tail = trace.t >= 0.11
    assert np.max(np.abs(trace.u_load[tail] - u_star)) <= 0.1


@pytest.mark.slow
def test_load_step_beyond_solvability_collapses():
    trace = shipped_trace("load_step_collapse")
    assert trace.termination == "collapsed"
    assert trace.collapse_time > 0.05  # healthy until the step lands


# ---------------------------------------------------------------- property suites

def test_open_circuit_voltage_matches_reference_everywhere(corpus):
    for case in corpus:
        u_ref = case.spec.control.u_ref
        assert np.max(np.abs(case.reduced.zeta - u_ref)) <= 1e-9 * u_ref


def test_reduced_inverse_entrywise_positive(corpus):
    for case in corpus:
        assert np.all(np.linalg.inv(case.reduced.Y1) > 0)


def test_threshold_ordering(corpus):
    for case in corpus:
        t1, t2, t3, t4 = case.taus
        slack = 1e-9 * max(1.0, t2)
        assert t1 <= t2 + slack
        assert t2 <= min(t3, t4) + slack


def test_pairwise_values_scale_invariant(corpus):
    rng = np.random.default_rng(1)
    for case in corpus:
        m = case.spec.m
        q = rng.uniform(0.2, 5.0, m)
        c = float(rng.uniform(1e-4, 1e4))
        F1 = f_matrix(case.A, q)
        F2 = f_matrix(case.A, c * q)
        finite = np.isfinite(F1)
        assert np.array_equal(finite, np.isfinite(F2))
        assert np.allclose(F1[finite], F2[finite], rtol=1e-11)


def test_pairwise_values_decide_interval_overlap(corpus):
    from oracles import f_pair
    rng = np.random.default_rng(2)
    done = 0
    idx = 0
    while done < 500:
        case = corpus[idx % len(corpus)]
        idx += 1
        m = case.spec.m
        if m < 2:
            continue
        i, j = rng.choice(m, size=2, replace=False)
        q = rng.uniform(0.2, 5.0, m)
        f = f_pair(q, case.A, int(i), int(j))
        u_ref = np.sqrt(f) * float(rng.uniform(0.7, 1.3))
        if abs(u_ref * u_ref - f) <= 1e-6 * f:
            continue  # skip knife-edge draws
        assert intervals_overlap(case.A, q, u_ref, int(i), int(j)) == (u_ref * u_ref > f)
        done += 1


def test_fixed_point_iterates_monotone_from_above(corpus):
    for case in corpus:
        u_ref = case.spec.control.u_ref
        u = u_ref * np.ones(case.spec.m)
        floor = case.bracket
        slack = 1e-12 * u_ref
        for _ in range(200_000):
            nxt = _F(u_ref, case.A, u)
            assert np.all(nxt <= u + slack)
            assert np.all(nxt >= floor - 1e-7 * u_ref)
            if np.max(np.abs(nxt - u)) <= 1e-10 * u_ref:
                break
            u = nxt
        else:
            pytest.fail("fixed-point iteration did not converge")
        # the paper's iteration is the reference for the Newton solve
        assert np.max(np.abs(nxt - case.u_load)) <= 1e-8 * u_ref


def test_equilibria_stay_above_half_reference(corpus):
    for case in corpus:
        assert np.all(case.u_load > 0.5 * case.spec.control.u_ref)


def test_effective_admittance_indefinite_at_equilibria(corpus):
    for case in corpus:
        P = case.spec.p_vector()
        r = cpl_linearize(case.u_load, P)
        Y_eq = effective_admittance(case.partition, r)
        assert np.linalg.eigvalsh(Y_eq)[0] < 0


def test_certificate_implies_hurwitz_across_damping_scan(corpus):
    for case in corpus:
        spec = case.spec
        C = spec.c_diag()
        k = spec.k_diag()
        report = analyze_stability(spec, case.u_load)
        Y_eq, b0 = report.Y_eq, report.b0
        assert np.isfinite(b0)
        for b in np.concatenate((b0 * np.array([0.1, 0.5, 0.99, 1.5, 3.0]),
                                 [spec.control.b])):
            holds = sufficient_stability(Y_eq, C, k, float(b))
            if b < b0:
                assert holds  # the eigenvalue bound is the weaker condition
            if holds:
                J = jacobian(Y_eq, k, C, float(b))
                assert np.linalg.eigvals(J).real.max() < 0


def test_jacobian_spectrum_equals_quadratic_pencil(corpus):
    for case in corpus:
        spec = case.spec
        b = spec.control.b
        C = spec.c_diag()
        k = spec.k_diag()
        Y_eq = effective_admittance(case.partition,
                                    cpl_linearize(case.u_load, spec.p_vector()))
        ref = np.linalg.eigvals(jacobian(Y_eq, k, C, b))
        lams = solve_qep(np.diag(C), np.diag(C) / b + Y_eq,
                         (Y_eq + np.diag(1.0 / k)) / b)
        assert multiset_distance(lams, ref) <= 1e-7 * max(1.0, np.abs(ref).max())


def test_positive_definite_pencils_are_hurwitz():
    rng = np.random.default_rng(4)

    def pd(m):
        Q = rng.normal(size=(m, m))
        return Q @ Q.T + (0.1 + rng.random()) * np.eye(m)

    for _ in range(1000):
        m = int(rng.integers(1, 6))
        lams = solve_qep(pd(m), pd(m), pd(m))
        assert lams.real.max() < 0


def _enumerate_small_grid_roots(Y1, u_ref, P):
    """All positive real roots of the load power balance for m <= 2."""
    poly = np.polynomial.polynomial
    m = Y1.shape[0]
    if m == 1:
        roots = poly.polyroots([P[0], -Y1[0, 0] * u_ref, Y1[0, 0]])
        cands = [np.array([r.real]) for r in roots if abs(r.imag) < 1e-9]
    elif abs(Y1[0, 1]) < 1e-14:
        per_load = []
        for i in range(2):
            roots = poly.polyroots([P[i], -Y1[i, i] * u_ref, Y1[i, i]])
            per_load.append([r.real for r in roots if abs(r.imag) < 1e-9])
        cands = [np.array([a, b]) for a in per_load[0] for b in per_load[1]]
    else:
        # substitute u2(u1) from the first balance into the second: quartic in u1
        a, c = Y1[0, 0], Y1[0, 1]
        d, e = Y1[1, 0], Y1[1, 1]
        D = np.array([0.0, c])                                    # c*u1
        N = np.array([-P[0], (a + c) * u_ref, -a])                # u2 = N/D
        t1 = poly.polymul(np.array([-d * u_ref, d]), D)           # d(u1-uref)*D
        t2 = e * poly.polysub(N, u_ref * D)                       # e(u2-uref)*D
        expanded = poly.polyadd(poly.polymul(N, poly.polyadd(t1, t2)),
                                P[1] * poly.polymul(D, D))
        cands = []
        for r in poly.polyroots(expanded):
            if abs(r.imag) > 1e-9 or abs(r.real) < 1e-12:
                continue
            u1 = r.real
            u2 = poly.polyval(u1, N) / poly.polyval(u1, D)
            cands.append(np.array([u1, u2]))
    out = []
    for u in cands:
        if np.all(u > 0) and np.max(np.abs(_residual(u, Y1, u_ref, P))) <= 1e-6 * u_ref**2:
            out.append(u)
    return out


def test_small_grids_equilibrium_is_componentwise_largest_root():
    rng = np.random.default_rng(31)
    for _ in range(300):
        case = Case(rng, n_max=3, m_max=2)
        u_ref = case.spec.control.u_ref
        P = case.spec.p_vector()
        roots = _enumerate_small_grid_roots(case.reduced.Y1, u_ref, P)
        assert roots, "brute force must at least find the certified root"
        best = min(roots, key=lambda r: np.max(np.abs(r - case.u_load)))
        assert np.max(np.abs(best - case.u_load)) <= 1e-6 * u_ref
        Y1 = case.reduced.Y1
        for r in roots:
            assert np.all(case.u_load >= r - 1e-6 * u_ref)
            if np.max(np.abs(r - case.u_load)) > 1e-6 * u_ref:
                # every other root fails fixed_point_solve's high-voltage check
                assert min_symmetric_eigenvalue(Y1 - np.diag(P / r**2)) <= 0
