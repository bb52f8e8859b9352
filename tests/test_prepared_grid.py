"""One prepared grid per command: sweeps and --bisect reuse its thresholds.

The oracles here certify every point from scratch, as a fresh `certify` of
the varied spec, and format the rows the way the sweep CSV does.
"""

import json
import sys

import numpy as np
import pytest

import dcgrid
from dcgrid import (DomainError, analyze_stability, build_admittance, certify,
                    dual_ascent, prepare)
from dcgrid.cli import main
from dcgrid.existence import _DUAL_MARGIN
from conftest import LIGHT, TABLE1, random_grid_document, variant
from oracles import load_matrix

HEADER = ("param,value,verdict,root_found,tau_necessary,tau_optimized,"
          "tau_perron_vector,tau_contraction,abscissa,stable")


def fresh_row(spec, param, value):
    """The sweep row for one point, certified from scratch on the varied spec."""
    point = {"uref": lambda: variant(spec, u_ref=value),
             "b": lambda: variant(spec, b=value),
             "load": lambda: variant(spec, P=value * spec.p_vector())}[param]()
    cert = certify(point)
    abscissa = stable = ""
    if cert.u_load is not None:
        report = analyze_stability(point, cert.u_load)
        abscissa, stable = f"{report.abscissa:.6g}", str(report.verdict == "stable")
    row = (f"{param},{value:.10g},{cert.verdict},{cert.u_load is not None},"
           f"{cert.tau_necessary:.6g},{cert.tau_optimized:.6g},"
           f"{cert.tau_perron_vector:.6g},{cert.tau_contraction:.6g},"
           f"{abscissa},{stable}")
    return row, cert.u_load is not None


def run_sweep(tmp_path, *args):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(TABLE1), *args, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("param, lo, hi, points", [
    ("uref", 88.0, 91.0, 4),
    ("b", 5e-4, 5e-3, 3),
])
def test_sweep_rows_match_fresh_certificates(table1_spec, tmp_path, param, lo, hi, points):
    text = run_sweep(tmp_path, "--param", param, "--min", str(lo), "--max", str(hi),
                     "--points", str(points))
    rows = [fresh_row(table1_spec, param, v)[0] for v in np.linspace(lo, hi, points)]
    assert text == "\n".join([HEADER, *rows]) + "\n"


def test_bisect_ends_match_fresh_certificates(table1_spec, tmp_path):
    vmin, vmax = 89.28, 89.64
    text = run_sweep(tmp_path, "--param", "uref", "--min", str(vmin), "--max", str(vmax),
                     "--bisect", "0.02")
    grid = prepare(table1_spec)
    lo = max(vmin, grid.tau_dual * (1 - _DUAL_MARGIN))
    hi = min(vmax, grid.tau_optimized * (1 + _DUAL_MARGIN))
    rows = [fresh_row(table1_spec, "uref", v) for v in (vmin, lo, hi, vmax)]
    assert [found for _, found in rows] == [False, False, True, True]
    expected = [HEADER, *(row for row, _ in rows), f"# boundary lo={lo:.10g} hi={hi:.10g}"]
    assert text == "\n".join(expected) + "\n"


def test_load_scaling_reuses_thresholds(table1_spec, tmp_path):
    base = prepare(table1_spec)
    for s in (0.5, 1.25, 2.0):
        got = certify(base.scaled(s))
        ref = certify(variant(table1_spec, P=s * LIGHT))
        assert got.tau_necessary == pytest.approx(ref.tau_necessary, rel=1e-9)
        assert got.tau_perron_vector == pytest.approx(ref.tau_perron_vector, rel=1e-9)
        assert got.tau_contraction == pytest.approx(ref.tau_contraction, rel=1e-9)
        assert got.tau_optimized == np.sqrt(s) * base.tau_optimized
        np.testing.assert_array_equal(got.q_weights, base.q_weights)
        np.testing.assert_array_equal(got.dual_weights, base.dual_weights)
        assert got.tau_dual == np.sqrt(s) * base.tau_dual
        assert got.verdict == ref.verdict
        if ref.u_load is not None:
            np.testing.assert_allclose(got.u_load, ref.u_load, rtol=1e-9)
    with pytest.raises(DomainError):
        base.scaled(-1.0)

    text = run_sweep(tmp_path, "--param", "load", "--min", "0.5", "--max", "2",
                     "--points", "4")
    rows = [r.split(",") for r in text.splitlines()[1:]]
    for row, s in zip(rows, np.linspace(0.5, 2.0, 4)):
        assert row[5] == f"{np.sqrt(s) * base.tau_optimized:.6g}"
        fresh = fresh_row(table1_spec, "load", s)[0].split(",")
        assert row[:5] + row[6:] == fresh[:5] + fresh[6:]


def count_calls(monkeypatch, original):
    """Count calls of a dcgrid function in every module that imported it by name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dcgrid" or name.startswith("dcgrid."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("args", [
    ["--param", "uref", "--min", "88", "--max", "91", "--points", "5"],
    ["--param", "load", "--min", "0.5", "--max", "2", "--points", "5"],
    ["--param", "b", "--min", "5e-4", "--max", "5e-3", "--points", "5"],
    ["--param", "uref", "--min", "88", "--max", "91", "--bisect", "0.01"],
])
def test_one_threshold_optimization_per_sweep(monkeypatch, tmp_path, args):
    calls = count_calls(monkeypatch, dual_ascent)
    run_sweep(tmp_path, *args)
    assert len(calls) == 1


def test_one_admittance_build_per_analyze(monkeypatch):
    calls = count_calls(monkeypatch, build_admittance)
    assert main(["analyze", str(TABLE1)]) == 0
    assert len(calls) == 1


def count_factorizations(monkeypatch):
    """The matrices passed to np.linalg.solve and np.linalg.inv, in call order."""
    matrices = []
    for name in ("solve", "inv"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            matrices.append(np.array(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return matrices


def test_one_factorization_of_y1_per_grid(monkeypatch, table1_spec):
    # prepare inverts Y1 once, for A and the Perron pair; scaled reuses A
    matrices = count_factorizations(monkeypatch)
    grid = prepare(table1_spec)
    assert sum(np.array_equal(a, grid.Y1) for a in matrices) == 1
    matrices.clear()
    grid.scaled(1.5)
    assert not any(np.array_equal(a, grid.Y1) for a in matrices)


def assert_load_matrix_matches_solve(spec):
    grid = prepare(spec)
    A = load_matrix(grid.Y1, grid.P)
    assert np.max(np.abs(grid.A - A)) <= 1e-13 * np.max(np.abs(A))


def test_load_matrix_matches_solve(table1_spec, corpus):
    assert_load_matrix_matches_solve(table1_spec)
    for case in corpus[:100]:
        assert_load_matrix_matches_solve(case.spec)


@pytest.mark.parametrize("m", [96, 192, 384])
def test_load_matrix_matches_solve_large_grids(m):
    assert_load_matrix_matches_solve(
        dcgrid.parse_network(random_grid_document(np.random.default_rng(m), m=m)))


def test_scaled_load_matrix_is_exactly_scaled(table1_spec):
    grid = prepare(table1_spec)
    for s in (0.0, 0.5, 1.5, 2.0):
        np.testing.assert_array_equal(grid.scaled(s).A, s * grid.A)


def test_near_degenerate_feeders_are_analyzed(tmp_path):
    # two almost identical feeders tied by a 1 MOhm line: the two eigenvalues
    # of A nearly coincide, where a power iteration for the Perron pair stalls
    doc = {
        "sources": [{"id": s, "V": 300.0, "L": 2e-3, "C": 2e-3, "k": 1.0}
                    for s in ("s1", "s2")],
        "loads": [{"id": "l1", "P": 1000.0}, {"id": "l2", "P": 999.99}],
        "lines": [{"a": "s1", "b": "l1", "r": 1.0}, {"a": "s2", "b": "l2", "r": 1.0},
                  {"a": "l1", "b": "l2", "r": 1e6}],
        "control": {"u_ref": 100.0, "b": 1e-3},
    }
    path = tmp_path / "feeders.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["verdict"] == "certified-exists"
    grid = prepare(dcgrid.load_network(path))
    eta = grid.pair.eta
    assert np.all(eta > 0)
    np.testing.assert_allclose(grid.A @ eta, grid.pair.chi * eta, atol=1e-10 * grid.pair.chi)
