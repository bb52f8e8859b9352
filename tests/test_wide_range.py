"""The existence analysis on grids whose resistances and loads span many decades.

The grids come from `wide_range.py`. Draw 976 is left out here: its Perron
pair fails its residual check, which `test_linalg` and `test_cli` pin.
"""

import math
from fractions import Fraction

import pytest

from dcgrid import certify, cli, existence, load_network, prepare
from oracles import f_pair_exact, g_exact
from wide_range import DRAWS, documents, path, text

ANALYZABLE = tuple(d for d in DRAWS if d != 976)


def test_files_match_recipe():
    docs = documents()
    for draw in DRAWS:
        assert path(draw).read_text() == text(docs[draw]), draw


@pytest.mark.parametrize("draw", ANALYZABLE)
def test_threshold_ordering(draw):
    grid = prepare(load_network(path(draw)))
    assert grid.tau_dual * (1 - 1e-15) <= grid.tau_optimized
    assert grid.tau_optimized <= min(grid.tau_perron_vector, grid.tau_contraction) * (1 + 1e-10)


@pytest.mark.parametrize("draw", ANALYZABLE)
def test_certified_just_above_dual_bound(draw):
    # at (1 + 10^-k) tau_dual for k = 3..9, so the verdict is monotone in
    # u_ref: Newton on the power balance, stopped by a bound in watts, left
    # draws 264, 720 and 1511 undetermined at some of these points with a
    # root below the bracket
    grid = prepare(load_network(path(draw)))
    for k in range(3, 10):
        cert = certify(grid.with_uref((1 + 10.0 ** -k) * grid.tau_dual))
        assert cert.verdict == "certified-exists", (k, cert.note)


@pytest.mark.parametrize("draw", ANALYZABLE)
def test_equilibrium_meets_its_stop_exactly(draw, monkeypatch):
    # within 20 Newton steps, max|u + A(1/u) - u_ref| <= 1e-12 u_ref in exact
    # arithmetic at the float root, next to the fold
    monkeypatch.setattr(existence, "_EQ_STEPS", 20)
    grid = prepare(load_network(path(draw)))
    u_ref = (1 + 1e-9) * grid.tau_dual
    cert = certify(grid.with_uref(u_ref))
    assert cert.verdict == "certified-exists", cert.note
    G = g_exact(grid.A, cert.u_load, u_ref)
    assert max(map(abs, G)) <= Fraction(1e-12) * Fraction(u_ref)


@pytest.mark.parametrize("draw", ANALYZABLE)
def test_bisect_interval_is_tight(draw, monkeypatch, capsys):
    # the boundary is printed to 10 digits, coarser than the interval on the
    # low-threshold draws, so its ends are read from the certify calls:
    # --min, --max, then lo and hi
    calls, original = [], cli.certify

    def counted(grid):
        calls.append(grid.spec.control.u_ref)
        return original(grid)

    monkeypatch.setattr(cli, "certify", counted)
    assert cli.main(["sweep", str(path(draw)), "--param", "uref",
                     "--min", "0.001", "--max", "1e6", "--bisect", "1e-6"]) == 0
    lo, hi = calls[2:]
    assert hi - lo <= 2.1e-9 * hi
    # the tolerance is absolute, so on the high-threshold draws a comment
    # that the interval is wider than 1e-6 V follows the boundary line
    lines = capsys.readouterr().out.splitlines()
    assert f"# boundary lo={lo:.10g} hi={hi:.10g}" in lines


@pytest.mark.parametrize("draw", (108, 203, 359, 436))
def test_tau_optimized_matches_exact_pairwise_value(draw):
    # the float f_matrix reads 6.1%, 9.8% and 21.8% high on draws 108, 203
    # and 436, and 1.6e-9 low on draw 359
    grid = prepare(load_network(path(draw)))
    q, m = 1.0 / grid.primal_floor, grid.spec.m
    top = max(f_pair_exact(q, grid.A, i, j) for i in range(m) for j in range(i, m))
    assert math.sqrt(top) == pytest.approx(grid.tau_optimized, rel=1e-12)
