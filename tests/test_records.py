"""Result records: read-only arrays, shared thresholds and the strict JSON report."""

import dataclasses
import json

import numpy as np
import pytest

from dcgrid import (ExistenceCertificate, PreparedGrid, Thresholds, analyze_stability,
                    bracket, certify, parse_scenario, perron, prepare, simulate)
from dcgrid.cli import main


def _assert_arrays_frozen(record):
    arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
              if isinstance(getattr(record, f.name), np.ndarray)}
    assert arrays, type(record).__name__
    for name, arr in arrays.items():
        assert not arr.flags.writeable, f"{type(record).__name__}.{name}"


def test_every_array_field_is_read_only(table1_doc, table1_spec):
    grid = prepare(table1_spec)
    cert = certify(grid)
    report = analyze_stability(grid, cert.u_load)
    doc = json.loads(json.dumps(table1_doc))
    doc["scenario"] = {"horizon": 2e-4, "dt": 1e-4}
    trace = simulate(parse_scenario(doc))
    for record in (grid, grid.partition, grid.pair, cert, report, trace,
                   perron(np.linalg.inv(grid.Y1), grid.P),
                   bracket(grid.q_weights, table1_spec.control.u_ref, grid.A)):
        _assert_arrays_frozen(record)


def test_certificate_shares_the_grid_thresholds(table1_spec):
    grid = prepare(table1_spec)
    cert = certify(grid)
    assert issubclass(PreparedGrid, Thresholds) and issubclass(ExistenceCertificate, Thresholds)
    for f in dataclasses.fields(Thresholds):
        assert getattr(cert, f.name) is getattr(grid, f.name)
    keys = list(cert.to_dict())
    assert keys[:8] == [f.name for f in dataclasses.fields(Thresholds)]
    assert keys[8:] == ["bracket_low", "bracket_high", "verdict", "u_load", "residual", "note"]


def _reject(token):
    raise AssertionError(f"non-JSON token {token}")


def _strict_report(tmp_path, table1_doc, powers):
    doc = json.loads(json.dumps(table1_doc))
    for load, P in zip(doc["loads"], powers):
        load["P"] = P
    grid, out = tmp_path / "grid.json", tmp_path / "report.json"
    grid.write_text(json.dumps(doc))
    assert main(["analyze", str(grid), "--out", str(out)]) == 0
    return json.loads(out.read_text(), parse_constant=_reject)


def test_report_without_loads_is_strict_json(tmp_path, table1_doc, capsys):
    record = _strict_report(tmp_path, table1_doc, [0.0] * 6)
    assert '"b0": null' in (tmp_path / "report.json").read_text()
    stability = record["stability"]
    assert stability["b0"] is None
    assert stability["r_load"] == [None] * 6
    assert stability["sufficient_holds"] is True
    assert all(len(z) == 2 for z in stability["spectrum"])
    assert "b0 inf" in capsys.readouterr().out


def test_report_with_one_open_load_is_strict_json(tmp_path, table1_doc):
    record = _strict_report(tmp_path, table1_doc, [1000.0, 0.0, 1000.0, 500.0, 500.0, 500.0])
    r_load = record["stability"]["r_load"]
    assert r_load[1] is None
    assert all(r < 0 for i, r in enumerate(r_load) if i != 1)
    assert record["stability"]["g_load"][1] == 0.0
    assert record["stability"]["b0"] > 0
