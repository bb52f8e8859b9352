"""Regression against recorded traces of the three shipped scenarios.

The simulator must reproduce the same events and termination (status,
collapse time and node) and every stored sample within 1e-6*u_ref.
"""

import json

import numpy as np
import pytest

from golden_traces import DATA, ROOT, SCENARIOS, decimated_csv


def _split(text):
    header, *rest = text.splitlines()
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in rest if not line.startswith("#")])
    comments = [line for line in rest if line.startswith("#")]
    return header, rows, comments


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden_trace(name):
    u_ref = json.loads((ROOT / "examples" / f"{name}.json").read_text())["control"]["u_ref"]
    header, rows, comments = _split((DATA / f"{name}.csv").read_text())
    new_header, new_rows, new_comments = _split(decimated_csv(name))
    assert new_header == header
    assert new_comments == comments  # events, termination, collapse time and node
    assert new_rows.shape == rows.shape
    assert np.max(np.abs(new_rows - rows)) <= 1e-6 * u_ref
