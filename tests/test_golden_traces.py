"""Regression against recorded traces of the three shipped scenarios.

The simulator must reproduce the same events and termination (status,
collapse time and node) and every stored sample v to within one unit in its
10th significant digit, the last one `to_csv` prints:
|new - v| <= 1e-9*max(|v|, 1e-3*u_ref). The floor, 1e-12*u_ref in absolute
terms, keeps samples near zero (currents at rest, the first time stamps) from
being held to more digits than their scale warrants.
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
    excess = np.abs(new_rows - rows) / (1e-9 * np.maximum(np.abs(rows), 1e-3 * u_ref))
    assert excess.max() <= 1.0, f"sample {np.unravel_index(excess.argmax(), excess.shape)}"
