"""`SimulationTrace.to_csv` writes the same bytes as the row-by-row reference."""

import io

import numpy as np
import pytest

from dcgrid import SimulationTrace
from golden_traces import shipped_trace
from oracles import trace_csv

# signed zero, the smallest normal and subnormal magnitudes, large values,
# 12-digit values that the 10-digit format must round, and infinities
SPECIAL = np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 2.5e-310, 1e20, -1e20,
                    123456.789012, 0.123456789012, -98765.4321098, 1.0000000005,
                    np.inf, -np.inf, 89.64, 1e-5])


def _csv(trace, writer):
    buf = io.StringIO()
    writer(trace, buf)
    return buf.getvalue()


def _trace(values, n=2, m=3, termination="completed"):
    """A hand-built trace whose rows are `values` in CSV column order."""
    values = np.asarray(values, dtype=float).reshape(-1, 1 + m + 2 * n)
    return SimulationTrace(
        t=values[:, 0].copy(), u_load=values[:, 1:1 + m].copy(),
        u_source=values[:, 1 + m:1 + m + n].copy(),
        i_inductor=values[:, 1 + m + n:].copy(),
        events=((0.001, "activate-cpl"),), termination=termination,
        collapse_time=0.0123 if termination == "collapsed" else None,
        collapse_node=7 if termination == "collapsed" else None)


def test_shipped_trace_matches_reference():
    trace = shipped_trace("load_step_collapse")
    assert trace.termination == "collapsed"
    assert _csv(trace, SimulationTrace.to_csv) == _csv(trace, trace_csv)


@pytest.mark.parametrize("termination", ["completed", "collapsed"])
def test_special_values_match_reference(termination):
    rng = np.random.default_rng(5)
    values = np.concatenate([SPECIAL, rng.permutation(np.tile(SPECIAL, 2))])
    trace = _trace(values[:6 * 8], termination=termination)  # 6 rows of 8 columns
    text = _csv(trace, SimulationTrace.to_csv)
    assert text == _csv(trace, trace_csv)
    assert "-0," in text and "-inf" in text and "4.940656458e-324" in text


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
def test_block_edges_match_reference(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-12, 12, (rows, 8))
    values[::97] = rng.choice(SPECIAL, size=(values[::97].shape[0], 8))
    trace = _trace(values)
    text = _csv(trace, SimulationTrace.to_csv)
    assert text == _csv(trace, trace_csv)
    assert len(text.splitlines()) == 1 + rows + 2
