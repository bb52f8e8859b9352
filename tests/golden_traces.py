"""Golden traces of the shipped scenarios, decimated for the regression test.

Each file under tests/data/ holds the CSV that `SimulationTrace.to_csv`
writes for one scenario, cut down to the header, every 100th sample, the
final sample and the trailing `#` lines. `tests/test_golden_traces.py`
re-simulates the scenarios and compares against them.

The files are a reference, not a record of the simulator's own output: they
are written with every load flow solved by plain Newton on the power balance
in watts (`oracles.solve_balance`), to |u_i (c + Y u)_i + P_i| <=
1e-3 * 1e-9*max(P_i, 1) W, so the test measures how far the simulator's
fixed-point load flow, stopped in volts, strays from the balance it is meant
to hold. Rewrite them only when the model or the integrator changes on
purpose:

    PYTHONPATH=src python3 tests/golden_traces.py
"""

import contextlib
import functools
import importlib
import io
from pathlib import Path

import numpy as np

from dcgrid import load_scenario, simulate
from oracles import solve_balance

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("load_step_stable", "load_step_collapse", "soft_start_high_uref")
DATA = Path(__file__).resolve().parent / "data"
EVERY = 100
REFERENCE_TOL = 1e-3   # the reference's load flows meet this fraction of 1e-9*max(P, 1) W

_simulate = importlib.import_module("dcgrid.simulate")


@contextlib.contextmanager
def newton_load_flow(tol_scale=1.0):
    """Within the block, `simulate` solves every load flow by plain Newton on
    the power balance in watts from its warm start, to `tol_scale` times
    1e-9*max(P_i, 1) W per load, and by a linear solve with every load open."""

    class WattNewton:
        def __init__(self, partition, u_ref):
            self._Y_LS, self._Y = partition.Y_LS, partition.Y_LL

        def solve(self, u_S, P, warm):
            c = self._Y_LS @ u_S
            if not P.any():
                return np.linalg.solve(self._Y, -c), True
            return solve_balance(c, self._Y, P, warm, tol_scale * 1e-9 * np.maximum(P, 1.0))

    flow = _simulate._LoadFlow
    _simulate._LoadFlow = WattNewton
    try:
        yield
    finally:
        _simulate._LoadFlow = flow


def shipped_trace(name: str, newton_tol: float | None = None):
    """simulate(examples/<name>.json); with `newton_tol`, inside
    `newton_load_flow(newton_tol)`. Each run is made once per session, as
    several tests read the same scenario."""
    return _trace(name, newton_tol)


@functools.lru_cache(maxsize=None)
def _trace(name, newton_tol):
    scenario = load_scenario(ROOT / "examples" / f"{name}.json")
    with newton_load_flow(newton_tol) if newton_tol else contextlib.nullcontext():
        return simulate(scenario)


def decimated_csv(name: str, newton_tol: float | None = None) -> str:
    """The decimated CSV text of `shipped_trace(name, newton_tol)`."""
    buf = io.StringIO()
    shipped_trace(name, newton_tol).to_csv(buf)
    header, *rest = buf.getvalue().splitlines()
    rows = [line for line in rest if not line.startswith("#")]
    comments = [line for line in rest if line.startswith("#")]
    kept = rows[::EVERY]
    if (len(rows) - 1) % EVERY:
        kept.append(rows[-1])
    return "\n".join([header, *kept, *comments]) + "\n"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in SCENARIOS:
        (DATA / f"{name}.csv").write_text(decimated_csv(name, REFERENCE_TOL))
        print(f"wrote {DATA / name}.csv")
