"""Golden traces of the shipped scenarios, decimated for the regression test.

Each file under tests/data/ holds the CSV that `SimulationTrace.to_csv`
writes for one scenario, cut down to the header, every 100th sample, the
final sample and the trailing `#` lines. `tests/test_golden_traces.py`
re-simulates the scenarios and compares against them. Rewrite the files
from the current simulator only when a change of its output is intended:

    PYTHONPATH=src python3 tests/golden_traces.py
"""

import io
from pathlib import Path

from dcgrid import load_scenario, simulate

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("load_step_stable", "load_step_collapse", "soft_start_high_uref")
DATA = Path(__file__).resolve().parent / "data"
EVERY = 100


def decimated_csv(name: str) -> str:
    """Simulate examples/<name>.json and return its decimated CSV text."""
    buf = io.StringIO()
    simulate(load_scenario(ROOT / "examples" / f"{name}.json")).to_csv(buf)
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
        (DATA / f"{name}.csv").write_text(decimated_csv(name))
        print(f"wrote {DATA / name}.csv")
