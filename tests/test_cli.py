"""Command-line interface: exit codes, report mirroring, sweeps."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dcgrid import cli
from dcgrid.cli import main
from conftest import EXAMPLES, TABLE1


@pytest.fixture()
def table1_file(table1_doc, tmp_path):
    def write(**changes):
        doc = json.loads(json.dumps(table1_doc))
        for key, value in changes.items():
            doc["control"][key] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def test_analyze_certified_stable(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(TABLE1), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    record = json.loads(out.read_text())
    # the report and the structured file are one record rendered two ways
    assert record["exit_code"] == 0
    assert record["certificate"]["verdict"] == "certified-exists"
    assert record["stability"]["verdict"] == "stable"
    assert "verdict: certified-exists" in text
    assert "stability: stable" in text
    assert f"necessary {record['certificate']['tau_necessary']:.4f}" in text
    assert f"abscissa {record['stability']['abscissa']:.6g}" in text


def test_analyze_out_is_indented_json(tmp_path):
    # two-space indentation and one trailing newline; the float digits are
    # whatever json.dumps prints for the record
    out = tmp_path / "report.json"
    main(["analyze", str(TABLE1), "--out", str(out)])
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_analyze_exists_but_unstable(capsys, table1_file):
    code = main(["analyze", table1_file(b=3e-3)])
    assert code == 1
    out = capsys.readouterr().out
    assert "stability: unstable" in out


def test_analyze_undetermined(table1_file):
    assert main(["analyze", table1_file(u_ref=89.6)]) == 2


def test_analyze_necessary_failed(table1_file):
    assert main(["analyze", table1_file(u_ref=80.0)]) == 3


def test_analyze_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad)]) == 64
    unconnected = tmp_path / "broken.json"
    doc = json.loads(TABLE1.read_text())
    doc["lines"] = doc["lines"][:4]
    unconnected.write_text(json.dumps(doc))
    assert main(["analyze", str(unconnected)]) == 64
    assert "error" in capsys.readouterr().err


def test_analyze_seed_flag(table1_file, tmp_path, capsys):
    # --seed is accepted and changes nothing: the analysis draws no random
    # numbers, and 89.63 V lies above tau* = 89.62295 V, so it is certified
    grid = table1_file(u_ref=89.63)
    outputs = []
    for seed in ("0", "7"):
        out = tmp_path / f"report{seed}.json"
        assert main(["analyze", grid, "--seed", seed, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_text()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["certificate"]["verdict"] == "certified-exists"


def test_usage_errors_exit_64():
    proc = subprocess.run(
        [sys.executable, "-m", "dcgrid.cli", "analyze"],
        capture_output=True, text=True)
    assert proc.returncode == 64
    proc = subprocess.run(
        [sys.executable, "-m", "dcgrid.cli", "sweep", str(TABLE1),
         "--param", "voltage", "--min", "1", "--max", "2", "--points", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 64


def _scenario_file(tmp_path, horizon=0.02, dt=1e-5, P=500.0, events=()):
    doc = {
        "sources": [{"id": "s", "V": 300.0, "L": 2e-3, "C": 2e-3, "k": 1.0}],
        "loads": [{"id": "l", "P": P}],
        "lines": [{"a": "s", "b": "l", "r": 1.0}],
        "control": {"u_ref": 100.0, "b": 1e-3},
        "scenario": {"horizon": horizon, "dt": dt, "events": list(events)},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_completes(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["simulate", _scenario_file(tmp_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u_2,us_1,il_1"
    assert lines[-1] == "# terminated completed"
    assert "completed" in capsys.readouterr().out


def test_simulate_collapse_exit_code(tmp_path, capsys):
    path = _scenario_file(
        tmp_path, events=[{"t": 0.005, "action": "set-loads", "P": [4000.0]}])
    out = tmp_path / "trace.csv"
    code = main(["simulate", path, "--out", str(out)])
    assert code == 10
    assert "collapsed" in capsys.readouterr().out
    assert "# terminated collapsed" in out.read_text().splitlines()[-1]


def test_simulate_rejected_scenario_keeps_existing_out(tmp_path):
    # every load at 1 MW: the initial load flow has no solution, exit 64
    path = _scenario_file(tmp_path, P=1e6)
    out = tmp_path / "trace.csv"
    out.write_text("previous trace\n")
    assert main(["simulate", path, "--out", str(out)]) == 64
    assert out.read_text() == "previous trace\n"
    # and the temporary trace beside it is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "trace.csv"]


def test_simulate_invalid_scenario(tmp_path):
    doc = json.loads(TABLE1.read_text())  # no scenario block
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 64


@pytest.fixture()
def bad_out(tmp_path):
    """An output path whose parent is a regular file, so it cannot be opened."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "out")


def test_simulate_bad_out_path_fails_before_integrating(bad_out, capsys, monkeypatch):
    def integrate(scenario):
        raise AssertionError("integrated before opening --out")
    monkeypatch.setattr(cli, "simulate", integrate)
    scenario = str(EXAMPLES / "load_step_collapse.json")
    assert main(["simulate", scenario, "--out", bad_out]) == 64
    assert "error" in capsys.readouterr().err


def test_simulate_directory_out_fails_before_integrating(tmp_path, monkeypatch):
    def integrate(scenario):
        raise AssertionError("integrated before checking --out")
    monkeypatch.setattr(cli, "simulate", integrate)
    scenario = str(EXAMPLES / "load_step_collapse.json")
    assert main(["simulate", scenario, "--out", str(tmp_path)]) == 64
    assert not list(tmp_path.parent.glob(tmp_path.name + ".*"))


def test_analyze_bad_out_path(bad_out, capsys):
    assert main(["analyze", str(TABLE1), "--out", bad_out]) == 64
    assert "error" in capsys.readouterr().err


def test_sweep_bad_out_path(bad_out, capsys):
    assert main(["sweep", str(TABLE1), "--param", "uref", "--min", "89.64",
                 "--max", "89.64", "--points", "1", "--out", bad_out]) == 64
    assert "error" in capsys.readouterr().err


SWEEP_HEADER = ("param,value,verdict,root_found,tau_necessary,tau_optimized,"
                "tau_perron_vector,tau_contraction,abscissa,stable")


def test_sweep_uref_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "89.55", "--max", "89.64", "--points", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 4
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert rows[0][3] == "False" and rows[-1][3] == "True"
    assert rows[-1][2] == "certified-exists"


def test_sweep_jobs_preserve_order(tmp_path):
    args = ["sweep", str(TABLE1), "--param", "uref",
            "--min", "89.55", "--max", "89.64", "--points", "3"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(args + ["--out", str(one), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(two), "--jobs", "3"]) == 0
    assert one.read_text() == two.read_text()


def test_sweep_bisection_localizes_boundary(tmp_path):
    out = tmp_path / "bisect.csv"
    code = main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "89.28", "--max", "89.64", "--bisect", "0.02",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    boundary = [l for l in lines if l.startswith("# boundary")]
    assert len(boundary) == 1
    parts = dict(kv.split("=") for kv in boundary[0].split()[2:])
    lo, hi = float(parts["lo"]), float(parts["hi"])
    assert 89.28 < lo < hi <= 89.64
    assert hi - lo <= 0.02
    rows = [l for l in lines[1:] if not l.startswith("#")]
    values = [float(r.split(",")[1]) for r in rows]
    assert values == sorted(values)


def test_sweep_bisection_unbracketed_range(tmp_path):
    out = tmp_path / "none.csv"
    code = main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "89.7", "--max", "89.9", "--bisect", "0.05",
                 "--out", str(out)])
    assert code == 0
    assert "# boundary not bracketed" in out.read_text()


def test_sweep_bisect_reads_certified_interval(monkeypatch, capsys):
    # both ends come from the prepared certificate: a tolerance below the
    # interval's width costs no extra evaluation, only a comment line
    calls, original = [], cli.certify

    def certify(grid):
        calls.append(grid.spec.control.u_ref)
        return original(grid)

    monkeypatch.setattr(cli, "certify", certify)
    assert main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "88", "--max", "91", "--bisect", "1e-20"]) == 0
    assert len(calls) <= 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("# boundary lo=")
    assert lines[-1] == "# certified interval is wider than the tolerance 1e-20"
    parts = dict(kv.split("=") for kv in lines[-2].split()[2:])
    rows = {r.split(",")[1]: r.split(",")[3] for r in lines[1:-2]}
    assert rows[parts["lo"]] == "False" and rows[parts["hi"]] == "True"


def test_sweep_bisect_abscissa_at_the_fold(capsys):
    # the README's --bisect command: its hi row sits about 1e-9 above tau*,
    # where the root is sensitive; the abscissa there is -0.1485399 at the
    # root of the same A to 50 digits
    assert main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "88", "--max", "91", "--bisect", "0.01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    hi = dict(kv.split("=") for kv in lines[-1].split()[2:])["hi"]
    row = next(r.split(",") for r in lines[1:] if r.split(",")[1] == hi)
    assert row[2] == "certified-exists"
    assert float(row[8]) == pytest.approx(-0.1485399, rel=1e-4)


def test_analyze_numerical_failure_exits_70(capsys):
    # a valid grid whose Perron pair fails its residual check is not an input error
    path = Path(__file__).resolve().parent / "data" / "wide_range_976.json"
    assert main(["analyze", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Perron pair failed its check" in captured.err


def test_sweep_load_scale(tmp_path):
    out = tmp_path / "load.csv"
    code = main(["sweep", str(TABLE1), "--param", "load",
                 "--min", "0.5", "--max", "1.0", "--points", "2",
                 "--out", str(out)])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert rows[0][2] == "certified-exists"
    assert rows[1][2] == "certified-exists"
    # lighter loading relaxes every threshold
    assert float(rows[0][5]) < float(rows[1][5])


def test_sweep_damping(tmp_path):
    out = tmp_path / "b.csv"
    code = main(["sweep", str(TABLE1), "--param", "b",
                 "--min", "1e-3", "--max", "3e-3", "--points", "2",
                 "--out", str(out)])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert rows[0][9] == "True" and rows[1][9] == "False"


def test_sweep_single_point_range(capsys):
    assert main(["sweep", str(TABLE1), "--param", "uref",
                 "--min", "89.64", "--max", "89.64", "--points", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1].startswith("uref,89.64")


@pytest.mark.parametrize("args", [
    ["--param", "uref", "--min", "2", "--max", "1", "--points", "2"],
    ["--param", "uref", "--min", "1", "--max", "2", "--points", "0"],
    ["--param", "uref", "--min", "1", "--max", "2", "--bisect", "-0.1"],
    ["--param", "uref", "--min", "88", "--max", "91", "--points", "1"],  # one point over a range
    ["--param", "uref", "--min", "-10", "--max", "91", "--points", "3"],  # u_ref <= 0
    ["--param", "b", "--min", "0", "--max", "1e-3", "--points", "2"],  # b <= 0
    ["--param", "uref", "--min", "nan", "--max", "91", "--points", "3"],
    ["--param", "load", "--min", "0.5", "--max", "inf", "--points", "3"],
    ["--param", "uref", "--min", "88", "--max", "91", "--bisect", "nan"],
    ["--param", "uref", "--min", "88", "--max", "91", "--bisect", "inf"],
])
def test_sweep_rejects_bad_requests(args, table1_file, capsys):
    # at 80 V no point reaches the stability analysis, which rejects b <= 0 itself
    for u_ref in (89.64, 80.0):
        assert main(["sweep", table1_file(u_ref=u_ref)] + args) == 64
        assert capsys.readouterr().out == ""


def test_sweep_bisect_limited_to_uref():
    assert main(["sweep", str(TABLE1), "--param", "b",
                 "--min", "1e-3", "--max", "3e-3", "--bisect", "1e-4"]) == 64


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dcgrid.cli", "analyze",
                           str(TABLE1)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "certified-exists" in proc.stdout


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["analyze", str(TABLE1)], "table1_analyze.txt"),
    (["sweep", str(TABLE1), "--param", "uref", "--min", "88", "--max", "91",
      "--points", "25"], "table1_sweep_uref.csv"),
    (["sweep", str(TABLE1), "--param", "load", "--min", "0.5", "--max", "2.0",
      "--points", "16"], "table1_sweep_load.csv"),
], ids=["analyze", "sweep-uref", "sweep-load"])
def test_readme_commands_match_golden_stdout(argv, golden, capsys):
    # the README's analyze and --points sweep commands, byte for byte
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # from here on, importing scipy or any submodule fails
from dcgrid.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name, mod in sys.modules.items()
          if name.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"codes": codes, "scipy": loaded,
                  "numpy.random": "numpy.random" in sys.modules}))
"""


def test_commands_run_without_scipy(tmp_path):
    # the package needs numpy only; a lazy scipy import anywhere on these
    # paths would fail the command instead of loading scipy
    # nor does it draw random numbers, so numpy.random stays unloaded
    below = tmp_path / "below.json"
    doc = json.loads(TABLE1.read_text())
    doc["control"]["u_ref"] = 89.6
    below.write_text(json.dumps(doc))
    commands = [
        ["analyze", str(TABLE1)],
        ["analyze", str(below)],
        ["sweep", str(TABLE1), "--param", "uref", "--min", "89.64", "--max", "91",
         "--points", "3"],
        ["sweep", str(TABLE1), "--param", "uref", "--min", "88", "--max", "91",
         "--bisect", "0.01"],
        ["simulate", _scenario_file(tmp_path), "--out", str(tmp_path / "trace.csv")],
    ]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 2, 0, 0, 0], "scipy": [], "numpy.random": False}
