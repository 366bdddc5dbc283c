"""Tests for the benchmark harness and the ssqa-bench command line tool."""

import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssqa
from ssqa import bench, cli, gset, hwsim, solver
from ssqa.bench import IntegrityError, RunConfig
from ssqa.gset import GsetRecord
from ssqa.ising import maxcut_to_ising
from ssqa.schedules import AnnealParams, LinearSchedule

SQUARE = "4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n"


@pytest.fixture
def square_path(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE)
    return str(p)


def small_config(square_path, **kw):
    base = dict(instance=square_path, steps=50, replicas=4, trials=3, seed=7)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------------ harness

def test_parse_ramp():
    assert bench.parse_ramp("8") == bench.parse_ramp("8:8")
    r = bench.parse_ramp("4:24")
    assert (r.start, r.end) == (4, 24)
    with pytest.raises(ValueError):
        bench.parse_ramp("1:2:3")
    with pytest.raises(ValueError):
        bench.parse_ramp("abc")


def test_run_trials_deterministic_and_seeded(square_path):
    a = bench.run_trials(small_config(square_path))
    b = bench.run_trials(small_config(square_path))
    assert a.as_json() == b.as_json()  # byte-identical rerun
    assert [t["seed"] for t in a.trials] == [7, 8, 9]  # seed + trial index
    assert [t["trial"] for t in a.trials] == [0, 1, 2]


def test_summary_schema(square_path):
    summary = bench.run_trials(small_config(square_path))
    doc = json.loads(summary.as_json())
    assert set(doc) == {"instance", "engine", "params", "trials", "summary"}
    assert {"mean", "std", "max", "min", "total_latency_s",
            "total_energy_j"} <= set(doc["summary"])
    for row in doc["trials"]:
        assert set(row) == set(bench.TRIAL_CSV_COLUMNS)
    assert doc["summary"]["max"] == 4  # square graph is solved
    assert doc["params"]["replicas"] == 4


def test_registry_instance_reports_normalized_mean():
    summary = bench.run_trials(RunConfig(instance="G11", steps=20, replicas=2,
                                         trials=1, seed=1))
    s = summary.summary_dict()
    assert s["best_known"] == 564
    assert s["normalized_mean"] == pytest.approx(s["mean"] / 564)


def test_all_engines_run(square_path):
    for engine in bench.ENGINES:
        cfg = small_config(square_path, engine=engine, trials=1)
        summary = bench.run_trials(cfg)
        assert 0 <= summary.trials[0]["best_cut"] <= 4
    with pytest.raises(ValueError):
        bench.run_one_trial(small_config(square_path, engine="magic"), 0)


def test_hw_engine_matches_reference(square_path):
    ref = bench.run_trials(small_config(square_path, engine="ssqa_ref"))
    hw = bench.run_trials(small_config(square_path, engine="ssqa_hw"))
    assert ref.cuts.tolist() == hw.cuts.tolist()


def test_parallel_workers_match_serial(square_path):
    serial = bench.run_trials(small_config(square_path, trials=4))
    parallel = bench.run_trials(small_config(square_path, trials=4, workers=2))
    assert serial.trials == parallel.trials
    assert serial.summary_dict() == parallel.summary_dict()


def test_integrity_check_fires(square_path, monkeypatch):
    graph = gset.parse_gset(SQUARE)
    fake = GsetRecord("SQ", 4, 4, "toroidal", "{+1}", best_known_cut=3)
    monkeypatch.setattr(bench, "_load",
                        lambda _: (graph, maxcut_to_ising(graph), fake))
    with pytest.raises(IntegrityError, match="exceeds best known"):
        bench.run_trials(small_config(square_path))


def test_sweeps_and_csv(square_path, tmp_path):
    cfg = small_config(square_path, trials=2)
    rows = bench.sweep(cfg, "replicas", [1, 2, 4])
    assert [extras[0] for extras, _ in rows] == [1, 2, 4]
    out = tmp_path / "sweep.csv"
    bench.write_trials_csv(out, rows, extra_cols=("replicas",))
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["replicas"] + bench.TRIAL_CSV_COLUMNS
    assert len(table) == 1 + 3 * 2  # header + 3 replica points x 2 trials
    steps_rows = bench.sweep(cfg, "steps", [10, 20])
    # Cycle counts scale linearly in steps: square graph degree sum 8 + 4.
    assert steps_rows[0][1].trials[0]["cycles"] == 10 * 12
    assert steps_rows[1][1].trials[0]["cycles"] == 20 * 12


def test_compare(square_path):
    a = small_config(square_path, trials=2)
    b = small_config(square_path, trials=2, engine="ssa", steps=200)
    report, sa, sb = bench.compare(a, b)
    assert report["a"]["engine"] == "ssqa_ref"
    assert report["b"]["steps"] == 200
    diff = report["a"]["summary"]["mean"] - report["b"]["summary"]["mean"]
    assert report["mean_diff_a_minus_b"] == pytest.approx(diff)
    # Solution memory model: one bit per spin per replica; ssa runs one.
    assert report["a"]["final_state_bits"] == 4 * 4
    assert report["b"]["replicas"] == 1
    assert (sb.config.q_min, sb.config.q_max, sb.config.q_tau, sb.config.q_beta) == (0, 0, 1, 0)
    assert report["b"]["final_state_bits"] == 4


def count_loads(monkeypatch):
    """Count gset.load_instance calls, starting from an empty _load cache."""
    bench._load.cache_clear()
    calls = []
    load = gset.load_instance
    monkeypatch.setattr(gset, "load_instance",
                        lambda name: calls.append(name) or load(name))
    return calls


def test_each_instance_is_parsed_once(square_path, monkeypatch):
    calls = count_loads(monkeypatch)
    bench.run_trials(small_config(square_path, trials=3))
    assert calls == [square_path]
    calls = count_loads(monkeypatch)
    bench.compare(small_config(square_path, trials=1),
                  small_config(square_path, trials=1, engine="ssa"))
    assert calls == [square_path]


def test_hw_row_carries_the_run_hw_report(square_path, monkeypatch):
    run_hw = hwsim.run_hw
    reports = []

    def marked(*args, **kwargs):
        result, report = run_hw(*args, **kwargs)
        reports.append(dataclasses.replace(report, latency_s=1.5, energy_j=2.5))
        return result, reports[-1]

    monkeypatch.setattr(hwsim, "run_hw", marked)
    row = bench.run_one_trial(small_config(square_path, engine="ssqa_hw"), 0)
    (report,) = reports
    assert (row["cycles"], row["latency_s"], row["energy_j"]) == (
        report.total_cycles, report.latency_s, report.energy_j)


@pytest.mark.parametrize("steps", [0, 7])
@pytest.mark.parametrize("engine", bench.ENGINES)
def test_every_row_is_priced_by_cycle_report(engine, steps, square_path, monkeypatch):
    """Every engine's row carries the cost of cycle_report, and every report
    splits its total into MAC and FIN cycles, steps * cycles_per_step."""
    cycle_report = hwsim.cycle_report
    reports = []
    monkeypatch.setattr(hwsim, "cycle_report",
                        lambda *args: reports.append(cycle_report(*args)) or reports[-1])
    config = small_config(square_path, engine=engine, steps=steps, f_clk=1e8, power_w=0.5)
    row = bench.run_one_trial(config, 0)
    _, model, _ = bench._load(square_path)
    want = cycle_report(model, steps, True, 1e8, 0.5)
    assert reports == [want]
    assert (row["cycles"], row["latency_s"], row["energy_j"]) == (
        want.total_cycles, want.latency_s, want.energy_j)
    assert want.mac_cycles + want.fin_cycles == want.total_cycles == steps * want.cycles_per_step
    assert want.cycles_per_step == 4 + 8


# ---------------------------------------------------------------------- CLI

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_run_writes_outputs(square_path, tmp_path, capsys):
    out = str(tmp_path / "res")
    code = run_cli("run", "--instance", square_path, "--steps", "50",
                   "--replicas", "4", "--trials", "2", "--seed", "3",
                   "--out", out)
    assert code == 0
    doc = json.loads((tmp_path / "res.json").read_text())
    assert doc["summary"]["max"] == 4
    with open(tmp_path / "res.csv") as fh:
        table = list(csv.reader(fh))
    assert table[0] == bench.TRIAL_CSV_COLUMNS
    assert len(table) == 3
    # With --out, stdout is a one-line human summary.
    stdout = capsys.readouterr().out.strip()
    assert len(stdout.splitlines()) == 1
    assert "mean" in stdout and "best 4" in stdout


def test_cli_run_without_out_prints_json(square_path, capsys):
    assert run_cli("run", "--instance", square_path, "--steps", "40",
                   "--trials", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["max"] <= 4


def test_cli_rerun_byte_identical(square_path, tmp_path):
    args = ("run", "--instance", square_path, "--steps", "40", "--trials", "2")
    for name in ("a", "b"):
        assert run_cli(*args, "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_config_file_layering(square_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": square_path, "steps": 50,
                               "replicas": 4, "trials": 2, "seed": 5}))
    assert run_cli("run", "--config", str(cfg)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["seed"] == 5
    # Flags override the file.
    assert run_cli("run", "--config", str(cfg), "--seed", "9", "--trials", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["seed"] == 9 and doc["params"]["trials"] == 1


def test_cli_sweep_replicas(square_path, tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = run_cli("sweep-replicas", "--instance", square_path, "--steps", "30",
                   "--trials", "1", "--replicas-list", "1,2", "--out", out)
    assert code == 0
    doc = json.loads((tmp_path / "sw.json").read_text())
    assert doc["sweep"] == "replicas"
    assert [p["replicas"] for p in doc["points"]] == [1, 2]
    with open(tmp_path / "sw.csv") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "replicas"


def test_cli_sweep_steps(square_path, capsys):
    code = run_cli("sweep-steps", "--instance", square_path, "--trials", "1",
                   "--steps-list", "10,20")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["steps"] for p in doc["points"]] == [10, 20]


def test_cli_compare(square_path, capsys):
    code = run_cli("compare", "--instance", square_path, "--steps", "30",
                   "--trials", "1", "--engine-b", "ssa", "--steps-b", "60")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["compare"]["a"]["engine"] == "ssqa_ref"
    assert doc["compare"]["b"]["engine"] == "ssa"
    assert doc["compare"]["b"]["steps"] == 60


def test_cli_psa_row_records_the_schedule_that_ran(square_path, capsys):
    """run_psa reads seed, replicas, steps and i0 only, so a psa row records
    no q staircase and no noise ramp; its cuts are run_psa's at the user's
    i0, a real-valued gain."""
    code = run_cli("run", "--instance", square_path, "--engine", "psa", "--i0", "0.3",
                   "--steps", "20", "--trials", "2")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    params = doc["params"]
    assert (params["q_min"], params["q_max"], params["q_tau"], params["q_beta"]) == (0, 0, 1, 0)
    assert (params["n_rnd"], params["i0"], params["replicas"]) == ("0", "0.3", 20)
    graph, model, _ = bench._load(square_path)
    for row in doc["trials"]:
        run = AnnealParams(steps=20, seed=row["seed"], i0=LinearSchedule.constant(0.3))
        assert row["best_cut"] == solver.run_psa(model, run, graph).best_value


def test_cli_info(capsys):
    assert run_cli("info") == 0
    registry = json.loads(capsys.readouterr().out)
    assert set(registry) == {"G11", "G12", "G13", "G14", "G15"}
    assert run_cli("info", "--instance", "G12") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_known_cut"] == 566


def test_cli_exit_codes(square_path, tmp_path, capsys, monkeypatch):
    # 2: configuration errors.
    assert run_cli("run", "--instance", square_path, "--replicas", "0") == 2
    assert run_cli("run", "--instance", square_path, "--i0", "1:2:3") == 2
    assert run_cli("info", "--instance", "G99") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", str(bad)) == 2
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert run_cli("run", "--config", str(bad)) == 2
    for flag, value in (("--q-beta", "-1"), ("--power", "-1")):
        assert run_cli("run", "--instance", square_path, flag, value) == 2
    for wrong in ({"delay_kind": "foo"}, {"replicas": "4"}, {"steps": 5.0},
                  {"sparse_bypass": 0}):
        bad.write_text(json.dumps({"instance": square_path, **wrong}))
        assert run_cli("run", "--config", str(bad)) == 2
    # Non-finite schedule values, and a schedule too wide for the accumulator.
    for wrong in ({"q_max": float("nan")}, {"q_beta": float("inf")}, {"i0": "NaN"},
                  {"n_rnd": "inf:0"}, {"q_min": -1e300, "q_max": 1e300},
                  {"q_min": -1e300, "q_max": 0.0, "engine": "ssqa_hw"}):
        bad.write_text(json.dumps({"instance": square_path, **wrong}))
        assert run_cli("run", "--config", str(bad)) == 2, wrong
    for flag, value in (("--q-max", "nan"), ("--n-rnd", "inf:0"), ("--i0", "nan"),
                        ("--q-min", "-inf"), ("--fclk", "inf"), ("--power", "inf"),
                        ("--fclk", "nan")):
        assert run_cli("run", "--instance", square_path, f"{flag}={value}") == 2, flag
    # A bad sweep point, even after a good one, exits 2 before any point's first trial.
    capsys.readouterr()
    trials = []
    with monkeypatch.context() as patched:
        patched.setattr(bench, "run_one_trial", lambda *a: trials.append(a))
        for command in (["sweep-replicas", "--replicas-list", "0", "--steps", "5"],
                        ["sweep-steps", "--steps-list", "5,-1", "--trials", "1",
                         "--out", str(tmp_path / "sweep")]):
            assert run_cli(*command, "--instance", square_path) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("ssqa-bench: error:") and len(err.splitlines()) == 1, err
            assert "Traceback" not in err
    assert trials == [] and not list(tmp_path.glob("sweep*"))
    # 3: I/O errors.
    assert run_cli("run", "--instance", str(tmp_path / "absent.txt")) == 3
    assert run_cli("run", "--config", str(tmp_path / "absent.json")) == 3
    # 4: integrity failure.
    graph = gset.parse_gset(SQUARE)
    fake = GsetRecord("SQ", 4, 4, "toroidal", "{+1}", best_known_cut=3)
    monkeypatch.setattr(bench, "_load",
                        lambda _: (graph, maxcut_to_ising(graph), fake))
    assert run_cli("run", "--instance", square_path, "--steps", "50",
                   "--replicas", "4") == 4
    capsys.readouterr()


def test_cli_config_with_utilization_is_an_unknown_key(square_path, tmp_path, capsys):
    """RunConfig has no utilization field (no bench output reads it), so an
    old params block reused as a config must drop the key: it exits 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": square_path, "steps": 5, "utilization": 0.199}))
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "unknown config key 'utilization'" in capsys.readouterr().err


def test_cli_unbundled_registry_instance_exits_3(tmp_path, capsys, monkeypatch):
    """A registry instance whose edge file is not bundled (G12) is an I/O
    error (3) saying so: no anneal runs and nothing is written."""
    anneals = []
    monkeypatch.setattr("ssqa.solver.run_ssqa", lambda *a, **kw: anneals.append(a))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "res"
    assert run_cli("run", "--instance", "G12", "--steps", "5", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "G12 is a registry instance whose edge file is not bundled" in err
    assert anneals == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["run"], ["sweep-steps", "--steps-list", "5,10"],
                                     ["compare", "--steps-b", "10"]])
def test_cli_unwritable_out_exits_3_before_any_trial(command, square_path, tmp_path, capsys,
                                                     monkeypatch):
    """--out in a missing directory, or under a file, is an I/O error (3)
    raised before the first trial, not after the last."""
    trials = []
    monkeypatch.setattr(bench, "run_one_trial", lambda *a: trials.append(a))
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "res", tmp_path / "file" / "res"):
        code = run_cli(*command, "--instance", square_path, "--steps", "5", "--trials", "2",
                       "--out", str(out))
        assert code == 3 and trials == []
        assert "ssqa-bench: error: cannot write output:" in capsys.readouterr().err


def test_cli_config_error_exits_2_without_traceback(square_path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ssqa.__file__).parents[1]))
    nan_config, wide_config = tmp_path / "nan.json", tmp_path / "wide.json"
    nan_config.write_text('{"q_max": NaN, "i0": "NaN"}')
    wide_config.write_text(json.dumps({"q_min": -1e300, "q_max": 1e300}))
    for args in (["--q-beta", "-1"], ["--config", str(nan_config)],
                 ["--config", str(wide_config)]):
        proc = subprocess.run(
            [sys.executable, "-m", "ssqa.cli", "run", "--instance", square_path, *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ssqa-bench: error:")
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("text, message", [
    ("0 0\n", "parse error: line 1: header declares 0 nodes, need >= 1"),
    ("2 1\n1 2 9\n", "error: J[0,1]=-9 outside [-8,7] for 4 bits"),
    ("2 1\n1 2 \xff\n", "parse error: line 2: byte 0xff is not UTF-8 text"),
    ("3 2\n1 2 4611686018427387904\n2 3 4611686018427387904\n",
     "parse error: the sum of |weight| exceeds int64, so a cut could wrap"),
    ("4000000000 1\n1 2 1\n",
     "parse error: line 1: 4000000000 nodes: a pair key a*n + b would not fit int64"),
])
def test_cli_bad_gset_file_exits_2(text, message, tmp_path, capsys):
    """A file with no nodes, with a weight past the 4-bit range, with weights
    whose sum of |w| passes int64, with more nodes than int64 pair keys can
    number, or that is not UTF-8 text is a
    configuration error: exit 2 with the message, not a traceback. Each
    character of text is written as one byte."""
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("latin-1"))
    assert run_cli("run", "--instance", str(path), "--steps", "5") == 2
    assert capsys.readouterr().err == f"ssqa-bench: {message}\n"


def test_tracer_pinned_names_are_bound():
    """perfbench/tracer.py wraps and counts callables through
    owner.__dict__[attr], so a name that a refactor unbinds fails only the
    traced benchmark run, with a KeyError. This names every missing one."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pinned = [(owner, attr) for _, owner, attr, _ in tracer._targets()]
    pinned += [(owner, attr) for _, owner, attr in tracer._counted()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pinned if attr not in owner.__dict__]
    assert not missing, f"the traced benchmark looks up unbound names: {missing}"
