"""Command-line front end: scenarios, subcommands, exit codes."""

import math
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import pytest

import dsapf
from dsapf.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, load_scenario, main
from dsapf.system import ConfigError, SystemConfig

TINY = """
# toy scenario, fast enough for tests
n_users = 4
n_bands = 3
max_bands_per_user = 1
n_particles = 5
n_slots = 6
seed = 2
"""


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return str(path)


# ---------------------------------------------------------------- scenarios


def test_load_scenario_defaults_and_overrides(scenario):
    cfg = load_scenario(None)
    assert cfg.n_users == 200
    cfg = load_scenario(scenario)
    assert (cfg.n_users, cfg.n_bands, cfg.seed) == (4, 3, 2)
    assert cfg.objective == "sum"


def test_load_scenario_parses_every_field_kind(tmp_path):
    path = tmp_path / "kinds.scn"
    path.write_text("objective = proportional_fair\n"
                    "pu_busy_prob = 0.25\n"
                    "rate_threshold_range_bps = 0, 5e3\n")
    cfg = load_scenario(str(path))
    assert cfg.objective == "proportional_fair"
    assert cfg.pu_busy_prob == 0.25
    assert cfg.rate_threshold_range_bps == (0.0, 5e3)


def test_every_field_default_round_trips_through_a_scenario_file(tmp_path):
    lines = []
    for f in fields(SystemConfig):
        text = (", ".join(map(repr, f.default)) if isinstance(f.default, tuple)
                else str(f.default))
        lines.append(f"{f.name} = {text}\n")
    path = tmp_path / "defaults.scn"
    path.write_text("".join(lines))
    cfg = load_scenario(str(path))
    assert cfg == SystemConfig()
    # Equality alone would let an int stand in for a float.
    for f in fields(SystemConfig):
        value = getattr(cfg, f.name)
        assert type(value) is type(f.default), f.name
        if isinstance(value, tuple):
            assert [type(v) for v in value] == [type(v) for v in f.default]


def test_load_scenario_errors_carry_line_numbers(tmp_path):
    bad_syntax = tmp_path / "a.scn"
    bad_syntax.write_text("n_users = 4\nnot a setting\n")
    with pytest.raises(ConfigError, match="a.scn:2"):
        load_scenario(str(bad_syntax))

    unknown = tmp_path / "b.scn"
    unknown.write_text("\n\nn_userz = 4\n")
    with pytest.raises(ConfigError, match="b.scn:3.*n_userz"):
        load_scenario(str(unknown))

    bad_value = tmp_path / "c.scn"
    bad_value.write_text("n_users = many\n")
    with pytest.raises(ConfigError, match="c.scn:1.*n_users"):
        load_scenario(str(bad_value))

    # \r\n and a lone \r end lines, as in a file read in text mode.
    old_mac = tmp_path / "d.scn"
    old_mac.write_bytes(b"n_users = 4\r\nn_bands = 3\rnot a setting\r\n")
    with pytest.raises(ConfigError, match="d.scn:3"):
        load_scenario(str(old_mac))


# ---------------------------------------------------------------- run


def test_run_writes_outputs_and_prints_summary(scenario, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", "--config", scenario, "--out", str(out)]) == EXIT_OK
    assert (out / "slots.csv").exists()
    assert (out / "summary.csv").exists()
    line = capsys.readouterr().out.strip()
    assert line.startswith("seed=2 objective=sum")
    assert "avg_throughput_bps=" in line
    # The printed pairs are summary.csv's header and row, cell for cell.
    header, row = (out / "summary.csv").read_text().splitlines()
    pairs = [pair.split("=", 1) for pair in line.split(" ")]
    assert [key for key, _ in pairs] == header.split(",")
    assert [value for _, value in pairs] == row.split(",")


def test_run_seed_override(scenario, tmp_path):
    out = tmp_path / "o"
    main(["run", "--config", scenario, "--seed", "7", "--out", str(out)])
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.startswith("7,")


def test_run_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("n_users = 0\n")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "n_users" in capsys.readouterr().err


def test_run_rejects_an_instance_too_large_to_hold(tmp_path, capsys):
    # Refused by validate before any array is built.
    path = tmp_path / "huge.scn"
    path.write_text("n_users = 100000\nn_slots = 3\n")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_users" in err and "n_bands" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, names", [
    ("n_particles = 1000000\n", ("n_users", "n_particles", "n_bands")),
    ("n_particles = 10000\nmax_bands_per_user = 2\n",
     ("n_users", "n_particles", "n_bands", "max_bands_per_user")),
], ids=["particle-arrays", "water-fill"])
def test_run_rejects_particle_arrays_too_large_to_hold(tmp_path, capsys,
                                                       monkeypatch, text, names):
    # Refused by validate; the engine is stubbed so that nothing is allocated
    # even if the scenario got through.
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("dsapf.cli.run_engine", engine)
    path = tmp_path / "huge.scn"
    path.write_text(text + "n_slots = 3\n")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, message", [
    ("ar_order = 2\n", "unknown key 'ar_order'"),
    ("reference_distance_m = 2\n", "unknown key 'reference_distance_m'"),
    ("path_loss_exponent = 4\n", "unknown key 'path_loss_exponent'"),
    ("n_users = 6\n", "bad.scn:4: repeated key 'n_users' (first set on line 1)"),
    ("bandwidth_hz = inf\n", "bandwidth_hz"),
    ("beta = nan\n", "beta"),
    ("doppler_coherence_product = nan\n", "doppler_coherence_product"),
    ("rate_threshold_range_bps = nan, nan\n", "rate_threshold_range_bps"),
    ("p_total_max_dbm = 4000\n", "p_total_max_dbm"),
    ("noise_psd_dbm_hz = -4000\n", "noise_psd_dbm_hz"),
])
def test_run_rejects_unrunnable_scenario_files(tmp_path, capsys, text, message):
    path = tmp_path / "bad.scn"
    path.write_text("n_users = 3\nn_bands = 3\nn_slots = 3\n" + text)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_run_missing_scenario_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    assert main(["run", "--config", str(missing),
                 "--out", str(tmp_path / "x")]) == EXIT_IO
    assert "nope.scn" in capsys.readouterr().err


def test_run_rejects_a_scenario_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"n_users = 4\n\xff\n")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad.scn" in err and "byte offset 12" in err
    assert not (tmp_path / "x").exists()


def test_out_dir_env_default(scenario, tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("DSA_PF_OUT", str(target))
    assert main(["run", "--config", scenario]) == EXIT_OK
    assert (target / "summary.csv").exists()


def test_run_outputs_are_byte_identical(scenario, tmp_path):
    main(["run", "--config", scenario, "--out", str(tmp_path / "a")])
    main(["run", "--config", scenario, "--out", str(tmp_path / "b")])
    for name in ("slots.csv", "summary.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


# ---------------------------------------------------------------- sweep


def test_sweep_grid_outputs(scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", scenario, "--param", "n_particles",
                 "--values", "2,4", "--seeds", "0,1", "--out", str(out)])
    assert code == EXIT_OK
    assert "cells=4" in capsys.readouterr().out
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    for value in (2, 4):
        for seed in (0, 1):
            cell = out / f"n_particles-{value}" / f"seed-{seed}"
            assert (cell / "slots.csv").exists()


def test_sweep_handles_negative_values(scenario, tmp_path):
    out = tmp_path / "p"
    code = main(["sweep", "--config", scenario, "--param", "p_total_max_dbm",
                 "--values=-3,3", "--seeds", "0", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("p_total_max_dbm,-3.0,")


def test_sweep_unknown_parameter(scenario, tmp_path, capsys):
    code = main(["sweep", "--config", scenario, "--param", "n_bandz",
                 "--values", "2", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_bandz" in err and "n_bands" in err


def test_sweep_bad_values(scenario, tmp_path, capsys):
    code = main(["sweep", "--config", scenario, "--param", "n_particles",
                 "--values", "2,x", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "bad sweep values" in capsys.readouterr().err


def test_sweep_parallel_matches_serial(scenario, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
          "--values", "0.0,0.5", "--seeds", "0", "--out", str(serial)])
    main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
          "--values", "0.0,0.5", "--seeds", "0", "--out", str(parallel),
          "--jobs", "2"])
    assert ((serial / "sweep.csv").read_bytes()
            == (parallel / "sweep.csv").read_bytes())


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and runs every cell inline, so no process is started."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("dsapf.cli.ProcessPoolExecutor", RecordingPool)
    # Many CPUs, so that only the cell count and --jobs size the pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return RecordingPool


@pytest.mark.parametrize("jobs, values, want", [
    ("64", "0.0,0.5", [2]),     # never more workers than cells
    ("2", "0.0,0.25,0.5", [2]),
    ("8", "0.5", []),           # one cell runs serially
    ("1", "0.0,0.5", []),
])
def test_sweep_pool_is_sized_to_the_cells(scenario, tmp_path, recording_pool,
                                          jobs, values, want):
    code = main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
                 "--values", values, "--seeds", "0",
                 "--out", str(tmp_path / "s"), "--jobs", jobs])
    assert code == EXIT_OK
    assert recording_pool.sizes == want


@pytest.mark.parametrize("cpus, want", [
    (2, [2]),
    (1, []),        # one CPU runs serially
    (None, []),     # an unknown CPU count counts as one
])
def test_sweep_pool_is_capped_at_the_cpu_count(scenario, tmp_path, recording_pool,
                                               monkeypatch, cpus, want):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
                 "--values", "0.0,0.25,0.5", "--seeds", "0",
                 "--out", str(tmp_path / "s"), "--jobs", "5000"])
    assert code == EXIT_OK
    assert recording_pool.sizes == want


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(scenario, tmp_path, capsys,
                                      recording_pool, jobs):
    code = main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
                 "--values", "0.0,0.5", "--seeds", "0",
                 "--out", str(tmp_path / "s"), "--jobs", jobs])
    assert code == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert recording_pool.sizes == []
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("values, seeds, message", [
    ("0.1,0.5,0.10", "0", "duplicate sweep value 0.1"),
    ("0.1,0.5", "3,0,3", "duplicate sweep seed 3"),
])
def test_sweep_rejects_duplicate_cells(scenario, tmp_path, capsys,
                                       recording_pool, values, seeds, message):
    code = main(["sweep", "--config", scenario, "--param", "pu_busy_prob",
                 "--values", values, "--seeds", seeds,
                 "--out", str(tmp_path / "s"), "--jobs", "2"])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert recording_pool.sizes == []
    assert not (tmp_path / "s").exists()


def test_sweeping_the_seed_is_rejected(scenario, tmp_path, capsys):
    code = main(["sweep", "--config", scenario, "--param", "seed",
                 "--values", "3,4", "--seeds", "0",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "--seeds" in capsys.readouterr().err


# ---------------------------------------------------------------- oracle


def test_oracle_check_reports_ratios(scenario, capsys):
    code = main(["oracle-check", "--config", scenario, "--slots", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    slot_lines = [l for l in out if l.startswith("slot=")]
    assert len(slot_lines) == 5
    assert all("ratio=" in l for l in slot_lines)
    final = [l for l in out if l.startswith("final_ratio=")]
    assert len(final) == 1
    assert float(final[0].split("=")[1]) > 0.0


def test_oracle_check_runs_the_scenario_slot_count(tmp_path, capsys):
    path = tmp_path / "three.scn"
    path.write_text("n_users = 3\nn_bands = 2\nmax_bands_per_user = 1\n"
                    "n_particles = 4\nn_slots = 3\n")
    assert main(["oracle-check", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in out if l.startswith("slot=")] == [
        "slot=0", "slot=1", "slot=2"]


@pytest.mark.parametrize("bandwidth", ["1e-3", "0.5"])
def test_oracle_check_proportional_fair_ratios_are_finite(tmp_path, capsys,
                                                          bandwidth):
    # Log-sum scores here are <= 0 (1e-3 Hz) or change sign (0.5 Hz).
    path = tmp_path / "pf.scn"
    path.write_text("n_users = 5\nn_bands = 2\nmax_bands_per_user = 1\n"
                    "n_particles = 4\nobjective = proportional_fair\n"
                    f"bandwidth_hz = {bandwidth}\n"
                    "rate_threshold_range_bps = 0, 0\n")
    code = main(["oracle-check", "--config", str(path), "--slots", "4"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    ratios = [float(l.rsplit("ratio=", 1)[1]) for l in out if "ratio=" in l]
    assert len(ratios) == 5
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)


def test_oracle_check_rejects_large_instances(tmp_path, capsys):
    path = tmp_path / "big.scn"
    path.write_text("n_users = 7\nn_bands = 3\nmax_bands_per_user = 1\n"
                    "n_particles = 4\nn_slots = 2\n")
    code = main(["oracle-check", "--config", str(path), "--slots", "2"])
    assert code == EXIT_CONFIG
    assert "6 users" in capsys.readouterr().err


def test_oracle_check_refuses_large_instances_before_the_run(tmp_path, capsys,
                                                            monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("dsapf.cli.run_engine", engine)
    assert main(["oracle-check", "--slots", "2"]) == EXIT_CONFIG
    assert "6 users" in capsys.readouterr().err
    for text, limit in (("n_users = 4\nn_bands = 5\n", "4 bands"),
                        ("n_users = 4\nn_bands = 4\nmax_bands_per_user = 3\n",
                         "2 bands per user")):
        path = tmp_path / "big.scn"
        path.write_text(text)
        assert main(["oracle-check", "--config", str(path)]) == EXIT_CONFIG
        assert limit in capsys.readouterr().err


# ---------------------------------------------------------------- module


def test_module_entry_point(scenario, tmp_path):
    # The child imports the package these tests import, also when pytest put
    # it on sys.path from its own configuration rather than PYTHONPATH.
    src = str(Path(dsapf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dsapf", "run", "--config", scenario,
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert "avg_jain=" in result.stdout
