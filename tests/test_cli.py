import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import table_between, within_seconds
from thzlink import sim as sim_module
from thzlink.cli import main
from thzlink.modem import MODULATIONS, BerTable, Modulation
from thzlink.tablegen import TableModel, generate_table


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run_cli("gen-table", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "160 rows" in printed
    table = BerTable.from_csv(out)
    assert len(table.distances) == 40
    anchor = table.lookup(20.0, Modulation.BPSK)
    assert abs(anchor - 0.0579) / 0.0579 < 0.05


@pytest.mark.parametrize("args, key", [
    (("--step", 0), "d_step_m"),
    (("--step", 1e-9), "d_step_m"),
    (("--d-max", "inf"), "d_max_m"),
    (("--d-max", 0.2), "d_max_m"),
    (("--d-min", 0), "d_min_m"),
    (("--d-min", -1), "d_min_m"),
    (("--anchor-distance", 0), "anchor_distance_m"),
    (("--anchor-ber", 0.7), "anchor_ber"),
    (("--path-loss-exp", "nan"), "path_loss_exp"),
])
def test_gen_table_rejects_bad_model(tmp_path, capsys, args, key):
    # These used to raise ZeroDivisionError or OverflowError, or to print
    # "math domain error"; --step 1e-9 asked for 1.95e10 distances.
    out = tmp_path / "table.csv"
    assert run_cli("gen-table", "--out", out, *args) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid {key}: ")
    assert not out.exists()


def test_gen_table_monotone_columns(tmp_path):
    out = tmp_path / "table.csv"
    run_cli("gen-table", "--out", out)
    table = BerTable.from_csv(out)
    for mod in MODULATIONS:
        assert np.all(np.diff(table.column(mod)) >= 0)


def test_run_is_repeatable(tmp_path, table_csv):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert run_cli("run", "--table", table_csv, "--seed", 7,
                       "--duration", 600, "--out", out_dir) == 0
        outs.append(out_dir)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "events.log").read_bytes() == (outs[1] / "events.log").read_bytes()


def test_run_without_table_fails_loudly(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--seed", 1)
    assert code == 2
    assert "table_path" in capsys.readouterr().err


def metrics_distances(out_dir) -> list:
    with open(out_dir / "metrics.csv") as fh:
        return [float(row["distance_m"]) for row in csv.DictReader(fh)]


def test_run_walks_the_tables_own_grid(tmp_path, table_csv, capsys):
    # The built-in trace used to walk 0.5-20 m in 0.5 m steps: the 2-10 m
    # table was refused at seed 1 within 600 s, and the 0.25 m table was
    # read only at its 0.5 m points.
    near = tmp_path / "near.csv"
    table_between(BerTable.from_csv(table_csv), 2.0, 10.0).to_csv(near)
    fine = tmp_path / "fine.csv"
    assert run_cli("gen-table", "--out", fine, "--step", 0.25) == 0
    for table in (near, fine):
        out = tmp_path / table.stem
        assert run_cli("run", "--table", table, "--seed", 1, "--duration", 600,
                       "--out", out) == 0
        rows = metrics_distances(out)
        assert rows and set(rows) <= set(BerTable.from_csv(table).distances.tolist())
    assert any(d % 0.5 for d in metrics_distances(tmp_path / "fine"))
    # One distance leaves the trace nowhere to walk.
    one = tmp_path / "one.csv"
    table_between(BerTable.from_csv(table_csv), 5.0, 5.0).to_csv(one)
    out = tmp_path / "one"
    assert run_cli("run", "--table", one, "--seed", 1, "--duration", 600,
                   "--out", out) == 2
    assert f"invalid table_path: {one} holds one distance" in capsys.readouterr().err
    assert not (out / "events.log").exists()
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ((), "distances must be a non-empty 1-D sequence"),
    (("1.0,BPSK,0.0",), "distance grid for QPSK does not match"),
])
def test_table_errors_name_the_file(tmp_path, capsys, rows, message):
    # Errors found once every row is read name the file, as row errors do.
    table = tmp_path / "bad.csv"
    table.write_text("\n".join(["distance_m,modulation,ber", *rows]) + "\n")
    for args in (("run", "--table", table, "--out", tmp_path / "out"),
                 ("optimize", "--table", table, "--distance", 1)):
        assert run_cli(*args) == 2
        assert f"error: {table}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "events.log").exists()


@pytest.fixture(scope="module")
def fine_table():
    return generate_table(TableModel(d_step_m=0.25))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_on_any_cut_of_the_table(default_table, fine_table, data):
    # A cut of the default model's table, on its 0.5 m grid or on a 0.25 m
    # grid, thinned by a stride: the run completes on the cut's grid with
    # consistent counts, or, for a single distance, is refused naming
    # table_path.
    base = data.draw(st.sampled_from([default_table, fine_table]))
    count = data.draw(st.integers(1, 40))
    start = data.draw(st.integers(0, len(base.distances) - count))
    keep = slice(start, start + count, data.draw(st.integers(1, 4)))
    cut = BerTable(base.distances[keep],
                   {mod: base.column(mod)[keep] for mod in MODULATIONS})
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "cut.csv", Path(tmp) / "out", io.StringIO()
        cut.to_csv(path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("run", "--table", path, "--out", out,
                           "--seed", data.draw(st.integers(0, 2 ** 16)),
                           "--duration", data.draw(st.integers(60, 300)))
        if len(cut.distances) == 1:
            assert code == 2 and "invalid table_path" in err.getvalue()
            return
        assert code == 0, err.getvalue()
        grid = set(BerTable.from_csv(path).distances.tolist())
        with open(out / "metrics.csv") as fh:
            for row in csv.DictReader(fh):
                assert float(row["distance_m"]) in grid
                assert int(row["generations_sent"]) == sum(
                    int(row[f"generations_{k}"])
                    for k in ("error_free", "corrected", "failed"))


def test_run_with_spec_file(tmp_path, table_csv):
    spec_file = tmp_path / "run.cfg"
    spec_file.write_text(
        f"table_path = {table_csv}\n"
        "seed = 3\n"
        "duration_s = 120\n"
        f"metrics_path = {tmp_path / 'm.csv'}\n"
        f"events_path = {tmp_path / 'e.log'}\n")
    assert run_cli("run", "--spec", spec_file) == 0
    assert (tmp_path / "m.csv").exists()
    assert (tmp_path / "e.log").exists()


@pytest.mark.parametrize("key", ["metrics_path", "events_path"])
def test_run_rejects_unwritable_output_before_simulating(tmp_path, table_csv,
                                                         capsys, monkeypatch, key):
    # A metrics path in a missing directory used to fail with a traceback
    # after the whole run, its metrics lost.
    drawn = []
    monkeypatch.setattr(sim_module, "sample_flip_mask",
                        lambda *args: drawn.append(args))
    paths = {"metrics_path": tmp_path / "m.csv", "events_path": tmp_path / "e.log"}
    paths[key] = tmp_path / "nodir" / "out"
    spec_file = tmp_path / "run.cfg"
    spec_file.write_text(f"table_path = {table_csv}\nduration_s = 120\n"
                         + "".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert run_cli("run", "--spec", spec_file) == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid {key}: cannot write {paths[key]}: ")
    assert drawn == []


def test_run_rejects_unknown_spec_key(tmp_path, table_csv, capsys):
    spec_file = tmp_path / "run.cfg"
    spec_file.write_text(f"table_path = {table_csv}\nsped = 3\n")
    assert run_cli("run", "--spec", spec_file) == 2
    assert "sped" in capsys.readouterr().err


@pytest.mark.parametrize("duration,interval", [("1e9", "1e8"), ("1e300", "1e300")])
def test_run_rejects_unbounded_trace(tmp_path, table_csv, capsys, monkeypatch,
                                     duration, interval):
    # Ten generations from the environment, but a trace that took minutes
    # to draw (1e9 s) or never ended (1e300 s).
    monkeypatch.setenv("THZLINK_DURATION_S", duration)
    monkeypatch.setenv("THZLINK_UPDATE_INTERVAL_S", interval)
    monkeypatch.setenv("THZLINK_GENERATIONS_PER_INTERVAL", "1")
    with within_seconds(1):
        assert run_cli("run", "--table", table_csv, "--out", tmp_path) == 2
    assert "invalid duration_s" in capsys.readouterr().err


def test_env_override_reaches_the_run(tmp_path, table_csv, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--table", table_csv, "--seed", 1, "--duration", 120,
            "--out", out_a)
    monkeypatch.setenv("THZLINK_SEED", "2")
    run_cli("run", "--table", table_csv, "--duration", 120, "--out", out_b)
    # Different seed, different trace, different metrics.
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_optimize_zero_table(tmp_path, capsys):
    distances = [1.0, 2.0]
    table = BerTable(distances, {mod: [0.0, 0.0] for mod in MODULATIONS})
    path = tmp_path / "zero.csv"
    table.to_csv(path)
    assert run_cli("optimize", "--table", path, "--distance", 1.5) == 0
    out = capsys.readouterr().out
    assert "selected: RS(" in out and "/16QAM" in out


def test_optimize_matches_library(table_csv, capsys):
    assert run_cli("optimize", "--table", table_csv, "--distance", 20.0) == 0
    out = capsys.readouterr().out
    assert "selected: RS(12,3)/BPSK" in out
    assert out.count("infeasible") == 6  # QPSK/8PSK/16QAM for both schemes


@pytest.mark.parametrize("args,digest", [
    (("--distance", 0.5),
     "c8a3951d0303a145dd4f19d089293f4145ff3ce12e13593a9a5c02adc5defd8d"),
    (("--distance", 3.0),
     "40995504562a888b316d7f4037db6c0fb5a504dd965cdafb407d8924b3c570e0"),
    (("--distance", 12.5),
     "acd32516e7147a0945ff88f34a10ac5fb41b7b38c2a790e63639c31b0f2ed34e"),
    (("--distance", 20),
     "54eb8b3f45949bae6fbf6486d369114e5306fa2e0ae75f03dade6c8df6db53ae"),
    (("--distance", 12.5, "--t-rs", 3, "--t-mdpc", 3, "--s-min", 2),
     "bfc3b773f02a96243fdefff6c5f9aa7ed492fd3bb6d86fc100ed0600a338d7fd"),
])
def test_optimize_report_is_golden(table_csv, capsys, args, digest):
    # The whole report, byte for byte: every candidate line and the choice.
    assert run_cli("optimize", "--table", table_csv, *args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_optimize_out_of_range_distance(table_csv, capsys):
    assert run_cli("optimize", "--table", table_csv, "--distance", 99.0) == 2
    assert "outside table range" in capsys.readouterr().err


def test_optimize_nan_distance(table_csv, capsys):
    # NaN compared false against both ends and exited 0 with the 20 m choice.
    assert run_cli("optimize", "--table", table_csv, "--distance", "nan") == 2
    assert "outside table range" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--s-max", 16), ("--s-min", 1),
                                        ("--t-rs", 0), ("--t-mdpc", 0),
                                        ("--m-max", 1)])
def test_optimize_rejects_bad_params(table_csv, capsys, flag, value):
    # `run` rejected these; `optimize` took them, and at --s-max 16 picked
    # an RS code that no codec can build.
    assert run_cli("optimize", "--table", table_csv, "--distance", 3.0,
                   flag, value) == 2
    key = flag[2:].replace("-", "_")
    assert f"invalid {key}" in capsys.readouterr().err


def test_optimize_throughput_never_exceeds_peak_rate(table_csv, capsys):
    assert run_cli("optimize", "--table", table_csv, "--distance", 0.5) == 0
    out = capsys.readouterr().out
    selected = [line for line in out.splitlines() if line.startswith("selected")][0]
    th = float(selected.split("TH=")[1].split()[0])
    assert th <= 28.16
    assert th >= 0.98 * 28.16


def test_module_entry_point(tmp_path):
    # `python -m thzlink` runs the same program as `main`: its exit codes,
    # and byte for byte the outputs of a run.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

    def module(*args):
        return subprocess.run([sys.executable, "-m", "thzlink", *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=120)

    table = tmp_path / "table.csv"
    done = module("gen-table", "--out", table)
    assert done.returncode == 0 and "160 rows" in done.stdout
    done = module("optimize", "--table", table, "--distance", 5)
    assert done.returncode == 0 and "selected: " in done.stdout
    done = module("run", "--table", table, "--duration", 30, "--out", tmp_path / "sub")
    assert done.returncode == 0, done.stderr
    assert run_cli("run", "--table", table, "--duration", 30, "--out", tmp_path / "in") == 0
    for name in ("metrics.csv", "events.log"):
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()
    done = module("run", "--table", table, "--duration", -5)
    assert done.returncode == 2 and done.stderr.startswith("error: invalid duration_s")


def test_package_root_imports_no_submodule():
    # The root holds only __version__; callers import each module by name,
    # so the simulator loads no table generator.
    probe = ("import json, sys, thzlink\n"
             "root = sorted(m for m in sys.modules if m.startswith('thzlink.'))\n"
             "import thzlink.sim\n"
             "print(json.dumps([root, thzlink.__version__, 'thzlink.tablegen' in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], "0.1.0", False]
