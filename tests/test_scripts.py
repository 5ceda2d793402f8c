"""Smoke runs of the scripts under ``scripts/``: each exits 0 and writes its files."""

import os
import subprocess
import sys
from pathlib import Path

import dqsolve

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(dqsolve.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )


def test_benchmark_suite_writes_every_run(tmp_path):
    specs = ["original", "to-loc1", "fs-exact", "fs-shadow"]
    out = run_script(
        "benchmark_suite.py", "--problems", "damped_osc", "--models", *specs,
        "--epochs", "2", "--out", str(tmp_path),
    )
    assert out.returncode == 0, out.stderr
    for spec in specs:
        for name in ("trace.csv", "solution.csv", "summary.json", "config.ini"):
            assert (tmp_path / "damped_osc" / spec / name).is_file(), (spec, name)
        assert len((tmp_path / "damped_osc" / spec / "trace.csv").read_text().splitlines()) == 3


def test_benchmark_suite_refuses_an_unusable_out_before_training(tmp_path):
    (tmp_path / "f").write_text("")
    out = run_script("benchmark_suite.py", "--problems", "damped_osc", "--models", "to-loc1",
                     "--epochs", "2", "--out", str(tmp_path / "f" / "x"))
    assert out.returncode == 2
    assert out.stderr.startswith("configuration error: ") and out.stdout == ""


def test_cost_ladder_writes_its_csvs(tmp_path):
    out = run_script("cost_ladder.py", "--epochs", "2", "--grids", "5", "10", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    for name in ("original.csv", "trainable_observable.csv", "flipped.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 3, name   # a header and one row per grid
