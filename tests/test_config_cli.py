"""Configuration round-tripping and the command-line front end."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqsolve
from dqsolve import cli, models, pauli, problems, shadows
from dqsolve.config import (
    CHOICES,
    FS_MODES,
    OBSERVABLE_SETS,
    PROBLEMS,
    VARIANTS,
    ConfigurationError,
    RunConfig,
    apply_overrides,
    config_from_text,
    config_to_text,
    default_config,
)


# ---------------------------------------------------------------------------
# config


def test_round_trip_is_identity():
    config = RunConfig(problem="coupled", variant="fs", epochs=123, lr=0.07,
                       shadow_eps=0.25, chart=True)
    assert config_from_text(config_to_text(config)) == config


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("damped_osc", "burgers", "coupled", "twod_linear")),
    st.sampled_from(("original", "to", "fs")),
    st.integers(1, 5000),
    st.integers(0, 10**6),
)
def test_round_trip_is_identity_property(problem, variant, epochs, seed):
    config = RunConfig(problem=problem, variant=variant, epochs=epochs, seed=seed)
    assert config_from_text(config_to_text(config)) == config


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        config_from_text("[run]\nproblem = damped_osc\nflux_capacitor = 1\n")


def test_missing_section_rejected():
    with pytest.raises(ConfigurationError):
        config_from_text("[training]\nepochs = 5\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("problem", "heat"),
        ("variant", "hybrid"),
        ("observables", "loc3"),
        ("fs_mode", "guess"),
        ("n_qubits", 0),
        ("depth", 0),
        ("epochs", 0),
        ("patience", 0),
        ("patience", -5),
        ("lr", -0.1),
        ("grid_m", -2),
        ("grid_m", 1),
        ("shadow_eps", 0.0),
        ("shadow_exponent", -1),
        ("shadow_w_max", -1),
    ],
)
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError):
        apply_overrides(RunConfig(), {field: value})


def test_full_pauli_set_needs_small_register():
    with pytest.raises(ConfigurationError):
        apply_overrides(RunConfig(), {"observables": "all", "n_qubits": 8})


def test_only_the_trainable_observable_limits_its_candidate_set():
    """Models that read no candidate set take any register up to MAX_QUBITS
    whatever ``observables`` says; the TO limit is pauli's enumeration cap."""
    for variant in ("original", "fs"):
        assert run_cli("count", "--problem", "damped_osc", "--variant", variant,
                       "--obs", "all", "--n-qubits", "7") == 0
    limit = pauli.MAX_FULL_ENUMERATION_QUBITS
    apply_overrides(RunConfig(), {"observables": "all", "n_qubits": limit})
    with pytest.raises(ConfigurationError, match=f"n_qubits <= {limit}"):
        apply_overrides(RunConfig(), {"observables": "all", "n_qubits": limit + 1})


def test_apply_overrides_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        apply_overrides(RunConfig(), {"optimizer": "lbfgs"})


def test_default_configs_validate():
    for problem in ("damped_osc", "burgers", "coupled", "twod_linear"):
        for variant in ("original", "to", "fs"):
            config = default_config(problem, variant)
            assert config.problem == problem
            assert config.variant == variant


def test_default_configs_are_the_tuned_table():
    # (epochs, lr, stop_loss, patience, depth) of every stock run, written out
    table = {
        ("damped_osc", "original"): (1500, 0.05, 1e-6, 200, 3),
        ("damped_osc", "to"): (4000, 0.05, 1e-9, 1000, 3),
        ("damped_osc", "fs"): (2000, 0.05, 1e-7, 500, 3),
        ("burgers", "original"): (1500, 0.05, 1e-6, 200, 3),
        ("burgers", "to"): (4000, 0.05, 1e-9, 1000, 3),
        ("burgers", "fs"): (2000, 0.05, 1e-7, 500, 3),
        ("coupled", "original"): (1500, 0.05, 1e-6, 200, 3),
        ("coupled", "to"): (4000, 0.05, 1e-9, 1000, 3),
        ("coupled", "fs"): (2000, 0.05, 1e-7, 500, 3),
        ("twod_linear", "original"): (3000, 0.08, 1e-3, 2000, 3),
        ("twod_linear", "to"): (4000, 0.05, 1e-9, 1000, 3),
        ("twod_linear", "fs"): (400, 0.05, 1e-3, 400, 1),
    }
    assert {(p, v) for p in PROBLEMS for v in VARIANTS} == set(table)
    for (problem, variant), (epochs, lr, stop_loss, patience, depth) in table.items():
        assert default_config(problem, variant) == RunConfig(
            problem=problem, variant=variant, epochs=epochs, lr=lr,
            stop_loss=stop_loss, patience=patience, depth=depth)


def test_shadow_budget_defaults_are_the_budgets_own():
    config = RunConfig()
    fields = (config.shadow_c0, config.shadow_eps, config.shadow_exponent, config.shadow_w_max)
    assert fields == dataclasses.astuple(shadows.ShadowBudget())


def test_type_errors_are_config_errors():
    with pytest.raises(ConfigurationError):
        config_from_text("[run]\nepochs = soon\n")
    with pytest.raises(ConfigurationError):
        config_from_text("[run]\nchart = perhaps\n")


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return cli.main(list(argv))


def test_dense_points_span_the_domain_first_axis_slowest():
    problem = problems.damped_oscillator()
    points = cli.dense_points(problem)
    assert points.shape == (200, 1)
    assert (points[0, 0], points[-1, 0]) == problem.grid.bounds[0]
    assert np.all(np.diff(points[:, 0]) > 0)
    problem = problems.twod_linear()
    points = cli.dense_points(problem)
    (lo0, hi0), (lo1, hi1) = problem.grid.bounds
    assert points.shape == (2500, 2)
    grid = points.reshape(50, 50, 2)
    assert np.all(grid[:, :, 0] == grid[:, :1, 0])   # the first axis is fixed along a row
    assert np.all(grid[:, :, 1] == grid[:1, :, 1])   # and the second repeats in every row
    assert (grid[0, 0, 0], grid[-1, 0, 0], grid[0, 0, 1], grid[0, -1, 1]) == (lo0, hi0, lo1, hi1)
    assert np.all(np.diff(grid[:, 0, 0]) > 0) and np.all(np.diff(grid[0, :, 1]) > 0)


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    status = run_cli(
        "run", "--problem", "damped_osc", "--variant", "to", "--obs", "loc2",
        "--seed", "7", "--epochs", "40", "--out", str(out), "--chart",
    )
    assert status == 0
    for name in ("trace.csv", "solution.csv", "summary.json", "config.ini", "chart.svg"):
        assert (out / name).exists(), name
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,loss_de,loss_bc,mos,cum_evals"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["config"]["observables"] == "loc2"
    assert summary["counter"]["per_epoch"] == 0  # trainable observable: free epochs
    sol_header = (out / "solution.csv").read_text().splitlines()[0]
    assert sol_header == "x0,f0_model,f0_exact,f0_sq_err"


def test_run_is_reconstructible_from_config_echo(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli("run", "--problem", "damped_osc", "--variant", "to", "--epochs", "25",
            "--seed", "3", "--out", str(out1))
    status = run_cli("run", "--config", str(out1 / "config.ini"), "--out", str(out2))
    assert status == 0
    a = (out1 / "trace.csv").read_bytes()
    b = (out2 / "trace.csv").read_bytes()
    assert a == b


def _subparser(name):
    return cli.build_parser()._subparsers._group_actions[0].choices[name]


def test_choice_lists_have_one_source():
    # the configuration's lists validate a RunConfig and are the flags' choices
    assert PROBLEMS == tuple(problems.PROBLEMS)
    choices = {action.dest: action.choices for action in _subparser("run")._actions}
    assert choices["problem"] == PROBLEMS
    assert choices["variant"] == VARIANTS
    assert choices["observables"] == OBSERVABLE_SETS
    assert choices["fs_mode"] == FS_MODES
    assert sorted(CHOICES) == ["fs_mode", "observables", "problem", "variant"]
    assert {a.dest: a.choices for a in _subparser("compare")._actions}["problem"] == PROBLEMS
    # the models validate the same tuple the configuration offers
    assert FS_MODES is models.FS_MODES


@pytest.mark.parametrize("command", ["run", "count"])
def test_every_field_is_one_flag(command):
    dests = [action.dest for action in _subparser(command)._actions if action.dest != "help"]
    assert sorted(dests) == sorted([f.name for f in dataclasses.fields(RunConfig)] + ["config"])


@pytest.mark.parametrize("command", ["run", "count"])
def test_every_flag_and_alias_resolves_to_its_field(command):
    argv = [
        command, "--problem", "burgers", "--model", "fs", "--obs", "loc1",
        "--fs-mode", "shadow", "--n-qubits", "3", "--depth", "2",
        "--epochs", "7", "--lr", "0.01", "--stop-loss", "1e-4", "--patience", "9",
        "--seed", "5", "--grid-m", "11", "--shadow-c0", "2.5",
        "--shadow-eps", "0.5", "--shadow-exponent", "1", "--shadow-w-max", "2",
        "--out", "runs/x", "--chart",
    ]
    args = cli.build_parser().parse_args(argv)
    assert cli._resolve_config(args) == RunConfig(
        problem="burgers", variant="fs", n_qubits=3, depth=2, observables="loc1",
        fs_mode="shadow", epochs=7, lr=0.01, stop_loss=1e-4,
        patience=9, seed=5, grid_m=11, shadow_c0=2.5, shadow_eps=0.5,
        shadow_exponent=1, shadow_w_max=2, out_dir="runs/x", chart=True,
    )
    # --model's other spelling
    assert cli.build_parser().parse_args([command, "--variant", "original"]).variant == "original"


@pytest.mark.parametrize("command", ["run", "count"])
def test_the_fixed_basis_and_basis_change_are_not_options(command, tmp_path, capsys):
    """The flipped model's Chebyshev basis and the TO basis change's seed are
    fixed: their old flags and INI keys exit 2, and a key is named."""
    for flag, value in (("--basis", "chebyshev"), ("--ub-seed", "2")):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--problem", "damped_osc", flag, value)
        assert exc.value.code == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err
    for key, value in (("basis", "chebyshev"), ("ub_seed", "2")):
        path = tmp_path / f"{key}.ini"
        path.write_text(f"[run]\nproblem = damped_osc\n{key} = {value}\n")
        assert run_cli(command, "--config", str(path)) == cli.EXIT_CONFIG
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path):
    assert run_cli("run", "--problem", "damped_osc", "--variant", "to",
                   "--obs", "loc2", "--n-qubits", "13",
                   "--out", str(tmp_path / "x")) == cli.EXIT_CONFIG
    # an odd register cannot be split over two inputs; the circuits layer
    # raises, and that is a configuration error too
    assert run_cli("run", "--problem", "twod_linear", "--variant", "original",
                   "--n-qubits", "5", "--out", str(tmp_path / "y")) == cli.EXIT_CONFIG
    assert run_cli("count", "--problem", "twod_linear", "--variant", "to",
                   "--n-qubits", "3") == cli.EXIT_CONFIG
    # a shadow budget below the median-of-means batch count (M = 1 and M = 6,
    # against 10 batches) is refused before anything is simulated
    for budget in (["--shadow-c0", "0.01"], ["--shadow-w-max", "0", "--shadow-c0", "1"]):
        fs_shadow = ("--problem", "damped_osc", "--variant", "fs", "--fs-mode", "shadow", *budget)
        assert run_cli("run", *fs_shadow, "--epochs", "1",
                       "--out", str(tmp_path / "z")) == cli.EXIT_CONFIG
        assert run_cli("count", *fs_shadow) == cli.EXIT_CONFIG
    # non-finite numbers are refused too, not left to fail later in a traceback
    for flag in (["--shadow-eps", "nan"], ["--shadow-c0", "inf"], ["--lr", "nan"],
                 ["--lr", "inf"], ["--stop-loss", "nan"], ["--stop-loss", "inf"]):
        fs = ("--problem", "damped_osc", "--variant", "fs", *flag)
        assert run_cli("run", *fs, "--epochs", "1", "--out", str(tmp_path / "w")) == cli.EXIT_CONFIG
        assert run_cli("count", *fs) == cli.EXIT_CONFIG
    # a grid beyond problems.MAX_GRID_POINTS is refused before it is built,
    # not left to a MemoryError or a killed process
    for problem, m in [("twod_linear", "1001"), ("damped_osc", "1000001")]:
        assert run_cli("count", "--problem", problem, "--variant", "fs",
                       "--grid-m", m) == cli.EXIT_CONFIG
    # a one-point grid and negative budget exponents are refused, not left to a
    # ValueError traceback or a silently shrunken budget
    for problem, flag in [("damped_osc", ["--grid-m", "1"]), ("twod_linear", ["--grid-m", "1"]),
                          ("damped_osc", ["--shadow-w-max", "-1"]),
                          ("damped_osc", ["--shadow-exponent", "-1"])]:
        args = ("--problem", problem, "--variant", "fs", "--fs-mode", "shadow", *flag)
        assert run_cli("run", *args, "--epochs", "1", "--out", str(tmp_path / "v")) == cli.EXIT_CONFIG
        assert run_cli("count", *args) == cli.EXIT_CONFIG
    # a budget whose arithmetic leaves floating point (eps**exponent underflows
    # to 0 or overflows, 3**w_max is too large for a float) is refused too
    for flag in (["--shadow-eps", "1e-200"], ["--shadow-w-max", "1000"], ["--shadow-eps", "1e300"]):
        args = ("--problem", "burgers", "--variant", "fs", *flag)
        assert run_cli("run", *args, "--epochs", "1", "--out", str(tmp_path / "r")) == cli.EXIT_CONFIG
        assert run_cli("count", *args) == cli.EXIT_CONFIG
    # so is a budget that fits in a float but exceeds shadows.MAX_SNAPSHOTS per
    # state, whose bases collect could not draw (M has 290 digits here)
    too_many = ("--problem", "damped_osc", "--variant", "fs", "--fs-mode", "shadow",
                "--shadow-w-max", "600")
    assert run_cli("run", *too_many, "--epochs", "1", "--out", str(tmp_path / "q")) == cli.EXIT_CONFIG
    assert run_cli("count", *too_many) == cli.EXIT_CONFIG
    assert run_cli("run", "--problem", "damped_osc", "--variant", "original", "--grid-m", "1",
                   "--epochs", "1", "--out", str(tmp_path / "u")) == cli.EXIT_CONFIG
    # numpy's generators refuse a negative seed; so does the configuration
    args = ("--problem", "damped_osc", "--variant", "to", "--seed", "-1")
    assert run_cli("run", *args, "--epochs", "1", "--out", str(tmp_path / "s")) == cli.EXIT_CONFIG
    assert run_cli("count", *args) == cli.EXIT_CONFIG
    assert run_cli("selftest", "--seed", "-1") == cli.EXIT_CONFIG
    # a 2-local candidate set needs two qubits, and a configuration file has to
    # be readable; both were a traceback (exit 1) before
    to_loc2 = ("--problem", "damped_osc", "--variant", "to", "--obs", "loc2", "--n-qubits", "1")
    assert run_cli("run", *to_loc2, "--epochs", "1", "--out", str(tmp_path / "t")) == cli.EXIT_CONFIG
    assert run_cli("count", *to_loc2) == cli.EXIT_CONFIG
    missing = str(tmp_path / "nonexistent.ini")
    assert run_cli("run", "--config", missing, "--out", str(tmp_path / "s")) == cli.EXIT_CONFIG
    assert run_cli("count", "--config", missing) == cli.EXIT_CONFIG
    assert run_cli("count", "--config", str(tmp_path)) == cli.EXIT_CONFIG   # a directory


def test_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli("run", "--problem", "damped_osc", "--variant", "to", "--obs", "loc1",
                   "--lr", "1e300", "--epochs", "5", "--out", str(out)) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: loss became non-finite at epoch 1\n"
    assert not any(out.glob("*"))   # no artifacts of the failed run


def test_an_unusable_out_dir_is_refused_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: trained.append(args))
    blocker = tmp_path / "f"
    blocker.write_text("")
    assert run_cli("run", "--problem", "damped_osc", "--variant", "to", "--obs", "loc1",
                   "--epochs", "2", "--out", str(blocker / "x")) == cli.EXIT_CONFIG
    assert run_cli("compare", "--problem", "damped_osc", "--models", "original", "to-loc1",
                   "--epochs", "2", "--out", str(blocker / "y")) == cli.EXIT_CONFIG
    # a member's directory is checked before the first member trains
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "to-loc1").write_text("")
    assert run_cli("compare", "--problem", "damped_osc", "--models", "original", "to-loc1",
                   "--epochs", "2", "--out", str(tmp_path / "c")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("configuration error: ") for line in err)
    assert trained == []


def test_a_run_too_large_for_memory_exits_2(tmp_path):
    """A run whose arrays do not fit ends as a configuration error, not a
    traceback.  The address-space limit is set in the child process only."""
    resource = pytest.importorskip("resource")
    limit = 3 * 2**29   # 1.5 GiB

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(dqsolve.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "dqsolve.cli", "run", "--problem", "twod_linear",
         "--variant", "original", "--grid-m", "1000", "--epochs", "1", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == cli.EXIT_CONFIG, out.stderr
    assert out.stderr.startswith("configuration error: the run does not fit in memory: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "variant", [["original"], ["fs", "--fs-mode", "exact"]], ids=["original", "fs-exact"]
)
def test_count_matches_the_accountant(tmp_path, capsys, variant):
    assert run_cli("count", "--problem", "damped_osc", "--variant", *variant) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "per-epoch charge" in s)
    predicted = int(line.rsplit(":", 1)[1])
    assert run_cli("run", "--problem", "damped_osc", "--variant", *variant,
                   "--epochs", "1", "--out", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["counter"]["per_epoch"] == predicted


@pytest.mark.parametrize("problem", ["damped_osc", "burgers", "coupled", "twod_linear"])
@pytest.mark.parametrize(
    "variant",
    [["original"], ["to", "--obs", "loc1"], ["fs", "--fs-mode", "exact"]],
    ids=["original", "to-loc1", "fs-exact"],
)
def test_count_matches_the_accountant_on_every_problem(tmp_path, capsys, variant, problem):
    """Every phase ``count`` predicts equals what one epoch of ``run`` charges,
    summed over all the problem's functions."""
    flags = ["--problem", problem, "--variant", *variant, "--grid-m", "3", "--n-qubits", "2",
             "--depth", "1", "--epochs", "1"]
    assert run_cli("count", *flags) == 0
    predicted = {}
    for line in capsys.readouterr().out.splitlines():
        for phase, label in (("precompute", "precompute charge"), ("per_epoch", "per-epoch charge")):
            if label in line:
                predicted[phase] = int(line.rsplit(":", 1)[1])
    assert run_cli("run", *flags, "--out", str(tmp_path)) == 0
    counter = json.loads((tmp_path / "summary.json").read_text())["counter"]
    assert predicted == {"precompute": counter["precompute"], "per_epoch": counter["per_epoch"]}


def test_compare_emits_merged_csv_and_report(tmp_path):
    out = tmp_path / "cmp"
    status = run_cli(
        "compare", "--problem", "damped_osc", "--models", "original", "to-loc2",
        "--seed", "0", "--epochs", "20", "--out", str(out),
    )
    assert status == 0
    merged = (out / "merged.csv").read_text().splitlines()
    assert merged[0] == "model,epoch,loss,mos,cum_evals"
    tags = {line.split(",")[0] for line in merged[1:]}
    assert tags == {"original", "to-loc2"}
    report = (out / "report.txt").read_text()
    assert "saving ratio original/to-loc2:" in report
    assert "d_max" in report


def test_count_prints_cost_model(capsys):
    assert run_cli("count", "--problem", "twod_linear", "--variant", "fs") == 0
    output = capsys.readouterr().out
    assert "snapshot budget" in output
    assert "per-epoch charge" in output


def test_count_refuses_a_configuration_before_printing(capsys):
    """A budget the flipped model refuses ends the command before its cost
    model is printed, not after."""
    assert run_cli("count", "--problem", "burgers", "--variant", "fs", "--fs-mode", "shadow",
                   "--shadow-c0", "1e-9") == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")


def test_selftest_passes(capsys):
    assert run_cli("selftest", "--seed", "0") == 0
    output = capsys.readouterr().out
    assert "[ok]" in output
    assert "FAIL" not in output
    assert "0.2025" in output or "0.202" in output  # pole location reported


def test_compare_requires_two_models(tmp_path):
    assert run_cli("compare", "--problem", "damped_osc", "--models", "original",
                   "--out", str(tmp_path / "c")) == cli.EXIT_CONFIG


def test_compare_refuses_a_repeated_spec(tmp_path):
    out = tmp_path / "c"
    assert run_cli("compare", "--problem", "damped_osc", "--models", "original", "original",
                   "--epochs", "2", "--out", str(out)) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("spec, expected", [
    ("original", ("original", {})),
    ("to-loc2", ("to", {"observables": "loc2"})),
    ("fs-shadow", ("fs", {"fs_mode": "shadow"})),
])
def test_parse_model_spec(spec, expected):
    assert cli.parse_model_spec(spec) == expected


@pytest.mark.parametrize("spec", ["fs-exact-shadow", "to-loc2-x"])
def test_compare_rejects_a_spec_with_extra_suffixes(tmp_path, spec):
    with pytest.raises(ConfigurationError):
        cli.parse_model_spec(spec)
    out = tmp_path / "c"
    assert run_cli("compare", "--problem", "damped_osc", "--models", "to-loc1", spec,
                   "--epochs", "2", "--out", str(out)) == cli.EXIT_CONFIG
    assert not out.exists()  # refused before the first member trains


def test_a_percent_in_out_dir_round_trips_and_runs(tmp_path):
    config = RunConfig(out_dir="runs/50%")
    text = config_to_text(config)
    assert config_from_text(text) == config
    assert config_to_text(config_from_text(text)) == text
    out = tmp_path / "50%"
    assert run_cli("run", "--problem", "damped_osc", "--variant", "to", "--obs", "loc1",
                   "--epochs", "2", "--out", str(out)) == 0
    assert "50%" in (out / "config.ini").read_text()
    trace = (out / "trace.csv").read_bytes()
    assert run_cli("run", "--config", str(out / "config.ini")) == 0
    assert (out / "trace.csv").read_bytes() == trace


def test_to_inference_reads_large_weights(tmp_path):
    """At lr 1e6 the TO weights reach about 1e7; inference reads the
    weighted table all the same and the run writes every artifact."""
    out = tmp_path / "large"
    assert run_cli("run", "--problem", "damped_osc", "--variant", "to", "--lr", "1e6",
                   "--epochs", "5", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.ini", "solution.csv", "summary.json", "trace.csv"]


def test_compare_refuses_a_bad_configuration_before_training(tmp_path):
    out = tmp_path / "c"
    assert run_cli("compare", "--problem", "damped_osc", "--models", "original", "fs-bogus",
                   "--epochs", "3", "--out", str(out)) == cli.EXIT_CONFIG
    assert not (out / "original").exists() and not out.exists()


def test_a_run_seeds_every_generator_from_its_config(tmp_path, monkeypatch):
    """Every generator of a run is seeded by ``seed``, apart from the TO
    basis change's, which is seeded by the constant ``models.UB_SEED``."""
    seeds = []
    default_rng = np.random.default_rng

    def recording(*args, **kwargs):
        seeds.append(args[0] if args else kwargs.get("seed"))
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recording)
    for flags in (["original"], ["to", "--obs", "loc1"], ["fs", "--fs-mode", "shadow"]):
        assert run_cli("run", "--problem", "damped_osc", "--variant", *flags, "--epochs", "2",
                       "--seed", "5", "--out", str(tmp_path / flags[0])) == 0
    assert set(seeds) == {5, models.UB_SEED}
