"""The benchmark's own tests: BENCHMARK.json agrees with the code, the
closed-form charges hold, and the trace reaches every layer it claims to.

Run from the repository root: ``python3 -m pytest -q perfbench``.  The
coverage tests train each workload for two epochs, traced and untraced
(about half a minute in all, most of it the TO precompute).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.LAYER_MAP)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert {"run_s", "setup_s", "epoch_ms", "artifacts_s", "peak_rss_mb"} == e2e
    for entry in layers.LAYER_MAP.values():
        for metric, workload in entry["moves"] + entry["flat"]:
            assert metric in e2e | {"precompute_s"}
            assert workload in workloads.WORKLOADS
        assert not set(entry["moves"]) & set(entry["flat"])


def test_reference_covers_every_workload_and_seed():
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        assert sorted(map(int, reference[name])) == list(range(workloads.REFERENCE_SEEDS))


def test_closed_form_charges(tmp_path):
    from dqsolve import cli

    def expected(name):
        cfg = workloads.run_config(name, 0, tmp_path)
        return workloads.expected_charges(name, cfg, cli.build_problem(cfg)), cfg.epochs

    charges, epochs = expected("original_2d")
    assert charges == {"precompute": 0, "per_epoch": 118_660 * epochs, "inference": 2500}
    charges, _ = expected("to_burgers_all5")
    assert charges == {"precompute": 2_500_608, "per_epoch": 0, "inference": 204_800}
    charges, epochs = expected("fs_shadow")
    assert charges == {"precompute": 0, "per_epoch": 73 * 551 * epochs, "inference": 551}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_trace_covers_the_layers_each_workload_uses(workload, tmp_path):
    plain = workloads.run_trial(workload, 0, tmp_path, epochs=2)
    tracer = spans.Tracer(workload)
    with spans.instrumented(tracer):
        traced = workloads.run_trial(workload, 0, tmp_path, epochs=2)
    assert (traced.charged, traced.final_loss) == (plain.charged, plain.final_loss)
    values = spans.layer_values(tracer, traced.charged)
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    assert set(layers.LAYER_MAP) <= set(values)
    assert layers.coverage_gaps(workload, values) == []


def test_coverage_check_catches_an_escaped_binding(tmp_path):
    from dqsolve import circuits, statevector

    original = statevector.apply_rotation_batch
    tracer = spans.Tracer("escape")
    with spans.instrumented(tracer):
        # what a missed ``from statevector import apply_rotation_batch`` looks like
        circuits.apply_rotation_batch = original
        trial = workloads.run_trial("original_2d", 0, tmp_path, epochs=1)
    assert circuits.apply_rotation_batch is original
    values = spans.layer_values(tracer, trial.charged)
    assert "statevector.apply_rotation_batch.calls" in layers.coverage_gaps("original_2d", values)


def test_host_speed_scale_is_reference_over_median_probe():
    assert hostspeed.probe_s() > 0
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref / 2, ref, 4 * ref]) == 1.0
    assert hostspeed.scale([4 * ref, 4 * ref, ref]) == pytest.approx(0.25 ** hostspeed.SENSITIVITY)
    # the probe is independent of the program under test
    source = Path(hostspeed.__file__).read_text()
    assert "import dqsolve" not in source and "from dqsolve" not in source
