"""Which end-to-end metric each per-layer metric should move, and where.

Each entry maps a per-layer metric (a name in BENCHMARK.json ``per_layer``)
to ``moves``, the (end-to-end metric, workload) pairs a change to that layer
should move, and ``flat``, the (end-to-end metric, workload) pairs predicted
not to move when only that layer changes.  ``precompute_s`` is the TO table
build inside ``run_s``; it is reported on ``to_burgers_all5`` only (the
result file and the printed summary), because an end-to-end metric in
BENCHMARK.json must be nonzero on every workload.

``epoch_ms`` on ``to_burgers_all5`` is the bypass for every simulator
change: TO training runs no circuit at all once its table is built.

The coverage check reads this map: a metric must be nonzero on every
workload it is said to move, or the trace has lost a call (typically one
that reaches a function through a ``from ... import`` binding the tracer
did not replace).
"""

from __future__ import annotations

ORIG, TO, FSS = "original_2d", "to_burgers_all5", "fs_shadow"
ALL = (ORIG, TO, FSS)


def _entry(moves, flat=()):
    return {"moves": tuple(moves), "flat": tuple(flat)}


def _epochs(*workloads):
    return [("epoch_ms", w) for w in workloads]


_KERNEL = _entry(_epochs(ORIG, FSS), _epochs(TO))
_MATRIX = _entry(_epochs(FSS), _epochs(ORIG, TO))
_READOUT = _entry([("precompute_s", TO), ("artifacts_s", TO)], _epochs(TO, FSS))
_SIMULATOR = _entry(_epochs(ORIG, FSS) + [("precompute_s", TO)], _epochs(TO))
_ORIGINAL = _entry(_epochs(ORIG), _epochs(TO, FSS))
_TO_TABLE = _entry([("precompute_s", TO)], _epochs(*ALL))
_FLIPPED = _entry(_epochs(FSS), _epochs(ORIG, TO))
_SHADOW = _entry(_epochs(FSS), _epochs(ORIG, TO))
_CLASSICAL = _entry(_epochs(TO), _epochs(ORIG, FSS))
_INFERENCE = _entry([("artifacts_s", ORIG), ("artifacts_s", TO)], [("artifacts_s", FSS)])
_ARTIFACTS = _entry([("artifacts_s", w) for w in ALL], _epochs(*ALL))
# exact counts and the tracer's own cost: no timed metric follows them, and
# the charges must not move unless a change says why (ROADMAP)
_UNTIMED = _entry([], [(m, w) for w in ALL for m in ("run_s", "epoch_ms", "artifacts_s")])

LAYER_MAP = {
    "statevector.apply_rotation_batch.calls": _KERNEL,
    "statevector.apply_rotation_batch.s": _KERNEL,
    "statevector.apply_rotation_batch.rows": _KERNEL,
    "statevector.apply_cnot_batch.calls": _KERNEL,
    "statevector.apply_cnot_batch.s": _KERNEL,
    "statevector.apply_matrix_batch.calls": _MATRIX,
    "statevector.apply_matrix_batch.s": _MATRIX,
    "statevector.pauli_expectation_batch.calls": _READOUT,
    "statevector.pauli_expectation_batch.s": _READOUT,
    "statevector.pauli_action.calls": _READOUT,
    "statevector.pauli_action.s": _READOUT,
    "statevector.pauli_action.distinct_ratio": _READOUT,
    "statevector.bytes_computed": _SIMULATOR,
    "statevector.self_s": _SIMULATOR,
    "circuits.run_batch.calls": _SIMULATOR,
    "circuits.run_batch.s": _SIMULATOR,
    "circuits.run_batch.rows": _SIMULATOR,
    "circuits.gate_rows": _SIMULATOR,
    "circuits.unapply_gate_to_batch.calls": _ORIGINAL,
    "circuits.run_batch.rows.precompute": _TO_TABLE,
    "circuits.run_batch.rows.per_epoch": _entry(_epochs(ORIG, FSS), _epochs(TO)),
    "circuits.run_batch.rows.inference": _INFERENCE,
    "circuits.rows_per_charged_eval.precompute": _TO_TABLE,
    "circuits.rows_per_charged_eval.per_epoch": _entry(_epochs(ORIG, FSS), _epochs(TO)),
    "circuits.rows_per_charged_eval.inference": _INFERENCE,
    "circuits.self_s": _SIMULATOR,
    "models.OriginalModel.values.s": _ORIGINAL,
    "models.OriginalModel.jacobian.s": _ORIGINAL,
    "models.adjoint_gradients.calls": _ORIGINAL,
    "models.adjoint_gradients.s": _ORIGINAL,
    "models.mode_expectations.calls": _entry([("epoch_ms", ORIG), ("precompute_s", TO)], _epochs(TO, FSS)),
    "models.mode_expectations.s": _entry([("epoch_ms", ORIG), ("precompute_s", TO)], _epochs(TO, FSS)),
    "models.precompute_to_table.s": _TO_TABLE,
    "models.TOModel.jacobian.s": _entry(_epochs(TO), _epochs(ORIG, FSS)),
    "models.TOModel.values_at.s": _entry([("artifacts_s", TO)], [("artifacts_s", ORIG), ("artifacts_s", FSS)]),
    "models.FlippedModel.begin_epoch.s": _FLIPPED,
    "models.FlippedModel.jacobian.s": _FLIPPED,
    "models.basis_matrix.calls": _FLIPPED,
    "models.basis_matrix.s": _FLIPPED,
    "models.self_s": _entry(_epochs(ORIG, FSS) + [("precompute_s", TO)]),
    "shadows.collect.calls": _SHADOW,
    "shadows.collect.s": _SHADOW,
    "shadows.collect.snapshots": _SHADOW,
    "shadows.estimate_pauli.calls": _SHADOW,
    "shadows.estimate_pauli.s": _SHADOW,
    "shadows.self_s": _SHADOW,
    "problems.gather_values.s": _CLASSICAL,
    "problems.mos_from_values.s": _CLASSICAL,
    "problems.self_s": _CLASSICAL,
    "training.loss_gradients.self_s": _CLASSICAL,
    "training.adam_step.calls": _CLASSICAL,
    "training.adam_step.s": _CLASSICAL,
    "training.self_s": _CLASSICAL,
    "training.charged.precompute": _UNTIMED,
    "training.charged.per_epoch": _UNTIMED,
    "training.charged.inference": _UNTIMED,
    "cli.write_run_artifacts.s": _ARTIFACTS,
    "cli.solution_csv.s": _ARTIFACTS,
    "cli.self_s": _ARTIFACTS,
    "trace.spans": _UNTIMED,
    "trace.overhead_s": _UNTIMED,
}


def coverage_gaps(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics that read 0 on a workload they are mapped to move."""
    return sorted(
        name
        for name, entry in LAYER_MAP.items()
        if any(w == workload for _metric, w in entry["moves"]) and not values.get(name)
    )
