"""Span recording around calls into dqsolve's public functions.

``instrumented(tracer)`` replaces each function listed in ``FUNCTIONS`` and
each method in ``METHODS`` with a wrapper that records a span (name, start,
end, parent span, run id) and, for some calls, a work count (batch rows,
amplitude bytes, snapshots).  A function bound into another module by
``from ... import`` is replaced there too: every loaded dqsolve module
namespace is searched for the original object, so ``circuits``' own
reference to ``apply_rotation_batch`` and ``models``' reference to
``run_batch`` are traced.  Spans stay in memory until ``write_csv``.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("statevector", "circuits", "models", "shadows", "problems", "training", "cli")

FUNCTIONS = {
    "statevector": (
        "apply_rotation_batch", "apply_cnot_batch", "apply_matrix_batch",
        "pauli_expectation_batch", "pauli_action", "rotate_to_bases", "sample_bitstrings",
    ),
    "circuits": ("run_batch", "apply_gate_to_batch", "unapply_gate_to_batch"),
    "models": (
        "mode_expectations", "mode_variational_grads", "adjoint_gradients",
        "precompute_to_table", "basis_matrix",
    ),
    "shadows": ("collect", "estimate_pauli"),
    "problems": ("gather_values", "loss_from_values", "mos_from_values"),
    "training": ("train", "loss_gradients", "adam_step"),
    "cli": ("build_problem", "build_models", "write_run_artifacts", "solution_csv"),
}

METHODS = {
    "models": {
        "OriginalModel": ("values", "jacobian", "values_at"),
        "TOModel": ("values", "jacobian", "values_at"),
        "FlippedModel": ("begin_epoch", "values", "jacobian", "values_at"),
    },
}

# The charging phase a span opens; circuit rows simulated under it count
# against that phase's charged evaluations.
PHASES = {
    "cli.build_models": "precompute",
    "training.train": "per_epoch",
    "cli.write_run_artifacts": "inference",
}

_AMP_BYTES = np.dtype(np.complex128).itemsize


# Work counted per call.  Amplitude bytes are computed from array shapes (not
# measured): a rotation or 2x2 matrix reads and writes every amplitude of the
# batch, a CNOT reads and writes the half with the control bit set, a Pauli
# expectation reads the batch twice (the conjugate and the permuted copy).
def _amplitude_bytes(passes: int):
    def count(t, amps, *args, **kwargs):
        t.counts["statevector.bytes_computed"] += passes * amps.size * _AMP_BYTES

    return count


def _rotation(t, amps, *args, **kwargs):
    t.counts["statevector.apply_rotation_batch.rows"] += amps.shape[0]
    t.counts["statevector.bytes_computed"] += 2 * amps.size * _AMP_BYTES


def _action(t, letters):
    t.distinct_strings.add(letters)


def _run_batch(t, circuit, bindings, batch, shifts=None):
    t.counts["circuits.run_batch.rows"] += batch
    t.counts[f"circuits.run_batch.rows.{t.phase}"] += batch


def _gate(t, amps, *args, **kwargs):
    t.counts["circuits.gate_rows"] += amps.shape[0]


def _collect(t, state, m_snapshots, *args, **kwargs):
    t.counts["shadows.collect.snapshots"] += m_snapshots


COUNTS = {
    "statevector.apply_rotation_batch": _rotation,
    "statevector.apply_matrix_batch": _amplitude_bytes(2),
    "statevector.apply_cnot_batch": _amplitude_bytes(1),
    "statevector.pauli_expectation_batch": _amplitude_bytes(2),
    "statevector.pauli_action": _action,
    "circuits.run_batch": _run_batch,
    "circuits.apply_gate_to_batch": _gate,
    "circuits.unapply_gate_to_batch": _gate,
    "shadows.collect": _collect,
}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.counts: Counter = Counter()
        self.distinct_strings: set[str] = set()
        self.phase = "setup"
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTS.get(name)
        phase = PHASES.get(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            if phase is not None:
                self.phase = phase
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return traced

    def span_table(self) -> dict[str, np.ndarray]:
        """Per-name calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = (np.frombuffer(self.span_end, dtype=np.int64)
                    - np.frombuffer(self.span_start, dtype=np.int64)) * 1e-9
        child = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        size = len(self.names)
        return {
            "calls": np.bincount(names, minlength=size),
            "s": np.bincount(names, weights=duration, minlength=size),
            "self_s": np.bincount(names, weights=duration - child, minlength=size),
        }

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("run,span,parent,name,start_ns,end_ns\n")
            for i, (n, p, s, e) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(f"{self.run_id},{i},{p},{self.names[n]},{s},{e}\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every listed function and method for the duration of the block."""
    modules = {layer: importlib.import_module(f"dqsolve.{layer}") for layer in LAYERS}
    holders = [module for name, module in sys.modules.items() if name.startswith("dqsolve.")]
    patches = []
    try:
        for layer, names in FUNCTIONS.items():
            for name in names:
                original = getattr(modules[layer], name)
                traced = tracer.wrap(f"{layer}.{name}", original)
                for module in holders:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, traced)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for name in methods:
                    original = cls.__dict__[name]
                    patches.append((cls, name, original))
                    setattr(cls, name, tracer.wrap(f"{layer}.{cls_name}.{name}", original))
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def layer_values(tracer: Tracer, charged: dict) -> dict[str, float]:
    """Every per-layer quantity the trace yields, by metric name."""
    table = tracer.span_table()
    values: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        for field in ("calls", "s", "self_s"):
            values[f"{name}.{field}"] = float(table[field][i])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = float(sum(
            table["self_s"][i] for i, name in enumerate(tracer.names) if name.split(".")[0] == layer
        ))
    for name in ("statevector.apply_rotation_batch.rows", "statevector.bytes_computed",
                 "circuits.run_batch.rows", "circuits.gate_rows", "shadows.collect.snapshots"):
        values[name] = float(tracer.counts[name])
    calls = values["statevector.pauli_action.calls"]
    values["statevector.pauli_action.distinct_ratio"] = (
        len(tracer.distinct_strings) / calls if calls else 0.0
    )
    for phase, n_charged in charged.items():
        rows = float(tracer.counts[f"circuits.run_batch.rows.{phase}"])
        values[f"circuits.run_batch.rows.{phase}"] = rows
        # 0 where nothing is charged: the ratio has no base there
        values[f"circuits.rows_per_charged_eval.{phase}"] = rows / n_charged if n_charged else 0.0
        values[f"training.charged.{phase}"] = float(n_charged)
    values["trace.spans"] = float(len(tracer.span_name))
    return values
