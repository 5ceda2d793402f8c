"""The benchmark's workloads, their closed-form charges and one timed trial.

A trial is one user run, end to end: ``cli.build_problem`` ->
``cli.build_models`` (with ``models.precompute_to_table`` timed on its own)
-> ``training.train`` -> ``cli.write_run_artifacts``.  Every workload trains a
fixed number of epochs with early stopping off, so every trial does the same
work.  The workload seed becomes ``RunConfig.seed`` modulo
``REFERENCE_SEEDS``, so every trial has a recorded final loss to check
against (``reference.json``, written by ``record_reference.py``).

This module imports ``dqsolve``; the caller puts ``src`` on the path and pins
the BLAS thread pools first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from dqsolve import cli, config, models, statevector, training

REFERENCE_SEEDS = 16
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Trials are bit-for-bit deterministic per seed on one machine; the relative
# tolerance only admits last-digit differences from another BLAS build.
REFERENCE_RTOL = 1e-6

# RunConfig fields per workload, on top of the shipped (problem, variant)
# defaults; the reasons each workload exists are in BENCHMARK.json.
WORKLOADS = {
    # shipped defaults: n=4, depth 3, lr 0.08; 400 grid + 20 boundary points
    "original_2d": dict(problem="twod_linear", variant="original", epochs=20),
    # 4**5 = 1024 strings; modes (), (0,), (0,0) -> 1 + 10 + 100 shift configs
    "to_burgers_all5": dict(
        problem="burgers", variant="to", observables="all", n_qubits=5, epochs=4000
    ),
    "fs_shadow": dict(problem="damped_osc", variant="fs", fs_mode="shadow", depth=3, epochs=8),
}

# A failed run of the program ends in one of these; anything else is a bug
# in the benchmark and is left to propagate.
RUN_FAILURES = (config.ConfigurationError, statevector.ConfigurationError, training.NumericalFailure)


def run_config(workload: str, seed: int, out_dir: Path, epochs: int | None = None) -> config.RunConfig:
    spec = dict(WORKLOADS[workload])
    base = config.default_config(spec.pop("problem"), spec.pop("variant"))
    if epochs is not None:
        spec["epochs"] = epochs
    return dataclasses.replace(
        base,
        **spec,
        seed=seed % REFERENCE_SEEDS,
        stop_loss=0.0,                  # unreachable: the loss is a sum of squares of nonzero residuals
        patience=spec["epochs"] + 1,    # never triggers
        out_dir=str(out_dir),
    ).validate()


# ---------------------------------------------------------------------------
# closed-form charges, derived here from the documented cost policy
# (training.counting_policy) rather than from the package's own helpers


def _shift_runs(n_enc: int, order: int) -> int:
    """E(mode): parameter-shift runs per point for a derivative of this order
    over one input dimension encoded by ``n_enc`` gates."""
    return (1, 2 * n_enc, 4 * n_enc**2)[order]


def snapshot_budget(cfg: config.RunConfig, n_points: int, order: int) -> int:
    """M = ceil(c0 * 3**w_max * log2(m * (k + 1)) / eps**exponent)."""
    log_term = math.log2(max(2, n_points * (order + 1)))
    return math.ceil(cfg.shadow_c0 * 3**cfg.shadow_w_max * log_term / cfg.shadow_eps**cfg.shadow_exponent)


def expected_charges(workload: str, cfg: config.RunConfig, problem) -> dict:
    """Charged evaluations per phase for one trial of ``workload``."""
    m = problem.grid.size
    n_bc = len(problem.boundary)
    n_dense = cli.dense_points(problem).shape[0]
    if workload == "original_2d":
        # values at modes () and (1,); parameter-shift Jacobian at (1,), the
        # only mode the linear residual couples to; boundary value + Jacobian
        p = 3 * cfg.n_qubits * cfg.depth
        e0, e1 = _shift_runs(0, 0), _shift_runs(cfg.n_qubits // 2, 1)
        per_epoch = m * (e0 + e1) + m * e1 * 2 * p + n_bc * (1 + 2 * p)
        return {"precompute": 0, "per_epoch": cfg.epochs * per_epoch, "inference": n_dense * e0}
    if workload == "to_burgers_all5":
        d = 4**cfg.n_qubits
        modes = sum(_shift_runs(cfg.n_qubits, k) for k in range(3))
        return {"precompute": d * (m + n_bc) * modes, "per_epoch": 0, "inference": d * n_dense}
    p = 3 * cfg.n_qubits * cfg.depth
    snapshots = snapshot_budget(cfg, m + n_bc, problem.order)
    # the inference charge is M by policy but 0 at this commit (stale cache,
    # ROADMAP item 2); it is reported beside its closed form and not gated
    return {"precompute": 0, "per_epoch": cfg.epochs * (1 + 2 * p) * snapshots, "inference": snapshots}


GATED_PHASES = {
    "original_2d": ("precompute", "per_epoch", "inference"),
    "to_burgers_all5": ("precompute", "per_epoch", "inference"),
    "fs_shadow": ("precompute", "per_epoch"),
}


# ---------------------------------------------------------------------------
# one timed trial


@dataclasses.dataclass
class Trial:
    construct_s: float      # problem + model construction, precompute excluded
    precompute_s: float
    train_s: float
    artifacts_s: float
    epochs: int
    charged: dict
    expected: dict
    final_loss: float
    mos_per_point: float

    @property
    def wall_s(self) -> float:
        return self.construct_s + self.precompute_s + self.train_s + self.artifacts_s

    def failures(self, workload: str, seed: int, reference: dict) -> list[str]:
        """Reasons this trial fails the correctness gate (empty if it passes)."""
        out = []
        if self.epochs != self.expected["epochs"]:
            out.append(f"ran {self.epochs} epochs, expected {self.expected['epochs']}")
        for phase in GATED_PHASES[workload]:
            if self.charged[phase] != self.expected[phase]:
                out.append(f"{phase} charge {self.charged[phase]} != closed form {self.expected[phase]}")
        for name, value in (("final loss", self.final_loss), ("MoS/pt", self.mos_per_point)):
            if not math.isfinite(value):
                out.append(f"{name} is not finite: {value}")
        recorded = reference.get(workload, {}).get(str(seed % REFERENCE_SEEDS))
        if recorded is None:
            out.append(f"no recorded reference for seed {seed % REFERENCE_SEEDS}")
        else:
            for name, value, ref in (
                ("final loss", self.final_loss, recorded["final_loss"]),
                ("MoS/pt", self.mos_per_point, recorded["mos_per_point"]),
            ):
                if not math.isclose(value, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                    out.append(f"{name} {value!r} != recorded {ref!r}")
        return out


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}


@contextlib.contextmanager
def _timing(module, name: str, sink: list):
    """Time every call of ``module.name`` for the duration of the block."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_trial(workload: str, seed: int, out_dir: Path, epochs: int | None = None) -> Trial:
    cfg = run_config(workload, seed, out_dir, epochs)
    precompute: list[float] = []
    t0 = time.perf_counter()
    problem = cli.build_problem(cfg)
    counter = training.EvalCounter()
    # cli.build_models looks precompute_to_table up on the models module
    with _timing(models, "precompute_to_table", precompute):
        trial_models = cli.build_models(cfg, problem, counter)
    t1 = time.perf_counter()
    trace = training.train(
        problem, trial_models, cli.train_config(cfg), np.random.default_rng(cfg.seed), counter=counter
    )
    t2 = time.perf_counter()
    cli.write_run_artifacts(cfg, problem, trial_models, trace, counter)
    t3 = time.perf_counter()

    final = trace.records[-1]
    expected = dict(expected_charges(workload, cfg, problem), epochs=cfg.epochs)
    return Trial(
        construct_s=t1 - t0 - sum(precompute),
        precompute_s=sum(precompute),
        train_s=t2 - t1,
        artifacts_s=t3 - t2,
        epochs=len(trace.records),
        charged={k: v for k, v in counter.snapshot().items() if k != "total"},
        expected=expected,
        final_loss=float(final.loss),
        mos_per_point=float(final.mos) / (problem.grid.size * problem.n_functions),
    )
