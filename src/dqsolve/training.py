"""Adam optimizer, the unified training loop and the circuit-evaluation
accountant.

The accountant realizes each protocol's cost model:

* original -- one charge per distinct expectation evaluation, including
  every parameter-shift evaluation, so the total grows like epochs x points;
* trainable observable -- charges only while the measurement table is built
  (and per off-table inference point); the training phase is provably free;
* flipped shadow -- one charge per shadow snapshot; the per-epoch budget
  depends on the grid size only through its logarithm.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import problems as problems_mod
from .models import PHASE_EPOCH, PHASE_INFERENCE, PHASE_PRECOMPUTE, FlippedModel
from .models import runs_per_point, to_charge


class NumericalFailure(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""


class EvalCounter:
    """Monotone count of charged quantum circuit executions, by phase."""

    PHASES = (PHASE_PRECOMPUTE, PHASE_EPOCH, PHASE_INFERENCE)

    def __init__(self):
        self.breakdown = {phase: 0 for phase in self.PHASES}
        self._paused = 0

    @property
    def total(self) -> int:
        return sum(self.breakdown.values())

    def charge(self, n: int, phase: str = PHASE_EPOCH) -> None:
        if self._paused:
            return
        if n < 0:
            raise ValueError("charges are nonnegative")
        if phase not in self.breakdown:
            raise ValueError(f"unknown phase {phase!r}")
        self.breakdown[phase] += int(n)

    @contextmanager
    def paused(self):
        """Suspend charging for diagnostics (metric evaluation, plotting)."""
        self._paused += 1
        try:
            yield self
        finally:
            self._paused -= 1

    def snapshot(self) -> dict:
        return dict(self.breakdown, total=self.total)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """One bias-corrected Adam update; returns (state, new params)."""
    if not np.all(np.isfinite(grads)):
        raise NumericalFailure("non-finite gradient in Adam update")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    if state.m.shape != params.shape:
        raise ValueError("moment vectors do not match the parameter vector")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    return state, params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    loss_de: float
    loss_bc: float
    mos: float
    cum_evals: int


@dataclass
class TrainTrace:
    """One record per epoch and, per model, the parameters the last one evaluated."""

    records: list[EpochRecord]
    final_params: list[np.ndarray]


def loss_gradients(problem, trial_models, params_list):
    """Gradient of the training loss for every model, via the chain rule over
    residual partial derivatives and model Jacobians."""
    F, bc_values = problems_mod.gather_values(problem, trial_models, params_list)
    total, l_de, l_bc = problems_mod.loss_from_values(problem, F, bc_values)

    m = problem.grid.size
    grid_idx = slice(0, m)  # a view of each model's grid rows, not a copy
    residuals = problem.residual(F)
    partials = problem.residual_partials(F)
    n_eq = residuals.shape[0]

    # dL/dF[(fn, mode)] over the grid
    dl_df = {key: np.zeros(m) for key in F}
    for (eq, fn, mode), part in partials.items():
        dl_df[(fn, mode)] += (2.0 / (m * n_eq)) * residuals[eq] * part

    grads = []
    for fn, (model, params) in enumerate(zip(trial_models, params_list)):
        grad = np.zeros(model.n_params)
        for mode in problem.jacobian_modes[fn]:
            jac = model.jacobian(params, grid_idx, mode)
            grad += dl_df[(fn, mode)] @ jac
        terms = problem.boundary_rows[fn]
        if terms:
            jac = model.jacobian(params, m + np.array(terms), ())
            grad += (2.0 * (bc_values[terms] - problem.boundary_targets[terms])) @ jac
        grads.append(grad)
    return (total, l_de, l_bc), F, grads


def train(
    problem,
    trial_models,
    config: dict,
    rng: np.random.Generator,
    counter: EvalCounter | None = None,
) -> TrainTrace:
    """Run the epoch loop for any model variant.

    ``config`` keys: epochs (at least 1), lr and stop_loss (early-stop
    threshold, or None) are required; patience (epochs without 1% relative
    improvement) defaults to ``RunConfig``'s 200.  Models whose quantum data
    is gathered per epoch expose ``begin_epoch``.  ``final_params`` are what
    the last record evaluated, not the Adam update after it; a non-finite
    loss or gradient at any epoch, the last included, raises
    ``NumericalFailure``.
    """
    epochs = int(config["epochs"])
    lr = float(config["lr"])
    stop_loss = config["stop_loss"]
    patience = int(config.get("patience", 200))

    params_list = [m.init_params(rng) for m in trial_models]
    adam_states = [AdamState(lr=lr) for _ in trial_models]
    records: list[EpochRecord] = []
    best = np.inf
    stale = 0

    for epoch in range(epochs):
        for model, params in zip(trial_models, params_list):
            if hasattr(model, "begin_epoch"):
                model.begin_epoch(params, rng)
        (total, l_de, l_bc), F, grads = loss_gradients(problem, trial_models, params_list)
        if not np.isfinite(total):
            raise NumericalFailure(f"loss became non-finite at epoch {epoch}")
        records.append(
            EpochRecord(
                epoch=epoch,
                loss=total,
                loss_de=l_de,
                loss_bc=l_bc,
                mos=problems_mod.mos_from_values(problem, F),
                cum_evals=counter.total if counter else 0,
            )
        )
        evaluated = list(params_list)   # adam_step returns new arrays
        for i in range(len(trial_models)):
            adam_states[i], params_list[i] = adam_step(adam_states[i], params_list[i], grads[i])
        if stop_loss is not None and total < stop_loss:
            break
        if total < best * 0.99:
            best = total
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    return TrainTrace(records=records, final_params=evaluated)


# ---------------------------------------------------------------------------
# closed-form cost model


def counting_policy(variant: str) -> dict:
    """Human-readable charge rules per model variant."""
    policies = {
        "original": {
            "precompute": "none",
            "per_epoch": "for every mode and evaluation point: E(mode) value runs "
            "plus 2 * E(mode) runs per rotation parameter (parameter-shift pairs); "
            "E(()) = 1, E(first derivative) = 2*n_enc, E(second) = 4*n_enc**2",
            "inference": "1 evaluation per point",
        },
        "to": {
            "precompute": "d * n_table_points * E(mode), summed over table modes",
            "per_epoch": "0 -- training consumes the precomputed table",
            "inference": "d * E(mode) per off-table point",
        },
        "fs": {
            "precompute": "none",
            "per_epoch": "(1 + 2 * n_rotation_params) * M snapshots, "
            "M = ceil(c0 * 3**w_max * log2(m*(k+1)) / eps**exponent); independent of m "
            "except through log2(m)",
            "inference": "0 -- reads the last epoch's shadow of the reported state, charged per epoch",
        },
    }
    if variant not in policies:
        raise ValueError(f"unknown variant {variant!r}")
    return policies[variant]


def expected_charges(problem, trial_models=(), to_table=None) -> dict:
    """Closed-form charges of one run: ``precompute`` for the whole run and
    ``per_epoch`` for one epoch, summed over the problem's trial functions.

    ``trial_models`` are the original or flipped models, one per function.
    A trainable-observable run passes ``to_table=(d, enc_by_dim)`` instead:
    its functions share one table, charged once, and its epochs are free.
    """
    precompute = per_epoch = 0
    if to_table is not None:
        d, enc = to_table
        precompute = to_charge(d, problem.eval_points.shape[0], enc, problem.all_modes)
    for fn, model in enumerate(trial_models):
        pair_runs = 2 * len(model.rotation_params)  # a parameter-shift pair per rotation
        if isinstance(model, FlippedModel):
            per_epoch += (1 + pair_runs) * model.snapshots
            continue
        # values at every mode and boundary point; Jacobians at the modes the
        # residual couples to and at the boundary points
        m, enc = problem.grid.size, model.enc_by_dim
        runs = {mode: m * runs_per_point(enc, mode) for mode in problem.all_modes}
        n_bc = len(problem.boundary_rows[fn])
        per_epoch += sum(runs.values()) + n_bc * (1 + pair_runs)
        per_epoch += pair_runs * sum(runs[mode] for mode in problem.jacobian_modes[fn])
    return {"precompute": precompute, "per_epoch": per_epoch}
