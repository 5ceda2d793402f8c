"""Optimizer, training loop and the evaluation accountant."""

import numpy as np
import pytest

from dqsolve import cli, models, pauli, problems, training
from dqsolve.training import (
    AdamState,
    EvalCounter,
    NumericalFailure,
    adam_step,
    counting_policy,
    expected_charges,
    train,
)


# ---------------------------------------------------------------------------
# accountant


def test_counter_phases_and_total():
    counter = EvalCounter()
    counter.charge(3, phase="precompute")
    counter.charge(5)  # per_epoch default
    counter.charge(2, phase="inference")
    assert counter.total == 10
    assert counter.breakdown == {"precompute": 3, "per_epoch": 5, "inference": 2}
    snap = counter.snapshot()
    assert snap["total"] == 10


def test_counter_rejects_bad_charges():
    counter = EvalCounter()
    with pytest.raises(ValueError):
        counter.charge(-1)
    with pytest.raises(ValueError):
        counter.charge(1, phase="lunch")


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_params():
    state = AdamState()
    params = np.array([1.0, -2.0])
    state, updated = adam_step(state, params, np.zeros(2))
    assert np.allclose(updated, params)


def test_adam_moves_against_gradient_sign():
    state = AdamState(lr=0.1)
    params = np.array([0.0])
    for _ in range(20):
        state, params = adam_step(state, params, np.array([2.0]))
    assert params[0] < 0.0


def test_adam_converges_on_quadratic_bowl():
    state = AdamState(lr=0.1)
    p = np.array([1.0])
    for _ in range(500):
        state, p = adam_step(state, p, 2.0 * p)
    assert abs(p[0]) < 1e-3


def test_adam_rejects_non_finite_gradient():
    state = AdamState()
    with pytest.raises(NumericalFailure):
        adam_step(state, np.zeros(1), np.array([np.nan]))


def test_adam_rejects_shape_mismatch():
    state = AdamState()
    state, _ = adam_step(state, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# training loop and charge accounting


def small_problem():
    return problems.damped_oscillator(m=2)


def test_original_charge_matches_closed_form():
    """Two-point grid, two epochs: the accountant equals the hand-derivable
    per-epoch formula exactly."""
    problem = small_problem()
    counter = EvalCounter()
    model = models.OriginalModel(4, 1, problem.eval_points, counter=counter)
    charges = expected_charges(problem, [model])
    per_epoch = charges["per_epoch"]
    assert charges["precompute"] == 0
    # hand count: m=2 points; modes () and (0,); n_enc=4; P=12 rotations;
    # one boundary term. values: 2*(1+8); jacobian at (0,): 2*8*2P; bc: 1+2P.
    assert per_epoch == 2 * (1 + 8) + 2 * 8 * 2 * 12 + (1 + 2 * 12)
    trace = train(problem, [model], {"epochs": 2, "lr": 0.05, "stop_loss": None},
                  np.random.default_rng(0), counter=counter)
    assert counter.total == 2 * per_epoch
    assert len(trace.records) == 2
    assert trace.records[1].cum_evals == 2 * per_epoch


def test_to_training_is_quantum_free():
    problem = small_problem()
    counter = EvalCounter()
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 2), 4,
        counter=counter,
    )
    after_precompute = counter.total
    assert after_precompute == 67 * 3 * (1 + 2 * 4)
    enc = models._enc_by_dim(models.encoding_circuit(4, 1), 1)
    charges = expected_charges(problem, to_table=(67, enc))
    assert charges == {"precompute": after_precompute, "per_epoch": 0}
    model = models.TOModel(table, counter=counter)
    train(problem, [model], {"epochs": 50, "lr": 0.05, "stop_loss": None},
          np.random.default_rng(0), counter=counter)
    assert counter.total == after_precompute


def test_fs_epoch_charge_matches_closed_form():
    problem = small_problem()
    counter = EvalCounter()
    model = models.FlippedModel(4, 1, problem.eval_points, mode="exact", counter=counter)
    charges = expected_charges(problem, [model])
    per_epoch = charges["per_epoch"]
    assert charges["precompute"] == 0
    assert per_epoch == (1 + 2 * 12) * model.snapshots
    train(problem, [model], {"epochs": 2, "lr": 0.05, "stop_loss": None},
          np.random.default_rng(0), counter=counter)
    assert counter.total == 2 * per_epoch


def test_counter_is_monotone_during_training():
    problem = small_problem()
    counter = EvalCounter()
    model = models.OriginalModel(4, 1, problem.eval_points, counter=counter)
    trace = train(problem, [model], {"epochs": 4, "lr": 0.05, "stop_loss": None},
                  np.random.default_rng(0), counter=counter)
    cums = [r.cum_evals for r in trace.records]
    assert cums == sorted(cums)
    assert cums[0] > 0


def test_training_reduces_loss():
    problem = problems.damped_oscillator()
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 2), 4
    )
    trace = train(problem, [models.TOModel(table)],
                  {"epochs": 300, "lr": 0.05, "stop_loss": None},
                  np.random.default_rng(0))
    assert trace.records[-1].loss < trace.records[0].loss


def test_early_stop_on_loss_threshold():
    problem = problems.damped_oscillator()
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 2), 4
    )
    trace = train(problem, [models.TOModel(table)],
                  {"epochs": 4000, "lr": 0.05, "stop_loss": 0.5},
                  np.random.default_rng(0))
    assert len(trace.records) < 4000
    assert trace.records[-1].loss < 0.5


def test_patience_stop():
    """With a tiny learning rate the loss stalls and patience kicks in."""
    problem = small_problem()
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 1), 4
    )
    trace = train(problem, [models.TOModel(table)],
                  {"epochs": 3000, "lr": 1e-12, "stop_loss": None, "patience": 25},
                  np.random.default_rng(0))
    assert len(trace.records) <= 30


def test_train_is_deterministic():
    problem = problems.damped_oscillator(m=5)
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 1), 4
    )
    runs = []
    for _ in range(2):
        trace = train(problem, [models.TOModel(table)],
                      {"epochs": 40, "lr": 0.05, "stop_loss": None},
                      np.random.default_rng(123))
        runs.append(trace)
    assert [r.loss for r in runs[0].records] == [r.loss for r in runs[1].records]
    assert np.array_equal(runs[0].final_params[0], runs[1].final_params[0])


def test_coupled_models_share_rng_stream_deterministically():
    problem = problems.coupled_oscillators(m=4)
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 1), 4
    )
    t1 = train(problem, [models.TOModel(table), models.TOModel(table)],
               {"epochs": 10, "lr": 0.05, "stop_loss": None}, np.random.default_rng(9))
    t2 = train(problem, [models.TOModel(table), models.TOModel(table)],
               {"epochs": 10, "lr": 0.05, "stop_loss": None}, np.random.default_rng(9))
    for a, b in zip(t1.final_params, t2.final_params):
        assert np.array_equal(a, b)
    # the two functions get distinct initializations from one stream
    assert not np.array_equal(t1.final_params[0], t1.final_params[1])


@pytest.mark.parametrize("spec", ["original", "to-loc1", "fs-exact"])
@pytest.mark.parametrize("name", list(problems.PROBLEMS))
def test_run_reports_the_parameters_its_last_record_evaluated(name, spec):
    """A run's artifacts describe one parameter vector: the reported
    parameters give the last record's loss bit for bit, and the flipped
    model's inference reads what a fresh gather at them reads."""
    config = cli.spec_config(name, spec, 4, stop_loss=0.0)
    problem, trial_models, trace, _ = cli.execute(config)
    assert len(trace.records) == 4
    (total, _, _), _, _ = training.loss_gradients(problem, trial_models, trace.final_params)
    assert total == trace.records[-1].loss
    if spec == "fs-exact":
        points = cli.dense_points(problem)
        fresh = cli.build_models(config, problem, None)
        for model, new, params in zip(trial_models, fresh, trace.final_params):
            new.begin_epoch(params, np.random.default_rng(0))
            assert np.array_equal(model.values_at(params, points), new.values_at(params, points))


def test_counting_policy_covers_all_variants():
    for variant in ("original", "to", "fs"):
        policy = counting_policy(variant)
        assert set(policy) == {"precompute", "per_epoch", "inference"}
    with pytest.raises(ValueError):
        counting_policy("analog")


def gradient_case_models(case, problem):
    """One 4-qubit trial model per function: the original model in its probe
    or its row form, the trainable observable on the 1-local set, or the
    exact flipped model."""
    points, count = problem.eval_points, range(problem.n_functions)
    if case in ("probe", "row"):
        form = models.ProbeForm if case == "probe" else models.RowForm
        trial = [models.OriginalModel(4, 1, points) for _ in count]
        for model in trial:
            model.form = form(model)
        return trial
    if case == "to-loc1":
        table = models.precompute_to_table(points, problem.all_modes, pauli.enumerate_k_local(4, 1), 4)
        return [models.TOModel(table) for _ in count]
    return [models.FlippedModel(4, 1, points, mode="exact", max_order=problem.order) for _ in count]


@pytest.mark.parametrize("case", ["probe", "row", "to-loc1", "fs-exact"])
@pytest.mark.parametrize("name", list(problems.PROBLEMS))
def test_loss_gradients_are_the_derivatives_of_the_reported_loss(name, case):
    """Every gradient entry is a central difference of the total loss that
    ``loss_gradients`` reports, through the residual partials, the boundary
    targets and the model Jacobians."""
    problem = problems.PROBLEMS[name](3 if name == "twod_linear" else 4)
    trial = gradient_case_models(case, problem)
    rng = np.random.default_rng(5)
    params_list = [model.init_params(rng) for model in trial]

    def loss_and_grads(params_list):
        for model, params in zip(trial, params_list):
            if isinstance(model, models.FlippedModel):
                model.begin_epoch(params, rng)
        (total, _, _), _, grads = training.loss_gradients(problem, trial, params_list)
        return total, grads

    _, grads = loss_and_grads(params_list)
    h = 1e-6
    for fn, params in enumerate(params_list):
        central = np.zeros(len(params))
        for i in range(len(params)):
            step = np.zeros(len(params))
            step[i] = h
            plus = [p + step if f == fn else p for f, p in enumerate(params_list)]
            minus = [p - step if f == fn else p for f, p in enumerate(params_list)]
            central[i] = (loss_and_grads(plus)[0] - loss_and_grads(minus)[0]) / (2 * h)
        # an entry that vanishes is held to the gradient's scale instead
        np.testing.assert_allclose(grads[fn], central, rtol=1e-5, atol=1e-5 * np.abs(central).max())
