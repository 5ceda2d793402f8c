"""The three trial-function families: values, Jacobians, charges, tables."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from dqsolve import circuits, differentiation, models, pauli, problems, shadows, training
from dqsolve.statevector import (
    ConfigurationError,
    expectation,
    pauli_expectation_batch,
    pauli_tables,
)
from dqsolve.training import EvalCounter

EVAL_POINTS_1D = np.linspace(0.05, 0.95, 7)[:, None]


# ---------------------------------------------------------------------------
# basis functions

# The per-order basis the flipped model evaluated before its all-orders jet:
# one recurrence per derivative order, one product per column.  The jet is held to it bit for bit.


def reference_chebyshev(u, l_max, order):
    """T_l^(order)(u) for l = 0..l_max via the differentiated recurrence,
    carrying only the orders up to ``order``."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros(u.shape + (l_max + 1,))
    prev2 = np.zeros((order + 1,) + u.shape)
    prev1 = np.zeros((order + 1,) + u.shape)
    prev2[0] = 1.0
    out[..., 0] = 1.0 if order == 0 else 0.0
    if l_max >= 1:
        prev1[0] = u
        if order >= 1:
            prev1[1] = 1.0
        out[..., 1] = prev1[order]
    for l in range(2, l_max + 1):
        cur = np.zeros_like(prev1)
        for r in range(order + 1):
            cur[r] = 2.0 * u * prev1[r] - prev2[r]
            if r >= 1:
                cur[r] += 2.0 * r * prev1[r - 1]
        out[..., l] = cur[order]
        prev2, prev1 = prev1, cur
    return out


def reference_basis_matrix(u, count, dorders):
    """The product basis at points ``u`` (shape (m, D)) with one derivative
    order per dimension, shape (m, count), stacked column by column."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    dim = u.shape[1]
    indices = models.graded_multi_indices(dim, count)
    max_deg = max(max(ix) for ix in indices)
    per_dim = [reference_chebyshev(u[:, d], max_deg, dorders[d]) for d in range(dim)]
    cols = [np.prod([per_dim[d][:, ix[d]] for d in range(dim)], axis=0) for ix in indices]
    return np.stack(cols, axis=1)


def jet_column(u, l_max, order):
    """d^order/du^order of basis functions 0..l_max at the scalar ``u``,
    read off the jet."""
    return models.basis_matrix(np.array([[u]]), l_max + 1, order)[(order,)][0]


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(0, 8))
def test_chebyshev_values_match_numpy(u, l_max):
    ours = jet_column(u, l_max, 0)
    for l in range(l_max + 1):
        coeffs = [0.0] * l + [1.0]
        assert ours[l] == pytest.approx(npcheb.chebval(u, coeffs), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.9, 0.9), st.integers(1, 3), st.integers(2, 7))
def test_chebyshev_derivatives_match_numpy(u, order, l_max):
    ours = jet_column(u, l_max, order)
    for l in range(l_max + 1):
        coeffs = np.zeros(l + 1)
        coeffs[l] = 1.0
        expected = npcheb.chebval(u, npcheb.chebder(coeffs, order)) if l >= 1 else (
            0.0 if order >= 1 else 1.0
        )
        assert ours[l] == pytest.approx(expected, abs=1e-9)


def test_graded_multi_indices():
    assert models.graded_multi_indices(1, 4) == [(0,), (1,), (2,), (3,)]
    assert models.graded_multi_indices(2, 6) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]
    assert models.graded_multi_indices(3, 10) == [
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    # the tuples are built once; a caller's edit of its list does not reach the next call
    models.graded_multi_indices(3, 4).clear()
    assert len(models.graded_multi_indices(3, 4)) == 4


def test_basis_matrix_product_rule():
    pts = np.array([[0.3, 0.4]])
    jet = models.basis_matrix(pts, 6, 1)
    assert sorted(jet) == [(0, 0), (0, 1), (1, 0)]
    # graded order: T0, T1(x), T1(y), T2(x), T1(x) T1(y), T2(y), with T2(u) = 2u^2 - 1
    assert np.allclose(jet[0, 0][0], [1.0, 0.3, 0.4, -0.82, 0.12, -0.68])
    assert np.allclose(jet[1, 0][0], [0.0, 1.0, 0.0, 1.2, 0.4, 0.0])


@pytest.mark.parametrize("max_order", [0, 1, 2, 3])
@pytest.mark.parametrize("dim, count", [(1, 13), (1, 1), (2, 13), (2, 6)])
def test_basis_jet_matches_the_per_order_reference(dim, count, max_order):
    u = np.random.default_rng(dim * 10 + count).uniform(-1.5, 1.5, (21, dim))
    jet = models.basis_matrix(u, count, max_order)
    orders = [o for o in itertools.product(range(max_order + 1), repeat=dim) if sum(o) <= max_order]
    assert sorted(jet) == sorted(orders)
    for o in orders:
        reference = reference_basis_matrix(u, count, o)
        assert jet[o].flags.c_contiguous
        assert jet[o].tobytes() == reference.tobytes(), o
        # a matrix-vector product sums each row as over the stacked reference
        weights = np.linspace(-1.0, 1.0, count)
        assert (jet[o] @ weights).tobytes() == (reference @ weights).tobytes(), o


def reference_graded_multi_indices(dimension, count):
    """The graded order as it was written for one and two dimensions only."""
    if dimension == 1:
        return [(l,) for l in range(count)]
    found = []
    degree = 0
    while len(found) < count:
        for a in range(degree, -1, -1):
            found.append((a, degree - a))
            if len(found) == count:
                break
        degree += 1
    return found


@pytest.mark.parametrize("dimension", [1, 2])
def test_graded_multi_indices_keep_their_order_in_one_and_two_dimensions(dimension):
    for count in range(1, 81):
        got = models.graded_multi_indices(dimension, count)
        assert type(got) is list and got == reference_graded_multi_indices(dimension, count), count


# ---------------------------------------------------------------------------
# shared evaluation machinery


def test_runs_per_point():
    enc = {0: [0, 1, 2], 1: [3, 4]}
    assert models.runs_per_point(enc, ()) == 1
    assert models.runs_per_point(enc, (0,)) == 6
    assert models.runs_per_point(enc, (1,)) == 4
    assert models.runs_per_point(enc, (0, 1)) == 24
    assert models.runs_per_point(enc, (0, 0)) == 36
    assert models.runs_per_point(enc, (1, 1)) == 16


@pytest.mark.parametrize(
    "dimension, mode, param, order",
    [(1, (0,), "x0", 1), (1, (0, 0), "x0", 2), (2, (1,), "x1", 1)],
)
def test_mode_expectations_match_the_shift_rule_oracle(dimension, mode, param, order):
    # differentiation.d_dx writes the parameter-shift rule out on its own,
    # one expectation per shifted circuit and point
    model = models.OriginalModel(4, 2, np.zeros((1, dimension)))
    rng = np.random.default_rng(8)
    theta = rng.uniform(-np.pi, np.pi, len(model.rotation_params))
    points = rng.uniform(0.0, 1.0, (5, dimension))
    got = models.mode_expectations(
        model.circuit, model._bindings(points, theta), len(points), model.enc_by_dim, mode,
        model.cost,
    )[0]
    for j, point in enumerate(points):
        bindings = {f"x{d}": float(point[d]) for d in range(dimension)}
        bindings.update(zip(model.rotation_params, theta))
        oracle = differentiation.d_dx(model.circuit, bindings, model.observable, param, order)
        assert got[j] == pytest.approx(oracle, abs=1e-10)


def test_mode_expectations_match_direct_simulation():
    circuit = models.encoding_circuit(4, 1)
    enc = {0: circuit.gate_indices_for("x0")}
    strings = pauli.enumerate_k_local(4, 1)
    tables = pauli_tables([p.letters for p in strings])
    xs = np.array([0.2, 0.6])
    table = models.mode_expectations(circuit, {"x0": xs}, 2, enc, (), tables)
    for j, x in enumerate(xs):
        state = circuits.run_batch(circuit, {"x0": float(x)}, 1)
        for i, p in enumerate(strings):
            assert table[i, j] == pytest.approx(expectation(state, p)[0], abs=1e-12)


def test_adjoint_gradients_match_parameter_shift():
    rng = np.random.default_rng(5)
    circuit = circuits.compose(circuits.tower_feature_map(3, "x0"), circuits.hea(3, 2))
    obs = pauli.sum_of_z(3)
    bindings = {"x0": 0.45}
    bindings.update({p: float(rng.uniform(-np.pi, np.pi)) for p in circuit.variational_params})
    gate_indices = [circuit.gate_indices_for(p)[0] for p in circuit.variational_params]
    amps = circuits.run_batch(circuit, bindings, 1)
    lam = models.diagonal_table(obs)[1] * amps
    adj = models.adjoint_gradients(circuit, bindings, amps, lam, gate_indices)
    assert adj.shape == (len(gate_indices), 1)
    psr = differentiation.grad_variational(circuit, bindings, obs)
    assert np.allclose(adj[:, 0], psr, atol=1e-10)


def _swept_circuit_and_rows(rows):
    """An ansatz followed by a feature map, so the sweep unapplies gates with
    per-row angles; with per-row bindings, states and co-states."""
    rng = np.random.default_rng(9)
    circuit = circuits.compose(circuits.hea(3, 2), circuits.tower_feature_map(3, "x0"))
    bindings = {"x0": rng.uniform(-1.0, 1.0, rows)}
    bindings.update({p: float(rng.uniform(-np.pi, np.pi)) for p in circuit.variational_params})
    gate_indices = [circuit.gate_indices_for(p)[0] for p in circuit.variational_params]
    amps = circuits.run_batch(circuit, bindings, rows)
    lam = models.diagonal_table(pauli.sum_of_z(3))[1] * amps
    return circuit, bindings, gate_indices, amps, lam


def test_adjoint_gradients_leave_their_inputs_unchanged():
    circuit, bindings, gate_indices, amps, lam = _swept_circuit_and_rows(4)
    before = amps.copy(), lam.copy()
    models.adjoint_gradients(circuit, bindings, amps, lam, gate_indices)
    assert np.array_equal(amps, before[0]) and np.array_equal(lam, before[1])


def test_adjoint_gradients_of_a_batch_equal_each_row_swept_alone():
    circuit, bindings, gate_indices, amps, lam = _swept_circuit_and_rows(5)
    batch = models.adjoint_gradients(circuit, bindings, amps, lam, gate_indices)
    for r in range(5):
        def pick(value):
            return value if np.ndim(value) == 0 else value[r : r + 1]

        alone = models.adjoint_gradients(
            circuit,
            {name: pick(value) for name, value in bindings.items()},
            amps[r : r + 1],
            lam[r : r + 1],
            gate_indices,
        )
        assert np.array_equal(alone[:, 0], batch[:, r])


def test_adjoint_gradients_read_the_sweep_at_every_gate():
    # every listed rotation of the per-row swept circuit, against the shift rule
    circuit, bindings, gate_indices, amps, lam = _swept_circuit_and_rows(3)
    adj = models.adjoint_gradients(circuit, bindings, amps, lam, gate_indices)
    obs = pauli.sum_of_z(3)
    for r in range(3):
        row = {name: value[r] if np.ndim(value) else value for name, value in bindings.items()}
        assert np.allclose(adj[:, r], differentiation.grad_variational(circuit, row, obs), atol=1e-10)


def test_mode_variational_grads_need_an_rx_input_prefix():
    # the shifted input gates have to form the prefix, which the sweep never unapplies
    ansatz_first = circuits.compose(circuits.hea(2, 1), circuits.tower_feature_map(2, "x0"))
    cost = models.diagonal_table(pauli.sum_of_z(2))
    with pytest.raises(ConfigurationError):
        models.mode_variational_grads(ansatz_first, {"x0": 0.3}, 1, {0: [7, 8]}, (0,), cost, [0])


@pytest.mark.parametrize("dimension, mode", [(1, ()), (1, (0,)), (1, (0, 0)), (2, (1,))])
def test_adjoint_sweeps_read_the_mode_expectation(dimension, mode):
    # row 0 combines the shift configurations' runs; mode_expectations reads
    # exact jets.  At mode () both read the one unshifted run, bit for bit;
    # a derivative is summed another way, so it agrees to rounding only
    model = models.OriginalModel(4, 2, np.zeros((1, dimension)))
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi, len(model.rotation_params))
    points = rng.uniform(0.0, 1.0, (6, dimension))
    bindings = model._bindings(points, theta)
    gate_indices = [model.circuit.gate_indices_for(p)[0] for p in model.rotation_params]
    stacked = models.mode_variational_grads(
        model.circuit, bindings, len(points), model.enc_by_dim, mode, model.cost, gate_indices
    )
    assert stacked.shape == (1 + len(gate_indices), len(points))
    expected = models.mode_expectations(
        model.circuit, bindings, len(points), model.enc_by_dim, mode, model.cost
    )[0]
    if mode:
        assert np.allclose(stacked[0], expected, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(stacked[0], expected)


JET_MODES = [(1, ()), (1, (0,)), (1, (0, 0)), (2, ()), (2, (0,)), (2, (1,)), (2, (0, 0)),
             (2, (0, 1)), (2, (1, 1))]


@pytest.mark.parametrize("dimension, mode", JET_MODES)
def test_original_jets_match_the_shift_rule_reference(dimension, mode):
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1.0, (6, dimension))
    model = models.OriginalModel(4, 2, points)
    params = model.init_params(rng)
    params[-2:] = [1.7, -0.4]
    theta, idx = params[:-2], np.array([4, 0, 2])
    bindings = model._bindings(points[idx], theta)
    stacked = models.mode_variational_grads(
        model.circuit, bindings, len(idx), model.enc_by_dim, mode, model.cost, model.gate_indices
    )
    shift_values = stacked[0]
    values = model.values(params, idx, mode)
    jac = model.jacobian(params, idx, mode)
    shift = 0.0 if mode else params[-1]
    assert np.allclose(values, params[-2] * shift_values + shift, rtol=0.0, atol=1e-10)
    assert np.allclose(jac[:, :-2], params[-2] * stacked[1:].T, rtol=0.0, atol=1e-10)
    assert np.allclose(jac[:, -2], shift_values, rtol=0.0, atol=1e-10)
    assert np.array_equal(jac[:, -1], np.full(len(idx), 0.0 if mode else 1.0))
    if len(set(mode)) == 1:
        # d_dx writes the parameter-shift rule out on its own, one point at a time
        for row, i in enumerate(idx):
            point = {f"x{d}": float(points[i, d]) for d in range(dimension)}
            point.update(zip(model.rotation_params, theta))
            oracle = differentiation.d_dx(
                model.circuit, point, model.observable, f"x{mode[0]}", len(mode)
            )
            assert values[row] == pytest.approx(params[-2] * oracle, abs=1e-10)


def test_original_gather_follows_the_parameters():
    points = np.random.default_rng(2).uniform(0.0, 1.0, (5, 2))
    model = models.OriginalModel(4, 1, points)
    rng = np.random.default_rng(9)
    theta_a, theta_b = model.init_params(rng), model.init_params(rng)
    idx = np.arange(5)

    def fresh(params, mode):
        return models.OriginalModel(4, 1, points).values(params, idx, mode)

    first = {mode: model.values(theta_a, idx, mode) for mode in [(), (1,)]}
    for params in (theta_b, theta_a):
        for mode in [(), (1,)]:
            assert np.array_equal(model.values(params, idx, mode), fresh(params, mode))
    for mode in [(), (1,)]:
        assert np.array_equal(model.values(theta_a, idx, mode), first[mode])


def test_original_model_keeps_its_own_evaluation_points():
    points = np.random.default_rng(4).uniform(0.0, 1.0, (5, 1))
    model = models.OriginalModel(3, 1, points)
    params = model.init_params(np.random.default_rng(0))
    before = model.values(params, np.arange(5), (0,))
    points += 0.25   # a caller's in-place edit of the array it passed in
    assert np.array_equal(model.values(params, np.arange(5), (0,)), before)
    with pytest.raises(ValueError):
        model.eval_points[0, 0] = 0.0


def test_jet_states_need_an_rx_input_prefix():
    ansatz_first = circuits.compose(circuits.hea(2, 1), circuits.tower_feature_map(2, "x0"))
    with pytest.raises(ConfigurationError):
        models.jet_states(ansatz_first, {0: [6, 7]}, {"x0": 0.3}, 1, [()])


@pytest.fixture
def run_batch_shifts(monkeypatch):
    """The ``shifts`` argument of every ``run_batch`` call the models make."""
    seen = []
    run_batch = models.run_batch

    def recording(circuit, bindings, batch, shifts=None):
        seen.append(shifts)
        return run_batch(circuit, bindings, batch, shifts)

    monkeypatch.setattr(models, "run_batch", recording)
    return seen


@pytest.mark.parametrize("dimension, modes", [(1, [(), (0,), (0, 0)]), (2, [(), (1,)])])
def test_input_derivatives_never_run_a_shifted_circuit(run_batch_shifts, tmp_path, dimension, modes):
    """The parameter-shift rule only sets the charge: the TO table and the
    inference of both circuit models, a table read back from disk included,
    compute every input derivative from exact jets."""
    rng = np.random.default_rng(7)
    points, dense = rng.uniform(0.0, 1.0, (4, dimension)), rng.uniform(0.0, 1.0, (3, dimension))
    table = models.precompute_to_table(points, modes, pauli.enumerate_k_local(4, 1), 4)
    path = tmp_path / "table.npz"
    models.save_to_table(table, path)
    trial_models = [
        models.TOModel(table), models.TOModel(models.load_to_table(path)),
        models.OriginalModel(4, 1, points),
    ]
    for mode in modes:
        for model in trial_models:
            model.values_at(model.init_params(rng), dense, mode)
    assert run_batch_shifts and not any(run_batch_shifts)


@pytest.fixture
def run_batch_rows(monkeypatch):
    """The batch size of every ``run_batch`` call and the rows of every
    ``adjoint_gradients`` sweep the models make."""
    seen = {"runs": [], "sweeps": []}
    run_batch, adjoint_gradients = models.run_batch, models.adjoint_gradients

    def counted_run(circuit, bindings, batch, shifts=None):
        seen["runs"].append(batch)
        return run_batch(circuit, bindings, batch, shifts)

    def counted_sweep(circuit, bindings, amps, *args, **kwargs):
        seen["sweeps"].append(amps.shape[0])
        return adjoint_gradients(circuit, bindings, amps, *args, **kwargs)

    monkeypatch.setattr(models, "run_batch", counted_run)
    monkeypatch.setattr(models, "adjoint_gradients", counted_sweep)
    return seen


@pytest.mark.parametrize("dimension, mode, runs", [(1, (), 1), (2, (1,), 4)])
def test_original_jacobian_runs_each_shift_configuration_once(run_batch_rows, dimension, mode, runs):
    """The accountant charges each of the mode's ``runs`` shift configurations once
    per point and rotation shift pair; the row form (5 points) runs the feature
    map once per model and then the mode's jets at every point, the probe form
    (30 points) runs no feature map and the 3**4 probe states per parameter
    vector."""
    for n_pts, form, once, rows in [(5, models.RowForm, [5], []), (30, models.ProbeForm, [], [81])]:
        run_batch_rows["runs"].clear()
        counter = EvalCounter()
        model = models.OriginalModel(4, 1, np.full((n_pts, dimension), 0.3), counter=counter)
        assert type(model.form) is form
        assert models.runs_per_point(model.enc_by_dim, mode) == runs
        rng = np.random.default_rng(0)
        model.jacobian(model.init_params(rng), np.arange(n_pts), mode)
        assert run_batch_rows["runs"] == once + rows   # the feature map, then the probes
        assert counter.breakdown["per_epoch"] == n_pts * runs * 2 * len(model.rotation_params)
        model.jacobian(model.init_params(rng), np.arange(n_pts), mode)
        assert run_batch_rows["runs"] == once + rows + rows


def test_loss_gradients_runs_one_forward_per_jet(run_batch_rows, monkeypatch):
    problem = problems.twod_linear(3)
    counter = EvalCounter()
    model = models.OriginalModel(4, 1, problem.eval_points, counter=counter)
    assert type(model.form) is models.RowForm   # 81 probe rows > 4 * 12 points
    params = [model.init_params(np.random.default_rng(0))]
    forwards = []
    jet_states = models.jet_states

    def counted_forward(*args, **kwargs):
        forwards.append(args[4])
        return jet_states(*args, **kwargs)

    monkeypatch.setattr(models, "jet_states", counted_forward)
    training.loss_gradients(problem, [model], params)
    assert problem.all_modes == ((), (1,))
    assert forwards == [[()], [(1,)]]     # one forward per jet of all_modes
    assert run_batch_rows["runs"] == [12]  # the feature map, once per model
    assert len(run_batch_rows["sweeps"]) == 2   # the grid Jacobian at (1,), the boundary one at ()
    assert counter.breakdown["per_epoch"] == training.expected_charges(problem, [model])["per_epoch"]
    training.loss_gradients(problem, [model], params)
    assert len(forwards) == 2     # the same parameters reuse the gathered jets
    training.loss_gradients(problem, [model], [model.init_params(np.random.default_rng(1))])
    assert len(forwards) == 4 and run_batch_rows["runs"] == [12]


@pytest.mark.parametrize("per_dim", [5, 20])
def test_probe_form_simulates_3_to_the_n_rows_per_parameter_vector(run_batch_rows, per_dim):
    """Simulated rows per epoch stay 3**n at 30 and at 420 points, with no
    feature-map run; the charges grow."""
    problem = problems.twod_linear(per_dim)
    n_pts = problem.eval_points.shape[0]
    counter = EvalCounter()
    model = models.OriginalModel(4, 1, problem.eval_points, counter=counter)
    assert type(model.form) is models.ProbeForm
    rng = np.random.default_rng(3)
    training.loss_gradients(problem, [model], [model.init_params(rng)])
    assert run_batch_rows["runs"] == [81]   # the probes only: the features are closed-form
    assert run_batch_rows["sweeps"] == [81]
    for _epoch in range(2):
        training.loss_gradients(problem, [model], [model.init_params(rng)])
    assert run_batch_rows["runs"] == [81, 81, 81]
    assert run_batch_rows["sweeps"] == [81, 81, 81]
    per_epoch = training.expected_charges(problem, [model])["per_epoch"]
    assert counter.breakdown["per_epoch"] == 3 * per_epoch
    assert per_epoch > 81 * n_pts


@pytest.mark.parametrize(
    "n_qubits, n_points, probe",
    [(4, 420, True), (4, 21, True), (4, 22, True), (6, 420, True), (6, 21, False),
     (6, 22, False), (8, 21, False), (8, 420, False), (7, 601, False), (8, 1722, False),
     (12, 420, False), (12, 10**6, False)],
)
def test_form_selection_rule(run_batch_rows, n_qubits, n_points, probe):
    """The measured crossover table's (n, points) pairs and n = 12; choosing a
    form, like building a model, simulates nothing."""
    assert models.probe_form_fits(n_qubits, n_points) is probe
    model = models.OriginalModel(n_qubits, 1, np.full((n_points, 1), 0.5))
    assert type(model.form) is (models.ProbeForm if probe else models.RowForm)
    assert run_batch_rows == {"runs": [], "sweeps": []}


def simulated_probe_features(model, points, mode):
    """The probe form's features read off simulated feature-map jets: the
    {I, Y, Z} strings' expectations by ``read_jet_terms`` on ``prefix_jets``,
    mapped to the probe states by the n-fold Kronecker power of
    ``_PROBE_MAP``."""
    n = model.n_qubits
    phi = models.prefix_jets(
        model.circuit, model.enc_by_dim, models._input_bindings(points), len(points),
        models.term_jets(mode),
    )
    tables = pauli_tables(["".join(p) for p in itertools.product("IYZ", repeat=n)])
    paulis = models.read_jet_terms(phi, mode, tables).T
    feats = paulis.reshape((-1,) + (3,) * n)
    for _ in range(n):   # one qubit axis at a time
        feats = np.tensordot(feats, models._PROBE_MAP, axes=(1, 0))
    return feats.reshape(paulis.shape)


PROBE_FEATURE_CASES = [(n, dim) for n in range(1, 7) for dim in (1, 2) if n % dim == 0]


@pytest.mark.parametrize("n_qubits, dimension", PROBE_FEATURE_CASES)
def test_probe_features_match_the_simulated_feature_map(n_qubits, dimension):
    """The closed-form features equal those read off the simulated jets, in
    every mode up to second order, and a point alone gets its batch row."""
    points = np.random.default_rng(n_qubits).uniform(-1.0, 1.0, size=(9, dimension))
    model = models.OriginalModel(n_qubits, 1, points)
    form = models.ProbeForm(model)
    for order in range(3):
        for mode in itertools.product(range(dimension), repeat=order):
            feats = form.features(mode)
            assert feats.shape == (len(points), 3**n_qubits)
            reference = simulated_probe_features(model, points, mode)
            tol = 1e-12 * np.abs(reference).max()
            assert np.allclose(feats, reference, rtol=0.0, atol=tol), mode
            alone = models.probe_features(model.circuit, model.enc_by_dim, points[4:5], mode)
            assert np.array_equal(alone[0], feats[4]), mode


def test_probe_features_refuse_a_third_order_mode():
    model = models.OriginalModel(2, 1, EVAL_POINTS_1D)
    with pytest.raises(ConfigurationError, match="above second order"):
        models.ProbeForm(model).features((0, 0, 0))


def _forms_case(problem_name, n_qubits):
    problem = problems.PROBLEMS[problem_name](4)
    model = models.OriginalModel(n_qubits, 2, problem.eval_points)
    params = model.init_params(np.random.default_rng(n_qubits))
    m = problem.grid.size
    # grid points out of order, and every boundary point
    idx = np.concatenate([[m - 1, 0, m // 2], m + np.arange(len(problem.boundary))])
    return problem, model, params[:-2], idx


FORM_CASES = [(name, n) for name in problems.PROBLEMS for n in (2, 3, 4)
              if name != "twod_linear" or n % 2 == 0]


@pytest.mark.parametrize("problem_name, n_qubits", FORM_CASES)
def test_probe_and_row_forms_match_the_shift_rule_reference(problem_name, n_qubits):
    problem, model, theta, idx = _forms_case(problem_name, n_qubits)
    points = model.eval_points[idx]
    forms = [models.ProbeForm(model), models.RowForm(model)]
    modes = set(problem.all_modes) | {(d,) for d in range(problem.dimension)}
    modes |= {(d, e) for d in range(problem.dimension) for e in range(problem.dimension)}
    for mode in sorted(modes, key=lambda t: (len(t), t)):
        reference = models.mode_variational_grads(
            model.circuit, model._bindings(points, theta), len(idx), model.enc_by_dim, mode,
            model.cost, model.gate_indices,
        )
        for form in forms:
            raw, grads = form.raw(theta, idx, mode), form.theta_grads(theta, idx, mode)
            assert grads.shape == (len(idx), len(model.rotation_params))
            assert np.allclose(raw, reference[0], rtol=0.0, atol=1e-12), (type(form), mode)
            assert np.allclose(grads, reference[1:].T, rtol=0.0, atol=1e-12), (type(form), mode)


def test_jet_terms_list_each_pair_once():
    for order in range(3):
        for mode in itertools.product(range(2), repeat=order):
            pairs = [(u, v) for _w, u, v in models.jet_terms(mode)]
            assert len(pairs) == len(set(pairs)), mode


def test_term_jets_list_each_jet_once_in_first_use_order():
    for order in range(3):
        for mode in itertools.product(range(2), repeat=order):
            used = [jet for _w, u, v in models.jet_terms(mode) for jet in (u, v)]
            jets = models.term_jets(mode)
            assert len(jets) == len(set(jets)) and set(jets) == set(used), mode
            assert [used.index(jet) for jet in jets] == sorted(used.index(jet) for jet in jets), mode
    assert models.term_jets((0, 1)) == [(0, 1), (), (0,), (1,)]
    assert models.term_jets((1, 1)) == [(1, 1), (), (1,)]


@pytest.mark.parametrize("problem_name", list(problems.PROBLEMS))
def test_read_jet_terms_on_the_cost_is_the_row_form_sum(problem_name):
    """On the ``diagonal_table`` cost, the term reader gives the sum the row
    form read before it used the reader, from C psi kept per jet, bit for bit."""
    problem = problems.PROBLEMS[problem_name](4)
    model = models.OriginalModel(4, 2, problem.eval_points)
    theta = model.init_params(np.random.default_rng(5))[:-2]
    n_pts = len(model.eval_points)
    bindings = model._bindings(model.eval_points, theta)
    dims = range(problem.dimension)
    modes = set(problem.all_modes) | {(d,) for d in dims} | set(itertools.product(dims, repeat=2))
    for mode in sorted(modes, key=lambda t: (len(t), t)):
        jets = models.term_jets(mode)
        amps = models.jet_states(model.circuit, model.enc_by_dim, bindings, n_pts, jets)
        lam = model.cost[1] * amps
        rows = {jet: amps[j * n_pts : (j + 1) * n_pts] for j, jet in enumerate(jets)}
        costates = {jet: lam[j * n_pts : (j + 1) * n_pts] for j, jet in enumerate(jets)}
        expected = sum(
            w * np.einsum("bi,bi->b", np.conj(rows[u]), costates[v]).real
            for w, u, v in models.jet_terms(mode)
        )
        got = models.read_jet_terms(rows, mode, model.cost)
        assert got.shape == (1, n_pts)
        assert np.array_equal(got[0], expected), mode


def test_row_form_keeps_one_state_array_per_jet():
    problem = problems.stationary_burgers(8)
    model = models.OriginalModel(4, 1, problem.eval_points)
    assert type(model.form) is models.RowForm
    training.loss_gradients(problem, [model], [model.init_params(np.random.default_rng(2))])
    jets = model.form._jets
    assert list(jets) == [(), (0,), (0, 0)]
    for jet, states in jets.items():
        assert type(states) is np.ndarray, jet
        assert states.shape == (len(problem.eval_points), 2**4), jet


def test_models_read_a_grid_slice_as_the_grid_indices():
    problem = problems.stationary_burgers(4)
    m = problem.grid.size
    rng = np.random.default_rng(4)
    table = models.precompute_to_table(
        problem.eval_points, problem.all_modes, pauli.enumerate_k_local(4, 1), 4
    )
    flipped = models.FlippedModel(4, 1, problem.eval_points, max_order=2)
    for model in (models.TOModel(table), flipped, models.OriginalModel(4, 1, problem.eval_points)):
        params = model.init_params(rng)
        if model is flipped:
            model.begin_epoch(params, rng)
        for mode in problem.all_modes:
            for method in (model.values, model.jacobian):
                assert np.array_equal(method(params, slice(0, m), mode), method(params, np.arange(m), mode))


# ---------------------------------------------------------------------------
# original protocol


def test_original_values_match_direct_simulation():
    model = models.OriginalModel(3, 1, EVAL_POINTS_1D)
    rng = np.random.default_rng(0)
    params = model.init_params(rng)
    idx = np.array([0, 3])
    vals = model.values(params, idx)
    theta = params[:-2]
    for row, i in enumerate(idx):
        bindings = {"x0": float(EVAL_POINTS_1D[i, 0])}
        bindings.update({p: theta[k] for k, p in enumerate(model.rotation_params)})
        state = circuits.run_batch(model.circuit, bindings, 1)
        expected = params[-2] * expectation(state, model.observable)[0] + params[-1]
        assert vals[row] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mode", [(), (0,), (0, 0)])
def test_original_jacobian_matches_finite_differences(mode):
    model = models.OriginalModel(3, 2, EVAL_POINTS_1D)
    rng = np.random.default_rng(1)
    params = model.init_params(rng)
    idx = np.arange(3)
    jac = model.jacobian(params, idx, mode)
    h = 1e-5
    for k in range(model.n_params):
        plus, minus = params.copy(), params.copy()
        plus[k] += h
        minus[k] -= h
        fd = (model.values(plus, idx, mode) - model.values(minus, idx, mode)) / (2 * h)
        assert np.allclose(jac[:, k], fd, atol=1e-6), model.param_names[k]


def test_original_charges():
    counter = EvalCounter()
    model = models.OriginalModel(3, 1, EVAL_POINTS_1D, counter=counter)
    params = model.init_params(np.random.default_rng(0))
    idx = np.arange(4)
    model.values(params, idx, ())
    assert counter.total == 4                       # 1 per point
    model.values(params, idx, (0,))
    assert counter.total == 4 + 4 * 2 * 3           # 2 * n_enc per point
    counter2 = EvalCounter()
    model2 = models.OriginalModel(3, 1, EVAL_POINTS_1D, counter=counter2)
    model2.jacobian(params, idx, (0,))
    n_rot = len(model2.rotation_params)
    assert counter2.total == 4 * (2 * 3) * 2 * n_rot


def test_original_2d_uses_split_map():
    pts = np.array([[0.1, 0.2], [0.5, 0.7]])
    model = models.OriginalModel(4, 1, pts)
    assert len(model.enc_by_dim[0]) == 2
    assert len(model.enc_by_dim[1]) == 2


# ---------------------------------------------------------------------------
# trainable observable


def test_to_table_matches_direct_simulation():
    strings = pauli.enumerate_k_local(4, 1)
    table = models.precompute_to_table(EVAL_POINTS_1D, [(), (0,)], strings, 4)
    circuit = models.encoding_circuit(4, 1)
    for i, x in enumerate(EVAL_POINTS_1D[:, 0]):
        state = circuits.run_batch(circuit, {"x0": float(x)}, 1)
        for j, p in enumerate(strings):
            assert table.entries[()][i, j] == pytest.approx(expectation(state, p)[0], abs=1e-12)


def test_to_precompute_charge_formula():
    counter = EvalCounter()
    strings = pauli.enumerate_k_local(4, 2)
    models.precompute_to_table(EVAL_POINTS_1D, [(), (0,)], strings, 4, counter=counter)
    d, n_pts, n_enc = len(strings), EVAL_POINTS_1D.shape[0], 4
    assert counter.total == d * n_pts * (1 + 2 * n_enc)
    assert counter.breakdown["precompute"] == counter.total


def test_to_model_is_linear_and_free():
    counter = EvalCounter()
    strings = pauli.enumerate_k_local(4, 1)
    table = models.precompute_to_table(EVAL_POINTS_1D, [(), (0,)], strings, 4, counter=counter)
    before = counter.total
    model = models.TOModel(table, counter=counter)
    rng = np.random.default_rng(0)
    p1 = model.init_params(rng)
    p2 = model.init_params(rng)
    idx = np.arange(len(table.points))
    # alpha_s fixed: values are linear in the alpha block
    lin = p1.copy()
    lin[:-1] = p1[:-1] + p2[:-1]
    assert np.allclose(
        model.values(lin, idx), model.values(p1, idx) + model.values(np.r_[p2[:-1], p1[-1]], idx)
    )
    model.jacobian(p1, idx, (0,))
    assert counter.total == before  # training-time evaluations are free


def test_to_model_jacobian_allocates_only_its_result():
    """At the all-strings n = 5 Burgers shape (20 grid rows, d = 1024) the
    Jacobian is filled in place: a (points, d) temporary would double the
    peak, and each call's fresh mmap of it costs page faults every epoch."""
    rng = np.random.default_rng(0)
    d, n_pts, m = 1024, 22, 20
    table = models.TOTable(
        points=np.linspace(0.0, 1.0, n_pts)[:, None], modes=((),),
        labels=tuple(f"s{j}" for j in range(d)), entries={(): rng.normal(size=(n_pts, d))},
    )
    model = models.TOModel(table)
    params = model.init_params(rng)
    tracemalloc.start()
    try:
        jac = model.jacobian(params, slice(0, m), ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * jac.nbytes
    rows = table.entries[()][:m]
    assert np.array_equal(jac[:, :-1], params[-1] * rows)
    assert np.array_equal(jac[:, -1], rows @ params[:-1])


def test_to_model_off_table_inference_charges():
    counter = EvalCounter()
    strings = pauli.enumerate_k_local(4, 1)
    table = models.precompute_to_table(EVAL_POINTS_1D, [()], strings, 4, counter=counter)
    model = models.TOModel(table, counter=counter)
    params = model.init_params(np.random.default_rng(0))
    before = counter.total
    fresh = np.array([[0.123], [0.456], [0.789]])
    vals = model.values_at(params, fresh, ())
    assert counter.total - before == len(strings) * 3
    assert counter.breakdown["inference"] == len(strings) * 3
    # off-table values agree with the table construction on shared points
    on_table = model.values(params, np.array([0]))
    again = model.values_at(params, EVAL_POINTS_1D[:1], ())
    assert again[0] == pytest.approx(on_table[0], abs=1e-12)
    assert vals.shape == (3,)


def test_to_table_save_load_round_trip(tmp_path):
    strings = pauli.enumerate_k_local(4, 2)
    table = models.precompute_to_table(EVAL_POINTS_1D, [(), (0,)], strings, 4)
    path = tmp_path / "table.npz"
    models.save_to_table(table, path)
    clone = models.load_to_table(path)
    assert clone.labels == table.labels
    assert clone.modes == table.modes
    assert np.array_equal(clone.points, table.points)
    for mode in table.modes:
        assert np.array_equal(clone.entries[mode], table.entries[mode])
    assert clone.provenance["ub_seed"] == table.provenance["ub_seed"]


def test_to_table_with_matrix_keys_loads(tmp_path):
    # tables written before the fixed-matrix gate kinds were removed give every
    # provenance gate a "matrix": null key; they load and infer bit for bit
    strings = pauli.enumerate_k_local(4, 2)
    table = models.precompute_to_table(EVAL_POINTS_1D, [(), (0,)], strings, 4)
    provenance = json.loads(json.dumps(table.provenance))
    for gate in provenance["circuit"]["gates"]:
        gate["matrix"] = None
    header = json.dumps({"modes": [[], [0]], "labels": list(table.labels), "provenance": provenance})
    path = tmp_path / "old_table.npz"
    np.savez(path, points=table.points, header=np.frombuffer(header.encode(), dtype=np.uint8),
             mode_value=table.entries[()], mode_0=table.entries[(0,)])
    old, fresh = models.TOModel(models.load_to_table(path)), models.TOModel(table)
    params, idx = fresh.init_params(np.random.default_rng(4)), np.arange(len(EVAL_POINTS_1D))
    dense = np.linspace(0.0, 1.0, 11)[:, None]
    for mode in [(), (0,)]:
        assert np.array_equal(old.values(params, idx, mode), fresh.values(params, idx, mode))
        assert np.array_equal(old.values_at(params, dense, mode), fresh.values_at(params, dense, mode))


def test_to_model_unknown_mode_rejected():
    strings = pauli.enumerate_k_local(4, 1)
    table = models.precompute_to_table(EVAL_POINTS_1D, [()], strings, 4)
    model = models.TOModel(table)
    params = model.init_params(np.random.default_rng(0))
    with pytest.raises(KeyError):
        model.values(params, np.array([0]), (0, 0))


# ---------------------------------------------------------------------------
# flipped shadow model


def test_flipped_jacobian_matches_finite_differences():
    model = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact")
    rng = np.random.default_rng(2)
    params = model.init_params(rng)
    idx = np.arange(4)
    for mode in [(), (0,)]:
        model.begin_epoch(params, rng)
        jac = model.jacobian(params, idx, mode)
        h = 1e-6
        for k in range(model.n_params):
            plus, minus = params.copy(), params.copy()
            plus[k] += h
            minus[k] -= h
            model.begin_epoch(plus, rng)
            up = model.values(plus, idx, mode)
            model.begin_epoch(minus, rng)
            down = model.values(minus, idx, mode)
            fd = (up - down) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-5), (mode, model.param_names[k])
    model.begin_epoch(params, rng)


def test_flipped_epoch_charges():
    budget = shadows.ShadowBudget()
    counter = EvalCounter()
    model = models.FlippedModel(
        4, 2, EVAL_POINTS_1D, mode="exact", budget=budget, counter=counter
    )
    params = model.init_params(np.random.default_rng(0))
    n_rot = len(model.rotation_params)
    # every gather is the state and its 2p shifted companions
    for epoch in (1, 2):
        model.begin_epoch(params, np.random.default_rng(1))
        assert counter.total == counter.breakdown["per_epoch"] == epoch * (1 + 2 * n_rot) * model.snapshots
    # only begin_epoch gathers: a read with nothing gathered, or at rotation
    # angles other than the gathered ones, is refused and charges nothing; the
    # affine parameters do not enter the gather, so reads at other ones share it
    fresh = models.FlippedModel(4, 2, EVAL_POINTS_1D, mode="exact", counter=EvalCounter())
    idx = np.arange(3)
    rotated, affine = params.copy(), params.copy()
    rotated[0] += 1e-3
    affine[n_rot:] += [0.5, -0.25, 0.125, 2.0]

    def reads(m):
        return (m.values, m.jacobian, lambda params, _idx: m.values_at(params, EVAL_POINTS_1D))

    for unread, read in zip(reads(fresh), reads(model)):
        with pytest.raises(RuntimeError, match="begin_epoch"):
            unread(params, idx)
        with pytest.raises(RuntimeError, match="begin_epoch"):
            read(rotated, idx)
        assert np.all(np.isfinite(read(affine, idx)))
    assert counter.total == 2 * (1 + 2 * n_rot) * model.snapshots
    assert fresh.counter.total == 0


@pytest.mark.parametrize("mode", ["exact", "shadow"])
def test_flipped_gathers_every_state_in_one_batch(mode):
    # reference: one batch-of-one run per state, shadows collected in row
    # order; row 0 is the state, rows 1 + 2k and 2 + 2k its +pi/2 and -pi/2
    # shifts in rotation k
    model = models.FlippedModel(3, 2, EVAL_POINTS_1D, mode=mode)
    params = model.init_params(np.random.default_rng(6))
    n_rot = len(model.rotation_params)
    model.begin_epoch(params, np.random.default_rng(12))
    assert model._exps.shape == (1 + 2 * n_rot, model.n_basis)
    rng = np.random.default_rng(12)
    bindings = {pid: params[i] for i, pid in enumerate(model.rotation_params)}
    tables = pauli_tables([p.letters for p in model.pauli_set])
    gates = [model.circuit.gate_indices_for(pid)[0] for pid in model.rotation_params]
    row_shifts = [{}] + [{gates[k]: sign * models.SHIFT} for k in range(n_rot) for sign in (+1, -1)]
    expected = []
    for shifts in row_shifts:
        amps = circuits.run_batch(model.circuit, bindings, 1, shifts=shifts)
        if mode == "exact":
            expected.append(pauli_expectation_batch(amps, tables)[0])
        else:
            shadow = shadows.collect(amps, model.snapshots, rng)
            expected.append(np.array(
                [shadows.estimate_pauli(shadow, [p], model.n_batches)[0, 0] for p in model.pauli_set]
            ))
    for row, want in enumerate(expected):
        assert np.array_equal(model._exps[row], want), row


def test_flipped_shadow_epoch_reads_each_state_in_one_call(monkeypatch):
    model = models.FlippedModel(4, 2, EVAL_POINTS_1D, mode="shadow")
    params = model.init_params(np.random.default_rng(6))
    estimates, collected, rotations = [], [], []   # rotations: (qubit, rows) per kernel call
    estimate_pauli, collect, rotate = shadows.estimate_pauli, shadows.collect, shadows.apply_matrix_batch

    def counting_estimate(*args, **kwargs):
        estimates.append(args[1])
        return estimate_pauli(*args, **kwargs)

    def counting_collect(*args, **kwargs):
        collected.append(collect(*args, **kwargs))
        return collected[-1]

    def counting_rotate(amps, n, q, matrix):
        rotations.append((q, amps.shape[0]))
        rotate(amps, n, q, matrix)

    monkeypatch.setattr(shadows, "estimate_pauli", counting_estimate)
    monkeypatch.setattr(shadows, "collect", counting_collect)
    monkeypatch.setattr(shadows, "apply_matrix_batch", counting_rotate)
    model.begin_epoch(params, np.random.default_rng(12))
    n_states = 1 + 2 * len(model.rotation_params)
    # one collect and one estimate for all 1 + 2p states
    assert len(estimates) == 1 and estimates[0] is model.pauli_set
    assert len(collected) == 1
    bases = collected[0].bases
    assert bases.shape == (n_states, model.snapshots, 4)
    # distinct (state, setting) pairs drawn, at most min(M, 3**n) per state
    pairs = sum(len(np.unique(state, axis=0)) for state in bases)
    cap = min(model.snapshots, 3**4)
    assert model.snapshots > cap   # per-snapshot rotation would exceed the cap
    assert pairs <= n_states * cap
    for q in range(4):
        rotated = sum(rows for qubit, rows in rotations if qubit == q)
        assert 0 < rotated <= pairs


def test_flipped_shadow_mode_approaches_exact():
    rng = np.random.default_rng(3)
    pts = EVAL_POINTS_1D
    exact = models.FlippedModel(4, 1, pts, mode="exact")
    params = exact.init_params(rng)
    exact.begin_epoch(params, rng)
    target = exact.values(params, np.arange(len(pts)))
    big = shadows.ShadowBudget(c0=3000.0)
    noisy = models.FlippedModel(4, 1, pts, mode="shadow", budget=big)
    noisy.begin_epoch(params, np.random.default_rng(4))
    approx = noisy.values(params, np.arange(len(pts)))
    assert np.allclose(approx, target, atol=0.2)


@pytest.fixture
def basis_calls(monkeypatch):
    """Patches ``models.basis_matrix`` by name, as the span tracer does; the
    list collects the points of every call."""
    calls = []
    basis_matrix = models.basis_matrix

    def counting(u, *args, **kwargs):
        calls.append(np.array(u))
        return basis_matrix(u, *args, **kwargs)

    monkeypatch.setattr(models, "basis_matrix", counting)
    return calls


@pytest.mark.parametrize("fs_mode", ["exact", "shadow"])
def test_flipped_epoch_builds_one_basis_jet(basis_calls, fs_mode):
    problem = problems.damped_oscillator()
    for epochs in (1, 3):
        model = models.FlippedModel(4, 2, problem.eval_points, mode=fs_mode, max_order=problem.order)
        basis_calls.clear()
        training.train(problem, [model], {"epochs": epochs, "lr": 0.05, "stop_loss": None},
                       np.random.default_rng(1))
        # each at every evaluation point, grid and boundary alike
        assert [u.shape for u in basis_calls] == [model.eval_points.shape] * epochs


def test_flipped_basis_jet_is_keyed_by_the_input_map(basis_calls):
    model = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact", max_order=2)
    rng = np.random.default_rng(8)
    params = model.init_params(rng)
    params[-3:-1] = 1.2, -0.1
    idx = np.arange(5)

    def read(params):
        model.begin_epoch(params, np.random.default_rng(0))
        out = [model.values(params, idx, mode) for mode in [(), (0,), (0, 0)]]
        out += [model.jacobian(params, idx, mode) for mode in [(), (0,), (0, 0)]]
        fresh = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact", max_order=2)
        fresh.begin_epoch(params, np.random.default_rng(0))
        want = [fresh.values(params, idx, mode) for mode in [(), (0,), (0, 0)]]
        want += [fresh.jacobian(params, idx, mode) for mode in [(), (0,), (0, 0)]]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(out, want))

    read(params)
    assert len(basis_calls) == 2   # the model's jet, then the fresh model's
    # a rotation angle, the output scale or the offset: the jet is reused
    for k in (0, -4, -1):
        changed = params.copy()
        changed[k] += 0.3
        basis_calls.clear()
        read(changed)
        assert len(basis_calls) == 1, k
    # a_in or a_shift: rebuilt
    for k in (-3, -2):
        changed = params.copy()
        changed[k] += 0.3
        basis_calls.clear()
        read(changed)
        assert len(basis_calls) == 2, k


def test_flipped_basis_jet_deepens_for_a_deeper_mode(basis_calls):
    # max_order 1 builds a jet to order 2; a second-derivative Jacobian needs 3
    shallow = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact", max_order=1)
    deep = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact", max_order=2)
    params = shallow.init_params(np.random.default_rng(2))
    for model in (shallow, deep):
        model.begin_epoch(params, np.random.default_rng(0))
    for mode in [(), (0,), (0, 0)]:
        got = shallow.jacobian(params, slice(0, 7), mode)
        assert got.tobytes() == deep.jacobian(params, slice(0, 7), mode).tobytes(), mode
    # one jet for the deep model; the shallow one rebuilt once, at order 3
    assert len(basis_calls) == 3


def test_flipped_values_at_builds_its_own_jet(basis_calls):
    model = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact", max_order=2)
    params = model.init_params(np.random.default_rng(3))
    model.begin_epoch(params, np.random.default_rng(0))
    want = {mode: model.values(params, slice(0, 7), mode) for mode in [(), (0,), (0, 0)]}
    key = model._jet_key
    # poison the cached jet: values_at at the evaluation points must not read it
    for matrix in model._jet.values():
        matrix[:] = np.nan
    basis_calls.clear()
    for mode, values in want.items():
        assert np.array_equal(model.values_at(params, EVAL_POINTS_1D, mode), values), mode
    assert len(basis_calls) == 3 and model._jet_key == key


def test_flipped_model_keeps_its_own_evaluation_points():
    points = np.random.default_rng(4).uniform(0.0, 1.0, (5, 1))
    model = models.FlippedModel(3, 1, points, mode="exact")
    params = model.init_params(np.random.default_rng(0))
    model.begin_epoch(params, np.random.default_rng(1))
    before = model.values(params, np.arange(5), (0,))
    points += 0.25   # a caller's in-place edit of the array it passed in
    params[-3] += 0.5   # a new input map rebuilds the jet from the model's points
    model.values(params, np.arange(5), (0,))
    params[-3] -= 0.5
    assert np.array_equal(model.values(params, np.arange(5), (0,)), before)
    with pytest.raises(ValueError):
        model.eval_points[0, 0] = 0.0


def test_flipped_model_runs_on_three_dimensional_points():
    points = np.random.default_rng(6).uniform(0.0, 1.0, (5, 3))
    model = models.FlippedModel(2, 1, points, mode="exact")
    params = model.init_params(np.random.default_rng(0))
    model.begin_epoch(params, np.random.default_rng(1))
    for mode in [(), (0,), (2,)]:
        values = model.values(params, np.arange(5), mode)
        jac = model.jacobian(params, np.arange(5), mode)
        assert values.shape == (5,) and np.all(np.isfinite(values)), mode
        assert jac.shape == (5, model.n_params) and np.all(np.isfinite(jac)), mode
    assert np.array_equal(model.values_at(params, points, ()), model.values(params, np.arange(5)))


def test_flipped_rejects_unknown_modes():
    with pytest.raises(ValueError):
        models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="fuzzy")


def test_flipped_value_structure():
    """alpha_out scales the series part; alpha_offset shifts plain values only."""
    model = models.FlippedModel(4, 1, EVAL_POINTS_1D, mode="exact")
    rng = np.random.default_rng(5)
    params = model.init_params(rng)
    model.begin_epoch(params, rng)
    idx = np.arange(3)
    base = model.values(params, idx)
    shifted = params.copy()
    shifted[-1] += 2.5
    assert np.allclose(model.values(shifted, idx), base + 2.5)
    d_base = model.values(params, idx, (0,))
    assert np.allclose(model.values(shifted, idx, (0,)), d_base)  # offset drops out
