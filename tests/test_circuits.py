"""Circuit construction, execution and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsolve import circuits
from dqsolve.pauli import ObservableSum, PauliString, sum_of_z
from dqsolve.statevector import ConfigurationError, expectation


def expectation_of_x(circuit, obs, x, extra=None):
    bindings = {"x": x}
    bindings.update(extra or {})
    return expectation(circuits.run_batch(circuit, bindings, batch=1), obs)[0]


def test_tower_feature_map_scales():
    circuit = circuits.tower_feature_map(4, "x")
    assert [g.scale for g in circuit.gates] == [1.0, 2.0, 3.0, 4.0]
    assert all(g.kind == "RX" for g in circuit.gates)
    assert circuit.input_params == frozenset({"x"})


def test_split_tower_feature_map():
    circuit = circuits.split_tower_feature_map(4, ("x0", "x1"))
    assert [g.scale for g in circuit.gates] == [1.0, 2.0, 1.0, 2.0]
    assert [g.param for g in circuit.gates] == ["x0", "x0", "x1", "x1"]
    with pytest.raises(ConfigurationError):
        circuits.split_tower_feature_map(5, ("x0", "x1"))


def test_tower_feature_map_is_the_split_tower_over_one_input():
    for n in range(1, 7):
        assert circuits.tower_feature_map(n, "x0") == circuits.split_tower_feature_map(n, ("x0",))


def test_hea_structure():
    circuit = circuits.hea(3, 2)
    assert len(circuit.variational_params) == 3 * 3 * 2
    rotations = [g for g in circuit.gates if g.is_rotation]
    cnots = [g for g in circuit.gates if g.kind == "CNOT"]
    assert len(rotations) == 18
    assert len(cnots) == 2 * 2  # (n-1) per layer
    # all parameter ids are distinct
    assert len(set(circuit.variational_params)) == len(circuit.variational_params)


def test_expectation_is_trig_polynomial_in_x():
    """A single-qubit encoding with frequency s makes <Z>(x) a trig polynomial
    with frequencies {0, s}; fitting on enough points predicts new points."""
    circuit = circuits.tower_feature_map(1, "x")
    obs = sum_of_z(1)
    # <Z> = cos(x); fit a + b cos x + c sin x on 3 points, predict a 4th
    xs = np.array([0.1, 0.7, 1.9])
    design = np.stack([np.ones(3), np.cos(xs), np.sin(xs)], axis=1)
    values = np.array([expectation_of_x(circuit, obs, x) for x in xs])
    coef = np.linalg.solve(design, values)
    x_new = 2.6
    predicted = coef @ [1.0, np.cos(x_new), np.sin(x_new)]
    assert abs(predicted - expectation_of_x(circuit, obs, x_new)) < 1e-10


def test_tower_map_fourier_frequencies():
    """The n-qubit tower map exposes integer frequencies up to 1+2+...+n."""
    n = 3
    circuit = circuits.tower_feature_map(n, "x")
    # <ZZZ> = cos(x) cos(2x) cos(3x): frequencies up to 6
    obs = ObservableSum([(1.0, PauliString("Z" * n))])
    max_freq = n * (n + 1) // 2
    xs = np.linspace(0.0, 2.0 * np.pi, 2 * max_freq + 1, endpoint=False)
    values = np.array([expectation_of_x(circuit, obs, x) for x in xs])
    spectrum = np.fft.rfft(values) / len(xs)
    # reconstruct at fresh points from the truncated Fourier series
    x_new = 0.37
    recon = spectrum[0].real + 2.0 * sum(
        (spectrum[k] * np.exp(1j * k * x_new)).real for k in range(1, max_freq + 1)
    )
    assert abs(recon - expectation_of_x(circuit, obs, x_new)) < 1e-9


def test_run_batch_shifts_match_rebinding():
    circuit = circuits.tower_feature_map(2, "x")
    shift = 0.3
    shifted = circuits.run_batch(circuit, {"x": 0.5}, 1, shifts={0: shift})
    # shifting gate 0 (scale 1) by 0.3 equals encoding x=0.8 on that gate only
    manual = circuits.run_batch(
        circuits.CircuitSpec(
            2,
            (
                circuits.GateSpec("RX", (0,), const=0.8),
                circuits.GateSpec("RX", (1,), param="x", scale=2.0),
            ),
            input_params=frozenset({"x"}),
        ),
        {"x": 0.5},
        1,
    )
    assert np.allclose(shifted, manual)


def test_unapply_gate_inverts_apply():
    rng = np.random.default_rng(7)
    circuit = circuits.compose(
        circuits.tower_feature_map(3, "x"),
        circuits.hea(3, 1),
        circuits.random_basis_unitary(3, seed=5),
    )
    bindings = {"x": 0.4}
    bindings.update({p: rng.uniform(-3, 3) for p in circuit.variational_params})
    amps = circuits.run_batch(circuit, bindings, 2)
    original = amps.copy()
    for i in range(len(circuit.gates) - 1, -1, -1):
        circuits.unapply_gate_to_batch(amps, 3, circuit.gates[i], bindings)
    expected = np.zeros_like(original)
    expected[:, 0] = 1.0
    assert np.allclose(amps, expected, atol=1e-12)
    for i, gate in enumerate(circuit.gates):
        circuits.apply_gate_to_batch(amps, 3, gate, bindings)
    assert np.allclose(amps, original, atol=1e-12)


def test_random_basis_unitary_is_seed_deterministic():
    a = circuits.random_basis_unitary(4, seed=2)
    b = circuits.random_basis_unitary(4, seed=2)
    c = circuits.random_basis_unitary(4, seed=3)
    assert a == b
    assert a != c


def test_compose_merges_params():
    circuit = circuits.compose(circuits.tower_feature_map(2, "x0"), circuits.hea(2, 1))
    assert circuit.input_params == frozenset({"x0"})
    assert len(circuit.variational_params) == 6


def test_undeclared_parameter_rejected():
    with pytest.raises(ConfigurationError):
        circuits.CircuitSpec(1, (circuits.GateSpec("RX", (0,), param="mystery"),))


@pytest.mark.parametrize("kind", ["H", "FIXED_SU2"])
def test_unknown_gate_kind_rejected(kind):
    # rotations and CNOT are the only kinds a circuit builder emits
    with pytest.raises(ConfigurationError):
        circuits.GateSpec(kind, (0,))


def test_json_round_trip():
    circuit = circuits.compose(
        circuits.split_tower_feature_map(4, ("x0", "x1")),
        circuits.hea(4, 2),
        circuits.random_basis_unitary(4, seed=2),
    )
    clone = circuits.circuit_from_json(circuits.circuit_to_json(circuit))
    assert clone == circuit


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_run_is_normalized_and_deterministic(n, depth, seed):
    rng = np.random.default_rng(seed)
    circuit = circuits.compose(circuits.tower_feature_map(n, "x"), circuits.hea(n, depth))
    bindings = {"x": float(rng.uniform(0, 1))}
    bindings.update({p: float(rng.uniform(-3, 3)) for p in circuit.variational_params})
    first = circuits.run_batch(circuit, bindings, 1)[0]
    second = circuits.run_batch(circuit, bindings, 1)[0]
    assert np.vdot(first, first).real == pytest.approx(1.0)
    assert np.array_equal(first, second)
