"""Simulator kernels: gate application, expectations, sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsolve.circuits import CircuitSpec, run_batch
from dqsolve.statevector import (
    BASIS_ROTATION,
    ConfigurationError,
    H_MATRIX,
    apply_cnot_batch,
    apply_matrix_batch,
    apply_rotation_batch,
    expectation,
    pauli_action,
    pauli_batch,
    pauli_expectation_batch,
    pauli_tables,
    rotate_to_bases,
    sample_bitstrings,
)
from dqsolve.pauli import ObservableSum, PauliString, sum_of_z


def random_states(rng, batch, n):
    amps = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps


def zero_state(n):
    """|0...0> on ``n`` qubits, as a batch of one: the run of an empty circuit."""
    return run_batch(CircuitSpec(n, ()), {}, 1)


def test_zero_state():
    amps = zero_state(3)[0]
    assert amps[0] == 1.0
    assert np.all(amps[1:] == 0.0)
    assert np.vdot(amps, amps).real == pytest.approx(1.0)


@pytest.mark.parametrize("n", [0, -1, 13])
def test_zero_state_rejects_bad_sizes(n):
    # the register-size rule lives in CircuitSpec
    with pytest.raises(ConfigurationError):
        CircuitSpec(n, ())


def test_rx_pi_flips_qubit():
    # RX(pi)|0> = -i|1>
    amps = zero_state(1)
    apply_rotation_batch(amps, 1, 0, "X", np.pi)
    assert np.allclose(amps[0], [0.0, -1.0j])


def test_rz_phases_basis_states():
    amps = np.array([[1.0, 1.0]], dtype=np.complex128) / np.sqrt(2)
    apply_rotation_batch(amps, 1, 0, "Z", np.pi / 2)
    expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    assert np.allclose(amps[0], expected)


def test_cnot_truth_table():
    # little-endian: basis index bit q is qubit q; control 0, target 1
    for src, dst in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)]:
        amps = np.zeros((1, 4), dtype=np.complex128)
        amps[0, src] = 1.0
        apply_cnot_batch(amps, 2, 0, 1)
        assert amps[0, dst] == 1.0, (src, dst)


def test_cnot_rejects_equal_wires():
    amps = np.zeros((1, 4), dtype=np.complex128)
    with pytest.raises(ConfigurationError):
        apply_cnot_batch(amps, 2, 1, 1)


PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_rotation(n, q, axis, angle):
    """R_axis(angle) on qubit q as a 2**n matrix; qubit 0 is the low bit."""
    r = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULI_MATRICES[axis]
    return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), r), np.eye(2**q))


def dense_cnot(n, control, target):
    """CNOT as a 2**n permutation matrix, column by column over basis states."""
    matrix = np.zeros((2**n, 2**n))
    for j in range(2**n):
        matrix[j ^ (((j >> control) & 1) << target), j] = 1.0
    return matrix


@pytest.mark.parametrize("n", range(1, 6))
def test_rotation_matches_dense_matrix(n):
    rng = np.random.default_rng(n)
    amps = random_states(rng, 4, n)
    per_row = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
    for q in range(n):
        for axis in "XYZ":
            out = amps.copy()
            apply_rotation_batch(out, n, q, axis, 0.7)
            np.testing.assert_allclose(out, amps @ dense_rotation(n, q, axis, 0.7).T, rtol=0, atol=1e-14)
            out = amps.copy()
            apply_rotation_batch(out, n, q, axis, per_row)
            expected = [dense_rotation(n, q, axis, a) @ row for a, row in zip(per_row, amps)]
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 6))
def test_cnot_matches_permutation_matrix(n):
    amps = random_states(np.random.default_rng(n), 3, n)
    for control in range(n):
        for target in range(n):
            if control != target:
                out = amps.copy()
                apply_cnot_batch(out, n, control, target)
                assert np.array_equal(out, amps @ dense_cnot(n, control, target).T)


def test_kernels_reject_bad_axes_and_qubits():
    amps = zero_state(2)
    for bad in [lambda: apply_rotation_batch(amps, 2, 0, "W", 0.1),
                lambda: apply_rotation_batch(amps, 2, 2, "X", 0.1),
                lambda: apply_rotation_batch(amps, 2, -1, "Z", 0.1),
                lambda: apply_cnot_batch(amps, 2, 0, 2),
                lambda: apply_cnot_batch(amps, 2, 3, 0),
                lambda: apply_matrix_batch(amps, 2, 2, H_MATRIX),
                lambda: pauli_batch(amps, 2, 0, "W"),
                lambda: pauli_batch(amps, 2, 0, "I"),
                lambda: pauli_batch(amps, 2, 2, "X")]:
        with pytest.raises(ConfigurationError):
            bad()


@pytest.mark.parametrize("axis", "XYZ")
def test_rotation_makes_at_most_one_batch_temporary(axis):
    rng = np.random.default_rng(4)
    amps = random_states(rng, 729, 6)
    for angles in (0.4, rng.uniform(0.0, 1.0, 729)):
        apply_rotation_batch(amps, 6, 2, axis, angles)   # builds the cached tables
        tracemalloc.start()
        try:
            apply_rotation_batch(amps, 6, 2, axis, angles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * amps.nbytes


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.sampled_from("XYZ"),
    st.floats(-6.0, 6.0),
    st.integers(0, 2**31 - 1),
)
def test_rotation_preserves_norm(n, q, axis, angle, seed):
    q = q % n
    amps = random_states(np.random.default_rng(seed), 3, n)
    apply_rotation_batch(amps, n, q, axis, angle)
    assert np.allclose(np.linalg.norm(amps, axis=1), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_cnot_preserves_norm_and_is_involutive(n, seed):
    rng = np.random.default_rng(seed)
    amps = random_states(rng, 2, n)
    orig = amps.copy()
    control, target = rng.choice(n, size=2, replace=False)
    apply_cnot_batch(amps, n, control, target)
    assert np.allclose(np.linalg.norm(amps, axis=1), 1.0)
    apply_cnot_batch(amps, n, control, target)
    assert np.allclose(amps, orig)


def test_pauli_action_xz():
    src, coef = pauli_action("XI")
    # X on qubit 0 flips the low bit
    assert list(src) == [1, 0, 3, 2]
    assert np.allclose(coef, 1.0)
    src, coef = pauli_action("IZ")
    assert list(src) == [0, 1, 2, 3]
    assert np.allclose(coef, [1.0, 1.0, -1.0, -1.0])


def test_pauli_expectation_known_values():
    # <0000| sum Z |0000> = 4
    assert expectation(zero_state(4), sum_of_z(4))[0] == pytest.approx(4.0)
    # RX(pi/2)|0> has <Y> = -1
    amps = zero_state(1)
    apply_rotation_batch(amps, 1, 0, "X", np.pi / 2)
    assert pauli_expectation_batch(amps, pauli_tables(["Y"]))[0, 0] == pytest.approx(-1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_pauli_expectation_bounded(n, seed):
    rng = np.random.default_rng(seed)
    amps = random_states(rng, 4, n)
    letters = "".join(rng.choice(list("IXYZ"), size=n))
    vals = pauli_expectation_batch(amps, pauli_tables([letters]))[:, 0]
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_expectation_linearity():
    rng = np.random.default_rng(5)
    amps = random_states(rng, 1, 3)
    a = ObservableSum([(0.7, PauliString("XYZ"))])
    b = ObservableSum([(-1.3, PauliString("ZIX"))])
    assert expectation(amps, a + b)[0] == pytest.approx(
        expectation(amps, a)[0] + expectation(amps, b)[0]
    )


def test_rotate_to_bases_diagonalizes_x_and_y():
    rng = np.random.default_rng(0)
    amps = random_states(rng, 1, 2)
    rotated = rotate_to_bases(amps, 2, "XY")
    # <X ⊗ Y> of the original equals <Z ⊗ Z> of the rotated state
    assert pauli_expectation_batch(amps, pauli_tables(["XY"]))[0, 0] == pytest.approx(
        pauli_expectation_batch(rotated, pauli_tables(["ZZ"]))[0, 0]
    )


def test_sample_bitstrings_matches_born_rule():
    rng = np.random.default_rng(11)
    amps = np.tile(
        np.array([np.sqrt(0.7), 0.0, 0.0, np.sqrt(0.3)], dtype=np.complex128), (20000, 1)
    )
    samples = sample_bitstrings(amps, rng)
    assert set(np.unique(samples)) <= {0, 3}
    assert np.mean(samples == 0) == pytest.approx(0.7, abs=0.02)


def test_measure_in_bases_deterministic_on_eigenstate():
    # |0> measured in Z always yields bit 0; |+> in X always yields bit 0
    rng = np.random.default_rng(0)
    zero = zero_state(1)
    assert sample_bitstrings(rotate_to_bases(zero, 1, "Z"), rng)[0] == 0
    plus = np.array([[1.0, 1.0]], dtype=np.complex128) / np.sqrt(2)
    for _ in range(10):
        assert sample_bitstrings(rotate_to_bases(plus, 1, "X"), rng)[0] == 0


def test_h_matrix_is_unitary_involution():
    assert np.allclose(H_MATRIX @ H_MATRIX, np.eye(2))


def test_apply_matrix_batch_matches_kron():
    rng = np.random.default_rng(2)
    amps = random_states(rng, 1, 2)
    expected = np.kron(np.eye(2), H_MATRIX) @ amps[0]  # H on qubit 0 (low bit)
    apply_matrix_batch(amps, 2, 0, H_MATRIX)
    assert np.allclose(amps[0], expected)


def test_expectation_reads_every_row():
    # shape (batch,), each row as a batch of one reads it; a sum with no
    # terms reads 0, and a string on fewer qubits is padded with identities
    amps = random_states(np.random.default_rng(8), 5, 3)
    obs = ObservableSum([(0.7, PauliString("XYZ")), (-1.3, PauliString("ZIX"))])
    together = expectation(amps, obs)
    assert together.shape == (5,)
    for row, value in zip(amps, together):
        assert expectation(row[None], obs)[0] == value
    assert np.array_equal(expectation(amps, ObservableSum([])), np.zeros(5))
    assert np.array_equal(expectation(amps, PauliString("Z")), expectation(amps, PauliString("ZII")))
    with pytest.raises(ConfigurationError):
        expectation(amps, PauliString("ZIIZ"))


def _bits(amps):
    """The bytes of every amplitude, signed zeros included."""
    return np.ascontiguousarray(amps).view(np.uint64).tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_batch_is_the_pauli_action_gather(n):
    # the adjoint sweep read each generator as coef * amps[:, src] before
    amps = random_states(np.random.default_rng(n), 3, n)
    for q in range(n):
        for axis in "XYZ":
            src, coef = pauli_action("I" * q + axis + "I" * (n - q - 1))
            got = pauli_batch(amps, n, q, axis)
            assert _bits(got) == _bits(coef * amps[:, src]), (q, axis)
    assert np.array_equal(amps, random_states(np.random.default_rng(n), 3, n))


def view_matrix_batch(amps, n, q, matrix):
    """A 2x2 matrix on qubit q of every row through a (rows, high, 2, low)
    view, the arithmetic ``apply_matrix_batch`` is held to bit for bit."""
    view = amps.reshape(amps.shape[0], 1 << (n - 1 - q), 2, 1 << q)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[:, :, 1, :] = matrix[1, 0] * a0 + matrix[1, 1] * a1


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_matrix_batch_matches_the_view_arithmetic(n):
    # shadow outcomes compare Born sums with uniforms, so the last bits matter
    amps = random_states(np.random.default_rng(10 + n), 5, n)
    for q in range(n):
        for matrix in (H_MATRIX, BASIS_ROTATION["X"], BASIS_ROTATION["Y"]):
            got, expected = amps.copy(), amps.copy()
            apply_matrix_batch(got[1:4], n, q, matrix)   # a block of rows, as shadows pass
            view_matrix_batch(expected[1:4], n, q, matrix)
            assert _bits(got) == _bits(expected), (q, matrix)
