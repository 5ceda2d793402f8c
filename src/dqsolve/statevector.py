"""Dense statevector simulation for small qubit registers.

Conventions used throughout the package:

* qubit ordering is little-endian: qubit 0 is the least-significant bit of
  the computational basis index;
* Pauli rotations are R_P(theta) = exp(-i * theta * P / 2), which makes the
  standard parameter-shift rule (shifts of +-pi/2, prefactor 1/2) exact.

Every state is an amplitude row: the kernels, the readout and the shadows
take batches of shape (batch, 2**n), so that many circuit evaluations (grid
points, shifted parameters) run in one numpy call, and one state is a batch
of one.  Pauli strings are read through their ``pauli_tables``.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 12


class ConfigurationError(ValueError):
    """Raised for invalid register sizes, qubit indices or gate kinds."""


def _check_qubit(n: int, q: int) -> None:
    if not 0 <= q < n:
        raise ConfigurationError(f"qubit index {q} out of range for {n} qubits")


def _split_axes(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    """View (B, 2**n) as (B, high, 2, low) with the target qubit on axis 2."""
    low = 1 << q
    high = 1 << (n - 1 - q)
    return amps.reshape(amps.shape[0], high, 2, low)


def apply_rotation_batch(amps, n, q, axis, angles):
    """Apply R_axis(angle) to qubit q of every row of ``amps`` in place.

    ``angles`` may be a scalar or an array of shape (batch,).
    """
    _check_qubit(n, q)
    half = np.asarray(angles, dtype=np.float64) / 2.0
    c = np.cos(half)
    s = np.sin(half)
    if c.ndim == 1:
        c = c[:, None, None]
        s = s[:, None, None]
    view = _split_axes(amps, n, q)
    a0 = view[:, :, 0, :]
    a1 = view[:, :, 1, :]
    if axis == "X":
        new0 = c * a0 - 1j * s * a1
        new1 = -1j * s * a0 + c * a1
    elif axis == "Y":
        new0 = c * a0 - s * a1
        new1 = s * a0 + c * a1
    elif axis == "Z":
        phase0 = c - 1j * s
        phase1 = c + 1j * s
        new0 = phase0 * a0
        new1 = phase1 * a1
    else:
        raise ConfigurationError(f"unknown rotation axis {axis!r}")
    view[:, :, 0, :] = new0
    view[:, :, 1, :] = new1


_SQRT_HALF = 1.0 / np.sqrt(2.0)


def apply_matrix_batch(amps, n, q, matrix):
    """Apply a fixed 2x2 unitary to qubit q of every row, in place."""
    _check_qubit(n, q)
    view = _split_axes(amps, n, q)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[:, :, 1, :] = matrix[1, 0] * a0 + matrix[1, 1] * a1


H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=np.complex128)

# Rotations mapping the +1 eigenvector of X / Y onto |0>, used for measuring
# in a rotated product basis.
BASIS_ROTATION = {
    "X": H_MATRIX,
    "Y": H_MATRIX @ np.diag([1.0, -1.0j]).astype(np.complex128),
    "Z": None,
}


def apply_cnot_batch(amps, n, control, target):
    """CNOT on every row, in place."""
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ConfigurationError("CNOT control and target must differ")
    view = amps.reshape((amps.shape[0],) + (2,) * n)
    # qubit q lives on axis 1 + (n - 1 - q)
    idx_c = 1 + (n - 1 - control)
    idx_t = 1 + (n - 1 - target)
    sel1 = [slice(None)] * (n + 1)
    sel1[idx_c] = 1
    block = view[tuple(sel1)]
    # target axis shifts left by one if it sat after the control axis
    t_axis = idx_t - 1 if idx_t > idx_c else idx_t
    view[tuple(sel1)] = np.flip(block, axis=t_axis)


def pauli_action(letters: str):
    """Return (index_map, coefficients) so that (P psi)[i] = coef[i] * psi[index_map[i]].

    ``letters`` uses the textual encoding with qubit 0 as the leftmost
    character.  Little-endian index convention: bit q of the basis index is
    the state of qubit q.
    """
    n = len(letters)
    dim = 1 << n
    mask = 0
    for q, letter in enumerate(letters):
        if letter in ("X", "Y"):
            mask |= 1 << q
    idx = np.arange(dim)
    src = idx ^ mask
    coef = np.ones(dim, dtype=np.complex128)
    for q, letter in enumerate(letters):
        bit = (src >> q) & 1
        if letter == "Z":
            coef = coef * (1 - 2 * bit)
        elif letter == "Y":
            coef = coef * (1j * (1 - 2 * bit))
        elif letter not in ("I", "X"):
            raise ConfigurationError(f"unknown Pauli letter {letter!r}")
    return src, coef


def pauli_tables(labels) -> tuple[np.ndarray, np.ndarray]:
    """``pauli_action`` of every label, stacked into (src, coef) arrays of shape (d, 2**n)."""
    actions = [pauli_action(letters) for letters in labels]
    return np.stack([src for src, _ in actions]), np.stack([coef for _, coef in actions])


# Complex elements gathered at once by the stacked readout; bounds its
# temporaries, and so the peak memory, to a few hundred kB per chunk.
_READOUT_CHUNK = 1 << 14


def _real(vals: np.ndarray) -> np.ndarray:
    if np.any(np.abs(vals.imag) > 1e-10):
        raise AssertionError("Pauli expectation acquired an imaginary part")
    return vals.real


def pauli_expectation_batch(amps: np.ndarray, tables, bra=None) -> np.ndarray:
    """<psi|P|psi> for every row, or Re<bra|P|psi> with the rows ``bra`` given.

    ``tables`` is the ``pauli_tables`` pair of d strings; the result is a
    real array of shape (batch, d) that reads all of them in one pass.  Each
    string is contracted as a per-string ``einsum("bi,bi->b", ...)`` would
    contract it, so the values are bit-identical to that loop's, and the
    (batch, d) result is a transposed view of a string-major array, the
    layout the loop stacked on axis 0 would give.  Only a Hermitian read (no
    ``bra``) is checked for an imaginary part; a cross term has one by nature.
    """
    real = _real if bra is None else np.real
    conj = np.conj(amps if bra is None else bra)
    src, coef = tables
    out = np.empty((src.shape[0], amps.shape[0]))
    step = max(1, _READOUT_CHUNK // amps.size)
    for lo in range(0, src.shape[0], step):
        part = slice(lo, lo + step)
        gathered = coef[None, part] * amps[:, src[part]]  # (batch, chunk, 2**n)
        out[part] = real(np.einsum("bi,bci->bc", conj, gathered)).T
    return out.T


def expectation(amps: np.ndarray, obs) -> np.ndarray:
    """<psi|obs|psi> of every row for an ObservableSum (or one PauliString), shape (batch,).

    Every term is read in one ``pauli_tables`` pass; a string on fewer qubits
    than the rows is padded with identities.  A sum with no terms reads 0.
    """
    terms = getattr(obs, "terms", None)
    if terms is None:
        terms = [(1.0, obs)]
    n = amps.shape[1].bit_length() - 1
    labels = [str(p) for _, p in terms]
    if any(len(letters) > n for letters in labels):
        raise ConfigurationError("observable acts on more qubits than the state has")
    total = np.zeros(amps.shape[0])
    if not labels:
        return total
    values = pauli_expectation_batch(amps, pauli_tables([s + "I" * (n - len(s)) for s in labels]))
    for (coef, _), column in zip(terms, values.T):
        total += coef * column   # term by term, so each row's sum is independent of the batch
    return total


def rotate_to_bases(amps: np.ndarray, n: int, bases) -> np.ndarray:
    """Return a copy of ``amps`` rotated so the given product basis becomes computational.

    ``bases`` is one letter per qubit ('X', 'Y' or 'Z'), shared by all rows.
    """
    out = amps.copy()
    for q, letter in enumerate(bases):
        matrix = BASIS_ROTATION[letter]
        if matrix is not None:
            apply_matrix_batch(out, n, q, matrix)
    return out


def born_cumulative(amps: np.ndarray) -> np.ndarray:
    """Cumulative sums of every row's normalized Born probabilities."""
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    return np.cumsum(probs, axis=1)


def sample_bitstrings(amps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one computational-basis index per row from the Born distribution."""
    cum = born_cumulative(amps)
    u = rng.random(cum.shape[0])
    return (cum < u[:, None]).sum(axis=1)
