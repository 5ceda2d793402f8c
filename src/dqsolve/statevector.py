"""Dense statevector simulation for small qubit registers.

Conventions used throughout the package:

* qubit ordering is little-endian: qubit 0 is the least-significant bit of
  the computational basis index;
* Pauli rotations are R_P(theta) = exp(-i * theta * P / 2), which makes the
  standard parameter-shift rule (shifts of +-pi/2, prefactor 1/2) exact.

Every state is an amplitude row: the kernels, the readout and the shadows
take batches of shape (batch, 2**n), so that many circuit evaluations (grid
points, shifted parameters) run in one numpy call, and one state is a batch
of one.  Pauli strings are read through their ``pauli_tables``, grouped by
X-pattern: the strings of one pattern share one gather of partner amplitudes,
and a weighted sum of them is one table row (``weighted_table``).

Gates and one-qubit Paulis act on whole contiguous rows through index tables
cached per register size and qubit(s).  An operator on qubit q reads the
(flip, z) tables of q: each amplitude's partner across q (index ``i ^ (1 << q)``)
is gathered once and combined, in rotations, fixed 2x2 matrices and Pauli
generators alike.  A CNOT is one gather through a basis permutation.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_QUBITS = 12


class ConfigurationError(ValueError):
    """Raised for invalid register sizes, qubit indices or gate kinds."""


def _check_qubit(n: int, q: int) -> None:
    if not 0 <= q < n:
        raise ConfigurationError(f"qubit index {q} out of range for {n} qubits")


@functools.cache
def _qubit_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, z) of qubit q on n qubits: each basis index with bit q flipped,
    and +1 or -1 by bit q (the Z eigenvalue), both of shape (2**n,)."""
    idx = np.arange(1 << n)
    flip, z = idx ^ (1 << q), 1.0 - 2.0 * ((idx >> q) & 1)
    flip.flags.writeable = z.flags.writeable = False   # shared by every later call
    return flip, z


@functools.cache
def _cnot_table(n: int, control: int, target: int) -> np.ndarray:
    """The basis permutation of CNOT(control, target) on n qubits."""
    idx = np.arange(1 << n)
    perm = idx ^ (((idx >> control) & 1) << target)
    perm.flags.writeable = False
    return perm


def apply_rotation_batch(amps, n, q, axis, angles):
    """Apply R_axis(angle) to qubit q of every row of ``amps`` in place.

    ``angles`` may be a scalar or an array of shape (batch,).  With c, s the
    cosine and sine of half the angle, flip and z the cached tables of qubit
    q, X and Y set psi[i] to c psi[i] + p[i] psi[flip[i]], p = -i s for X and
    -s z[i] for Y, and Z multiplies psi[i] by c - i s z[i]: whole contiguous
    rows, with at most one batch-sized temporary.
    """
    _check_qubit(n, q)
    if axis not in ("X", "Y", "Z"):
        raise ConfigurationError(f"unknown rotation axis {axis!r}")
    flip, z = _qubit_tables(n, q)
    half = np.asarray(angles, dtype=np.float64) / 2.0
    c = np.cos(half)
    s = np.sin(half)
    if c.ndim == 1:
        c = c[:, None]
        s = s[:, None]
    if axis == "Z":
        phase = -1j * s * z
        phase += c
        amps *= phase
        return
    partner = amps.take(flip, axis=1)
    if axis == "X":
        partner *= -1j * s
    elif c.ndim == 0:
        partner *= -s * z
    else:
        partner *= z   # two passes, not a (batch, 2**n) table of -s z
        partner *= -s
    amps *= c
    amps += partner


_SQRT_HALF = 1.0 / np.sqrt(2.0)


def apply_matrix_batch(amps, n, q, matrix):
    """Apply a fixed 2x2 unitary m to qubit q of every row, in place: with b
    bit q of i, psi[i] becomes m[b, b] psi[i] + m[b, 1 - b] psi[flip[i]]."""
    _check_qubit(n, q)
    flip, z = _qubit_tables(n, q)
    partner = amps.take(flip, axis=1)   # C-ordered; amps[:, flip] is F-ordered, a slower sum
    partner *= np.where(z > 0, matrix[0, 1], matrix[1, 0])
    amps *= np.where(z > 0, matrix[0, 0], matrix[1, 1])
    amps += partner


def pauli_batch(amps, n, q, axis):
    """The Pauli ``axis`` on qubit q applied to every row, as a new array:
    X psi = psi[flip], Y psi = -i z psi[flip] and Z psi = z psi."""
    _check_qubit(n, q)
    flip, z = _qubit_tables(n, q)
    if axis == "Z":
        return z * amps
    if axis not in ("X", "Y"):
        raise ConfigurationError(f"unknown Pauli axis {axis!r}")
    return amps[:, flip] if axis == "X" else (-1j * z) * amps[:, flip]


H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=np.complex128)

# Rotations mapping the +1 eigenvector of X / Y onto |0>, used for measuring
# in a rotated product basis.
BASIS_ROTATION = {
    "X": H_MATRIX,
    "Y": H_MATRIX @ np.diag([1.0, -1.0j]).astype(np.complex128),
    "Z": None,
}


def apply_cnot_batch(amps, n, control, target):
    """CNOT on every row, in place: one gather through a cached permutation."""
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ConfigurationError("CNOT control and target must differ")
    amps[:] = amps.take(_cnot_table(n, control, target), axis=1)


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


def _pattern_groups(src: np.ndarray) -> list[np.ndarray]:
    """The rows of a ``pauli_tables`` ``src`` grouped by X-pattern (``src[k, 0]``):
    one index array per pattern, in increasing pattern order, each in row order."""
    order = np.argsort(src[:, 0], kind="stable")
    pattern = src[order, 0]
    return np.split(order, np.flatnonzero(pattern[1:] != pattern[:-1]) + 1)


def weighted_table(tables, weights) -> tuple[np.ndarray, np.ndarray]:
    """sum of w_k T_k over the rows T_k of a ``pauli_tables`` pair, as a table
    of one row per X-pattern, shape (g, 2**n) with g <= 2**n.

    Rows of one pattern share their ``src`` row, so their weighted sum is one
    row with the summed ``coef``; each group is summed over axis 0 in row
    order.  Real weights on Pauli strings give Hermitian rows.
    """
    src, coef = tables
    weights = np.asarray(weights)
    groups = _pattern_groups(src)
    return (
        np.stack([src[group[0]] for group in groups]),
        np.stack([(weights[group, None] * coef[group]).sum(axis=0) for group in groups]),
    )


def _real(vals: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The real part of a Hermitian read ``vals`` (rows, batch) through the
    table rows ``coef``.  Rounding leaves an imaginary part that grows with a
    row's scale, so the row is refused only above 1e-10 times its largest
    |coef|, or 1 if that is smaller (a Pauli string's is 1)."""
    imag = np.abs(vals.imag)
    # the scales are read only when the plain bound is crossed
    if np.any(imag > 1e-10) and np.any(imag > 1e-10 * np.abs(coef).max(axis=1, keepdims=True)):
        raise AssertionError("Pauli expectation acquired an imaginary part")
    return vals.real


def pauli_expectation_batch(amps: np.ndarray, tables, bra=None) -> np.ndarray:
    """<psi|P|psi> for every row, or Re<bra|P|psi> with the rows ``bra`` given.

    ``tables`` is a ``pauli_tables`` pair of d rows: Pauli strings, or
    weighted sums of strings of one X-pattern (``weighted_table``, the
    original model's ``diagonal_table``).  The result is a real array of
    shape (batch, d), columns in table order.  A string is X^x Z^z up to a
    phase, so every row with X-pattern x (``src[k, 0]`` is x) reads the same
    partner amplitudes psi[i ^ x].  The rows are grouped by pattern, and each
    group is read from one partner gather with one
    ``einsum("ki,bi,bi->kb", coef, partner, conj)``.  That einsum forms each
    product as (coef * partner) * conj, the same complex products as a
    per-row ``einsum("bi,bi->b", conj, coef * psi[src])`` (complex
    multiplication commutes exactly), and sums every (row, state) over i in
    order.  So the values are bit-identical to that loop's, and a row's value
    does not depend on the rest of its batch; a BLAS product would reorder
    the sums and lose both.  The (batch, d) result is a transposed view of a
    string-major array, the layout the loop stacked on axis 0 would give.
    Only a Hermitian read (no ``bra``) is checked for an imaginary part,
    group by group, relative to each row's scale (``_real``); a cross term
    has one by nature.
    """
    conj = np.conj(amps if bra is None else bra)
    src, coef = tables
    out = np.empty((src.shape[0], amps.shape[0]))
    for group in _pattern_groups(src):
        partner = amps.take(src[group[0]], axis=1)
        vals = np.einsum("ki,bi,bi->kb", coef[group], partner, conj)
        out[group] = vals.real if bra is not None else _real(vals, coef[group])
    return out.T


def expectation(amps: np.ndarray, obs) -> np.ndarray:
    """<psi|obs|psi> of every row for an ObservableSum (or one PauliString), shape (batch,).

    Every term is read in one ``pauli_tables`` pass.  Each string must act on
    exactly the rows' qubits; a sum with no terms reads 0.
    """
    terms = getattr(obs, "terms", None)
    if terms is None:
        terms = [(1.0, obs)]
    n = amps.shape[1].bit_length() - 1
    labels = [str(p) for _, p in terms]
    if any(len(letters) != n for letters in labels):
        raise ConfigurationError(f"observable does not act on the state's {n} qubits")
    total = np.zeros(amps.shape[0])
    if not labels:
        return total
    values = pauli_expectation_batch(amps, pauli_tables(labels))
    for (coef, _), column in zip(terms, values.T):
        total += coef * column   # term by term, so each row's sum is independent of the batch
    return total


# Kept because perfbench/spans.py looks it up by name; ROADMAP item 8 deletes it after item 2.
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


# Kept because perfbench/spans.py looks it up by name; ROADMAP item 8 deletes it after item 2.
def sample_bitstrings(amps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one computational-basis index per row from the Born distribution."""
    cum = born_cumulative(amps)
    u = rng.random(cum.shape[0])
    return (cum < u[:, None]).sum(axis=1)
