"""Simulated Pauli classical shadows.

Each snapshot measures every qubit in an independently uniform X/Y/Z basis.
The single-snapshot estimator for a weight-w Pauli string is
3**w * (product of outcome signs on its support) when all support bases
match, else 0; estimates aggregate batch means through a median
(median-of-means).

The classical post-processing is vectorized, the protocol is not: a shadow
of M snapshots still stands for M state preparations.  ``collect`` rotates
one amplitude row per distinct basis setting it draws (at most
min(M, 3**n)) and samples every snapshot from its setting's row, drawing
randomness in a fixed order so shadows are bitwise reproducible per seed.
``estimate_pauli`` reads a whole list of strings off one (M, d) matrix of
snapshot values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString
from .statevector import StateVector, rotate_to_bases, sample_bitstrings

BASIS_CODES = "XYZ"

DEFAULT_LOCALITY_CAP = 2


@dataclass(frozen=True)
class ClassicalShadow:
    n_qubits: int
    bases: np.ndarray    # (M, n) uint8 indices into "XYZ"
    signs: np.ndarray    # (M, n) int8, +1 / -1 measurement outcomes

    @property
    def n_snapshots(self) -> int:
        return self.bases.shape[0]


def collect(state: StateVector, m_snapshots: int, rng: np.random.Generator) -> ClassicalShadow:
    """Draw ``m_snapshots`` randomized-basis measurements of ``state``."""
    if m_snapshots < 1:
        raise ValueError("need at least one snapshot")
    n = state.n_qubits
    bases = rng.integers(0, 3, size=(m_snapshots, n), dtype=np.uint8)
    # one rotated row per distinct setting, keyed by sum_q b_q * 3**q
    _, first, inverse = np.unique(
        bases @ 3 ** np.arange(n), return_index=True, return_inverse=True
    )
    settings = bases[first]
    amps = np.tile(state.amplitudes, (len(first), 1))
    for q in range(n):
        for code, letter in enumerate("XY"):
            rows = settings[:, q] == code
            if rows.any():
                amps[rows] = rotate_to_bases(amps[rows], n, "Z" * q + letter + "Z" * (n - q - 1))
    indices = sample_bitstrings(amps, rng, rows=inverse)
    bits = (indices[:, None] >> np.arange(n)[None, :]) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    return ClassicalShadow(n, bases, signs)


def _as_list(pstrings) -> tuple[list[PauliString], bool]:
    """(strings, single): one PauliString or a sequence of them."""
    if isinstance(pstrings, PauliString):
        return [pstrings], True
    return list(pstrings), False


def snapshot_values(shadow: ClassicalShadow, pstrings) -> np.ndarray:
    """Per-snapshot inverse-channel estimator values; support is {0, +-3**w}.

    One string gives shape (M,), a sequence of d strings gives (M, d); an
    identity string's column is all 1.
    """
    strings, single = _as_list(pstrings)
    letters = "I" + BASIS_CODES
    codes = np.array(
        [[letters.index(c) for c in p.letters] for p in strings], dtype=np.intp
    ).reshape(len(strings), shadow.n_qubits)
    # factor per (snapshot, qubit, letter): 1 for I, else 3 * sign if the
    # letter is the measured basis and 0 if not
    factors = np.ones((shadow.n_snapshots, shadow.n_qubits, 4))
    factors[:, :, 1:] = (shadow.bases[:, :, None] == np.arange(3)) * (3 * shadow.signs[:, :, None])
    values = factors[:, 0, codes[:, 0]]
    for q in range(1, shadow.n_qubits):
        values *= factors[:, q, codes[:, q]]
    return values[:, 0] if single else values


def estimate_pauli(
    shadow: ClassicalShadow,
    pstrings,
    n_batches: int = 1,
    locality_cap: int = DEFAULT_LOCALITY_CAP,
):
    """Median-of-means estimate of <P>; n_batches=1 is the plain mean.

    One PauliString gives a float, a sequence of d strings an array of d
    estimates.  Batches follow ``np.array_split``; every snapshot value is
    an integer, so the batch sums are exact and the estimates do not depend
    on how many strings are read at once.
    """
    strings, single = _as_list(pstrings)
    for p in strings:
        if p.weight > locality_cap:
            raise ValueError(
                f"Pauli weight {p.weight} of {p} exceeds the locality cap {locality_cap}"
            )
    m = shadow.n_snapshots
    if not 1 <= n_batches <= m:
        raise ValueError("n_batches must be in [1, n_snapshots]")
    sizes = np.full(n_batches, m // n_batches)
    sizes[: m % n_batches] += 1
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    means = np.add.reduceat(snapshot_values(shadow, strings), starts, axis=0) / sizes[:, None]
    estimates = np.median(means, axis=0)
    return float(estimates[0]) if single else estimates


def default_batches(n_observables: int) -> int:
    """Median-of-means batch count: 2 * ceil(log2(2 * #observables))."""
    return 2 * math.ceil(math.log2(2 * max(1, n_observables)))


@dataclass(frozen=True)
class ShadowBudget:
    """Knobs for the per-state snapshot budget.

    M = ceil(c0 * 3**w_max * log2(m * (k + 1)) / eps**exponent), the standard
    Pauli-shadow sample bound with the grid size entering logarithmically.
    """

    c0: float = 34.0
    eps: float = 1.0
    exponent: int = 2
    w_max: int = 1

    def snapshots(self, m_points: int, k_order: int) -> int:
        log_term = math.log2(max(2, m_points * (k_order + 1)))
        return math.ceil(self.c0 * 3**self.w_max * log_term / self.eps**self.exponent)
