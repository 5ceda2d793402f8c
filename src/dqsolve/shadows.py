"""Simulated Pauli classical shadows.

Each snapshot measures every qubit in an independently uniform X/Y/Z basis.
The single-snapshot estimator for a weight-w Pauli string is
3**w * (product of outcome signs on its support) when all support bases
match, else 0; estimates aggregate batch means through a median
(median-of-means).

The classical post-processing is vectorized, the protocol is not: a shadow
of M snapshots still stands for M preparations of its state.  ``collect``
takes a batch of S amplitude rows; one state is a batch of one.  It rotates
one amplitude row per distinct (state, basis setting) pair it draws, at most
min(M, 3**n) per state, through a prefix tree of the drawn settings: level q
holds one row per drawn (state, b_0..b_q) prefix, its parent's row with
qubit q rotated, so a prefix shared by many settings is rotated once.  Each snapshot's
outcome is then an n-step bisection over its row's cumulative Born sums.
It draws the randomness state after state in a fixed order, so each state's
shadow is bitwise the one a collect of that state alone would give, and
shadows are reproducible per seed.  ``estimate_pauli`` reads a whole list
of strings off every state of a shadow at once, in integers: per snapshot
the int8 product of the string's outcome signs (0 on a basis mismatch), per
batch an exact int64 sum scaled by 3**w, over groups of states small enough
that the int64 sums stay within ``_GROUP_ELEMENTS`` words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import BASIS_ROTATION, ConfigurationError, apply_matrix_batch, born_cumulative

BASIS_CODES = "XYZ"

# Eight-byte words one group of states holds at once: prefix-tree rows, their
# Born sums and per-snapshot indices in ``collect`` (``_collect_words``), and
# in ``estimate_pauli`` the int64 cast its batch sums make of the sign
# products (snapshots * strings).  Bounds their temporaries, and so the peak
# memory, to about half a megabyte per group: seven states of 551 snapshots
# at n = 4.  A group holds at least one state.
_GROUP_ELEMENTS = 1 << 16

# The largest snapshot budget M per state.  ``collect`` draws all of a batch's
# bases, uniforms and signs at once, 2n + 8 bytes per snapshot of every state:
# 32 MB per state at this cap and n = 12.  The default budget is 551 at the
# damped oscillator's grid.
MAX_SNAPSHOTS = 1_000_000


@dataclass(frozen=True)
class ClassicalShadow:
    n_qubits: int
    bases: np.ndarray    # (S, M, n) for S states: uint8 indices into "XYZ"
    signs: np.ndarray    # same shape, int8, +1 / -1 measurement outcomes

    @property
    def n_snapshots(self) -> int:
        """Snapshots per state, M."""
        return self.bases.shape[1]


def collect(states, m_snapshots: int, rng: np.random.Generator) -> ClassicalShadow:
    """Draw ``m_snapshots`` randomized-basis measurements of every state.

    ``states`` is an (S, 2**n) array of amplitude rows, giving (S, M, n)
    bases and signs.  Each state draws its bases and then its outcome
    uniforms, state after state, as S collects of one state each from the
    same generator would.
    """
    if m_snapshots < 1:
        raise ValueError("need at least one snapshot")
    amps = np.asarray(states)
    n_states, dim = amps.shape
    n = dim.bit_length() - 1
    # the draws do not depend on the amplitudes, so take them all first
    bases = np.empty((n_states, m_snapshots, n), dtype=np.uint8)
    uniforms = np.empty((n_states, m_snapshots))
    for s in range(n_states):
        bases[s] = rng.integers(0, 3, size=(m_snapshots, n), dtype=np.uint8)
        uniforms[s] = rng.random(m_snapshots)
    # the +1 / -1 outcome of every qubit, per measured basis index
    outcomes = (1 - 2 * ((np.arange(dim)[:, None] >> np.arange(n)) & 1)).astype(np.int8)
    signs = np.empty_like(bases, dtype=np.int8)
    group = max(1, _GROUP_ELEMENTS // _collect_words(m_snapshots, n))
    for lo in range(0, n_states, group):
        part = slice(lo, lo + group)
        indices = _measure(amps[part], bases[part], uniforms[part])
        signs[part] = outcomes[indices].reshape(-1, m_snapshots, n)
    return ClassicalShadow(n, bases, signs)


def _collect_words(m_snapshots: int, n: int) -> int:
    """Eight-byte words ``collect`` holds per state of a group.

    Two levels of the prefix tree, or a level and its Born sums: at most
    min(M, 3**n) rows of 2**n amplitudes each, four words per amplitude.
    A few index words per snapshot, and per drawable (state, setting) key.
    """
    return 4 * min(m_snapshots, 3**n) * 2**n + 6 * m_snapshots + 2 * 3**n


def _measure(amps: np.ndarray, bases: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Measured basis index of each of a group's (g, M) snapshots, flat.

    A snapshot's index is the number of its rotated row's cumulative Born
    sums below its uniform, as ``sample_bitstrings`` counts it.  The sums are
    nondecreasing, so an n-step bisection finds it.
    """
    g, dim = amps.shape
    n = bases.shape[-1]
    # one key per (state, setting) pair: sum_q b_q * 3**q * g + state
    keys = (bases @ (3 ** np.arange(n) * g) + np.arange(g)[:, None]).ravel()
    rows, leaf = _rotate_drawn_prefixes(amps, n, keys)
    cum = born_cumulative(rows).ravel()
    # bisect from the entry before each snapshot's row, top bit first
    before = leaf * dim - 1
    at = before.copy()
    u = uniforms.ravel()
    for bit in reversed(range(n)):
        at += (cum[at + (1 << bit)] < u) << bit
    return at - before


def _rotate_drawn_prefixes(amps: np.ndarray, n: int, keys: np.ndarray):
    """(rows, leaf): every drawn (state, setting) pair's rotated amplitudes.

    ``keys`` are sum_q b_q * 3**q * g + state over a group of g states;
    ``rows`` holds one row per distinct key, and ``leaf`` is each key's row.
    Level q of the tree holds one row per drawn prefix (b_q, ..., b_0), each
    its parent's row with qubit q rotated into basis b_q.  A level's keys
    have b_q as their most significant digit, so its X rows and its Y rows
    are two blocks.  Every row sees the same matrices in the same qubit order
    as a rotation of its state alone.
    """
    g = len(amps)
    drawn = np.zeros(3**n * g, dtype=bool)
    drawn[keys] = True
    levels = [drawn]   # drawn prefixes of length n, n - 1, ..., 1
    for _ in range(n - 1):
        levels.append(levels[-1].reshape(3, -1).any(axis=0))
    rows, parent = amps, np.arange(g)   # parent: row of each drawn prefix key
    for q, level in enumerate(reversed(levels)):
        children = np.flatnonzero(level)
        rows = rows[parent[children % (3**q * g)]]
        x, y = np.searchsorted(children, [3**q * g, 2 * 3**q * g])
        apply_matrix_batch(rows[:x], n, q, BASIS_ROTATION["X"])
        apply_matrix_batch(rows[x:y], n, q, BASIS_ROTATION["Y"])
        parent = np.cumsum(level) - 1
    return rows, parent[keys]


def _values(bases: np.ndarray, signs: np.ndarray, strings, unit=3, dtype=np.float64) -> np.ndarray:
    """String-major products over K snapshots' (..., n) outcomes, shape (d, K).

    A string's product runs over its support's factors in qubit order:
    ``unit * sign`` where the letter is the measured basis, else 0.  With
    unit 3 in float64 it is each snapshot's value; the factors are integers,
    so a mismatch is +0.0 and the float products carry the same zero signs as
    a product over all n qubits with a factor 1 for I.  With unit 1 in int8
    it is the sign product alone, the snapshot's value over 3**w.
    """
    n = bases.shape[-1]
    # qubit-major, so each qubit's outcomes over the snapshots are contiguous
    bases, signs = bases.reshape(-1, n).T.copy(), signs.reshape(-1, n).T.copy()
    factors: dict[tuple[int, str], np.ndarray] = {}
    values = np.empty((len(strings), bases.shape[1]), dtype=dtype)
    for row, p in zip(values, strings):
        row[:] = 1
        for q, letter in p.support():
            if (q, letter) not in factors:
                factors[q, letter] = (bases[q] == BASIS_CODES.index(letter)) * (unit * signs[q])
            row *= factors[q, letter]
    return values


def snapshot_values(shadow: ClassicalShadow, strings) -> np.ndarray:
    """Per-snapshot inverse-channel estimator values; support is {0, +-3**w}.

    A sequence of d strings gives shape (S, M, d).  An identity string's
    column is all 1.
    """
    values = _values(shadow.bases, shadow.signs, strings).T
    return values.reshape(shadow.bases.shape[:-1] + (len(strings),))


def estimate_pauli(shadow: ClassicalShadow, strings, n_batches: int = 1) -> np.ndarray:
    """Median-of-means estimate of <P>; n_batches=1 is the plain mean.

    A sequence of d strings gives (S, d) estimates, each state's row
    C-contiguous.  Every string must act on the shadow's qubits.  Strings of
    any weight w are read: each carries its own 3**w scale, and the snapshot
    budget (``ShadowBudget``) sets the accuracy.  n_batches must lie in
    [1, n_snapshots].  Batches follow ``np.array_split`` within each state.
    Every snapshot value is 3**w times an integer sign product, so each
    batch sum is taken exactly in integers: int8 sign products (``_values``
    with unit 1), summed as int64 and then scaled by 3**w.  The estimates
    equal those of float sums of ``snapshot_values`` and depend neither on
    how many strings nor on how many states are read at once.  States are
    read in groups of at most ``_GROUP_ELEMENTS`` snapshot values, since the
    int64 sums cast a group's products to eight bytes each.
    """
    n, d = shadow.n_qubits, len(strings)
    for p in strings:
        if p.n_qubits != n:
            raise ValueError(f"{p} does not act on the shadow's {n} qubits")
    m = shadow.n_snapshots
    if not 1 <= n_batches <= m:
        raise ValueError("n_batches must be in [1, n_snapshots]")
    sizes = np.full(n_batches, m // n_batches)
    sizes[: m % n_batches] += 1
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    scale = 3 ** np.array([p.weight for p in strings], dtype=np.int64)[:, None]
    n_states = len(shadow.bases)
    sums = np.empty((d, n_states, n_batches))
    group = max(1, _GROUP_ELEMENTS // (m * max(1, d)))
    for lo in range(0, n_states, group):
        part = slice(lo, lo + group)
        products = _values(shadow.bases[part], shadow.signs[part], strings, 1, np.int8)
        g = products.shape[1] // m
        # batch b of the group's state s starts at s * M + starts[b]
        offsets = (np.arange(g)[:, None] * m + starts).ravel()
        batch_sums = np.add.reduceat(products, offsets, axis=1, dtype=np.int64) * scale
        sums[:, lo : lo + g] = batch_sums.reshape(d, g, n_batches)
    # the median as np.median takes it, without its first-call import of numpy.ma
    means = np.sort(sums / sizes, axis=2)
    half = n_batches // 2
    if n_batches % 2:
        medians = means[..., half]
    else:
        medians = (means[..., half - 1] + means[..., half]) / 2
    return np.ascontiguousarray(medians.T)


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
        try:
            m = math.ceil(self.c0 * 3**self.w_max * log_term / self.eps**self.exponent)
        except (OverflowError, ZeroDivisionError) as exc:
            # eps**exponent underflowed to 0 or overflowed, or M is beyond a float
            raise ConfigurationError(
                f"shadow budget M cannot be computed in floating point for c0={self.c0}, "
                f"eps={self.eps}, exponent={self.exponent}, w_max={self.w_max}"
            ) from exc
        if m > MAX_SNAPSHOTS:
            raise ConfigurationError(
                f"shadow budget M = {m:.3g} per state exceeds {MAX_SNAPSHOTS}; lower shadow_c0 "
                f"or raise shadow_eps"
            )
        return m
