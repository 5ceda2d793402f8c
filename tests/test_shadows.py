"""Classical-shadow collection and estimation."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsolve import circuits, shadows
from dqsolve.pauli import PauliString, enumerate_k_local
from dqsolve.statevector import (
    ConfigurationError,
    expectation,
    rotate_to_bases,
    sample_bitstrings,
)


def random_state(rng, n):
    """One random state, as a batch of one: shape (1, 2**n)."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return amps[None]


def test_collect_shapes_and_determinism():
    state = random_state(np.random.default_rng(0), 3)
    a = shadows.collect(state, 50, np.random.default_rng(42))
    b = shadows.collect(state, 50, np.random.default_rng(42))
    assert a.bases.shape == (1, 50, 3)
    assert a.signs.shape == (1, 50, 3)
    assert np.array_equal(a.bases, b.bases)
    assert np.array_equal(a.signs, b.signs)
    assert set(np.unique(a.signs)) <= {-1, 1}


def per_snapshot_collect(state, m_snapshots, rng):
    """Reference collection of one amplitude row: rotate and sample one row per snapshot."""
    n = len(state).bit_length() - 1
    bases = rng.integers(0, 3, size=(m_snapshots, n), dtype=np.uint8)
    amps = np.tile(state, (m_snapshots, 1))
    for q in range(n):
        for code, letter in enumerate("XY"):
            rows = bases[:, q] == code
            if rows.any():
                amps[rows] = rotate_to_bases(amps[rows], n, "Z" * q + letter + "Z" * (n - q - 1))
    indices = sample_bitstrings(amps, rng)
    bits = (indices[:, None] >> np.arange(n)[None, :]) & 1
    return bases, (1 - 2 * bits).astype(np.int8)


def plateau_states(n):
    """|0...0>, |1...1>, |+>^n and GHZ: Born rows with exact plateaus in some bases."""
    dim = 2**n
    zeros, ones, ghz = np.zeros((3, dim), dtype=np.complex128)
    zeros[0] = ones[-1] = 1.0
    ghz[[0, -1]] = np.sqrt(0.5)
    return [zeros, ones, np.full(dim, np.sqrt(1 / dim), dtype=np.complex128), ghz]


@pytest.mark.parametrize("m_snapshots", [1, 7, 551, 5000])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_collect_matches_per_snapshot_sampling(n, m_snapshots):
    random = random_state(np.random.default_rng(n), n)[0]
    for state in [random] + plateau_states(n):
        rng, ref_rng = np.random.default_rng(m_snapshots), np.random.default_rng(m_snapshots)
        shadow = shadows.collect(state[None], m_snapshots, rng)
        bases, signs = per_snapshot_collect(state, m_snapshots, ref_rng)
        assert shadow.bases[0].tobytes() == bases.tobytes()
        assert shadow.signs[0].tobytes() == signs.tobytes()
        # same draws in the same order: the generators end in the same state
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("m_snapshots", [1, 7, 551])
@pytest.mark.parametrize("n_states", [1, 3, 73])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_batched_collect_matches_per_state_collects(n, n_states, m_snapshots):
    random = np.concatenate([random_state(np.random.default_rng([n, s]), n)
                             for s in range(n_states)])
    # the plateau states in turn; a batch of 73 holds all four
    plateaus = np.stack([plateau_states(n)[s % 4] for s in range(n_states)])
    seed = n_states * m_snapshots
    for amps in (random, plateaus):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        shadow = shadows.collect(amps, m_snapshots, rng)
        reference = [per_snapshot_collect(row, m_snapshots, ref_rng) for row in amps]
        assert shadow.n_snapshots == m_snapshots
        assert shadow.bases.shape == shadow.signs.shape == (n_states, m_snapshots, n)
        assert shadow.bases.tobytes() == np.stack([bases for bases, _ in reference]).tobytes()
        assert shadow.signs.tobytes() == np.stack([signs for _, signs in reference]).tobytes()
        assert rng.random() == ref_rng.random()


def test_batched_collect_spans_several_groups():
    # 73 states of 551 snapshots at n = 4 sample in groups of 7 states, the last one partial
    n, n_states, m_snapshots = 4, 73, 551
    per_group = shadows._GROUP_ELEMENTS // shadows._collect_words(m_snapshots, n)
    assert 1 < per_group < n_states and n_states % per_group
    amps = np.concatenate([random_state(np.random.default_rng(s), n) for s in range(n_states)])
    shadow = shadows.collect(amps, m_snapshots, np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    for s, row in enumerate(amps):
        alone = shadows.collect(row[None], m_snapshots, ref_rng)
        assert shadow.bases[s].tobytes() == alone.bases[0].tobytes(), s
        assert shadow.signs[s].tobytes() == alone.signs[0].tobytes(), s


def test_batched_collect_peak_memory():
    # one flipped-model epoch at n = 4: 73 states of 551 snapshots.  Its
    # bases, uniforms and signs take 0.64 MB; the groups' temporaries add the rest
    n, n_states, m_snapshots = 4, 73, 551
    amps = np.concatenate([random_state(np.random.default_rng(s), n) for s in range(n_states)])
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        shadows.collect(amps, m_snapshots, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("locality", [1, 2])
def test_batched_estimate_peak_memory(locality):
    # one flipped-model epoch at n = 4 (73 states of 551 snapshots) read with
    # the 13-string loc1 or the 67-string loc2 set.  The int64 batch sums cast
    # one group's sign products at a time, at most _GROUP_ELEMENTS of them
    # (0.52 MB); the (strings, states, batches) sums and their median take
    # 0.63 MB each for loc2.  All the snapshots' products at once would take
    # 4.2 MB as int64 for loc1, 21.6 MB for loc2
    n, n_states, m_snapshots = 4, 73, 551
    amps = np.concatenate([random_state(np.random.default_rng(s), n) for s in range(n_states)])
    shadow = shadows.collect(amps, m_snapshots, np.random.default_rng(9))
    strings = enumerate_k_local(n, locality)
    n_batches = shadows.default_batches(len(strings))
    shadows.estimate_pauli(shadow, strings[:1], n_batches)   # numpy's lazy set-up
    tracemalloc.start()
    try:
        shadows.estimate_pauli(shadow, strings, n_batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("n_batches", [1, 10, 551])
@pytest.mark.parametrize("locality", [1, 2])
def test_batched_estimates_match_per_state_calls(locality, n_batches):
    n, n_states = 4, 7
    amps = np.concatenate([random_state(np.random.default_rng(s), n) for s in range(n_states)])
    shadow = shadows.collect(amps, 551, np.random.default_rng(23))
    strings = enumerate_k_local(n, locality)
    together = shadows.estimate_pauli(shadow, strings, n_batches)
    assert together.shape == (n_states, len(strings))
    # one string over every state gives that string's column
    last = shadows.estimate_pauli(shadow, strings[-1:], n_batches)
    assert last.shape == (n_states, 1)
    for s in range(n_states):
        alone = shadows.ClassicalShadow(n, shadow.bases[s : s + 1], shadow.signs[s : s + 1])
        expected = shadows.estimate_pauli(alone, strings, n_batches)[0]
        assert together[s].flags.c_contiguous
        assert together[s].tobytes() == expected.tobytes(), s
        assert last[s, 0] == shadows.estimate_pauli(alone, strings[-1:], n_batches)[0, 0]
    values = shadows.snapshot_values(shadow, strings)
    assert values.shape == (n_states, 551, len(strings))
    assert values[2].tobytes() == shadows.snapshot_values(
        shadows.ClassicalShadow(n, shadow.bases[2:3], shadow.signs[2:3]), strings)[0].tobytes()


def test_collect_rejects_empty():
    with pytest.raises(ValueError):
        shadows.collect(np.array([[1.0, 0.0]], dtype=np.complex128), 0, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_snapshot_values_support(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    shadow = shadows.collect(state, 40, rng)
    letters = "".join(rng.choice(list("IXYZ"), size=n))
    pstring = PauliString(letters)
    values = shadows.snapshot_values(shadow, [pstring])
    allowed = {0.0, float(3**pstring.weight), -float(3**pstring.weight)}
    assert set(np.unique(values)) <= allowed


def test_identity_estimates_to_one():
    state = random_state(np.random.default_rng(1), 2)
    shadow = shadows.collect(state, 10, np.random.default_rng(2))
    assert shadows.estimate_pauli(shadow, [PauliString("II")])[0, 0] == 1.0


def test_single_batch_is_plain_mean():
    rng = np.random.default_rng(3)
    state = random_state(rng, 2)
    shadow = shadows.collect(state, 200, rng)
    pstring = PauliString("ZI")
    values = shadows.snapshot_values(shadow, [pstring])
    assert shadows.estimate_pauli(shadow, [pstring], n_batches=1)[0, 0] == pytest.approx(values.mean())


def test_estimator_converges_to_exact():
    rng = np.random.default_rng(7)
    circ = circuits.hea(3, 1)
    bindings = {p: float(rng.uniform(-np.pi, np.pi)) for p in circ.variational_params}
    state = circuits.run_batch(circ, bindings, 1)
    shadow = shadows.collect(state, 30000, rng)
    for letters in ("ZII", "IXI", "IIY", "ZZI", "XIY"):
        pstring = PauliString(letters)
        est = shadows.estimate_pauli(shadow, [pstring])[0, 0]
        exact = expectation(state, pstring)[0]
        bound = 3.0 * np.sqrt(3.0**pstring.weight / 30000)
        assert abs(est - exact) <= bound, (letters, est, exact)


def test_locality_cap_enforced():
    state = random_state(np.random.default_rng(0), 3)
    shadow = shadows.collect(state, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        shadows.estimate_pauli(shadow, [PauliString("XYZ")], locality_cap=2)
    # raising the cap admits it
    shadows.estimate_pauli(shadow, [PauliString("XYZ")], locality_cap=3)


def per_string_values(shadow, pstring):
    """Reference snapshot values of a one-state shadow: 3**w times the outcome
    signs on the support, 0 on a basis mismatch."""
    values = np.full(shadow.n_snapshots, float(3**pstring.weight))
    for q, letter in pstring.support():
        values *= (shadow.bases[0, :, q] == "XYZ".index(letter)) * shadow.signs[0, :, q]
    return values


@pytest.mark.parametrize("n_batches", [1, 2, 7, 8, 10, 551])
def test_sequence_form_matches_the_per_string_loop(n_batches):
    rng = np.random.default_rng(17)
    state = random_state(rng, 3)
    shadow = shadows.collect(state, 551, rng)   # 551 = 10 * 55 + 1: uneven batches
    # every string of weight <= 2, identity included, in a shuffled order
    strings = enumerate_k_local(3, 2)
    strings = [strings[i] for i in np.random.default_rng(n_batches).permutation(len(strings))]
    together = shadows.estimate_pauli(shadow, strings, n_batches)[0]
    one_by_one = [shadows.estimate_pauli(shadow, [p], n_batches)[0, 0] for p in strings]
    assert together.shape == (len(strings),)
    assert together.tobytes() == np.array(one_by_one).tobytes()
    # both equal the median of np.array_split batch means of the reference values
    values = shadows.snapshot_values(shadow, strings)[0]
    reference = [per_string_values(shadow, p) for p in strings]
    assert values.tobytes() == np.stack(reference, axis=1).tobytes()
    textbook = [
        np.median([batch.mean() for batch in np.array_split(ref, n_batches)]) for ref in reference
    ]
    assert together.tobytes() == np.array(textbook).tobytes()


def test_a_shadow_epoch_does_not_load_numpy_ma():
    """estimate_pauli takes its median without np.median, whose first call imports numpy.ma."""
    code = (
        "import dataclasses, sys; from dqsolve import cli, config; "
        "cli.execute(dataclasses.replace(config.default_config('damped_osc', 'fs'), "
        "fs_mode='shadow', epochs=1)); print('numpy.ma' in sys.modules)"
    )
    src = str(Path(shadows.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_sequence_form_checks_every_string_and_the_batch_count():
    state = random_state(np.random.default_rng(0), 3)
    shadow = shadows.collect(state, 10, np.random.default_rng(0))
    strings = [PauliString("ZII"), PauliString("XYZ"), PauliString("IIX")]
    with pytest.raises(ValueError, match="locality cap"):
        shadows.estimate_pauli(shadow, strings, locality_cap=2)
    assert shadows.estimate_pauli(shadow, strings, locality_cap=3).shape == (1, 3)
    for bad in (0, 11):
        with pytest.raises(ValueError, match="n_batches"):
            shadows.estimate_pauli(shadow, strings[::2], n_batches=bad)


def test_median_of_means_bounds_outliers():
    rng = np.random.default_rng(11)
    state = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.complex128)  # |00>: <ZZ> = 1 exactly
    shadow = shadows.collect(state, 2000, rng)
    est = shadows.estimate_pauli(shadow, [PauliString("ZZ")], n_batches=10)[0, 0]
    assert abs(est - 1.0) < 0.5


def test_default_batches():
    assert shadows.default_batches(1) == 2
    assert shadows.default_batches(13) == 2 * 5   # ceil(log2(26)) = 5
    assert shadows.default_batches(0) == 2


def test_budget_scales_logarithmically():
    budget = shadows.ShadowBudget()
    m20 = budget.snapshots(20, 1)
    m400 = budget.snapshots(400, 1)
    assert m400 - m20 == pytest.approx(
        budget.c0 * 3**budget.w_max * (np.log2(800) - np.log2(40)), abs=1.0
    )
    # halving eps with the square-exponent quadruples the budget
    tight = shadows.ShadowBudget(eps=0.5)
    assert tight.snapshots(20, 1) == pytest.approx(4 * m20, rel=0.01)


def test_budget_is_capped():
    # the default budget is far below the cap and unchanged by it
    assert shadows.ShadowBudget().snapshots(20, 1) == 543   # ceil(34 * 3 * log2(40))
    at_cap = shadows.ShadowBudget(c0=shadows.MAX_SNAPSHOTS / 3, w_max=1)
    assert at_cap.snapshots(1, 0) == shadows.MAX_SNAPSHOTS   # log2(max(2, 1)) = 1
    over = shadows.ShadowBudget(c0=shadows.MAX_SNAPSHOTS / 3 + 1, w_max=1)
    with pytest.raises(ConfigurationError, match="exceeds"):
        over.snapshots(1, 0)
    with pytest.raises(ConfigurationError, match="exceeds"):
        shadows.ShadowBudget(w_max=600).snapshots(20, 1)
