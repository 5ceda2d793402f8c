"""Pauli-string enumeration and observable algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsolve.pauli import (
    ObservableSum,
    PauliString,
    all_strings,
    enumerate_k_local,
    sum_of_z,
)


def test_set_sizes_match_closed_forms():
    for n in (2, 3, 4, 5):
        assert len(enumerate_k_local(n, 1)) == 3 * n + 1
        assert len(enumerate_k_local(n, 2)) == 9 * n * (n - 1) // 2 + 3 * n + 1
    assert len(all_strings(4)) == 4**4


def test_weight_counting():
    # strings of weight exactly w on n qubits: C(n, w) * 3**w
    for n in (3, 4):
        strings = all_strings(n)
        for w in range(n + 1):
            count = sum(1 for p in strings if p.weight == w)
            assert count == math.comb(n, w) * 3**w


def test_enumeration_is_sorted_and_deterministic():
    strings = enumerate_k_local(4, 2)
    assert strings == sorted(strings, key=lambda p: p.sort_key())
    assert strings == enumerate_k_local(4, 2)
    assert strings[0] == PauliString("IIII")


def test_klocal_subset_nesting():
    loc1 = set(enumerate_k_local(4, 1))
    loc2 = set(enumerate_k_local(4, 2))
    full = set(all_strings(4))
    assert loc1 < loc2 < full
    assert all(p.weight <= 1 for p in loc1)
    assert all(p.weight <= 2 for p in loc2)


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=6))
def test_weight_and_support_agree(letters):
    p = PauliString(letters)
    assert p.weight == len(p.support())
    assert p.weight == sum(1 for c in letters if c != "I")


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(Exception):
        PauliString("XQ")


def test_sum_of_z():
    obs = sum_of_z(3)
    assert len(obs.terms) == 3
    letters = sorted(p.letters for _, p in obs.terms)
    assert letters == ["IIZ", "IZI", "ZII"]
    assert all(c == 1.0 for c, _ in obs.terms)


def test_observable_sum_merges_duplicates_and_drops_zeros():
    p = PauliString("XY")
    merged = ObservableSum([(1.0, p), (2.0, p)])
    assert merged.terms == ((3.0, p),)
    cancelled = ObservableSum([(1.0, p), (-1.0, p)])
    assert cancelled.terms == ()


def test_identity_string():
    p = PauliString("I" * 5)
    assert p.letters == "IIIII"
    assert p.weight == 0
