"""The stacked Pauli readout against the per-string loop it replaces."""

import tracemalloc

import numpy as np
import pytest

from dqsolve import models, pauli, problems, statevector
from dqsolve.statevector import pauli_expectation_batch, pauli_tables
from dqsolve.training import EvalCounter

POINTS = np.linspace(0.05, 0.95, 7)[:, None]
MODES = [(), (0,), (0, 0)]


def _random_states(rng, batch, n):
    amps = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _read_string(amps, letters, bra=None):
    """The local reference: one string's <psi|P|psi>, or Re<bra|P|psi>, per row."""
    src, coef = statevector.pauli_action(letters)
    conj = np.conj(amps if bra is None else bra)
    return np.einsum("bi,bi->b", conj, coef[None, :] * amps[:, src]).real


def _per_string(amps, labels, bra=None):
    return np.stack([_read_string(amps, s, bra) for s in labels], axis=1)


STRING_SETS = [pauli.all_strings(n) for n in range(1, 6)] + [pauli.enumerate_k_local(6, 2)]


@pytest.mark.parametrize("batch", [1, 22, 200])
@pytest.mark.parametrize("strings", STRING_SETS, ids=lambda s: f"n{s[0].n_qubits}-d{len(s)}")
def test_stacked_readout_equals_per_string(strings, batch):
    labels = [p.letters for p in strings]
    n = strings[0].n_qubits
    amps = _random_states(np.random.default_rng(batch * 10 + n), batch, n)
    got = pauli_expectation_batch(amps, pauli_tables(labels))
    assert got.shape == (batch, len(labels)) and got.dtype == np.float64
    assert np.array_equal(got, _per_string(amps, labels))


def test_stacked_readout_reads_ragged_unsorted_groups():
    # X-patterns arrive unsorted, in groups of 1 to 5 rows, one label twice;
    # the columns come back in input order, equal to the per-string loop
    labels = ["XYZ", "ZII", "IXY", "ZII", "YXI", "IIZ", "XXX", "ZZZ", "IZI"]
    src, _ = pauli_tables(labels)
    assert src[:, 0].tolist() == [3, 0, 6, 0, 3, 0, 7, 0, 0]
    rng = np.random.default_rng(5)
    amps, bra = _random_states(rng, 22, 3), _random_states(rng, 22, 3)
    for other in (None, bra):
        got = pauli_expectation_batch(amps, pauli_tables(labels), other)
        assert np.array_equal(got, _per_string(amps, labels, other))
    assert np.array_equal(got[:, 1], got[:, 3])


@pytest.mark.parametrize("batch", [1, 7, 200])
def test_stacked_readout_does_not_depend_on_the_batch(batch):
    # every string at n = 4 and the total-Z diagonal row: each row read alone,
    # and any slice of rows, equals the full-batch read bit for bit
    src, coef = pauli_tables([p.letters for p in pauli.all_strings(4)])
    diag_src, diag_coef = models.diagonal_table(pauli.sum_of_z(4))
    tables = (np.concatenate([src, diag_src]), np.concatenate([coef, diag_coef]))
    rng = np.random.default_rng(batch)
    amps, bra = _random_states(rng, batch, 4), _random_states(rng, batch, 4)
    for other in (None, bra):
        full = pauli_expectation_batch(amps, tables, other)
        for b in range(batch):
            alone = pauli_expectation_batch(amps[b : b + 1], tables, None if other is None else other[b : b + 1])
            assert np.array_equal(alone[0], full[b])
        for part in (slice(1, None), slice(0, batch // 2 + 1), slice(batch // 3, 2 * batch // 3 + 1)):
            got = pauli_expectation_batch(amps[part], tables, None if other is None else other[part])
            assert np.array_equal(got, full[part])


def test_hermitian_read_checks_every_group():
    # an anti-Hermitian row in the middle of a group of several rows
    labels = [p.letters for p in pauli.all_strings(3)]
    src, coef = pauli_tables(labels)
    group = np.flatnonzero(src[:, 0] == src[labels.index("ZZI"), 0])
    assert len(group) > 2
    coef = coef.copy()
    coef[group[len(group) // 2]] *= 1j
    rng = np.random.default_rng(8)
    amps, bra = _random_states(rng, 5, 3), _random_states(rng, 5, 3)
    with pytest.raises(AssertionError):
        pauli_expectation_batch(amps, (src, coef))
    pauli_expectation_batch(amps, (src, coef), bra)
    # the tolerance follows each row's scale, and a large row is no exception
    coef[group[len(group) // 2]] *= 1e8
    with pytest.raises(AssertionError):
        pauli_expectation_batch(amps, (src, coef))


def test_hermitian_read_of_large_weighted_rows():
    """Rows of large weights (a trained TO's alpha-weighted table) read
    without complaint: the rounding in their imaginary part is far above
    1e-10 but a tiny share of the row's scale.  Their values are the
    weighted sums of the string reads."""
    labels = [p.letters for p in pauli.all_strings(4)]
    rng = np.random.default_rng(3)
    weights = 1e7 * rng.normal(size=len(labels))
    amps = _random_states(rng, 50, 4)
    got = pauli_expectation_batch(amps, statevector.weighted_table(pauli_tables(labels), weights))
    reference = _per_string(amps, labels) @ weights
    assert np.allclose(got.sum(axis=1), reference, rtol=1e-12, atol=1e-12 * np.abs(weights).sum())


@pytest.mark.parametrize("batch", [66, 420, 1600])
def test_stacked_readout_peak_memory(batch):
    # the temporaries are one partner block and one group's values at a time
    tables = pauli_tables([p.letters for p in pauli.all_strings(5)])
    amps = _random_states(np.random.default_rng(batch), batch, 5)
    tracemalloc.start()
    try:
        out = pauli_expectation_batch(amps, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * amps.nbytes + 64 * 1024


def test_stacked_readout_reads_cross_terms():
    # Re<bra|P|psi>, ragged last chunk included; the cross terms carry an
    # imaginary part that the Hermitian read would have refused
    rng = np.random.default_rng(9)
    amps, bra = _random_states(rng, 22, 5), _random_states(rng, 22, 5)
    labels = [p.letters for p in pauli.all_strings(5)]
    got = pauli_expectation_batch(amps, pauli_tables(labels), bra)
    assert np.array_equal(got, _per_string(amps, labels, bra))
    src, coef = pauli_tables(labels)
    direct = np.einsum("bi,dbi->bd", np.conj(bra), coef[:, None, :] * amps[:, src].transpose(1, 0, 2))
    assert np.allclose(got, direct.real, rtol=0.0, atol=1e-12)
    assert np.abs(direct.imag).max() > 1e-3


def _assert_matches_the_shift_rule(got, reference, mode):
    """Values read off one unshifted run equal the reference bit for bit;
    derivatives from exact jets agree with the shift rule to 1e-12."""
    if mode:
        assert np.allclose(got, reference, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(got, reference)


def test_mode_expectations_sum_terms_in_order():
    # the original model's total-Z diagonal row and plain strings, one shared
    # between the rows, read off one stacked call; the reference reads each
    # row of each shift configuration's run, equal bit for bit at mode () and
    # to rounding for the jets' derivatives
    n = 3
    circuit = models.encoding_circuit(n, 1)
    enc = models._enc_by_dim(circuit, 1)
    diag_src, diag_coef = models.diagonal_table(pauli.sum_of_z(n))
    src, coef = pauli_tables(["XYZ", "ZII", "IXY", "ZII"])
    tables = (np.concatenate([diag_src, src]), np.concatenate([diag_coef, coef]))
    bindings = {"x0": POINTS[:, 0]}
    for mode in MODES:
        got = models.mode_expectations(circuit, bindings, len(POINTS), enc, mode, tables)

        def evaluate(shifts):
            amps = models.run_batch(circuit, bindings, len(POINTS), shifts=shifts)
            rows = [pauli_expectation_batch(amps, (s[None], c[None]))[:, 0] for s, c in zip(*tables)]
            return np.stack(rows, axis=0)

        reference = models._combine_over_mode(circuit, enc, mode, evaluate)
        _assert_matches_the_shift_rule(got, reference, mode)


@pytest.mark.parametrize(
    "observable",
    [
        pauli.sum_of_z(4),
        pauli.ObservableSum([(0.5, pauli.PauliString("ZIIZ")), (-2.0, pauli.PauliString("IZZI"))]),
    ],
    ids=["sum_of_z", "weighted"],
)
def test_diagonal_table_equals_the_per_string_read(observable):
    # one diagonal row against the strings it sums, read one by one: plain
    # and cross-term (bra) reads agree to 1e-13, the co-state coef * amps to
    # sum of coef * P|psi>
    rng = np.random.default_rng(21)
    amps, bra = _random_states(rng, 22, 4), _random_states(rng, 22, 4)
    cost = models.diagonal_table(observable)
    assert cost[0].shape == cost[1].shape == (1, 16)
    for other in (None, bra):
        strings = sum(c * _read_string(amps, p.letters, other) for c, p in observable.terms)
        got = pauli_expectation_batch(amps, cost, other)[:, 0]
        assert np.allclose(got, strings, rtol=0.0, atol=1e-13)
    lam = np.zeros_like(amps)
    for c, p in observable.terms:
        p_src, p_coef = statevector.pauli_action(p.letters)
        lam += c * p_coef * amps[:, p_src]
    assert np.allclose(cost[1] * amps, lam, rtol=0.0, atol=1e-13)


def test_diagonal_table_refuses_off_diagonal_strings():
    with pytest.raises(statevector.ConfigurationError):
        models.diagonal_table(pauli.ObservableSum([(1.0, pauli.PauliString("ZX"))]))


def test_to_table_equals_per_string_reference():
    n = 3
    strings = pauli.all_strings(n)
    counter = EvalCounter()
    table = models.precompute_to_table(POINTS, MODES, strings, n, counter=counter)
    circuit = models.encoding_circuit(n, 1)
    enc = models._enc_by_dim(circuit, 1)

    def per_string(points, mode):
        bindings = {"x0": points[:, 0]}

        def evaluate(shifts):
            amps = models.run_batch(circuit, bindings, len(points), shifts=shifts)
            return np.stack([_read_string(amps, p.letters) for p in strings], axis=0)

        return models._combine_over_mode(circuit, enc, mode, evaluate).T  # (n_pts, d)

    for mode in MODES:
        _assert_matches_the_shift_rule(table.entries[mode], per_string(POINTS, mode), mode)
    # d * n_points * E(mode) with E = 1, 2n, 4n**2 for n encoding gates
    expected = len(strings) * len(POINTS) * (1 + 2 * n + 4 * n**2)
    assert counter.snapshot() == {
        "precompute": expected, "per_epoch": 0, "inference": 0, "total": expected,
    }

    # off-table inference reads sum alpha_l P_l as one row per X-pattern, so it
    # sums in another order than the per-string product with alpha, at every
    # mode; the table entries above stay exact at mode ()
    model = models.TOModel(table)
    params = model.init_params(np.random.default_rng(0))
    dense = np.linspace(0.0, 1.0, 11)[:, None]
    for mode in MODES:
        reference = params[-1] * (per_string(dense, mode) @ params[:-1])
        got = model.values_at(params, dense, mode)
        assert np.allclose(got, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())


@pytest.fixture
def action_calls(monkeypatch):
    calls = []
    original = statevector.pauli_action

    def counted(letters):
        calls.append(letters)
        return original(letters)

    monkeypatch.setattr(statevector, "pauli_action", counted)
    return calls


def test_pauli_tables_built_once_per_table(action_calls):
    strings = pauli.enumerate_k_local(4, 2)
    d = len(strings)
    table = models.precompute_to_table(POINTS, MODES, strings, 4)
    assert len(action_calls) == d
    model = models.TOModel(table)
    params = model.init_params(np.random.default_rng(0))
    dense = np.linspace(0.0, 1.0, 11)
    model.values_at(params, dense)
    model.values_at(params, dense, mode=(0,))
    assert len(action_calls) == d

    # however many models share the table, none builds its tables again
    first, second = models.TOModel(table), models.TOModel(table)
    assert np.array_equal(first.values_at(params, dense), model.values_at(params, dense))
    second.values_at(params, dense)
    assert len(action_calls) == d


_DENSE_LETTERS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _dense_string(letters):
    """A Pauli string as a 2**n x 2**n matrix by Kronecker products: qubit 0,
    the leftmost letter, is the least-significant bit of the index."""
    out = np.eye(1)
    for letter in letters:
        out = np.kron(_DENSE_LETTERS[letter], out)
    return out


def _dense_table(tables):
    """The sum of a table's rows as a matrix: row k maps psi to coef[k] * psi[src[k]]."""
    src, coef = tables
    out = np.zeros((src.shape[1], src.shape[1]), dtype=np.complex128)
    rows = np.arange(src.shape[1])
    for s, c in zip(src, coef):
        out[rows, s] += c
    return out


@pytest.mark.parametrize(
    "labels",
    [
        [p.letters for p in pauli.all_strings(3)],
        ["ZIZ", "IZI", "III", "ZZZ", "IIZ"],   # one X-pattern
        ["XYZ", "ZII", "IXY", "YXI", "IIZ", "XXX", "ZZZ", "IZI", "YZY"],   # unsorted patterns
    ],
    ids=["all-n3", "one-pattern", "unsorted"],
)
def test_weighted_table_is_the_weighted_operator(labels):
    weights = np.random.default_rng(len(labels)).normal(size=len(labels))
    src, coef = statevector.weighted_table(pauli_tables(labels), weights)
    patterns = sorted({statevector.pauli_action(s)[0][0] for s in labels})
    assert src[:, 0].tolist() == patterns and coef.shape == src.shape
    reference = sum(w * _dense_string(s) for w, s in zip(weights, labels))
    assert np.allclose(_dense_table((src, coef)), reference, rtol=0.0, atol=1e-14)


def _diagonal_reference(observable):
    """The parent formula of ``diagonal_table``: every Z string's coef row,
    weighted and summed over axis 0 in term order."""
    src, coef = pauli_tables([p.letters for _c, p in observable.terms])
    weights = np.array([c for c, _p in observable.terms])
    return src[:1], (weights[:, None] * coef).sum(axis=0, keepdims=True)


def _weighted_z_sum(n_terms, n):
    rng = np.random.default_rng(n_terms)
    letters = ["".join(rng.choice(["I", "Z"], size=n)) for _ in range(n_terms)]
    return pauli.ObservableSum([(w, pauli.PauliString(s)) for w, s in zip(rng.normal(size=n_terms), letters)])


@pytest.mark.parametrize(
    "observable",
    [pauli.sum_of_z(n) for n in range(1, 9)] + [_weighted_z_sum(40, 6)],
    ids=[f"sum_of_z{n}" for n in range(1, 9)] + ["weighted40"],
)
def test_diagonal_table_keeps_its_bits(observable):
    got, reference = models.diagonal_table(observable), _diagonal_reference(observable)
    assert got[0].tobytes() == reference[0].tobytes()
    assert got[1].tobytes() == reference[1].tobytes()


def _to_model(n, strings, points, modes):
    return models.TOModel(models.precompute_to_table(points, modes, strings, n))


def _per_string_inference(model, params, points, mode):
    """The read the contraction replaces: every string's jet, then a_s * (rows @ alpha)."""
    circuit = models.encoding_circuit(len(model.table.labels[0]), model.dimension)
    enc = models._enc_by_dim(circuit, model.dimension)
    rows = models.mode_expectations(
        circuit, models._input_bindings(points), len(points), enc, tuple(mode), model.table.tables
    ).T
    return params[-1] * (rows @ params[:-1])


def _assert_inference_matches(model, params, points, modes):
    for mode in modes:
        reference = _per_string_inference(model, params, points, mode)
        got = model.values_at(params, points, mode)
        assert got.shape == reference.shape
        assert np.allclose(got, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize(
    "strings",
    [pauli.enumerate_k_local(3, 1), pauli.enumerate_k_local(3, 2), pauli.all_strings(3)],
    ids=["loc1", "loc2", "all"],
)
def test_to_inference_equals_the_per_string_product(strings):
    model = _to_model(3, strings, POINTS, MODES)
    params = model.init_params(np.random.default_rng(4))
    params[-1] = 1.7
    _assert_inference_matches(model, params, np.linspace(0.0, 1.0, 23)[:, None], MODES)


def test_to_inference_equals_the_per_string_product_in_2d():
    problem = problems.twod_linear()
    model = _to_model(4, pauli.enumerate_k_local(4, 2), problem.eval_points[::40], problem.all_modes)
    params = model.init_params(np.random.default_rng(5))
    axis = np.linspace(0.0, 1.0, 6)
    dense = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    _assert_inference_matches(model, params, dense, problem.all_modes)


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_to_inference_does_not_depend_on_the_batch(mode):
    model = _to_model(5, pauli.all_strings(5), POINTS, MODES)
    params = model.init_params(np.random.default_rng(6))
    dense = np.linspace(0.0, 1.0, 200)[:, None]
    full = model.values_at(params, dense, mode)
    alone = [model.values_at(params, dense[b : b + 1], mode) for b in range(len(dense))]
    assert np.concatenate(alone).tobytes() == full.tobytes()


@pytest.mark.parametrize("mode, limit", [((), 1 << 20), ((0, 0), 2 << 20)], ids=["()", "(0,0)"])
def test_to_inference_peak_memory(mode, limit):
    # n = 5, all 1,024 strings, 200 points: the contracted read holds 32 rows,
    # not a (1024, 200) array and its transpose
    model = _to_model(5, pauli.all_strings(5), POINTS, MODES)
    params = model.init_params(np.random.default_rng(7))
    dense = np.linspace(0.0, 1.0, 200)[:, None]
    model.values_at(params, dense, mode)   # the index tables are cached on first use
    tracemalloc.start()
    try:
        model.values_at(params, dense, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit
