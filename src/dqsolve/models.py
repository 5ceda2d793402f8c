"""The three trial-function families with a uniform evaluation interface.

Every model exposes:

* ``init_params(rng)`` -> flat parameter vector;
* ``values(params, idx, mode)`` -> trial-function (derivative) values at a
  subset of the model's fixed evaluation points, ``idx`` an index array or a
  slice (a slice reads the model's tables without copying them);
* ``jacobian(params, idx, mode)`` -> derivative of those values with respect
  to every parameter;
* on the flipped model, ``begin_epoch(params, rng)``, which gathers its
  quantum data once per epoch; the model reads only that gather, at its angles.

A ``mode`` is a tuple of input-dimension indices: () is the plain value,
(0,) is d/dx0, (0, 0) the second derivative, (1,) is d/dx1 for 2D inputs.

Every quantum read takes one observable format, a ``pauli_tables`` pair (src,
coef); the original model reads its cost operator as one ``diagonal_table`` row,
and trainable-observable inference reads sum alpha_l P_l as its
``weighted_table``, one row per X-pattern.

Quantum charges go through a counter object with a ``charge(n, phase=...)``
method; models charge according to their protocol's cost policy, not
according to how the classical simulation happens to be organized.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import circuits, pauli, shadows
from .circuits import CircuitSpec, run_batch
from .statevector import (
    ConfigurationError,
    pauli_batch,
    pauli_expectation_batch,
    pauli_tables,
    weighted_table,
)

SHIFT = np.pi / 2.0

# seed of the static basis-change unitary behind the trainable observable's
# candidate set; fixed so tables are comparable across runs
UB_SEED = 2

PHASE_PRECOMPUTE = "precompute"
PHASE_EPOCH = "per_epoch"
PHASE_INFERENCE = "inference"


def _charge(counter, n, phase):
    if counter is not None and n:
        counter.charge(n, phase=phase)


# ---------------------------------------------------------------------------
# basis functions for the flipped model's input-dependent observable


def _chebyshev_jet(u: np.ndarray, l_max: int, max_order: int) -> np.ndarray:
    """T_l^(r)(u) for l = 0..l_max and r = 0..max_order, shape (max_order + 1,
    len(u), l_max + 1).

    One recurrence carries every order at once:
    T_l^(r) = 2u T_{l-1}^(r) + 2r T_{l-1}^(r-1) - T_{l-2}^(r), from T_0 = 1 and
    T_1 = u.  Row r depends only on rows r and below, so its values do not
    depend on how many orders are carried.
    """
    out = np.zeros((max_order + 1,) + u.shape + (l_max + 1,))
    # [T_l, T_l', ...] for the two previous l
    prev2 = np.zeros((max_order + 1,) + u.shape)
    prev1 = np.zeros_like(prev2)
    prev2[0] = 1.0
    out[0, :, 0] = 1.0
    if l_max >= 1:
        prev1[0] = u
        if max_order >= 1:
            prev1[1] = 1.0
        out[..., 1] = prev1
    two_u = 2.0 * u
    two_r = 2.0 * np.arange(1, max_order + 1)[:, None]
    for l in range(2, l_max + 1):
        cur = two_u * prev1 - prev2
        cur[1:] += two_r * prev1[:-1]
        out[..., l] = cur
        prev2, prev1 = prev1, cur
    return out


@functools.lru_cache(maxsize=None)
def _graded(dimension: int, count: int) -> tuple:
    found: list[tuple[int, ...]] = []
    for degree in itertools.count():
        tuples = (t for t in itertools.product(range(degree + 1), repeat=dimension) if sum(t) == degree)
        found += sorted(tuples, reverse=True)
        if len(found) >= count:
            return tuple(found[:count])


def graded_multi_indices(dimension: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` exponent tuples of any dimension, by total degree,
    then in descending lexicographic order; built once per (dimension, count)."""
    return list(_graded(dimension, count))


def basis_matrix(u: np.ndarray, count: int, max_order: int) -> dict:
    """The basis jet: the product Chebyshev basis and its derivatives at
    points ``u`` (shape (m, D)).

    Returns one (m, count) matrix, one column per basis function in graded
    order, for every tuple of per-dimension derivative orders whose total is
    at most ``max_order``, keyed by that tuple.  Each dimension's orders come
    from one all-orders pass (``_chebyshev_jet``); a tuple's matrix is the
    product of its dimensions' columns.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    dim = u.shape[1]
    indices = np.array(graded_multi_indices(dim, count))
    per_dim = [_chebyshev_jet(u[:, d], int(indices.max()), max_order) for d in range(dim)]
    jet = {}
    for orders in itertools.product(range(max_order + 1), repeat=dim):
        if sum(orders) <= max_order:
            # take keeps the columns C-contiguous: a matmul over them then
            # sums each row in the same order as over a stacked matrix
            cols = per_dim[0][orders[0]].take(indices[:, 0], axis=1)
            for d in range(1, dim):
                cols = cols * per_dim[d][orders[d]].take(indices[:, d], axis=1)
            jet[orders] = cols
    return jet


# ---------------------------------------------------------------------------
# shared machinery: input derivatives of expectations through an encoding
# circuit.  The parameter-shift rule only charges; exact jets compute values.


def shift_rule(enc_by_dim: dict[int, list[int]], mode: tuple[int, ...]) -> list:
    """The parameter-shift rule for an input derivative, as a table.

    One group per tuple of encoding gates (one gate per entry of ``mode``),
    each holding its ``(sign, shifts)`` corners: every gate of the group
    shifted by +-pi/2, shifts on a repeated gate added.  The derivative is
    the sum over groups of prod(scale) * sum(sign * f(shifts)) / 2**len(gates).
    The value mode () is one empty group with the single corner (1, {});
    first derivatives have 2*n_enc corners, second ones 4*n_enc**2.
    """
    groups = []
    for gates in itertools.product(*(enc_by_dim[d] for d in mode)):
        corners = []
        for signs in itertools.product((1.0, -1.0), repeat=len(gates)):
            shifts: dict[int, float] = {}
            for g, sign in zip(gates, signs):
                shifts[g] = shifts.get(g, 0.0) + sign * SHIFT
            corners.append((math.prod(signs), shifts))
        groups.append((gates, corners))
    return groups


# Reached only through mode_variational_grads, and kept with it.
def _combine_over_mode(circuit, enc_by_dim, mode, evaluate):
    """Sum shifted evaluations into an input derivative of the given mode.

    ``evaluate(shifts)`` returns an array; the corners of ``shift_rule`` say
    which shifts to evaluate and with which sign.  This is the shift-rule
    reference the tests hold the jets to; no production path calls it.
    """
    total = None
    for gates, corners in shift_rule(enc_by_dim, mode):
        corner = None
        for sign, shifts in corners:
            term = sign * evaluate(shifts)
            corner = term if corner is None else corner + term
        term = math.prod(circuit.gates[g].scale for g in gates) * corner / 2 ** len(gates)
        total = term if total is None else total + term
    return total


def diagonal_table(observable) -> tuple[np.ndarray, np.ndarray]:
    """A sum of Z strings as one ``pauli_tables`` row (src, coef), each of
    shape (1, 2**n).

    Every Z string maps each basis state to itself, so its ``src`` row is the
    identity and the ``weighted_table`` of the strings is one row, the
    diagonal of C: one pass reads <C> or Re<bra|C|psi>, and C|psi> is
    ``coef * amps``.
    """
    terms = observable.terms
    src, coef = weighted_table(pauli_tables([p.letters for _c, p in terms]), [c for c, _p in terms])
    if len(src) != 1 or np.any(src != np.arange(src.shape[1])):
        raise ConfigurationError("a diagonal table takes Z strings only")
    return src, coef


def adjoint_gradients(circuit, bindings, amps, lam, gate_indices):
    """One backward sweep from final states ``amps`` and co-states ``lam``.

    Returns G[k, r] = Im <lam_r|P_k amps_r> * scale_k for each listed
    rotation gate k (generator P_k) and row r, shape (len(gate_indices),
    rows), read with both stacks swept back to just after gate k.  With lam =
    C|a> this is d<a|C|a>/d(angle_k), exactly what the parameter-shift rule
    gives; with lam = C|b> it is the a-side of d Re<a|C|b>/d(angle_k).  The
    sweep works on one (2 * rows, 2**n) stack of both, so every gate is
    unapplied once; ``amps`` and ``lam`` are not swept in place and come back
    unchanged.  P_k amps is ``pauli_batch`` of the gate's axis and qubit.
    """
    n = circuit.n_qubits
    position = {g: k for k, g in enumerate(gate_indices)}
    stack = np.concatenate([amps, lam])
    states, costates = stack[: len(amps)], stack[len(amps) :]
    # a per-row binding (shape (rows,)) binds both halves of the stack
    bindings = {name: v if np.ndim(v) == 0 else np.tile(v, 2) for name, v in bindings.items()}
    first = min(gate_indices)
    grads = np.empty((len(gate_indices), len(amps)))
    for i in range(len(circuit.gates) - 1, first - 1, -1):
        gate = circuit.gates[i]
        k = position.get(i)
        if k is not None:
            generated = pauli_batch(states, n, gate.qubits[0], gate.kind[1])
            inner = np.einsum("bi,bi->b", np.conj(costates), generated)
            # dU/dtheta U^dag = -i/2 * scale * P on the target qubit, and
            # 2 Re(-i/2 z) = Im z
            grads[k] = inner.imag * gate.scale
        if i > first:
            circuits.unapply_gate_to_batch(stack, n, gate, bindings)
    return grads


# Kept because perfbench/spans.py looks it up by name; ROADMAP item 8 deletes it after item 2.
def mode_variational_grads(circuit, bindings, batch, enc_by_dim, mode, cost, gate_indices):
    """A mode expectation of the ``diagonal_table`` ``cost`` (row 0) and its
    gradient with respect to the listed rotation gates (rows 1..), one
    adjoint sweep per shift configuration: the shift-rule reference for the
    original model's jets.  The sweep ends before the shifted input prefix."""
    _encoder_length(circuit)   # raises unless the input-bound gates are an RX prefix

    def evaluate(shifts):
        amps = run_batch(circuit, bindings, batch, shifts=shifts)
        value = pauli_expectation_batch(amps, cost)[:, 0]
        grads = adjoint_gradients(circuit, bindings, amps, cost[1] * amps, gate_indices)
        return np.vstack([value[None, :], grads])

    return _combine_over_mode(circuit, enc_by_dim, mode, evaluate)


# ---------------------------------------------------------------------------
# exact input-derivative jets


def _encoder_length(circuit: CircuitSpec) -> int:
    """Length of the input-bound prefix; every input-bound gate must sit in it
    and be an RX."""
    bound = [i for i, g in enumerate(circuit.gates) if g.param in circuit.input_params]
    if bound != list(range(len(bound))) or any(circuit.gates[i].kind != "RX" for i in bound):
        raise ConfigurationError(
            "input-derivative jets need the input-bound gates to form an RX-only prefix"
        )
    return len(bound)


def prefix_jets(circuit: CircuitSpec, enc_by_dim, bindings, batch: int, jets, derived=None) -> dict:
    """The prefix states d^J phi of every jet J of ``jets`` and of its lower
    orders, keyed by jet; each is an array of shape (batch, 2**n).

    phi is the state the circuit's input-bound prefix prepares; a jet is a
    tuple of input dimensions, like a mode, with () the state itself.  Every
    prefix gate is RX(s_j * x_d) and X commutes with RX, so d_d phi = sum over
    j in enc(d) of (-i s_j / 2) X_j phi, exactly; higher jets apply this once
    per entry.  ``derived``, if given, is extended in place and returned: a
    caller that keeps it runs the prefix once and derives each jet once.
    """
    n = circuit.n_qubits
    length = _encoder_length(circuit)
    derived = {} if derived is None else derived
    if () not in derived:
        prefix = CircuitSpec(n, circuit.gates[:length], input_params=circuit.input_params)
        derived[()] = run_batch(prefix, bindings, batch)
    for jet in map(tuple, jets):
        for order in range(1, len(jet) + 1):
            if jet[:order] not in derived:
                lower = derived[jet[: order - 1]]
                out = np.zeros_like(lower)
                for g in enc_by_dim[jet[order - 1]]:
                    gate = circuit.gates[g]
                    out += (-0.5j * gate.scale) * pauli_batch(lower, n, gate.qubits[0], "X")
                derived[jet[:order]] = out
    return derived


def jet_states(circuit: CircuitSpec, enc_by_dim, bindings, batch: int, jets, derived=None) -> dict:
    """The states U * d^J phi for every jet J of ``jets``, keyed by jet in the
    order given; each is a (batch, 2**n) view of one stacked run.

    U is the circuit after its input-bound prefix; the prefix jets come from
    ``prefix_jets``, which also takes ``derived``.
    """
    jets = [tuple(jet) for jet in jets]
    derived = prefix_jets(circuit, enc_by_dim, bindings, batch, jets, derived)
    amps = np.concatenate([derived[jet] for jet in jets])
    for gate in circuit.gates[_encoder_length(circuit) :]:
        circuits.apply_gate_to_batch(amps, circuit.n_qubits, gate, bindings)
    return {jet: amps[j * batch : (j + 1) * batch] for j, jet in enumerate(jets)}


def jet_terms(mode: tuple[int, ...]) -> list:
    """An input derivative as (w, u, v) triples: f = sum of w * Re<psi_u|C|psi_v>
    over jets u, v, each (u, v) pair listed once.  Only orders up to two occur
    in the problems."""
    mode = tuple(mode)
    if not mode:
        return [(1.0, (), ())]
    if len(mode) == 1:
        return [(2.0, mode, ())]
    if len(mode) == 2:
        d, e = mode
        if d == e:
            return [(2.0, mode, ()), (2.0, (d,), (d,))]
        return [(2.0, mode, ()), (1.0, (d,), (e,)), (1.0, (e,), (d,))]
    raise ConfigurationError(f"input derivatives above second order are not supported: {mode}")


def term_jets(mode: tuple[int, ...]) -> list:
    """The distinct jets the terms of ``jet_terms(mode)`` read, in first-use order."""
    return list(dict.fromkeys(jet for _w, u, v in jet_terms(mode) for jet in (u, v)))


def read_jet_terms(rows: dict, mode: tuple[int, ...], tables) -> np.ndarray:
    """sum of w * Re<rows[u]|T|rows[v]> over ``jet_terms(mode)`` for every row T
    of the ``pauli_tables`` pair ``tables``, shape (d, batch); ``rows`` maps each
    jet of ``term_jets(mode)`` to its (batch, 2**n) states."""
    total = None
    for w, u, v in jet_terms(mode):
        # a Hermitian read (u == v) keeps its imaginary-part check
        term = pauli_expectation_batch(rows[v], tables, None if u == v else rows[u]).T
        term *= w   # in place, as is the sum: a value read holds one (d, batch) array
        total = term if total is None else np.add(total, term, out=total)
    return total


def mode_expectations(
    circuit: CircuitSpec,
    bindings: dict,
    batch: int,
    enc_by_dim: dict[int, list[int]],
    mode: tuple[int, ...],
    tables: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Expectations (or their input derivatives) of every row of ``tables``.

    ``tables`` is a ``pauli_tables`` pair (src, coef) of d rows: Pauli
    strings (the trainable observable's labels), a ``diagonal_table`` (the
    original model's cost operator) or a ``weighted_table`` (the trainable
    observable at its alpha).  Exact jets compute every value:
    the ``term_jets`` of the mode run as one stacked batch and come back by
    jet (``jet_states``), and ``read_jet_terms`` reads all d rows in one
    ``pauli_expectation_batch`` call per term, one partner gather per
    X-pattern.  ``shift_rule`` only sets what the protocol is charged for them.

    Returns shape (d, batch).
    """
    return read_jet_terms(jet_states(circuit, enc_by_dim, bindings, batch, term_jets(mode)), mode, tables)


def runs_per_point(enc_by_dim: dict[int, list[int]], mode: tuple[int, ...]) -> int:
    """Circuit evaluations charged per point for one mode (no caching assumed):
    the number of shift configurations in the mode's ``shift_rule``."""
    return sum(len(corners) for _gates, corners in shift_rule(enc_by_dim, mode))


def to_charge(n_strings: int, n_points: int, enc_by_dim: dict[int, list[int]], modes) -> int:
    """Trainable-observable charge for measuring ``n_strings`` Pauli strings at
    ``n_points`` points in every mode: d * sum over modes of n_points * E(mode)."""
    return n_strings * sum(n_points * runs_per_point(enc_by_dim, tuple(mode)) for mode in modes)


def input_param_names(dimension: int) -> tuple[str, ...]:
    return tuple(f"x{d}" for d in range(dimension))


def feature_map(n_qubits: int, dimension: int) -> CircuitSpec:
    """Tower feature map split between the inputs x0, x1, ...: the tower on x0 in 1-D."""
    return circuits.split_tower_feature_map(n_qubits, input_param_names(dimension))


def _enc_by_dim(circuit: CircuitSpec, dimension: int) -> dict[int, list[int]]:
    names = input_param_names(dimension)
    return {d: circuit.gate_indices_for(names[d]) for d in range(dimension)}


def _input_bindings(points: np.ndarray) -> dict[str, np.ndarray]:
    points = np.atleast_2d(points)
    return {f"x{d}": points[:, d] for d in range(points.shape[1])}


# ---------------------------------------------------------------------------
# original protocol

# RX angles that turn |0> into the probe states |0>, |1> (up to a phase) and |+i>
_PROBE_ANGLES = (0.0, np.pi, -np.pi / 2.0)
# Per qubit, the Pauli letters I, Y, Z (rows) as sums of the probe projectors
# |0><0|, |1><1|, |+i><+i| (columns), halved: P / 2 = sum_s M[P, s] |s><s|
_PROBE_MAP = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 2.0], [1.0, -1.0, 0.0]]) / 2.0
# The probe form sweeps 3**n rows per parameter vector, the row form a few
# rows per evaluation point.  The probe form was the faster one while 3**n is
# at most this many rows per point, up to this register size; beyond it, its
# 6**n-amplitude probe stack and points x 3**n features cost more time and
# memory than the row form at the sizes measured (BENCH_original_probe.json).
# ROADMAP item 6 holds the re-measured crossover and the open rule change.
_PROBE_ROWS_PER_POINT = 4
_PROBE_MAX_QUBITS = 6


def probe_features(circuit: CircuitSpec, enc_by_dim, points: np.ndarray, mode) -> np.ndarray:
    """The probe form's feature matrix of ``mode`` at ``points``, shape
    (points, 3**n), in closed form: no state is simulated.

    The input-bound prefix is RX gates on |0...0>, so qubit q is a product
    factor with <I, Y, Z> = (1, -sin t_q, cos t_q), t_q the sum of its gates'
    angles s_g * x_d(g).  Each d/dx_d falls on one gate g of enc(d): it turns
    its qubit's (Y, Z) into (-Z, Y), zeroes I and scales by s_g.  F is the
    sum over those assignments of the Kronecker product over qubits of
    factor_q @ ``_PROBE_MAP``, probe states in ``itertools.product`` order.
    Every step is elementwise per point, so a point's row does not depend on
    the batch around it.
    """
    mode = tuple(mode)
    jet_terms(mode)   # refuses modes above second order, as every jet reader does
    points = np.atleast_2d(points)
    n, n_pts = circuit.n_qubits, len(points)
    dim_of = {g: d for d, gates in enc_by_dim.items() for g in gates}
    angle = np.zeros((n, n_pts))
    for g in range(_encoder_length(circuit)):
        gate = circuit.gates[g]
        angle[gate.qubits[0]] += gate.scale * points[:, dim_of[g]]
    # bloch[r][q] = the r-th derivative of qubit q's <I, Y, Z> in its angle,
    # shape (n, 3, points): points last, so every product below runs along them
    bloch = [np.stack([np.ones_like(angle), -np.sin(angle), np.cos(angle)], axis=1)]
    for _ in range(len(mode)):
        last = bloch[-1]
        bloch.append(np.stack([np.zeros_like(angle), -last[:, 2], last[:, 1]], axis=1))
    # factor @ _PROBE_MAP as an ordered sum over the letters I, Y, Z
    probe = [sum(b[:, k, None] * _PROBE_MAP[k, :, None] for k in range(3)) for b in bloch]
    total = None
    for gates in itertools.product(*(enc_by_dim[d] for d in mode)):
        orders, scales = [0] * n, [1.0] * n
        for g in gates:
            q = circuit.gates[g].qubits[0]
            orders[q] += 1
            scales[q] *= circuit.gates[g].scale
        feats = np.ones((1, n_pts))
        for q in range(n):
            factor = scales[q] * probe[orders[q]][q]
            feats = (feats[:, None] * factor).reshape(-1, n_pts)
        total = feats if total is None else np.add(total, feats, out=total)
    return np.ascontiguousarray(total.T)


def probe_form_fits(n_qubits: int, n_points: int) -> bool:
    """Whether an original model over ``n_points`` evaluation points takes the
    probe form (``ProbeForm``) rather than the row form (``RowForm``)."""
    return n_qubits <= _PROBE_MAX_QUBITS and 3**n_qubits <= _PROBE_ROWS_PER_POINT * n_points


class RowForm:
    """The original model's <C> derivatives from jets at every evaluation point.

    Per parameter vector the ansatz runs forward once on each jet's rows at
    every point, and the final states are kept, one (points, 2**n) array per
    jet.  ``raw`` reads them with ``read_jet_terms`` on the cost's
    ``diagonal_table``; each Jacobian is one adjoint sweep over the stacked
    jets of its points.  Simulated rows grow with the number of points.
    """

    def __init__(self, model):
        self.model = model
        # the feature-map jets at every evaluation point, by jet, filled on
        # first use
        self._phi: dict = {}
        # the rotation angles the jets were gathered at, and per jet the final
        # states psi_J at every evaluation point
        self._key = None
        self._jets: dict = {}

    def _gather(self, theta, mode):
        """Final jet states at every evaluation point for the mode's terms,
        running the jets this parameter vector has not run yet."""
        key = np.asarray(theta, dtype=np.float64).tobytes()
        if key != self._key:
            self._key, self._jets = key, {}
        missing = [jet for jet in term_jets(mode) if jet not in self._jets]
        if missing:
            model = self.model
            n_pts = model.eval_points.shape[0]
            bindings = model._bindings(model.eval_points, theta)
            self._jets.update(jet_states(model.circuit, model.enc_by_dim, bindings, n_pts, missing, self._phi))
        return self._jets

    def raw(self, theta, idx, mode):
        """The mode's input derivative of <C> at the evaluation points ``idx``."""
        jets = self._gather(theta, mode)
        rows = {jet: jets[jet][idx] for jet in term_jets(mode)}
        return read_jet_terms(rows, mode, self.model.cost)[0]

    def theta_grads(self, theta, idx, mode):
        """d raw / d theta at the points ``idx``, shape (points, rotations)."""
        model = self.model
        jets = self._gather(theta, mode)
        # d Re<psi_u|C psi_v> = (G(C psi_v, psi_u) + G(C psi_u, psi_v)) / 2 with G
        # the sweep of adjoint_gradients: one (state, co-state) block per side,
        # equal blocks merged, all swept together
        blocks: dict = {}
        for w, u, v in jet_terms(mode):
            for a, b in ((u, v), (v, u)):
                blocks[a, b] = blocks.get((a, b), 0.0) + w / 2.0
        states = np.concatenate([jets[a][idx] for a, _b in blocks])
        costates = model.cost[1] * np.concatenate([jets[b][idx] for _a, b in blocks])
        bindings = model._bindings(model.eval_points[idx], theta)
        grads = adjoint_gradients(model.circuit, bindings, states, costates, model.gate_indices)
        weights = np.array(list(blocks.values()))
        n_pts = grads.shape[1] // len(blocks)
        return np.einsum("c,kcb->bk", weights, grads.reshape(len(grads), len(blocks), n_pts))


class ProbeForm:
    """The original model's <C> derivatives in the Heisenberg picture.

    The feature map is an RX-only prefix on |0...0>, so the Bloch vector of
    every qubit, and of every jet, stays in the Y-Z plane.  A mode's input
    derivative at a point, sum of w * Re<phi_u|O|phi_v> with O = U^dag C U,
    then only reads the Pauli strings of O over {I, Y, Z}, and each of those
    is a sum of projectors on the 3**n product probe states s in {|0>, |1>,
    |+i>}**n.  So the derivative is F[x] @ o, exactly, with o_s = <s|O|s> and
    F fixed by the points: built once per model and mode in closed form from
    the qubits' angles, with no simulation (``features``, ``probe_features``).
    Per parameter vector, one run of the model's own circuit and one adjoint
    sweep over it give o and do/dtheta: every input is bound to 0 and each
    qubit's one feature-map RX is shifted to that qubit's probe angle, 3**n
    simulated rows whatever the number of points.
    """

    def __init__(self, model):
        self.model = model
        circuit = model.circuit
        prefix = circuit.gates[: _encoder_length(circuit)]
        # a second gate on a qubit would be shifted twice
        if sorted(gate.qubits[0] for gate in prefix) != list(range(circuit.n_qubits)):
            raise ConfigurationError("the probe form needs one feature-map gate on every qubit")
        # the probe angles of every probe state, one row per state
        angles = np.array(list(itertools.product(_PROBE_ANGLES, repeat=circuit.n_qubits)))
        self._shifts = {g: angles[:, gate.qubits[0]] for g, gate in enumerate(prefix)}
        self._inputs = dict.fromkeys(circuit.input_params, 0.0)
        self._features: dict = {}
        # the rotation angles o and do/dtheta were read at, and the two
        self._key = None
        self._heisenberg = None

    def features(self, mode):
        """F of the mode at every evaluation point, shape (points, 3**n), with
        probe states ordered as ``itertools.product`` over qubits 0..n-1;
        built once per model and mode by ``probe_features``."""
        mode = tuple(mode)
        if mode not in self._features:
            model = self.model
            self._features[mode] = probe_features(model.circuit, model.enc_by_dim, model.eval_points, mode)
        return self._features[mode]

    def _read(self, theta):
        """o on every probe state, shape (3**n,), and do/dtheta, shape
        (rotations, 3**n), at the rotation angles ``theta``."""
        key = np.asarray(theta, dtype=np.float64).tobytes()
        if key != self._key:
            model = self.model
            bindings = dict(self._inputs)
            bindings.update(zip(model.rotation_params, theta))
            amps = run_batch(model.circuit, bindings, 3**model.n_qubits, shifts=self._shifts)
            o = pauli_expectation_batch(amps, model.cost)[:, 0]
            lam = model.cost[1] * amps
            # the sweep stops at the first rotation, so no shifted gate is unapplied
            grads = adjoint_gradients(model.circuit, bindings, amps, lam, model.gate_indices)
            self._key, self._heisenberg = key, (o, grads)
        return self._heisenberg

    def raw(self, theta, idx, mode):
        """The mode's input derivative of <C> at the evaluation points ``idx``."""
        return self.features(mode)[idx] @ self._read(theta)[0]

    def theta_grads(self, theta, idx, mode):
        """d raw / d theta at the points ``idx``, shape (points, rotations)."""
        return self.features(mode)[idx] @ self._read(theta)[1].T


class OriginalModel:
    """Trial function: scale * <C> + shift through a plain tower feature map
    followed by a hardware-efficient ansatz, with C the total-Z cost operator.

    Charges one evaluation per distinct expectation, including every
    parameter-shift evaluation, so the charges grow with the number of
    points m.  The simulator computes the input derivatives at the fixed
    evaluation points exactly instead, in one of two forms chosen by size
    (``probe_form_fits``): the probe form reads U^dag C U on 3**n probe
    states, prepared by this circuit's feature map at x = 0 with shifted
    angles, against feature matrices built in closed form once per model, so
    its simulated rows per parameter vector are 3**n, flat in m
    (``ProbeForm``); the row form runs the feature map once per model and
    then the ansatz on every jet at every point (``RowForm``).
    """

    def __init__(self, n_qubits: int, depth: int, eval_points: np.ndarray, counter=None):
        self.n_qubits = n_qubits
        # a private read-only copy: the cached jets below depend on it
        self.eval_points = np.atleast_2d(np.array(eval_points, dtype=np.float64))
        self.eval_points.flags.writeable = False
        self.dimension = self.eval_points.shape[1]
        self.circuit = circuits.compose(
            feature_map(n_qubits, self.dimension), circuits.hea(n_qubits, depth, "theta")
        )
        self.enc_by_dim = _enc_by_dim(self.circuit, self.dimension)
        self.rotation_params = self.circuit.variational_params
        self.param_names = list(self.rotation_params) + ["theta_sc", "theta_sh"]
        self.n_params = len(self.param_names)
        self.observable = pauli.sum_of_z(n_qubits)
        self.cost = diagonal_table(self.observable)
        self.gate_indices = [self.circuit.gate_indices_for(pid)[0] for pid in self.rotation_params]
        self.counter = counter
        form = ProbeForm if probe_form_fits(n_qubits, self.eval_points.shape[0]) else RowForm
        self.form = form(self)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(-np.pi, np.pi, size=len(self.rotation_params))
        return np.concatenate([theta, [1.0, 0.0]])

    def _bindings(self, points, theta):
        bindings = _input_bindings(points)
        bindings.update({pid: theta[i] for i, pid in enumerate(self.rotation_params)})
        return bindings

    @staticmethod
    def _scaled(params, raw, mode):
        """scale * raw, plus the shift on plain values."""
        out = params[-2] * raw
        return out + params[-1] if len(mode) == 0 else out

    def values(self, params, idx, mode=()):
        raw = self.form.raw(params[:-2], idx, mode)
        _charge(self.counter, len(raw) * runs_per_point(self.enc_by_dim, mode), PHASE_EPOCH)
        return self._scaled(params, raw, mode)

    def jacobian(self, params, idx, mode=()):
        theta, sc = params[:-2], params[-2]
        grads = self.form.theta_grads(theta, idx, mode)
        n_pts, n_rot = grads.shape
        jac = np.zeros((n_pts, self.n_params))
        jac[:, :n_rot] = sc * grads
        # charged per the protocol: a parameter-shift pair for every rotation
        # parameter at every point, on top of the mode's own shift structure
        _charge(
            self.counter,
            n_pts * runs_per_point(self.enc_by_dim, mode) * 2 * n_rot,
            PHASE_EPOCH,
        )
        # the scale/shift columns reuse the already-charged value measurement
        jac[:, -2] = self.form.raw(theta, idx, mode)
        if len(mode) == 0:
            jac[:, -1] = 1.0
        return jac

    def values_at(self, params, points, mode=()):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        bindings = self._bindings(points, params[:-2])
        n_pts = len(points)
        raw = mode_expectations(self.circuit, bindings, n_pts, self.enc_by_dim, mode, self.cost)[0]
        _charge(self.counter, n_pts * runs_per_point(self.enc_by_dim, mode), PHASE_INFERENCE)
        return self._scaled(params, raw, mode)


# ---------------------------------------------------------------------------
# trainable observable: precomputed measurement table + linear head


@dataclass(frozen=True)
class TOTable:
    """Input-derivative expectations of every candidate observable on a fixed
    point set; immutable once built.

    Off-table inference runs ``circuit`` and reads ``labels`` through their
    ``tables``."""

    points: np.ndarray                    # (n_pts, D)
    modes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]               # Pauli strings in canonical order
    entries: dict                         # mode -> (n_pts, d) array
    circuit: CircuitSpec                  # the encoding circuit measured on
    tables: tuple[np.ndarray, np.ndarray]  # the ``pauli_tables`` of ``labels``

    @property
    def n_observables(self) -> int:
        return len(self.labels)


def encoding_circuit(n_qubits: int, dimension: int) -> CircuitSpec:
    """Tower feature map followed by the static random basis change."""
    return circuits.compose(
        feature_map(n_qubits, dimension), circuits.random_basis_unitary(n_qubits, UB_SEED)
    )


def precompute_to_table(
    points: np.ndarray,
    modes,
    observable_strings,
    n_qubits: int,
    counter=None,
) -> TOTable:
    """Measure every (mode, point, observable) entry once, before training.

    Charges ``to_charge`` (d * n_points * E(mode), summed over modes), the
    full pre-training quantum cost of the trainable-observable protocol: the
    protocol measures each string separately.  The simulator computes every
    entry from exact jets (``mode_expectations``), reading the d strings'
    ``pauli_tables``, built once for all modes and kept as the table's
    ``tables``, in one ``pauli_expectation_batch`` call per jet term, which
    gathers once per X-pattern.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dimension = points.shape[1]
    circuit = encoding_circuit(n_qubits, dimension)
    enc = _enc_by_dim(circuit, dimension)
    labels = tuple(p.letters for p in observable_strings)
    tables = pauli_tables(labels)
    bindings = _input_bindings(points)
    entries = {}
    for mode in modes:
        mode = tuple(mode)
        table = mode_expectations(circuit, bindings, points.shape[0], enc, mode, tables)
        entries[mode] = table.T.copy()  # (n_pts, d)
    _charge(counter, to_charge(len(labels), points.shape[0], enc, modes), PHASE_PRECOMPUTE)
    return TOTable(
        points=points,
        modes=tuple(tuple(m) for m in modes),
        labels=labels,
        entries=entries,
        circuit=circuit,
        tables=tables,
    )


class TOModel:
    """Linear trial function over a precomputed table: alpha_s * sum_j alpha_j c_j.

    Training-time evaluation and gradients issue zero quantum evaluations.
    """

    def __init__(self, table: TOTable, counter=None):
        self.table = table
        self.eval_points = table.points
        self.dimension = table.points.shape[1]
        self.param_names = [f"alpha[{s}]" for s in table.labels] + ["alpha_s"]
        self.n_params = len(self.param_names)
        self.counter = counter

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        d = self.table.n_observables
        alpha = rng.normal(0.0, 0.1 / np.sqrt(d), size=d)
        return np.concatenate([alpha, [1.0]])

    def _entries(self, idx, mode):
        mode = tuple(mode)
        if mode not in self.table.entries:
            raise KeyError(f"table holds no mode {mode}; available {self.table.modes}")
        return self.table.entries[mode][idx]

    def values(self, params, idx, mode=()):
        alpha, a_s = params[:-1], params[-1]
        return a_s * (self._entries(idx, mode) @ alpha)

    def jacobian(self, params, idx, mode=()):
        alpha, a_s = params[:-1], params[-1]
        rows = self._entries(idx, mode)
        jac = np.empty((rows.shape[0], self.n_params))
        # no (points, d) temporary; all of jac is scaled, as a ufunc into jac[:, :-1] buffers 64 kB
        np.copyto(jac[:, :-1], rows)
        jac[:, -1] = 0.0
        jac *= a_s
        jac[:, -1] = rows @ alpha
        return jac

    def values_at(self, params, points, mode=()):
        """Off-table inference: fresh simulation, charged d per point and shift
        configuration, as the protocol measures every string.  The simulator
        reads sum alpha_l P_l as its ``weighted_table``, one row per X-pattern."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        circuit = self.table.circuit
        enc = _enc_by_dim(circuit, self.dimension)
        alpha, a_s = params[:-1], params[-1]
        rows = mode_expectations(
            circuit, _input_bindings(points), points.shape[0], enc, tuple(mode),
            weighted_table(self.table.tables, alpha),
        )
        d = self.table.n_observables
        _charge(self.counter, to_charge(d, points.shape[0], enc, [mode]), PHASE_INFERENCE)
        # row by row, so a point's sum does not depend on its batch (numpy
        # sums a one-point column pairwise)
        return a_s * functools.reduce(np.add, rows)


# ---------------------------------------------------------------------------
# flipped shadow model

FS_MODES = ("exact", "shadow")   # exact expectations or simulated shadows


class FlippedModel:
    """Trial function: out * <C(in * x + shift)> + offset over a fixed
    variational state, with C(u) a 1-local Pauli sum weighted by Chebyshev
    basis functions of u.

    ``begin_epoch`` gathers the Pauli expectations of the ansatz state and of
    its parameter-shifted companions once per epoch, and the other methods
    read only that gather: all per-point work is classical.  Charges M state
    preparations per gathered state, in both modes alike.

    The gathered expectations are one (1 + 2p, n_basis) array: row 0 is the
    ansatz state, rows 1 + 2k and 2 + 2k its +pi/2 and -pi/2 shifts in
    rotation k.  Reads at rotation angles other than the gathered ones raise
    ``RuntimeError``; the affine parameters do not enter the gather.

    The basis at u = in * x + shift is one jet per parameter vector: a single
    ``basis_matrix`` call at every evaluation point gives every derivative
    order up to max_order + 1, the deepest a Jacobian of a max_order mode
    reads.  It is kept under the bytes of (in, shift), the only parameters u
    depends on, over the model's private read-only copy of its points;
    ``values`` and ``jacobian`` read row slices of it.  ``values_at`` takes
    other points and builds a jet of its own, up to its mode's order.
    """

    AFFINE = ("alpha_out", "alpha_in", "alpha_shift", "alpha_offset")

    def __init__(
        self,
        n_qubits: int,
        depth: int,
        eval_points: np.ndarray,
        mode: str = "exact",
        budget: shadows.ShadowBudget | None = None,
        max_order: int = 1,
        counter=None,
    ):
        if mode not in FS_MODES:
            raise ValueError(f"unknown evaluation mode {mode!r}")
        self.n_qubits = n_qubits
        # a private read-only copy: the cached basis jet below depends on it
        self.eval_points = np.atleast_2d(np.array(eval_points, dtype=np.float64))
        self.eval_points.flags.writeable = False
        self.dimension = self.eval_points.shape[1]
        self.mode = mode
        self.budget = budget or shadows.ShadowBudget()
        self.snapshots = self.budget.snapshots(self.eval_points.shape[0], max_order)
        self.circuit = circuits.hea(n_qubits, depth, "alpha")
        self.rotation_params = self.circuit.variational_params
        self.param_names = list(self.rotation_params) + list(self.AFFINE)
        self.n_params = len(self.param_names)
        self.pauli_set = pauli.enumerate_k_local(n_qubits, 1)
        self.n_basis = len(self.pauli_set)
        self.n_batches = shadows.default_batches(self.n_basis)
        if mode == "shadow" and self.snapshots < self.n_batches:
            raise ConfigurationError(
                f"shadow budget M = {self.snapshots} per state is smaller than its "
                f"{self.n_batches} median-of-means batches; raise shadow_c0 or "
                f"lower shadow_eps"
            )
        # exact mode reads every string of the set in one pass per epoch
        self._tables = pauli_tables([p.letters for p in self.pauli_set]) if mode == "exact" else None
        self.counter = counter
        # per rotation gate, the shift of every gathered row (rows as above)
        n_rot = len(self.rotation_params)
        self._shifts: dict[int, np.ndarray] = {}
        for k, pid in enumerate(self.rotation_params):
            shift = np.zeros(1 + 2 * n_rot)
            shift[1 + 2 * k], shift[2 + 2 * k] = SHIFT, -SHIFT
            self._shifts[self.circuit.gate_indices_for(pid)[0]] = shift
        self._exps, self._exps_key = None, None   # the gather, the bytes of its angles
        # the basis jet at every evaluation point, the (a_in, a_shift) bytes it
        # was built at, and its top derivative order: the deepest a Jacobian of
        # a max_order mode reads, raised if a deeper mode is asked for
        self._jet: dict = {}
        self._jet_key = None
        self._jet_order = max_order + 1

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        angles = rng.uniform(-np.pi, np.pi, size=len(self.rotation_params))
        # out=1, in=1, shift=0, offset=0
        return np.concatenate([angles, [1.0, 1.0, 0.0, 0.0]])

    # -- quantum data ------------------------------------------------------

    def begin_epoch(self, params, rng: np.random.Generator):
        """Gather <P_l> for the current state and its shifted companions.

        All 1 + 2p states run as one batch, one shift array per shifted gate;
        exact mode reads every string off the batch in one pass, shadow mode
        collects every state's shadow, in row order, in one ``collect`` call
        and reads every string of every state in one ``estimate_pauli`` call.
        """
        angles = np.asarray(params[: len(self.rotation_params)], dtype=np.float64)
        batch = 1 + 2 * len(angles)
        amps = run_batch(self.circuit, dict(zip(self.rotation_params, angles)), batch, shifts=self._shifts)
        if self.mode == "exact":
            self._exps = pauli_expectation_batch(amps, self._tables)  # (batch, n_basis)
        else:
            shadow = shadows.collect(amps, self.snapshots, rng)
            self._exps = shadows.estimate_pauli(shadow, self.pauli_set, self.n_batches)
        self._exps_key = angles.tobytes()
        _charge(self.counter, batch * self.snapshots, PHASE_EPOCH)

    def _gathered(self, params):
        key = np.asarray(params[: len(self.rotation_params)], dtype=np.float64).tobytes()
        if key != self._exps_key:   # None before the first gather
            raise RuntimeError("nothing gathered at these rotation angles: call begin_epoch first")
        return self._exps

    # -- classical evaluation ---------------------------------------------

    def _mapped(self, params, points):
        return params[-3] * points + params[-2]   # a_in * x + a_shift

    def _dorders(self, mode):
        d = [0] * self.dimension
        for t in mode:
            d[t] += 1
        return tuple(d)

    def _basis(self, params, idx, mode):
        """The basis matrix of ``mode`` at the evaluation points ``idx``: rows
        of the jet built once per (a_in, a_shift)."""
        key = np.asarray(params[-3:-1], dtype=np.float64).tobytes()
        if key != self._jet_key or len(mode) > self._jet_order:
            self._jet_order = max(self._jet_order, len(mode))
            u = self._mapped(params, self.eval_points)
            self._jet = basis_matrix(u, self.n_basis, self._jet_order)
            self._jet_key = key
        return self._jet[self._dorders(mode)][idx]

    def _combine(self, params, basis, mode, exps):
        a_out, a_in = params[-4], params[-3]
        j = len(mode)
        series = basis @ exps
        out = a_out * a_in**j * series
        if j == 0:
            out = out + params[-1]
        return out

    def values(self, params, idx, mode=()):
        mode = tuple(mode)
        exps = self._gathered(params)[0]
        return self._combine(params, self._basis(params, idx, mode), mode, exps)

    def jacobian(self, params, idx, mode=()):
        mode = tuple(mode)
        points = self.eval_points[idx]
        a_out, a_in = params[-4], params[-3]
        gathered = self._gathered(params)
        exps = gathered[0]
        j = len(mode)
        basis = self._basis(params, idx, mode)
        series = basis @ exps
        jac = np.zeros((points.shape[0], self.n_params))
        n_rot = len(self.rotation_params)
        # the shift rule for every rotation at once: (plus - minus) / 2 per row pair
        jac[:, :n_rot] = a_out * a_in**j * (basis @ ((gathered[1::2] - gathered[2::2]) / 2.0).T)
        jac[:, n_rot + 0] = a_in**j * series  # alpha_out
        extra = np.zeros(points.shape[0])  # sum_d x_d * d/du_d of the series
        shift_extra = np.zeros(points.shape[0])
        for d in range(self.dimension):
            deeper = self._basis(params, idx, mode + (d,)) @ exps
            extra += points[:, d] * deeper
            shift_extra += deeper
        if j == 0:
            jac[:, n_rot + 1] = a_out * extra  # alpha_in: no prefactor on the value
        else:
            jac[:, n_rot + 1] = a_out * (j * a_in ** (j - 1) * series + a_in**j * extra)
        jac[:, n_rot + 2] = a_out * a_in**j * shift_extra  # alpha_shift
        if j == 0:
            jac[:, n_rot + 3] = 1.0  # alpha_offset
        return jac

    def values_at(self, params, points, mode=()):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        mode = tuple(mode)
        exps = self._gathered(params)[0]
        # off the evaluation points: a jet of its own, up to the mode's order
        u = self._mapped(params, points)
        basis = basis_matrix(u, self.n_basis, len(mode))[self._dorders(mode)]
        return self._combine(params, basis, mode, exps)
