"""Parameter-shift-rule derivatives of circuit expectations.

With the rotation convention R_P(theta) = exp(-i*theta*P/2), every
expectation is a degree-1 trigonometric polynomial in each rotation angle,
so the two-point rule [f(+pi/2) - f(-pi/2)] / 2 is exact for first
derivatives and the nested four-point rule is exact for second derivatives.

Derivatives with respect to the circuit input x chain-rule over all encoding
gates whose angle binding references x (angle = scale * x), picking up one
factor of the scale per differentiation.

These functions evaluate one expectation per shifted circuit; an optional
``counter`` is charged one unit per expectation, matching the evaluation
accounting used by the training module.

The module is the independent parameter-shift oracle.  The models compute
every input derivative from exact jets (``models.jet_states``) and use the
parameter-shift table, ``models.shift_rule``, only to charge for it; the
tests check the jets against ``d_dx`` here, which writes the rule out on
its own.
"""

from __future__ import annotations

import numpy as np

from .circuits import CircuitSpec, run_batch
from .statevector import expectation

SHIFT = np.pi / 2.0


def _expectation(circuit: CircuitSpec, bindings, obs, shifts=None, counter=None) -> float:
    amps = run_batch(circuit, bindings, batch=1, shifts=shifts)
    value = float(expectation(amps, obs)[0])
    if counter is not None:
        counter.charge(1)
    return value


def d_dtheta(circuit: CircuitSpec, bindings, obs, gate_index: int, counter=None) -> float:
    """First derivative of the expectation with respect to one gate's angle."""
    gate = circuit.gates[gate_index]
    if not gate.is_rotation:
        raise ValueError(f"gate {gate_index} ({gate.kind}) is not a Pauli rotation")
    plus = _expectation(circuit, bindings, obs, {gate_index: SHIFT}, counter)
    minus = _expectation(circuit, bindings, obs, {gate_index: -SHIFT}, counter)
    return (plus - minus) / 2.0


def d_dx(circuit: CircuitSpec, bindings, obs, param: str, order: int, counter=None) -> float:
    """Derivative of the expectation with respect to the encoded input ``param``.

    Order 1 issues exactly 2 * n_enc expectation evaluations and order 2
    exactly 4 * n_enc**2, where n_enc is the number of gates binding ``param``.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported derivative order {order}")
    enc = circuit.gate_indices_for(param)
    if order == 1:
        total = 0.0
        for g in enc:
            s = circuit.gates[g].scale
            plus = _expectation(circuit, bindings, obs, {g: SHIFT}, counter)
            minus = _expectation(circuit, bindings, obs, {g: -SHIFT}, counter)
            total += s * (plus - minus) / 2.0
        return total
    total = 0.0
    for g in enc:
        for h in enc:
            sg = circuit.gates[g].scale
            sh = circuit.gates[h].scale
            corner = 0.0
            for sign_g in (SHIFT, -SHIFT):
                for sign_h in (SHIFT, -SHIFT):
                    shifts = {g: sign_g}
                    shifts[h] = shifts.get(h, 0.0) + sign_h
                    value = _expectation(circuit, bindings, obs, shifts, counter)
                    corner += np.sign(sign_g) * np.sign(sign_h) * value
            total += sg * sh * corner / 4.0
    return total


def grad_variational(circuit: CircuitSpec, bindings, obs, counter=None) -> np.ndarray:
    """PSR gradient with respect to every variational parameter, in circuit order.

    Gate occurrences sharing a param-id contribute additively.
    """
    grads = np.zeros(len(circuit.variational_params))
    for k, pid in enumerate(circuit.variational_params):
        for g in circuit.gate_indices_for(pid):
            grads[k] += d_dtheta(circuit, bindings, obs, g, counter)
    return grads


def self_check(rng: np.random.Generator, n_triples: int = 50) -> dict:
    """Compare shift-rule derivatives against finite differences on random
    (circuit, observable, input) triples; returns the worst absolute errors.
    """
    from . import circuits, pauli

    worst_first = 0.0
    worst_second = 0.0
    for _ in range(n_triples):
        n = int(rng.integers(2, 5))
        feature = circuits.tower_feature_map(n, "x")
        ansatz = circuits.hea(n, int(rng.integers(1, 3)))
        circuit = circuits.compose(feature, ansatz)
        strings = pauli.enumerate_k_local(n, 2)
        obs = pauli.ObservableSum([(1.0, strings[int(rng.integers(1, len(strings)))])])
        x = float(rng.uniform(0.0, 1.0))
        bindings = {"x": x}
        bindings.update(
            {pid: float(rng.uniform(-np.pi, np.pi)) for pid in circuit.variational_params}
        )

        def f(value):
            return _expectation(circuit, dict(bindings, x=value), obs)

        d1 = d_dx(circuit, bindings, obs, "x", 1)
        d2 = d_dx(circuit, bindings, obs, "x", 2)
        worst_first = max(worst_first, abs(d1 - finite_difference(f, x, 1)))
        worst_second = max(worst_second, abs(d2 - finite_difference(f, x, 2)))
    return {"first": worst_first, "second": worst_second}


def finite_difference(f, x: float, order: int, h: float | None = None) -> float:
    """Five-point central finite differences, truncation error O(h**4): the
    independent oracle for PSR checks."""
    if order == 1:
        h = 1e-4 if h is None else h
        return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)
    if order == 2:
        h = 1e-3 if h is None else h
        outer, inner = f(x - 2 * h) + f(x + 2 * h), f(x - h) + f(x + h)
        return (16.0 * inner - outer - 30.0 * f(x)) / (12.0 * h**2)
    raise ValueError(f"unsupported finite-difference order {order}")
