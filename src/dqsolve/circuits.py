"""Parameterized circuit construction: feature maps, the hardware-efficient
ansatz and the static basis-change layer.

Angle bindings are affine in a named parameter: angle = scale * value(param),
optionally plus an evaluation-time shift supplied to :func:`run_batch` (used
by the parameter-shift machinery; shifts are never stored in the circuit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .statevector import MAX_QUBITS, ConfigurationError, apply_cnot_batch, apply_rotation_batch

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ROTATION_KINDS + ("CNOT",)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    qubits: tuple[int, ...]
    param: str | None = None      # None means a constant angle
    scale: float = 1.0
    const: float = 0.0            # constant angle, or offset if param is set

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        if not np.isfinite(self.scale):
            raise ConfigurationError("angle-binding scale must be finite")

    @property
    def is_rotation(self) -> bool:
        return self.kind in ROTATION_KINDS


@dataclass(frozen=True)
class CircuitSpec:
    n_qubits: int
    gates: tuple[GateSpec, ...]
    input_params: frozenset = field(default_factory=frozenset)
    variational_params: tuple[str, ...] = ()

    def gate_indices_for(self, param: str) -> list[int]:
        return [i for i, g in enumerate(self.gates) if g.param == param]

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ConfigurationError(f"gate {g.kind} targets qubit {q} outside register")
        declared = self.input_params | set(self.variational_params)
        referenced = {g.param for g in self.gates if g.param is not None}
        undeclared = referenced - declared
        if undeclared:
            raise ConfigurationError(f"undeclared parameters: {sorted(undeclared)}")
        for g in self.gates:
            if g.param in self.variational_params and not g.is_rotation:
                raise ConfigurationError("variational gates must be Pauli rotations")


def _resolve_angle(gate: GateSpec, bindings, shift=None):
    if gate.param is None:
        angle = gate.const
    else:
        if gate.param not in bindings:
            raise ConfigurationError(f"missing binding for parameter {gate.param!r}")
        angle = gate.scale * np.asarray(bindings[gate.param], dtype=np.float64) + gate.const
    if shift is not None:
        angle = angle + shift
    return angle


def apply_gate_to_batch(amps, n, gate: GateSpec, bindings, shift=None) -> None:
    if gate.kind in ROTATION_KINDS:
        apply_rotation_batch(amps, n, gate.qubits[0], gate.kind[1], _resolve_angle(gate, bindings, shift))
    else:
        apply_cnot_batch(amps, n, gate.qubits[0], gate.qubits[1])


def unapply_gate_to_batch(amps, n, gate: GateSpec, bindings) -> None:
    """Apply the inverse of one gate in place (used by backward sweeps)."""
    if gate.kind in ROTATION_KINDS:
        angle = _resolve_angle(gate, bindings)
        apply_rotation_batch(amps, n, gate.qubits[0], gate.kind[1], -np.asarray(angle))
    else:
        apply_cnot_batch(amps, n, gate.qubits[0], gate.qubits[1])


def run_batch(circuit: CircuitSpec, bindings, batch: int, shifts=None) -> np.ndarray:
    """Run the circuit on |0...0> replicated ``batch`` times.

    ``bindings`` maps param-id to a scalar or a (batch,) array;
    ``shifts`` maps gate index to an additive angle shift (scalar or array).
    Returns amplitudes with shape (batch, 2**n).
    """
    amps = np.zeros((batch, 2**circuit.n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    shifts = shifts or {}
    for i, gate in enumerate(circuit.gates):
        apply_gate_to_batch(amps, circuit.n_qubits, gate, bindings, shifts.get(i))
    return amps


def tower_feature_map(n: int, param: str = "x") -> CircuitSpec:
    """One RX per qubit j with angle (j+1) * x: frequencies 1..n."""
    return split_tower_feature_map(n, (param,))


def split_tower_feature_map(n: int, params) -> CircuitSpec:
    """Tower map for multi-dimensional inputs: the register is split evenly,
    each block encoding one input variable with frequencies 1..block size."""
    params = tuple(params)
    d = len(params)
    if n % d != 0:
        raise ConfigurationError(f"{n} qubits cannot be split evenly over {d} inputs")
    block = n // d
    gates = []
    for which, param in enumerate(params):
        for j in range(block):
            gates.append(GateSpec("RX", (which * block + j,), param=param, scale=float(j + 1)))
    return CircuitSpec(n, tuple(gates), input_params=frozenset(params))


def hea(n: int, depth: int, param_prefix: str = "theta") -> CircuitSpec:
    """Hardware-efficient ansatz: per layer RX,RY,RZ on every qubit followed
    by a linear CNOT chain; 3*n*depth fresh variational parameters."""
    if depth < 1:
        raise ConfigurationError("HEA depth must be >= 1")
    gates = []
    params = []
    for layer in range(depth):
        for q in range(n):
            for axis in ("RX", "RY", "RZ"):
                pid = f"{param_prefix}_{layer}_{q}_{axis[1].lower()}"
                params.append(pid)
                gates.append(GateSpec(axis, (q,), param=pid))
        for q in range(n - 1):
            gates.append(GateSpec("CNOT", (q, q + 1)))
    return CircuitSpec(n, tuple(gates), variational_params=tuple(params))


def random_basis_unitary(n: int, seed: int) -> CircuitSpec:
    """The static entangling basis change: one layer of RX,RY,RZ per qubit
    with fixed uniform angles in [0, 2*pi) drawn from ``seed``, then a CNOT chain."""
    rng = np.random.default_rng(seed)
    gates = []
    for q in range(n):
        for axis in ("RX", "RY", "RZ"):
            gates.append(GateSpec(axis, (q,), const=float(rng.uniform(0.0, 2.0 * np.pi))))
    for q in range(n - 1):
        gates.append(GateSpec("CNOT", (q, q + 1)))
    return CircuitSpec(n, tuple(gates))


def compose(*circuits: CircuitSpec) -> CircuitSpec:
    """Concatenate circuits on the same register; gate order is left to right."""
    n = circuits[0].n_qubits
    gates: list[GateSpec] = []
    inputs: set[str] = set()
    variational: list[str] = []
    for c in circuits:
        if c.n_qubits != n:
            raise ConfigurationError("cannot compose circuits on different register sizes")
        gates.extend(c.gates)
        inputs |= set(c.input_params)
        for p in c.variational_params:
            if p not in variational:
                variational.append(p)
    return CircuitSpec(n, tuple(gates), frozenset(inputs), tuple(variational))


def circuit_to_json(circuit: CircuitSpec) -> str:
    doc = {
        "n_qubits": circuit.n_qubits,
        "input_params": sorted(circuit.input_params),
        "variational_params": list(circuit.variational_params),
        "gates": [
            {
                "kind": g.kind,
                "qubits": list(g.qubits),
                "param": g.param,
                "scale": g.scale,
                "const": g.const,
            }
            for g in circuit.gates
        ],
    }
    return json.dumps(doc, indent=2)


def circuit_from_json(text: str) -> CircuitSpec:
    """Inverse of ``circuit_to_json``.  Older files give every gate a
    ``"matrix": null`` key; it is ignored."""
    doc = json.loads(text)
    gates = tuple(
        GateSpec(
            kind=g["kind"],
            qubits=tuple(g["qubits"]),
            param=g["param"],
            scale=g["scale"],
            const=g["const"],
        )
        for g in doc["gates"]
    )
    return CircuitSpec(
        doc["n_qubits"],
        gates,
        frozenset(doc["input_params"]),
        tuple(doc["variational_params"]),
    )
