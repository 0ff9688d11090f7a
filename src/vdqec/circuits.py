"""The circuit model: gate kinds, GateOp, Circuit and the circuit document.

This is the numpy-free side of circuits. It holds what a gate list is and
how it is checked, written and hashed, but no amplitude: vdqec.sim owns the
gate matrices and the statevector arithmetic, and re-exports every name
here. Loading a circuit file, building the QPE benchmark or comparing a
profile's circuit digest therefore loads no numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import InvalidCircuitError, ValidationError, as_bool, as_int, as_real

# kind -> (arity, number of parameters); sim.gate_matrix builds each kind's
# matrix, from its parameters when it has any
GATE_SIGNATURES = {
    "X": (1, 0),
    "Y": (1, 0),
    "Z": (1, 0),
    "H": (1, 0),
    "S": (1, 0),
    "Sdg": (1, 0),
    "T": (1, 0),
    "Tdg": (1, 0),
    "Rz": (1, 1),
    "ControlledPhase": (2, 1),
    "CNOT": (2, 0),
}

MAX_QUBITS = 12

# timesteps stay below 2**53, where every one is a float and the heatmap's
# coordinates are finite
MAX_TIMESTEP = 2**53


@dataclass(frozen=True)
class GateOp:
    """One gate application at a discrete timestep.

    faultable marks whether the fault injector may place a Pauli error
    after this gate; state preparation gates are typically not faultable.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    timestep: int = 0
    faultable: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "qubits", tuple(as_int(q, "qubit") for q in self.qubits)
        )
        object.__setattr__(
            self, "params", tuple(as_real(p, "parameter") for p in self.params)
        )
        if not 0 <= as_int(self.timestep, "timestep") < MAX_TIMESTEP:
            raise InvalidCircuitError(
                f"timestep must be in [0, 2**53), got {self.timestep}"
            )
        as_bool(self.faultable, "faultable")
        if self.kind not in GATE_SIGNATURES:
            raise InvalidCircuitError(f"unknown gate kind {self.kind!r}")
        arity, nparams = GATE_SIGNATURES[self.kind]
        if len(self.qubits) != arity:
            raise InvalidCircuitError(
                f"{self.kind} expects {arity} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidCircuitError(f"{self.kind} on repeated qubit {self.qubits}")
        if len(self.params) != nparams:
            raise InvalidCircuitError(
                f"{self.kind} expects {nparams} parameter(s), got {self.params}"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidCircuitError(
                f"{self.kind} parameters must be finite, got {self.params}"
            )


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on num_qubits qubits plus a measurement spec.

    measured_qubits are read out most significant bit first: the output
    bitstring character i is the value of measured_qubits[i].
    """

    num_qubits: int
    ops: tuple[GateOp, ...]
    measured_qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(
            self, "measured_qubits",
            tuple(as_int(q, "measured qubit") for q in self.measured_qubits),
        )
        n = as_int(self.num_qubits, "num_qubits")
        if not (1 <= n <= MAX_QUBITS):
            raise InvalidCircuitError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {n}"
            )
        prev_t = None
        for op in self.ops:
            if any(not (0 <= q < n) for q in op.qubits):
                raise InvalidCircuitError(
                    f"{op.kind} touches qubit outside [0, {n}): {op.qubits}"
                )
            if prev_t is not None and op.timestep < prev_t:
                raise InvalidCircuitError("timesteps must be nondecreasing")
            prev_t = op.timestep
        if not self.measured_qubits:
            raise InvalidCircuitError("measured_qubits must be nonempty")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise InvalidCircuitError("measured_qubits must be distinct")
        if any(not (0 <= q < n) for q in self.measured_qubits):
            raise InvalidCircuitError("measured qubit outside register")


def check_bitstring(bits, width: int) -> None:
    """Raise ValidationError unless bits is a str of width 0/1 characters."""
    if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
        raise ValidationError(
            f"bitstring {bits!r} does not match outcome width {width}"
        )


def circuit_to_json(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "ops": [
            {
                "kind": op.kind,
                "params": list(op.params),
                "qubits": list(op.qubits),
                "timestep": op.timestep,
                "faultable": op.faultable,
            }
            for op in circuit.ops
        ],
        "measured_qubits": list(circuit.measured_qubits),
    }


def circuit_from_json(doc: dict) -> Circuit:
    try:
        ops = tuple(
            GateOp(
                kind=o["kind"],
                qubits=tuple(o["qubits"]),
                params=tuple(o.get("params") or ()),
                timestep=o.get("timestep", i),
                faultable=o.get("faultable", True),
            )
            for i, o in enumerate(doc["ops"])
        )
        return Circuit(
            num_qubits=doc["num_qubits"],
            ops=ops,
            measured_qubits=tuple(doc["measured_qubits"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed circuit document: {exc}") from exc


def circuit_digest(circuit: Circuit) -> str:
    """Stable sha256 over the canonical JSON form."""
    blob = json.dumps(circuit_to_json(circuit), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
