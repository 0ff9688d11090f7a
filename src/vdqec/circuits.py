"""The circuit model: gate kinds, GateOp, Circuit and the circuit document.

This is the numpy-free side of circuits. It holds what a gate list is and
how it is checked, written and hashed, but no amplitude: vdqec.sim owns the
gate matrices and the statevector arithmetic. Loading a circuit file,
building the QPE benchmark or comparing a profile's circuit digest
therefore loads no numpy.

These are the one home of the circuit rules. check_gate (a gate's kind,
arity, distinct qubits and timestep) and check_layout (the register size,
each gate's qubit range and the timestep order) are the gate rules:
GateOp and Circuit apply them, the profile loader applies them to a
profile's gate summaries, and sim to a state's register and each gate it
applies. check_measured is the readout rule, which Circuit and
sim.output_distribution share.
"""

from __future__ import annotations

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
        try:
            qubits = tuple(as_int(q, "qubit") for q in self.qubits)
            params = tuple(as_real(p, "parameter") for p in self.params)
        except TypeError:
            raise InvalidCircuitError(
                f"{self.kind!r} needs sequences of qubits and parameters, "
                f"got {self.qubits!r} and {self.params!r}"
            ) from None
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        check_gate(self.kind, self.qubits, as_int(self.timestep, "timestep"))
        as_bool(self.faultable, "faultable")
        nparams = GATE_SIGNATURES[self.kind][1]
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
        check_layout(self.num_qubits, self.ops)
        object.__setattr__(
            self, "measured_qubits",
            check_measured(self.num_qubits, self.measured_qubits),
        )


def check_gate(kind: str, qubits: tuple[int, ...], timestep: int) -> None:
    """Raise InvalidCircuitError unless `kind` is a gate kind acting on
    len(qubits) distinct qubits and timestep is in [0, MAX_TIMESTEP)."""
    if not 0 <= timestep < MAX_TIMESTEP:
        raise InvalidCircuitError(f"timestep must be in [0, 2**53), got {timestep}")
    if kind not in GATE_SIGNATURES:
        raise InvalidCircuitError(f"unknown gate kind {kind!r}")
    arity = GATE_SIGNATURES[kind][0]
    if len(qubits) != arity:
        raise InvalidCircuitError(f"{kind} expects {arity} qubit(s), got {qubits}")
    if len(set(qubits)) != len(qubits):
        raise InvalidCircuitError(f"{kind} on repeated qubit {qubits}")


def check_layout(num_qubits: int, gates) -> None:
    """Raise ValidationError unless num_qubits is an int in
    [1, MAX_QUBITS], every gate of `gates`, anything with .kind, .qubits
    and .timestep such as circuit.ops or profile.gates, acts on qubits in
    [0, num_qubits), and their timesteps never decrease."""
    if not 1 <= as_int(num_qubits, "num_qubits") <= MAX_QUBITS:
        raise InvalidCircuitError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    prev_t = 0
    for g in gates:
        if any(not 0 <= q < num_qubits for q in g.qubits):
            raise InvalidCircuitError(
                f"{g.kind} touches qubit outside [0, {num_qubits}): {g.qubits}"
            )
        if g.timestep < prev_t:
            raise InvalidCircuitError("timesteps must be nondecreasing")
        prev_t = g.timestep


def check_measured(num_qubits: int, measured_qubits) -> tuple[int, ...]:
    """measured_qubits as a tuple, raising ValidationError unless they are
    ints, nonempty, distinct and in [0, num_qubits)."""
    mq = tuple(as_int(q, "measured qubit") for q in measured_qubits)
    if not mq:
        raise InvalidCircuitError("measured_qubits must be nonempty")
    if len(set(mq)) != len(mq):
        raise InvalidCircuitError("measured_qubits must be distinct")
    if any(not (0 <= q < num_qubits) for q in mq):
        raise InvalidCircuitError("measured qubit outside register")
    return mq


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
    import hashlib  # loads OpenSSL, which only a digest needs

    blob = json.dumps(circuit_to_json(circuit), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
