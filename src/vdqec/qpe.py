"""Quantum phase estimation benchmark circuits.

The benchmark estimates the eigenphase of a diagonal unitary acting on a
single target qubit. With counting_qubits = c the register layout is
qubits 0..c-1 for counting and qubit c for the target. The inverse QFT
is implemented without terminal swaps, so after it runs, counting qubit
k holds bit c-1-k of the phase estimate; reading measured_qubits in
order 0..c-1 therefore yields the estimate most significant bit first.

State preparation (the target X, the counting Hadamards, and the
controlled-power ladder) is marked not faultable; the inverse QFT is the
faultable part of the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import MAX_QUBITS, Circuit, GateOp, check_measured
from .config import RunConfig
from .errors import ValidationError, as_int


@dataclass(frozen=True)
class QpeSpec:
    """Benchmark parameters; the phase is the rational phase_num/phase_den."""

    counting_qubits: int = RunConfig.counting_qubits
    phase_num: int = RunConfig.phase_num
    phase_den: int = RunConfig.phase_den

    def __post_init__(self):
        # the counting register plus the target
        if not 1 <= as_int(self.counting_qubits, "counting_qubits") <= MAX_QUBITS - 1:
            raise ValidationError(f"counting_qubits must be in [1, {MAX_QUBITS - 1}]")
        if as_int(self.phase_den, "phase_den") <= 0:
            raise ValidationError("phase_den must be positive")
        if not (0 <= as_int(self.phase_num, "phase_num") < self.phase_den):
            raise ValidationError("phase must satisfy 0 <= num/den < 1")

    @property
    def phase(self) -> float:
        return self.phase_num / self.phase_den


def build_inverse_qft(
    qubits: tuple[int, ...], num_qubits: int | None = None, start_timestep: int = 0
) -> Circuit:
    """Inverse QFT on the given qubits (no terminal swaps).

    qubits[k] is treated as holding frequency bit k before the transform;
    afterwards qubits[k] holds phase bit len(qubits)-1-k.
    """
    # the transform's qubits are its measured qubits, checked as Circuit
    # checks them; Circuit checks the register size and range
    qs = check_measured(MAX_QUBITS, qubits)
    if num_qubits is None:
        num_qubits = max(qs) + 1
    c = len(qs)
    ops = []
    t = start_timestep
    for k in range(c - 1, -1, -1):
        for j in range(c - 1, k, -1):
            ops.append(
                GateOp(
                    "ControlledPhase",
                    (qs[j], qs[k]),
                    (-math.pi / 2 ** (j - k),),
                    t,
                )
            )
            t += 1
        ops.append(GateOp("H", (qs[k],), (), t))
        t += 1
    return Circuit(num_qubits, tuple(ops), qs)


def build_qpe(spec: QpeSpec = QpeSpec()) -> tuple[Circuit, str]:
    """Benchmark circuit plus the correct readout bitstring (MSB first).

    For a dyadic phase (phase_den a power of two that fits the counting
    register) the circuit puts all probability mass on that bitstring.
    """
    c = spec.counting_qubits
    target = c
    ops = [GateOp("X", (target,), (), 0, faultable=False)]
    t = 1
    for k in range(c):
        ops.append(GateOp("H", (k,), (), t, faultable=False))
        t += 1
    for k in range(c):
        theta = 2.0 * math.pi * spec.phase * (2**k)
        ops.append(
            GateOp("ControlledPhase", (k, target), (theta,), t, faultable=False)
        )
        t += 1
    iqft = build_inverse_qft(tuple(range(c)), num_qubits=c + 1, start_timestep=t)
    ops.extend(iqft.ops)

    estimate = round(spec.phase * 2**c) % (2**c)
    correct = format(estimate, f"0{c}b")
    circuit = Circuit(c + 1, tuple(ops), tuple(range(c)))
    return circuit, correct
