"""Exact statevector simulation of small gate circuits.

This is the numpy side of circuits: the gate matrices and every amplitude.
The circuit model (GATE_SIGNATURES, GateOp, Circuit, the circuit document
and the rules a register, a gate and a readout obey) is numpy-free and
lives in vdqec.circuits; gate_matrix builds each kind of its table, and
StateVector, zero_state, apply_gate and output_distribution check their
arguments by its rules.

Conventions:
  * qubit 0 is the least significant bit of a basis-state index;
  * Rz(theta) is the phase rotation diag(1, e^{i theta}), so S = Rz(pi/2)
    and T = Rz(pi/4) hold exactly (no global phase bookkeeping needed);
  * ControlledPhase(theta) is diag(1, 1, 1, e^{i theta}) with
    qubits = (control, target), although the gate is symmetric;
  * output distributions are computed by exact marginalization, never by
    sampling, so repeated runs are bit-identical;
  * one kernel, _apply, applies every gate, to a state or to a block of
    states one per row, by elementwise sums over strided views in a fixed
    order: no BLAS product rounds an amplitude, so the results do not
    depend on the host's BLAS kernel or on the block a state rides in;
  * a matrix entry with a nonzero real and a nonzero imaginary part
    scales as x * Re m + x * (i Im m): two products and one sum, which no
    SIMD level fuses, so the results do not depend on the SIMD level numpy
    dispatches to either;
  * one readout rule, _masses, scores output_distribution and the fault
    campaign alike: it adds re^2 + im^2 over the basis states of an
    outcome in ascending index order, and an outcome of mass at most
    MIN_PROB reads 0.0. _reduced_overlap, the campaign's bra-ket sum over
    the qubits a gate does not touch, uses the kernel's views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    GATE_SIGNATURES,
    Circuit,
    GateOp,
    check_bitstring,
    check_layout,
    check_measured,
)
# perfbench/traced.py --micro reads circuit_from_json from this module
from .circuits import circuit_from_json  # noqa: F401
from .errors import InvalidCircuitError, ValidationError

SQRT2 = np.sqrt(2.0)


def rz_matrix(theta: float) -> np.ndarray:
    """Phase rotation diag(1, e^{i theta})."""
    return np.diag([1.0, np.exp(1j * float(theta))]).astype(complex)


def controlled_phase_matrix(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * float(theta))]).astype(complex)


# kind -> matrix, for every kind of GATE_SIGNATURES; the matrix of a gate
# with parameters is the function that builds it from them
_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2,
    "S": np.diag([1.0, 1j]).astype(complex),
    "Sdg": np.diag([1.0, -1j]).astype(complex),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex),
    "Tdg": np.diag([1.0, np.exp(-1j * np.pi / 4)]).astype(complex),
    "Rz": rz_matrix,
    "ControlledPhase": controlled_phase_matrix,
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

# outcomes with at most this probability are left out of a distribution
MIN_PROB = 1e-15


def gate_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Dense matrix (2x2 or 4x4) for a gate kind."""
    if kind not in _MATRICES:
        raise InvalidCircuitError(f"unknown gate kind {kind!r}")
    mat = _MATRICES[kind]
    return mat(*params) if GATE_SIGNATURES[kind][1] else mat


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on num_qubits qubits; treated as immutable."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_layout(self.num_qubits, ())
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2**self.num_qubits,):
            raise ValidationError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def zero_state(num_qubits: int) -> StateVector:
    """|0...0> on num_qubits qubits."""
    check_layout(num_qubits, ())
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _slices(amps: np.ndarray, qubits: tuple[int, ...]) -> list[np.ndarray]:
    """The 2^k strided views of amps, one per value of the k target qubits
    in matrix-index order (qubits[0] the most significant bit); view i
    holds every amplitude whose target bits read i, of every state.

    amps is one state of shape (2^n,) or a C-contiguous block of states of
    shape (B, 2^n), one state per row, whose views keep the leading B
    axis; neither reshape copies."""
    lead = amps.shape[:-1]
    if len(qubits) == 1:
        psi = amps.reshape(*lead, -1, 2, 1 << qubits[0])
        return [psi[..., 0, :], psi[..., 1, :]]
    a, b = qubits
    lo, hi = min(a, b), max(a, b)
    psi = amps.reshape(*lead, -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if a == hi:
        return [psi[..., i >> 1, :, i & 1, :] for i in range(4)]
    return [psi[..., i & 1, :, i >> 1, :] for i in range(4)]


def _apply(amps: np.ndarray, qubits: tuple[int, ...], mat: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the k target qubits (first qubit is the
    most significant bit of the matrix index), returning a new array.

    amps is one state of shape (2^n,) or a block of states of shape
    (B, 2^n), one state per row. Each output view is the sum, in index
    order, of the input views whose matrix entry is nonzero: an entry of 1
    is a copy and any other a scale. So a diagonal gate scales, X and CNOT
    copy, and H adds two scaled halves. Every amplitude is computed
    elementwise from its own state, so a state's result does not depend on
    the block it rides in, and no BLAS product rounds it.
    """
    rows = mat.tolist()
    # a row of the identity keeps its view: one contiguous copy of the whole
    # array covers those views, and the loop skips them. The result is
    # C-ordered whatever amps is, so that its views write into it
    kept = [all(m == (i == o) for i, m in enumerate(row)) for o, row in enumerate(rows)]
    out = amps.copy(order="C") if any(kept) else np.empty_like(amps, order="C")
    ins = _slices(amps, qubits)
    for y, row, keep in zip(_slices(out, qubits), rows, kept):
        if keep:
            continue
        # an entry with a nonzero real and a nonzero imaginary part scales
        # as x * Re m + x * (i Im m): numpy fuses a complex product (FMA) on
        # some SIMD levels and not on others, and two products that each
        # have a zero part round alike on every level and cannot fuse
        (m, x), *rest = [
            (part, x) for m, x in zip(row, ins) if m != 0
            for part in ((m.real, complex(0.0, m.imag)) if m.real and m.imag else (m,))
        ]
        if m == 1:
            np.copyto(y, x)
        else:
            np.multiply(x, m, out=y)
        for m, x in rest:
            y += x if m == 1 else x * m
    return out


def _reduced_overlap(bra: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """red[a, b, r] = sum over the other qubits' bits of bra[r, ..a..] *
    psi[..b..], with a and b the values of the target qubits in matrix-index
    order: one fixed-order einsum on strided views per (a, b), no copy.
    bra is an (R, 2^n) block and psi one state."""
    bras, kets = _slices(bra, qubits), _slices(psi, qubits)
    axes = "ijk"[:kets[0].ndim]
    spec = f"r{axes},{axes}->r"
    return np.array([[np.einsum(spec, x, y) for y in kets] for x in bras])


def _apply_op(amps: np.ndarray, op: GateOp) -> np.ndarray:
    return _apply(amps, op.qubits, gate_matrix(op.kind, op.params))


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply a single gate, returning a new state."""
    check_layout(state.num_qubits, (op,))
    return StateVector(state.num_qubits, _apply_op(state.amplitudes, op))


def simulate(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run every gate in order starting from |0...0> (or `initial`)."""
    if initial is None:
        initial = zero_state(circuit.num_qubits)
    elif initial.num_qubits != circuit.num_qubits:
        raise ValidationError("initial state size does not match circuit")
    amps = initial.amplitudes
    for op in circuit.ops:
        amps = _apply_op(amps, op)
    return StateVector(circuit.num_qubits, amps)


def _outcome_rows(n: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """A (2^m, 2^(n-m)) array for m measured qubits: row k lists, in
    ascending order, the basis states whose measured bits (MSB first)
    read k."""
    idx = np.arange(2**n)
    keys = np.zeros(2**n, dtype=np.int64)
    for q in measured_qubits:
        keys = (keys << 1) | ((idx >> q) & 1)
    return np.argsort(keys, kind="stable").reshape(2 ** len(measured_qubits), -1)


def _masses(amps: np.ndarray, rows):
    """The mass that amps puts on the basis states `rows`, with each mass
    at most MIN_PROB read as 0.0, as floats: for one state (2^n,), a float
    for rows (R,) and a list of one mass per row for rows (K, R); for a
    block (B, 2^n), one state per row, and rows (R,), one mass per state.
    rows = slice(None) takes every entry of the last axis. cumsum adds
    re^2 + im^2 in ascending index order, where np.sum would add pairwise
    and numpy's complex abs rounds by SIMD level."""
    amps = amps[..., rows]
    mass = np.cumsum(amps.real ** 2 + amps.imag ** 2, axis=-1)[..., -1]
    return np.where(mass > MIN_PROB, mass, 0.0).tolist()


def output_distribution(
    state: StateVector, measured_qubits: tuple[int, ...]
) -> dict[str, float]:
    """Exact measurement distribution over the listed qubits (MSB first).

    Unmeasured qubits are marginalized out. Outcomes with probability
    at most MIN_PROB are dropped.
    """
    n = state.num_qubits
    mq = check_measured(n, measured_qubits)
    masses = _masses(state.amplitudes, _outcome_rows(n, mq))
    return {format(k, f"0{len(mq)}b"): m for k, m in enumerate(masses) if m}


def pst(distribution: dict[str, float], correct_bitstring: str) -> float:
    """Probability of successful trial: mass on the correct outcome."""
    if not distribution:
        raise ValidationError("empty distribution")
    check_bitstring(correct_bitstring, len(next(iter(distribution))))
    return float(distribution.get(correct_bitstring, 0.0))
