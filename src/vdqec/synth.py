"""Clifford+T synthesis of single-qubit phase rotations.

Sequences are strings over X, H, S, s, T, t (lowercase means adjoint),
applied left to right in circuit time order. A sequence is in normal
form when no adjacent pair can be rewritten away: HH, XX, S.Sdg, Sdg.S,
T.Tdg, Tdg.T cancel, TT and Tdg.Tdg reduce to S and Sdg, and Sdg.Sdg is
respelled as SS (the canonical in-alphabet spelling of Z, which is why
SS itself stays legal).

approximate_rz runs an exhaustive iterative-deepening search over normal
form sequences, one length at a time, and returns the shortest sequence
within epsilon of the target (ties broken lexicographically on the
symbol order X < H < S < Sdg < T < Tdg). Search levels are deduplicated
by the rotation each unitary induces on the Bloch sphere, which keeps
the frontier tractable without changing the answer; tests check this
against plain enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompileError, ValidationError
from .sim import Circuit, GateOp, gate_matrix, rz_matrix

SYMBOLS = "XHSsTt"
KIND_OF_SYMBOL = {"X": "X", "H": "H", "S": "S", "s": "Sdg", "T": "T", "t": "Tdg"}

_MATS = np.stack([gate_matrix(KIND_OF_SYMBOL[c]) for c in SYMBOLS])

# adjacent pairs excluded from normal form (see module docstring)
FORBIDDEN_PAIRS = frozenset(
    [
        ("X", "X"),
        ("H", "H"),
        ("S", "s"),
        ("s", "S"),
        ("s", "s"),
        ("T", "t"),
        ("t", "T"),
        ("T", "T"),
        ("t", "t"),
    ]
)

# the table grown to level 34 peaks at about 2.65 GB RSS (measured with the
# default pipeline config, numpy 2.4); each further level costs roughly 1.4x more
MAX_SEARCH_LENGTH = 34
DEFAULT_MAX_LENGTH = MAX_SEARCH_LENGTH

_PAULIS = np.stack(
    [gate_matrix("X"), gate_matrix("Y"), gate_matrix("Z")]
)


@dataclass(frozen=True)
class ApproxReport:
    """Result of approximating Rz(target_theta) with a Clifford+T string."""

    sequence: str
    target_theta: float
    achieved_distance: float
    length: int
    converged: bool


def dist(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant distance sqrt(1 - |tr(u^dag v)| / 2)."""
    overlap = abs(np.trace(u.conj().T @ v)) / 2.0
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def is_normal_form(sequence: str) -> bool:
    if any(c not in SYMBOLS for c in sequence):
        raise ValidationError(f"unknown symbol in sequence {sequence!r}")
    return all(
        (a, b) not in FORBIDDEN_PAIRS for a, b in zip(sequence, sequence[1:])
    )


def sequence_unitary(sequence: str) -> np.ndarray:
    """Product of the gate matrices, leftmost symbol applied first."""
    u = np.eye(2, dtype=complex)
    for c in sequence:
        if c not in SYMBOLS:
            raise ValidationError(f"unknown symbol {c!r} in sequence")
        u = _MATS[SYMBOLS.index(c)] @ u
    return u


def _bloch_keys(states: np.ndarray) -> np.ndarray:
    """Integer-grid SO(3) rotation entries; equal keys mean equal action
    up to global phase."""
    u_dag = states.conj().transpose(0, 2, 1)
    out = np.empty((states.shape[0], 9))
    for j in range(3):
        conj = states @ _PAULIS[j] @ u_dag
        for i in range(3):
            out[:, 3 * j + i] = 0.5 * np.real(
                np.einsum("ab,nba->n", _PAULIS[i], conj)
            )
    return np.round(out * 1e7).astype(np.int64)


class _SearchTable:
    """Levels of the iterative-deepening search, grown on demand and
    shared between calls (the table only depends on the gate set)."""

    def __init__(self):
        eye = np.eye(2, dtype=complex)[None]
        self._seen = {_bloch_keys(eye).tobytes()}
        # per level: (unitaries, last symbol index, parent index)
        self.levels = [
            (eye.copy(), np.array([-1]), np.array([-1]))
        ]
        self._allowed = np.ones((7, 6), dtype=bool)
        for a, b in FORBIDDEN_PAIRS:
            self._allowed[SYMBOLS.index(a), SYMBOLS.index(b)] = False

    def ensure_length(self, max_length: int) -> None:
        while len(self.levels) - 1 < max_length:
            self._grow()

    def _grow(self) -> None:
        parents, last, _ = self.levels[-1]
        idx = np.flatnonzero(self._allowed[last])
        children = np.einsum("kab,nbc->nkac", _MATS, parents).reshape(-1, 2, 2)[idx]
        # children come in (parent, symbol) order, which is lexicographic, so
        # the first unseen key is the least witness of a new rotation
        keep = np.zeros(len(idx), dtype=bool)
        for i, key in enumerate(_bloch_keys(children)):
            kb = key.tobytes()
            if kb not in self._seen:
                self._seen.add(kb)
                keep[i] = True
        parent_idx, sym_idx = np.divmod(idx[keep], 6)
        self.levels.append((children[keep], sym_idx, parent_idx))

    def sequence_at(self, level: int, index: int) -> str:
        out = []
        while level > 0:
            _, sym_idx, parent_idx = self.levels[level]
            out.append(SYMBOLS[sym_idx[index]])
            index = int(parent_idx[index])
            level -= 1
        return "".join(reversed(out))


_TABLE = _SearchTable()


def check_budget(epsilon: float, max_length: int) -> None:
    """Raise ValidationError unless epsilon is finite and positive and
    max_length is in [1, MAX_SEARCH_LENGTH]."""
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    if not 1 <= max_length <= MAX_SEARCH_LENGTH:
        raise ValidationError(
            f"max_length must be in [1, {MAX_SEARCH_LENGTH}], got {max_length}"
        )


def approximate_rz(
    theta: float, epsilon: float, max_length: int = DEFAULT_MAX_LENGTH
) -> ApproxReport:
    """Shortest normal-form Clifford+T approximation of Rz(theta).

    Searches lengths 0, 1, ... max_length and stops at the first length
    holding a sequence within epsilon. If none qualifies, the best
    sequence seen anywhere is returned with converged=False.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    epsilon = float(epsilon)
    max_length = int(max_length)
    check_budget(epsilon, max_length)

    target = rz_matrix(theta % (2 * np.pi))
    target_dag = target.conj().T
    best = (2.0, 0, 0)
    for level in range(max_length + 1):
        # grow the shared table one level at a time so early hits stay cheap
        _TABLE.ensure_length(level)
        states = _TABLE.levels[level][0]
        overlap = np.abs(np.einsum("ab,nba->n", target_dag, states)) / 2.0
        d = np.sqrt(np.maximum(0.0, 1.0 - overlap))
        hits = np.nonzero(d <= epsilon)[0]
        if hits.size:
            i = int(hits[0])
            seq = _TABLE.sequence_at(level, i)
            return ApproxReport(seq, theta, float(d[i]), level, True)
        i = int(np.argmin(d))
        if d[i] < best[0] - 1e-12:
            best = (float(d[i]), level, i)
    seq = _TABLE.sequence_at(best[1], best[2])
    return ApproxReport(seq, theta, best[0], best[1], False)


def compile_circuit(
    circuit: Circuit, epsilon: float, max_length: int = DEFAULT_MAX_LENGTH
) -> Circuit:
    """Rewrite a circuit over {X,Y,Z,H,S,Sdg,T,Tdg,CNOT}.

    Rz gates become Clifford+T strings; ControlledPhase(theta) becomes
    Rz(theta/2) on both qubits and Rz(-theta/2) sandwiched between two
    CNOTs, then those rotations are approximated in turn. Exact gates
    pass through. Timesteps are renumbered sequentially and each emitted
    gate inherits the faultable flag of its source op. Raises
    CompileError if any rotation fails to converge within epsilon.
    """
    check_budget(epsilon, max_length)
    out: list[GateOp] = []

    def emit_rz(theta, qubit, faultable, origin):
        report = approximate_rz(theta, epsilon, max_length)
        if not report.converged:
            raise CompileError(
                f"op {origin}: Rz({theta:.6g}) only reached distance "
                f"{report.achieved_distance:.3e} within length {max_length} "
                f"(epsilon {epsilon:.3e})"
            )
        for c in report.sequence:
            out.append(GateOp(KIND_OF_SYMBOL[c], (qubit,), (), 0, faultable))

    for i, op in enumerate(circuit.ops):
        if op.kind == "Rz":
            emit_rz(op.params[0], op.qubits[0], op.faultable, i)
        elif op.kind == "ControlledPhase":
            ctrl, targ = op.qubits
            theta = op.params[0]
            emit_rz(theta / 2.0, ctrl, op.faultable, i)
            emit_rz(theta / 2.0, targ, op.faultable, i)
            out.append(GateOp("CNOT", (ctrl, targ), (), 0, op.faultable))
            emit_rz(-theta / 2.0, targ, op.faultable, i)
            out.append(GateOp("CNOT", (ctrl, targ), (), 0, op.faultable))
        else:
            out.append(op)

    renumbered = tuple(replace(op, timestep=t) for t, op in enumerate(out))
    return Circuit(circuit.num_qubits, renumbered, circuit.measured_qubits)
