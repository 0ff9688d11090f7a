"""Clifford+T synthesis of single-qubit phase rotations.

Sequences are strings over X, H, S, s, T, t (lowercase means adjoint),
applied left to right in circuit time order. A sequence is in normal
form when no adjacent pair can be rewritten away: HH, XX, S.Sdg, Sdg.S,
T.Tdg, Tdg.T cancel, TT and Tdg.Tdg reduce to S and Sdg, and Sdg.Sdg is
respelled as SS (the canonical in-alphabet spelling of Z, which is why
SS itself stays legal).

approximate_rz returns the shortest normal-form sequence within epsilon
of the target, ties broken lexicographically on the symbol order
X < H < S < Sdg < T < Tdg. A table holds, per length, the least witness
of each rotation that length reaches first (levels are deduplicated by
the rotation each unitary induces on the Bloch sphere). For each length
L = 0, 1, ... the search joins table level ceil(L/2) as prefix with
level L - ceil(L/2) as suffix (meet in the middle, Amy, Maslov, Mosca and
Roetteler, arXiv:1206.0758) and stops at the first length with a hit.
The join gives the same answer as scanning table level L: both halves
of the least minimal word are least witnesses of rotations first reached
at their own lengths, or a swap would give a shorter or a smaller word.
So the table only grows to level ceil(max_length/2) <= 17, small enough
(3,968 entries there) that each level keeps its words as int8 rows of
symbol indices, not as parent pointers. The join rounds its
overlaps differently from a scan of level L, so a distance within about
1e-16 of epsilon could in principle fall on the other side; the reported
distance is recomputed with the table's own arithmetic. Tests check the
join against a scan of the table and against plain enumeration.
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

# the join needs table levels up to ceil(34/2) = 17 (3,968 entries at level 17)
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
    """Levels of normal-form words, grown on demand and shared between
    calls (the table only depends on the gate set). Level L holds the
    least witness of each rotation that length L reaches first."""

    def __init__(self):
        eye = np.eye(2, dtype=complex)[None]
        self._seen = {_bloch_keys(eye).tobytes()}
        # per level: (unitaries, words); row n of words spells entry n
        self.levels = [(eye.copy(), np.empty((1, 0), dtype=np.int8))]
        self._allowed = np.ones((7, 6), dtype=bool)
        for a, b in FORBIDDEN_PAIRS:
            self._allowed[SYMBOLS.index(a), SYMBOLS.index(b)] = False

    def ensure_length(self, max_length: int) -> None:
        while len(self.levels) - 1 < max_length:
            self._grow()

    def _grow(self) -> None:
        parents, words = self.levels[-1]
        idx = np.flatnonzero(self._allowed[_last(words)])
        children = _step(parents).reshape(-1, 2, 2)[idx]
        # children come in (parent, symbol) order, which is lexicographic, so
        # the first unseen key is the least witness of a new rotation
        keep = np.zeros(len(idx), dtype=bool)
        for i, key in enumerate(_bloch_keys(children)):
            kb = key.tobytes()
            if kb not in self._seen:
                self._seen.add(kb)
                keep[i] = True
        parent_idx, sym_idx = np.divmod(idx[keep], 6)
        words = np.column_stack([words[parent_idx], sym_idx]).astype(np.int8)
        self.levels.append((children[keep], words))

    def join(self, i: int, j: int, target: np.ndarray, epsilon: float):
        """Scan the words P.S (P in level i, S in level j, junction in
        normal form) in lexicographic order for one within epsilon of
        target. Returns (hit, prefix ranks, suffix ranks): the first hit
        alone, or else every pair within 1e-9 of the least distance."""
        prefix, prefix_words = self.levels[i]
        suffix, suffix_words = self.levels[j]
        last = _last(prefix_words)
        # tr(target^dag U_S U_P) = tr(V_S^dag U_P) with V_S = U_S^dag target
        v_conj = (suffix.conj().transpose(0, 2, 1) @ target).conj()
        v_conj = np.ascontiguousarray(v_conj.reshape(-1, 4).T)
        forbidden = (~self._allowed[:, suffix_words[:, 0]] if j
                     else np.zeros((7, 1), dtype=bool))
        flat = prefix.reshape(-1, 4)
        rows = max(1, _JOIN_CELLS // len(suffix))
        # |tr| below hit_floor cannot pass the hit test; it only prefilters
        hit_floor = 2.0 * (1.0 - epsilon**2) - 1e-9
        least, near = np.inf, []
        for r0 in range(0, len(flat), rows):
            tr = np.abs(flat[r0 : r0 + rows] @ v_conj)
            tr[forbidden[last[r0 : r0 + rows]]] = -np.inf
            tr = tr.ravel()
            top = tr.max()
            if top >= hit_floor:
                cells = np.flatnonzero(tr >= hit_floor)
                cells = cells[_distance(tr[cells]) <= epsilon]
                if cells.size:
                    p, s = divmod(int(cells[0]) + r0 * len(suffix), len(suffix))
                    return True, np.array([p]), np.array([s])
            # d <= min d + 1e-9 implies |tr| >= max |tr| - 4e-9
            cells = np.flatnonzero(tr >= top - 1e-8)
            d = _distance(tr[cells])
            least = min(least, d.min())
            near.append((cells + r0 * len(suffix), d))
        cells = np.concatenate([c for c, _ in near])
        d = np.concatenate([d for _, d in near])
        p, s = np.divmod(cells[d <= least + 1e-9], len(suffix))
        return False, p, s

    def words(self, i: int, prefix: np.ndarray, j: int, suffix: np.ndarray,
              target_dag: np.ndarray):
        """Unitaries of the words P.S and their distances to the target,
        stepped from the stored prefix unitaries exactly as the table grows
        its levels, so that they carry the table's floats."""
        u = self.levels[i][0][prefix]
        rows = np.arange(len(u))
        for k in self.levels[j][1][suffix].T:
            u = _step(u)[rows, k]
        return u, _distance(np.abs(np.einsum("ab,nba->n", target_dag, u)))

    def sequence(self, i: int, p: int, j: int, s: int) -> str:
        syms = np.concatenate([self.levels[i][1][p], self.levels[j][1][s]])
        return "".join(SYMBOLS[k] for k in syms)


def _last(words: np.ndarray) -> np.ndarray:
    """Last symbol of each word, or -1 (any may follow) for the empty word."""
    return words[:, -1] if words.shape[1] else np.full(len(words), -1)


def _distance(abs_trace: np.ndarray) -> np.ndarray:
    """sqrt(1 - |tr(target^dag u)| / 2) from |tr(target^dag u)|."""
    return np.sqrt(np.maximum(0.0, 1.0 - abs_trace / 2.0))


def _step(u: np.ndarray) -> np.ndarray:
    """Every one-symbol extension of each unitary, indexed [n, symbol]."""
    return np.einsum("kab,nbc->nkac", _MATS, u)


_TABLE = _SearchTable()

# pair cells per join chunk. Compiling the qpe5-mirrored circuit in process
# took 0.33-0.50 s at 2^16 to 2^20 cells and peaked at 38, 44 and 66 MB; 2^22
# took 0.53-0.57 s and peaked at 121 MB.
_JOIN_CELLS = 1 << 18


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
    near = []
    for length in range(max_length + 1):
        i = (length + 1) // 2
        j = length - i
        # grow the shared table one level at a time so early hits stay cheap
        _TABLE.ensure_length(i)
        hit, p, s = _TABLE.join(i, j, target, epsilon)
        if hit:
            _, d = _TABLE.words(i, p, j, s, target_dag)
            seq = _TABLE.sequence(i, int(p[0]), j, int(s[0]))
            return ApproxReport(seq, theta, float(d[0]), length, True)
        near.append((i, j, p, s))
    best = (2.0, "")
    for i, j, p, s in near:
        u, d = _TABLE.words(i, p, j, s, target_dag)
        # score each rotation by its least witness, as the table stores it
        _, first = np.unique(_bloch_keys(u), axis=0, return_index=True)
        first.sort()
        k = int(first[np.argmin(d[first])])
        if d[k] < best[0] - 1e-12:
            best = (float(d[k]), _TABLE.sequence(i, int(p[k]), j, int(s[k])))
    return ApproxReport(best[1], theta, best[0], len(best[1]), False)


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
    reports: dict[float, ApproxReport] = {}

    def emit_rz(theta, qubit, faultable, origin):
        if theta not in reports:
            reports[theta] = approximate_rz(theta, epsilon, max_length)
        report = reports[theta]
        if not report.converged:
            raise CompileError(
                f"op {origin}: Rz({theta:.6g}) only reached distance "
                f"{report.achieved_distance:.3e} within length {max_length} "
                f"(epsilon {epsilon:.3e})"
            )
        for c in report.sequence:
            out.append(GateOp(KIND_OF_SYMBOL[c], (qubit,), (), len(out), faultable))

    for i, op in enumerate(circuit.ops):
        if op.kind == "Rz":
            emit_rz(op.params[0], op.qubits[0], op.faultable, i)
        elif op.kind == "ControlledPhase":
            ctrl, targ = op.qubits
            theta = op.params[0]
            emit_rz(theta / 2.0, ctrl, op.faultable, i)
            emit_rz(theta / 2.0, targ, op.faultable, i)
            out.append(GateOp("CNOT", (ctrl, targ), (), len(out), op.faultable))
            emit_rz(-theta / 2.0, targ, op.faultable, i)
            out.append(GateOp("CNOT", (ctrl, targ), (), len(out), op.faultable))
        else:
            out.append(replace(op, timestep=len(out)))
    return Circuit(circuit.num_qubits, tuple(out), circuit.measured_qubits)
