"""Clifford+T synthesis of single-qubit phase rotations.

Sequences are strings over X, H, S, s, T, t (lowercase means adjoint),
applied left to right in circuit time order. A sequence is in normal
form when it is the least witness of its rotation: the least word, by
length and then lexicographically on the symbol order
X < H < S < Sdg < T < Tdg, that spells the same unitary up to global
phase. Pair rules follow from it, and none is kept or consulted: no
least witness holds a pair that another spelling of its rotation makes
shorter (HH, XX, S.Sdg, Sdg.S, T.Tdg and Tdg.T cancel; TT = S,
Tdg.Tdg = Sdg, S.Tdg = Tdg.S = T and Sdg.T = T.Sdg = Tdg) or as long and
smaller (Sdg.Sdg = SS, the in-alphabet spelling of Z).

approximate_rz returns the shortest sequence within epsilon of the
target, ties broken lexicographically, and so in normal form. A table
holds, per length, the least witness of each rotation that length reaches
first (levels are deduplicated by the unit quaternion q below, rounded to
a 1e-7 grid and signed so that its first nonzero coordinate is positive).
Each level extends every entry of the last by all six symbols and keeps
the least witnesses of the rotations no level holds yet. For each length
L = 0, 1, ... the search joins table level ceil(L/2) as prefix with
level L - ceil(L/2) as suffix (meet in the middle, Amy, Maslov, Mosca and
Roetteler, arXiv:1206.0758) and stops at the first length with a hit.
The join gives the same answer as scanning table level L: both halves
of the least minimal word are least witnesses of rotations first reached
at their own lengths, or a swap would give a shorter or a smaller word.
So the table only grows to level ceil(max_length/2) <= 17, small enough
(3,968 entries there) that each level keeps its words as int8 rows of
symbol indices, not as parent pointers.

The join returns every pair P.S within a radius of the target, as
(prefix rank, suffix rank) in rank order, once each. Ranks follow the
words' lexicographic order, so the first pair spells the least word. It
scores only the pairs that can pass. Up to sign, a unitary u has the
unit quaternion q = (Re a, Im a, Re b, Im b) of u / sqrt(det u) =
[[a, -b*], [b, a*]], and |tr(V_S^dag U_P)| / 2 = |q_P . q_S|. So a pair
is within radius r when q_P.q_S >= 1 - r^2 for q_S or for -q_S, and then
q_P and that +-q_S differ by at most sqrt(2) r in every coordinate. Each
level keeps its quaternions sorted on the first coordinate, built as the
level grows. A join sorts the +-q_S of its suffixes, and each block of
128 of them scores one real product against the prefixes inside that
window, widened by a rounding slack (derived at _SLACK). The pairs above
1 - r^2 - slack get the exact test on the complex overlap; a wide radius
can pass a pair near both +q_S and -q_S, so the hits are sorted and
deduplicated.

The search joins each length at epsilon and returns the first pair of
the first length with one. Only a search that never converges reruns its
joins, each within the best distance found at a shorter length (2 at the
start): only such a pair can replace the best, and every witness of the
least-distance rotation lies inside that one window too. It scores each
rotation by its least witness, by the rule that grows the table, and a
pair must beat the best by 1e-12 to replace it; a word that is not in
normal form spells a rotation that a shorter word or a smaller pair
spells too, so it was already scored.

The join rounds its overlaps differently from a scan of level L, so a
distance within about 1e-16 of epsilon could in principle fall on the
other side; the reported distance is recomputed with the table's own
arithmetic. Tests check the join against a dense scan of its pairs,
against a scan of the table and against plain enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, GateOp
from .config import RunConfig, check_budget
from .errors import CompileError, ValidationError, as_real
from .sim import gate_matrix, rz_matrix

SYMBOLS = "XHSsTt"
KIND_OF_SYMBOL = {"X": "X", "H": "H", "S": "S", "s": "Sdg", "T": "T", "t": "Tdg"}

_MATS = np.stack([gate_matrix(KIND_OF_SYMBOL[c]) for c in SYMBOLS])


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


def sequence_unitary(sequence: str) -> np.ndarray:
    """Product of the gate matrices, leftmost symbol applied first."""
    u = np.eye(2, dtype=complex)
    for c in sequence:
        if c not in SYMBOLS:
            raise ValidationError(f"unknown symbol {c!r} in sequence")
        u = _MATS[SYMBOLS.index(c)] @ u
    return u


class _SearchTable:
    """Levels of words, grown on demand and shared between calls (the
    table only depends on the gate set). Level L holds the least witness
    of each rotation that length L reaches first, which is in normal form
    (see the module docstring)."""

    def __init__(self):
        self._seen = set()
        # per level: (unitaries, words); row n of words spells entry n
        self.levels = []
        # per level: its quaternions signed so that the first coordinate is
        # >= 0 and sorted on it, that first coordinate, and their ranks
        self._views = []
        self._add_level(np.eye(2, dtype=complex)[None], np.empty((1, 0), dtype=np.int8))

    def ensure_length(self, max_length: int) -> None:
        while len(self.levels) - 1 < max_length:
            parents, words = self.levels[-1]
            symbols = np.tile(np.arange(6, dtype=np.int8), len(words))
            self._add_level(_step(parents).reshape(-1, 2, 2),
                            np.column_stack([np.repeat(words, 6, axis=0), symbols]))

    def _add_level(self, units: np.ndarray, words: np.ndarray) -> None:
        """Append the candidates whose rotations no level holds yet. They
        come in (parent, symbol) order, which is lexicographic."""
        q = _quaternions(units)
        keep = _least_witnesses(q, self._seen)
        self.levels.append((units[keep], words[keep]))
        q = q[keep]
        q[q[:, 0] < 0] *= -1.0
        order = np.argsort(q[:, 0], kind="stable")
        q = q[order]
        self._views.append((q, q[:, 0].copy(), order))

    def join(self, i: int, j: int, target: np.ndarray, radius: float):
        """Every pair P.S (P in level i, S in level j) within radius of the
        target, as (prefix ranks, suffix ranks) in rank order, once each."""
        keys, key0, order = self._views[i]
        prefix = self.levels[i][0]
        suffix = self.levels[j][0]
        n = len(suffix)
        # tr(target^dag U_S U_P) = tr(V_S^dag U_P) with V_S = U_S^dag target
        v = suffix.conj().transpose(0, 2, 1) @ target
        q = _quaternions(v)
        # a pair can pass only if q_P lies near +q_S or near -q_S
        signed = np.concatenate([q, -q])
        by_key = np.argsort(signed[:, 0], kind="stable")
        signed, s_rank = signed[by_key], by_key % n
        flat, v_conj = prefix.reshape(-1, 4), v.conj().reshape(-1, 4)
        cut = 1.0 - radius**2 - _SLACK
        half = math.sqrt(2.0 * (1.0 - cut + _SLACK))
        found, start = [np.empty(0, dtype=int)], 0
        while start < 2 * n:
            block = signed[start : start + _BLOCK]
            lo, hi = key0.searchsorted((block[0, 0] - half, block[-1, 0] + half))
            ranks, window = order[lo:hi], keys[lo:hi]
            block = block[: max(1, _CELLS // max(1, len(ranks)))]
            block_ranks = s_rank[start : start + len(block)]
            start += len(block)
            dots = block @ window.T
            if not dots.size or dots.max() < cut:
                continue
            b, w = np.nonzero(dots >= cut)
            p, s = ranks[w], block_ranks[b]
            found.append((p * n + s)[_distance(_overlap(flat[p], v_conj[s])) <= radius])
        # sorted and deduplicated here: numpy's unique imports numpy.ma (1.5 MB)
        cells = np.sort(np.concatenate(found))
        return np.divmod(cells[np.diff(cells, prepend=-1) > 0], n)

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


def _quaternions(u: np.ndarray) -> np.ndarray:
    """Rows (Re a, Im a, Re b, Im b) of u / sqrt(det u) = [[a, -b*], [b, a*]]
    in SU(2), one of its two signs. For unitaries u and v,
    |tr(v^dag u)| / 2 = |q_u . q_v|."""
    root = np.sqrt(u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0])
    a, b = u[:, 0, 0] / root, u[:, 1, 0] / root
    return np.column_stack([a.real, a.imag, b.real, b.imag])


def _rotation_keys(q: np.ndarray) -> np.ndarray:
    """Quaternion rows on a 1e-7 integer grid, negated where needed so that
    the first nonzero coordinate is positive: equal keys mean equal
    unitaries up to global phase. Rounding is symmetric, so the keys of q
    and -q agree exactly."""
    keys = np.round(q * 1e7).astype(np.int64)
    first = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    keys[first < 0] *= -1
    return keys


def _least_witnesses(q: np.ndarray, seen: set) -> np.ndarray:
    """Mask of the rows, taken in order, whose rotation key is not in seen
    yet; their keys join seen. Rows in lexicographic word order keep the
    least witness of each new rotation."""
    keep = np.zeros(len(q), dtype=bool)
    for i, key in enumerate(_rotation_keys(q)):
        kb = key.tobytes()
        if kb not in seen:
            seen.add(kb)
            keep[i] = True
    return keep


def _overlap(u: np.ndarray, v_conj: np.ndarray) -> np.ndarray:
    """|tr(v^dag u)| of row pairs of flattened 2x2 matrices, v conjugated.
    Summed term by term, so a pair rounds alike in every batch; a matrix
    product's rounding can depend on the shape of the product."""
    return np.abs(u[:, 0] * v_conj[:, 0] + u[:, 1] * v_conj[:, 1]
                  + u[:, 2] * v_conj[:, 2] + u[:, 3] * v_conj[:, 3])


def _distance(abs_trace: np.ndarray) -> np.ndarray:
    """sqrt(1 - |tr(target^dag u)| / 2) from |tr(target^dag u)|."""
    return np.sqrt(np.maximum(0.0, 1.0 - abs_trace / 2.0))


def _step(u: np.ndarray) -> np.ndarray:
    """Every one-symbol extension of each unitary, indexed [n, symbol]."""
    return np.einsum("kab,nbc->nkac", _MATS, u)


_TABLE = _SearchTable()

# Rounding slack of the join's prefilter. A pair passes the hit test when
# sqrt(1 - |tr|/2) <= epsilon in floats, so |tr|/2 >= 1 - epsilon^2 (1 +
# 2^-52). |q_P.q_S| and |tr|/2 agree exactly only for exact unitaries; the
# table's are products of at most 17 gates, a few ulp off unitary each. On
# sampled pairs of levels 0-17 the two were at most 2.0e-15 apart and |q|^2
# within 1.1e-15 of 1; the 4-term dot adds a few ulp. 1e-12 covers all of it
# 500 times over. The window: with |q|^2 <= 1 + slack, q_P.q_S >= cut gives
# |q_P - q_S|^2 <= 2 (1 - cut + slack), which bounds each coordinate's gap.
_SLACK = 1e-12
# sorted suffix keys scored per block, and at most this many pairs a block
_BLOCK = 128
_CELLS = 1 << 15


def approximate_rz(
    theta: float, epsilon: float, max_length: int = RunConfig.max_length
) -> ApproxReport:
    """Shortest normal-form Clifford+T approximation of Rz(theta).

    Searches lengths 0, 1, ... max_length and stops at the first length
    holding a sequence within epsilon. If none qualifies, the best
    sequence seen anywhere is returned with converged=False.
    """
    theta = as_real(theta, "theta")
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    check_budget(epsilon, max_length)
    # no distance exceeds 1, so a larger epsilon accepts what 1 accepts;
    # the cap also keeps the join's epsilon**2 from overflowing past 1.3e154
    epsilon = min(epsilon, 1.0)

    target = rz_matrix(theta % (2 * np.pi))
    target_dag = target.conj().T
    splits = [((n + 1) // 2, n - (n + 1) // 2) for n in range(max_length + 1)]
    for length, (i, j) in enumerate(splits):
        # grow the shared table one level at a time so early hits stay cheap
        _TABLE.ensure_length(i)
        p, s = _TABLE.join(i, j, target, epsilon)
        if p.size:
            _, d = _TABLE.words(i, p[:1], j, s[:1], target_dag)
            seq = _TABLE.sequence(i, int(p[0]), j, int(s[0]))
            return ApproxReport(seq, theta, float(d[0]), length, True)
    best = (2.0, "")
    for i, j in splits:
        # only a pair within the best distance so far can replace it
        p, s = _TABLE.join(i, j, target, best[0])
        if not p.size:
            continue
        u, d = _TABLE.words(i, p, j, s, target_dag)
        # score each rotation by its least witness, as the table stores it
        first = np.flatnonzero(_least_witnesses(_quaternions(u), set()))
        k = int(first[np.argmin(d[first])])
        if d[k] < best[0] - 1e-12:
            best = (float(d[k]), _TABLE.sequence(i, int(p[k]), j, int(s[k])))
    return ApproxReport(best[1], theta, best[0], len(best[1]), False)


def compile_circuit(
    circuit: Circuit, epsilon: float, max_length: int = RunConfig.max_length
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
