import functools
import sys

import numpy as np
import pytest

from conftest import (
    dense_circuit_unitary,
    dense_join_every,
    table_scan_rz,
    traced_peak,
)
from vdqec.circuits import Circuit, GateOp
from vdqec.config import RunConfig
from vdqec.errors import CompileError, ValidationError
from vdqec.qpe import QpeSpec, build_qpe
from vdqec.sim import rz_matrix
from vdqec import synth
from vdqec.synth import (
    approximate_rz,
    compile_circuit,
    sequence_unitary,
)

# oracle-side copy of the gate set and normal-form rules, kept independent
# of the implementation on purpose
ORACLE_MATS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "s": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "t": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
}
ORACLE_ORDER = "XHSsTt"
ORACLE_FORBIDDEN = {
    ("H", "H"), ("X", "X"), ("S", "s"), ("s", "S"), ("s", "s"),
    ("T", "t"), ("t", "T"), ("T", "T"), ("t", "t"),
}


def oracle_normal_form(word):
    """No adjacent pair of word is in ORACLE_FORBIDDEN."""
    return all((a, b) not in ORACLE_FORBIDDEN for a, b in zip(word, word[1:]))


def oracle_dist(u, theta):
    """Distance of one unitary (2, 2), or of each of a stack (N, 2, 2)."""
    r = np.diag([1, np.exp(1j * theta)])
    tr = np.trace(u.conj().swapaxes(-1, -2) @ r, axis1=-2, axis2=-1)
    return np.sqrt(np.maximum(0.0, 1 - abs(tr) / 2))


@functools.cache
def oracle_words(max_length):
    """Every normal-form word of each length up to max_length, in
    lexicographic order of ORACLE_ORDER: per length, the words and their
    unitaries stacked as (N, 2, 2). A word of length L + 1 is a word of
    length L followed by a letter its last letter allows, so listing the
    (word, letter) pairs word-major keeps lexicographic order."""
    mats = np.array([ORACLE_MATS[c] for c in ORACLE_ORDER])
    # follows[a, c]: letter c may follow letter a; row -1 is the empty word
    follows = np.array([[(a, c) not in ORACLE_FORBIDDEN for c in ORACLE_ORDER]
                        for a in ORACLE_ORDER + " "])
    words, units, last = [""], np.eye(2, dtype=complex)[None], np.array([-1])
    levels = [(words, units)]
    for _ in range(max_length):
        parent, letter = np.nonzero(follows[last])
        words = [words[p] + ORACLE_ORDER[c] for p, c in zip(parent, letter)]
        units, last = mats[letter] @ units[parent], letter
        levels.append((words, units))
    return levels


def oracle_search(theta, epsilon, max_length):
    """Plain enumeration of every normal-form word, no pruning, in
    length-then-lex order: the first word within epsilon, else the best
    word, where a word replaces the best so far only when it is closer by
    more than 1e-12. Returns (sequence, distance, converged)."""
    theta = theta % (2 * np.pi)
    best = (2.0, "")
    for words, units in oracle_words(max_length):
        d = oracle_dist(units, theta)
        hit = np.flatnonzero(d <= epsilon)
        if hit.size:
            return words[hit[0]], d[hit[0]], True
        i = 0
        while (below := np.flatnonzero(d[i:] < best[0] - 1e-12)).size:
            i += below[0]
            best = (d[i], words[i])
            i += 1
    return best[1], best[0], False


def oracle_rotation_key(u):
    """u up to global phase: scaled so its first nonzero entry is real and
    positive, then rounded."""
    flat = u.ravel()
    first = flat[np.argmax(np.abs(flat) > 1e-9)]
    v = flat * abs(first) / first
    return tuple(np.round(np.concatenate([v.real, v.imag]) * 1e6).astype(int))


# sizes of search-table levels 0-22, pinned so that a change to the table's
# dedup cannot move them silently
TABLE_LEVEL_SIZES = [
    1, 6, 17, 34, 40, 62, 84, 132, 160, 248, 336,
    528, 640, 992, 1344, 2112, 2560, 3968, 5376, 8448, 10240, 15872, 21504,
]


def test_table_level_sizes_are_locked():
    synth._TABLE.ensure_length(22)
    sizes = [len(level[0]) for level in synth._TABLE.levels[:23]]
    assert sizes == TABLE_LEVEL_SIZES


def test_rotation_keys_ignore_global_phase(rng):
    """The dedup key of c u is the key of u, for the phases -1, i, omega
    and omega^-3 of the gate set and for random phases, on every entry of
    levels 0-17; and no two entries share a key."""
    synth._TABLE.ensure_length(17)
    units = np.concatenate([level[0] for level in synth._TABLE.levels[:18]])
    assert len(units) == sum(TABLE_LEVEL_SIZES[:18]) == 13_264
    keys = synth._rotation_keys(synth._quaternions(units))
    assert len(np.unique(keys, axis=0)) == len(units)
    omega = np.exp(1j * np.pi / 4)
    phases = [-1.0, 1j, omega, omega**-3, *np.exp(2j * np.pi * rng.uniform(size=5))]
    for c in phases:
        moved = synth._rotation_keys(synth._quaternions(c * units))
        assert np.array_equal(moved, keys), c


def test_table_words_spell_their_unitaries():
    """Every stored word of levels 0-17 is in normal form and, multiplied
    out with the oracle's matrices, gives its stored unitary."""
    synth._TABLE.ensure_length(17)
    for level, (units, words) in enumerate(synth._TABLE.levels[:18]):
        assert words.shape == (len(units), level)
        for u, row in zip(units, words):
            word = "".join(synth.SYMBOLS[k] for k in row)
            assert oracle_normal_form(word), word
            want = np.eye(2, dtype=complex)
            for c in word:
                want = ORACLE_MATS[c] @ want
            assert np.abs(want - u).max() <= 1e-12, word


def test_table_levels_match_plain_enumeration():
    """Level L holds one entry per rotation that a normal-form word of
    length L reaches and no shorter word does."""
    seen = set()
    words = [("", np.eye(2, dtype=complex))]
    for length in range(7):
        new = {oracle_rotation_key(u) for _, u in words} - seen
        seen |= new
        assert len(new) == TABLE_LEVEL_SIZES[length], length
        words = [
            (w + c, ORACLE_MATS[c] @ u)
            for w, u in words
            for c in ORACLE_ORDER
            if not w or (w[-1], c) not in ORACLE_FORBIDDEN
        ]


@pytest.mark.parametrize("pair", [a + b for a in ORACLE_ORDER for b in ORACLE_ORDER])
def test_is_normal_form_applies_every_pair_rule(pair):
    """The table keeps no list of forbidden pairs; its least-witness dedup
    applies them. The table's witness of the rotation a two-letter word
    spells is the least word of that rotation, by length and then in
    symbol order, and is in normal form under the oracle's pair rules. A
    forbidden pair is never its own witness: a shorter or a smaller word
    spells its rotation too."""
    def order(word):
        return len(word), [ORACLE_ORDER.index(c) for c in word]

    synth._TABLE.ensure_length(2)
    key = oracle_rotation_key(ORACLE_MATS[pair[1]] @ ORACLE_MATS[pair[0]])
    (witness,) = ["".join(synth.SYMBOLS[k] for k in row)
                  for units, words in synth._TABLE.levels[:3]
                  for u, row in zip(units, words) if oracle_rotation_key(u) == key]
    assert oracle_normal_form(witness) and order(witness) <= order(pair)
    if tuple(pair) in ORACLE_FORBIDDEN:
        assert witness != pair


def test_s_is_quarter_rotation():
    r = approximate_rz(np.pi / 2, 1e-12, 8)
    assert r.sequence == "S" and r.converged
    assert r.achieved_distance <= 1e-12


def test_t_is_eighth_rotation():
    r = approximate_rz(np.pi / 4, 1e-12, 8)
    assert r.sequence == "T" and r.converged
    assert r.achieved_distance <= 1e-12


def test_zero_angle_needs_no_gates():
    r = approximate_rz(0.0, 1e-12, 8)
    assert r.sequence == "" and r.length == 0


def test_adjoints_have_lowercase_notation():
    r = approximate_rz(-np.pi / 4, 1e-12, 8)
    assert r.sequence == "t"


def test_report_length_matches_sequence():
    r = approximate_rz(0.9, 0.05, 12)
    assert r.length == len(r.sequence)
    assert oracle_normal_form(r.sequence)


def test_soundness_recomputed_independently(rng):
    for theta in rng.uniform(0, 2 * np.pi, size=8):
        r = approximate_rz(theta, 0.08, 16)
        assert oracle_normal_form(r.sequence)
        u = sequence_unitary(r.sequence)
        assert oracle_dist(u, theta % (2 * np.pi)) == pytest.approx(
            r.achieved_distance, abs=1e-12
        )


def test_matches_plain_enumeration_oracle(rng):
    cases = [(float(t), float(e)) for t in rng.uniform(0, 2 * np.pi, size=12)
             for e in (0.08, 0.35)]
    cases += [(np.pi / 2, 1e-9), (np.pi, 1e-9), (-np.pi / 2, 1e-9), (3 * np.pi / 4, 1e-9)]
    for theta, eps in cases:
        got = approximate_rz(theta, eps, 8)
        seq, d, conv = oracle_search(theta, eps, 8)
        assert got.sequence == seq, (theta, eps)
        assert got.converged == conv
        assert got.achieved_distance == pytest.approx(d, abs=1e-9)


def rotation_angles(circuit):
    """The Rz angles compile_circuit asks approximate_rz for."""
    angles = set()
    for op in circuit.ops:
        if op.kind == "Rz":
            angles.add(op.params[0])
        elif op.kind == "ControlledPhase":
            angles |= {op.params[0] / 2.0, -op.params[0] / 2.0}
    return sorted(angles)


def test_join_matches_table_scan(rng):
    """The join returns what a full scan of table level L returns, on the
    converged and the non-converged path, for odd and even lengths."""
    qpe5_mirrored, _ = build_qpe(QpeSpec(5, 9, 32))
    thetas = [float(t) for t in rng.uniform(-2 * np.pi, 2 * np.pi, size=20)]
    thetas += rotation_angles(qpe5_mirrored)
    assert len(thetas) == 38
    for theta in thetas:
        for eps in (0.05, 0.1, 0.2, 1e-6):
            for max_length in (7, 8, 15, 16, 21, 22):
                got = approximate_rz(theta, eps, max_length)
                want = table_scan_rz(theta, eps, max_length)
                assert got == want, (theta, eps, max_length)


JOIN_RADII = (2.0, 1.0, 0.1, 0.03, 0.015, 1e-9)


def su2_quaternion(u):
    """(Re a, Im a, Re b, Im b) of u / sqrt(det u) = [[a, -b*], [b, a*]]."""
    w = u / np.sqrt(np.linalg.det(u))
    return np.array([w[0, 0].real, w[0, 0].imag, w[1, 0].real, w[1, 0].imag])


def su2_matrix(q):
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def edge_target(u_prefix, u_suffix, eps):
    """A target at distance exactly eps from the word U_suffix U_prefix,
    offset from the prefix's quaternion as far along the first coordinate
    (the join's sort key) as the unit sphere allows."""
    q = su2_quaternion(u_prefix)
    axis = np.eye(4)[0] - q[0] * q
    if np.linalg.norm(axis) < 1e-6:
        axis = np.eye(4)[1] - q[1] * q
    axis /= np.linalg.norm(axis)
    angle = np.arccos(1.0 - eps**2)
    return u_suffix @ su2_matrix(np.cos(angle) * q + np.sin(angle) * axis)


def join_splits():
    """Every split (i, j) of a length up to 34 into table levels, with the
    radii to test on it: radii 2 and 1 pass nearly every pair, so they run
    only on splits of at most 2^18 pairs; approximate_rz never joins at a
    radius of 1 or more past length 0."""
    table = synth._TABLE
    table.ensure_length(17)
    for length in range(35):
        i = (length + 1) // 2
        j = length - i
        prefix, suffix = table.levels[i][0], table.levels[j][0]
        radii = [r for r in JOIN_RADII if r < 1 or len(prefix) * len(suffix) <= 1 << 18]
        yield i, j, prefix, suffix, radii


def assert_join_matches_dense_scan(i, j, targets, radii):
    """The join of levels i and j returns, for each target and radius, the
    full (prefix rank, suffix rank) list of the dense scan."""
    # the dense scan's |tr| is bitwise the same for either sign
    wants = dense_join_every(i, j, targets[0], radii)
    for target in targets:
        for radius, want in zip(radii, wants):
            p, s = synth._TABLE.join(i, j, target, radius)
            assert np.array_equal(np.column_stack([p, s]), want), (i, j, radius)


def test_join_matches_dense_scan_at_window_edges(rng):
    """The join returns every pair within the radius as a dense scan finds
    them, on every split (i, j) up to (17, 17), for the word of a table
    pair as target (its hit sits within rounding of distance 0, where the
    float test decides) and for targets at distance exactly the radius from
    a pair. Each target comes with both signs, so that q_P.q_S < 0 for one
    of them and only the -q_S window finds it."""
    for i, j, prefix, suffix, radii in join_splits():
        a, b = int(rng.integers(len(prefix))), int(rng.integers(len(suffix)))
        word = suffix[b] @ prefix[a]
        assert_join_matches_dense_scan(i, j, (word, -word), radii)
        for radius in (0.1, 0.03, 0.015):
            edge = edge_target(prefix[a], suffix[b], radius)
            assert_join_matches_dense_scan(i, j, (edge, -edge), (radius,))


def test_join_every_matches_dense_scan(rng):
    """The join returns every pair within the radius, in (prefix rank,
    suffix rank) order, once each, as a dense scan finds them, on every
    split (i, j) up to (17, 17), for an Rz target at every radius."""
    for i, j, _, _, radii in join_splits():
        target = rz_matrix(rng.uniform(0, 2 * np.pi))
        assert_join_matches_dense_scan(i, j, (target,), radii)


# approximate_rz reports on the non-converged path past the lengths that
# test_join_matches_table_scan reaches, as the dense join found them
NONCONVERGED_REPORTS = {
    (0.1, 23): ("XHtHTHTHtHtHTHTHtHtHTHT", 0.033210100661213694, 23),
    (0.1, 28): ("HtHTHtHtHTHTHtHtHTHTHTHs", 0.022865071525547735, 24),
    (0.1, 34): ("HTHtHTHTHTHtHtHTHTHTHtHtHtHTHTHTHS", 0.00840911180856467, 34),
    (1.0, 23): ("HtHtHTHtHTHTHtHTHtHtHt", 0.015292889557925436, 22),
    (1.0, 28): ("HtHtHTHtHTHTHtHTHtHtHt", 0.015292889557925436, 22),
    (1.0, 34): ("HXTHtHtHtHTHTHtHTHTHtHtHtHTHt", 0.006088857575171975, 29),
    (-2.5, 23): ("HTHTHtHTHtHtHTHtHTHTHt", 0.03096114280499976, 22),
    (-2.5, 28): ("HTHTHtHTHtHtHTHtHTHTHt", 0.03096114280499976, 22),
    (-2.5, 34): ("XHXtHtHTHTHTHtHTHTHtHtHTHtHTHTHTHt", 0.019017481940944412, 34),
}


@pytest.mark.parametrize("theta, max_length", list(NONCONVERGED_REPORTS))
def test_nonconverged_reports_are_locked(theta, max_length):
    r = approximate_rz(theta, 1e-9, max_length)
    assert not r.converged
    assert (r.sequence, r.achieved_distance, r.length) == (
        NONCONVERGED_REPORTS[theta, max_length])


def test_join_scratch_memory_is_bounded():
    """The join's scratch memory stays under 4 MiB: the widest hit search,
    (17, 17) at epsilon 0.015, and the reruns of a call that never
    converges at the full budget, each within the best distance so far.
    Measured 1.5 and 1.5 MiB; each level's sorted quaternions are built
    as the table grows, not inside the join. The dense join of 2^18 pair
    cells a chunk peaked at 8.3 MiB on both."""
    synth._TABLE.ensure_length(17)
    assert traced_peak(synth._TABLE.join, 17, 17, rz_matrix(0.3), 0.015) < 4 << 20
    assert traced_peak(approximate_rz, 0.1, 1e-9, RunConfig.max_length) < 4 << 20


def test_full_budget_stays_bounded():
    """A non-converging call at the full length budget joins table levels
    up to 17 and never grows the table to level 34."""
    before = len(synth._TABLE.levels) - 1
    r = approximate_rz(0.1, 1e-9, RunConfig.max_length)
    assert not r.converged
    assert len(r.sequence) == r.length <= RunConfig.max_length
    assert oracle_normal_form(r.sequence)
    assert r.achieved_distance == pytest.approx(
        oracle_dist(sequence_unitary(r.sequence), 0.1), abs=1e-12
    )
    assert r.achieved_distance <= approximate_rz(0.1, 1e-9, 22).achieved_distance
    assert len(synth._TABLE.levels) - 1 <= max(before, 17)


def test_monotone_in_max_length(rng):
    for theta in rng.uniform(0, 2 * np.pi, size=5):
        prev = 2.0
        for max_length in (2, 4, 6, 8, 10):
            d = approximate_rz(theta, 1e-12, max_length).achieved_distance
            assert d <= prev + 1e-12
            prev = d


def test_nonconvergence_is_flagged():
    r = approximate_rz(np.pi / 3, 1e-6, 6)
    assert not r.converged
    assert r.achieved_distance > 1e-6
    assert len(r.sequence) <= 6


def test_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        approximate_rz(1.0, 0.0, 8)
    with pytest.raises(ValidationError):
        approximate_rz(1.0, 0.1, 0)
    for theta, epsilon in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf)):
        with pytest.raises(ValidationError):
            approximate_rz(theta, epsilon, 4)
    with pytest.raises(ValidationError):
        sequence_unitary("HQ")


@pytest.mark.parametrize("epsilon, max_length", [
    (0.1, "5"), (0.1, 7.9), (0.1, True), ("0.1", 5), (True, 5),
])
def test_budget_types_are_refused_not_coerced(epsilon, max_length):
    """Synthesis checks its budget as RunConfig checks the fields: a string,
    a bool or a fractional length is refused, by both entry points."""
    with pytest.raises(ValidationError):
        approximate_rz(1.0, epsilon, max_length)
    circuit = Circuit(1, (GateOp("Rz", (0,), (0.3,)),), (0,))
    with pytest.raises(ValidationError):
        compile_circuit(circuit, epsilon, max_length)


@pytest.mark.parametrize("epsilon", [1e155, 1e300, sys.float_info.max])
def test_huge_epsilon_reports_as_epsilon_one(epsilon):
    """No distance exceeds 1, so an epsilon past 1 accepts what 1 accepts;
    squared as a float, such an epsilon overflows."""
    for theta, max_length in ((1.0, 8), (-2.5, 20)):
        assert approximate_rz(theta, epsilon, max_length) == approximate_rz(theta, 1.0, max_length)


def test_compile_passes_clifford_through():
    c = Circuit(
        2,
        (GateOp("H", (0,), timestep=3), GateOp("CNOT", (0, 1), timestep=7)),
        (0, 1),
    )
    out = compile_circuit(c, 0.1)
    assert [op.kind for op in out.ops] == ["H", "CNOT"]
    assert [op.timestep for op in out.ops] == [0, 1]


def test_compile_controlled_phase_pi_is_exact_cz():
    c = Circuit(2, (GateOp("ControlledPhase", (0, 1), (np.pi,)),), (0, 1))
    out = compile_circuit(c, 1e-9)
    assert all(
        op.kind in {"X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg", "CNOT"}
        for op in out.ops
    )
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    got = dense_circuit_unitary(out)
    assert np.sqrt(max(0, 1 - abs(np.trace(cz.conj().T @ got)) / 4)) <= 1e-9


def test_compile_triangle_inequality(rng):
    eps = 0.1
    ops = []
    rotations = 0
    for t in range(6):
        if t % 2 == 0:
            ops.append(GateOp("Rz", (t % 2,), (float(rng.uniform(0, 2 * np.pi)),), t))
            rotations += 1
        else:
            ops.append(GateOp("ControlledPhase", (0, 1), (float(rng.uniform(0, 2)),), t))
            rotations += 3
    c = Circuit(2, tuple(ops), (0, 1))
    out = compile_circuit(c, eps, 20)
    u_orig = dense_circuit_unitary(c)
    u_comp = dense_circuit_unitary(out)
    overlap = abs(np.trace(u_orig.conj().T @ u_comp)) / 4
    assert np.sqrt(max(0.0, 1 - overlap)) <= rotations * eps


def test_compile_preserves_faultable_flags():
    c = Circuit(
        1,
        (GateOp("Rz", (0,), (0.3,), 0, faultable=False), GateOp("Rz", (0,), (0.4,), 1)),
        (0,),
    )
    out = compile_circuit(c, 0.2, 12)
    # gates from the first rotation stay unfaultable, later ones faultable
    boundary = len(approximate_rz(0.3, 0.2, 12).sequence)
    assert all(not op.faultable for op in out.ops[:boundary])
    assert all(op.faultable for op in out.ops[boundary:])


def test_compile_error_names_the_gate():
    c = Circuit(1, (GateOp("H", (0,)), GateOp("Rz", (0,), (np.pi / 3,), 1)), (0,))
    with pytest.raises(CompileError, match="op 1"):
        compile_circuit(c, 1e-9, 6)


def test_default_max_length_is_locked():
    assert RunConfig.max_length == 34


def test_compile_numbers_timesteps_in_order():
    circuit, _ = build_qpe(QpeSpec(2, 1, 4))
    compiled = compile_circuit(circuit, 0.1, 12)
    assert len(compiled.ops) > len(circuit.ops)
    assert [op.timestep for op in compiled.ops] == list(range(len(compiled.ops)))
