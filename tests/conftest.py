import itertools
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vdqec
from vdqec.circuits import Circuit, GateOp
from vdqec.errors import AssignmentError, CampaignError, ValidationError
from vdqec.profiles import FaultSite
from vdqec.qecc import DEFAULT_PARAMS, logical_error_rate
from vdqec.sim import gate_matrix, output_distribution, pst, simulate


def embed_gate(num_qubits, qubits, mat):
    """Full 2^n x 2^n matrix of a 1- or 2-qubit gate, built by explicit
    basis-index bookkeeping (independent of the simulator's tensor path).

    qubits[0] is the most significant bit of the local gate index, and
    qubit 0 is the least significant bit of the global index.
    """
    n = num_qubits
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        local_in = 0
        for i, q in enumerate(qubits):
            local_in |= ((col >> q) & 1) << (k - 1 - i)
        for local_out in range(2**k):
            amp = mat[local_out, local_in]
            if amp == 0:
                continue
            row = col
            for i, q in enumerate(qubits):
                bit = (local_out >> (k - 1 - i)) & 1
                row = (row & ~(1 << q)) | (bit << q)
            full[row, col] += amp
    return full


def dense_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Oracle: multiply out every gate as a dense 2^n x 2^n matrix."""
    u = np.eye(2**circuit.num_qubits, dtype=complex)
    for op in circuit.ops:
        u = embed_gate(circuit.num_qubits, op.qubits, gate_matrix(op.kind, op.params)) @ u
    return u


def with_faultable(circuit: Circuit, faultable: bool) -> Circuit:
    """Copy of the circuit with every op's faultable flag overridden."""
    return replace(
        circuit, ops=tuple(replace(op, faultable=faultable) for op in circuit.ops)
    )


def inject(circuit: Circuit, site: FaultSite) -> Circuit:
    """Copy of the circuit with the site's Pauli gates inserted after the
    faulted gate, at the same timestep."""
    if not (0 <= site.gate_index < len(circuit.ops)):
        raise ValidationError(f"gate_index {site.gate_index} out of range")
    op = circuit.ops[site.gate_index]
    if len(site.paulis) != len(op.qubits):
        raise ValidationError(
            f"site has {len(site.paulis)} Paulis for a {len(op.qubits)}-qubit gate"
        )
    extra = tuple(
        GateOp(p, (q,), (), op.timestep, faultable=False)
        for p, q in zip(site.paulis, op.qubits)
        if p != "I"
    )
    ops = (
        circuit.ops[: site.gate_index + 1]
        + extra
        + circuit.ops[site.gate_index + 1 :]
    )
    return Circuit(circuit.num_qubits, ops, circuit.measured_qubits)


def relative_pst_of_injection(
    circuit: Circuit, site: FaultSite, correct_bitstring: str
) -> float:
    """Reference path through inject() + simulate(); the campaign's cached
    computation must agree with this."""
    ideal = pst(
        output_distribution(simulate(circuit), circuit.measured_qubits),
        correct_bitstring,
    )
    noisy_circ = inject(circuit, site)
    noisy = pst(
        output_distribution(simulate(noisy_circ), noisy_circ.measured_qubits),
        correct_bitstring,
    )
    if ideal <= 0.0:
        raise CampaignError("noiseless PST is zero")
    return noisy / ideal


def oracle_gate_error(op, assignment, p, params):
    """q_g of a gate, from the model itself, not from vdqec.qecc:
    1 - prod over the gate's patches of (1 - min(1, A * (p / p_th)^((d+1)/2)))
    with d each patch's distance at the gate's timestep."""
    ok = 1.0
    for q in op.qubits:
        d = [dist for start, dist in assignment.schedules[q]
             if start <= op.timestep][-1]
        rate = params.prefactor * (p / params.threshold) ** ((d + 1) / 2)
        ok *= 1.0 - min(1.0, rate)
    return 1.0 - ok


def correct_rows(circuit, correct):
    """Mask of the basis states whose measured bits (first bit = first
    measured qubit) read the correct outcome."""
    index = np.arange(2**circuit.num_qubits)
    rows = np.ones(len(index), dtype=bool)
    for bit, q in zip(correct, circuit.measured_qubits):
        rows &= ((index >> q) & 1) == int(bit)
    return rows


def exact_success_and_multi_mass(circuit, correct, assignment, p, params):
    """Oracle for the PST lower bound: walk EVERY error pattern (each
    faultable gate independently suffers no error, or one of the mirrored
    Pauli types with probability q_g/3 each), simulating each branch
    exactly. Returns (exact success probability, total probability mass
    of patterns with two or more errors), with q_g from oracle_gate_error.

    The walk is breadth-first: a (B, 2^n) block holds one state per error
    pattern of the gates so far, with its weight and its error count, and
    a faultable gate stacks the no-error block on its X, Y and Z blocks."""
    n = circuit.num_qubits
    states = np.zeros((1, 2**n), dtype=complex)
    states[0, 0] = 1.0
    weights, errors = np.ones(1), np.zeros(1, dtype=int)
    for op in circuit.ops:
        states = states @ embed_gate(n, op.qubits, gate_matrix(op.kind, op.params)).T
        if not op.faultable:
            continue
        q_g = oracle_gate_error(op, assignment, p, params)
        blocks = [states]
        for pauli in "XYZ":
            corrupted = states
            for q in op.qubits:
                corrupted = corrupted @ embed_gate(n, (q,), gate_matrix(pauli)).T
            blocks.append(corrupted)
        states = np.concatenate(blocks)
        weights = np.concatenate([weights * (1.0 - q_g)] + [weights * q_g / 3.0] * 3)
        errors = np.concatenate([errors] + [errors + 1] * 3)
    success = np.sum(np.abs(states[:, correct_rows(circuit, correct)]) ** 2, axis=1)
    return float(weights @ success), float(weights[errors >= 2].sum())


def mode_paulis(mode, width):
    """The Pauli products a fault site of a width-qubit gate applies, one
    letter per qubit of the gate: the same Pauli on each qubit when
    mirrored, every non-identity product under full depolarizing."""
    if mode == "mirrored":
        return [c * width for c in "XYZ"]
    return ["".join(f) for f in itertools.product("IXYZ", repeat=width)][1:]


def conjugate_local(rho, qubits, mat):
    """mat rho mat^dag for each matrix of a stack held as a tensor
    (K, row bits, column bits), most significant bit first: mat (qubits[0]
    the most significant bit of its index) contracts the row axes of the
    gate's qubits, and conj(mat) their column axes."""
    n, k = (rho.ndim - 1) // 2, len(qubits)
    gate = mat.reshape((2,) * 2 * k)
    for axes, m in (([n - q for q in qubits], gate), ([2 * n - q for q in qubits], gate.conj())):
        rho = np.tensordot(m, rho, axes=(list(range(k, 2 * k)), axes))
        rho = np.moveaxis(rho, list(range(k)), axes)
    return rho


def conjugate_pauli(rho, qubits, paulis):
    """P rho P for a Pauli product (one letter of I, X, Y, Z per qubit) on
    the tensor of conjugate_local: X flips the qubit's row and column bits,
    Z negates the entries whose two bits differ, and Y = iXZ does both."""
    n = (rho.ndim - 1) // 2
    for q, c in zip(qubits, paulis):
        if c in "YZ":
            shape = [1] * rho.ndim
            shape[n - q] = shape[2 * n - q] = 2
            rho = rho * np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(shape)
        if c in "XY":
            rho = np.flip(rho, (n - q, 2 * n - q))
    return rho


def density_matrix_pst(circuit, correct, mode, assignments, grid, params):
    """Exact PST of the circuit under the bound's own fault model, for each
    assignment (rows) and p (columns): one density matrix per pair, evolved
    gate by gate, and after each faultable gate the channel
    rho -> (1 - q_g) rho + q_g mean_P P rho P over the mode's Paulis, with
    q_g from oracle_gate_error. Pairs with the same q_g at every gate share
    one matrix. Returns (exact PST, closed-form probability mass of two or
    more faults), each of shape (assignments, points). Shares no code with
    vdqec.qecc or vdqec.inject."""
    n = circuit.num_qubits
    faultable = [op for op in circuit.ops if op.faultable]
    q_all = np.array([[oracle_gate_error(op, a, p, params) for a in assignments for p in grid]
                      for op in faultable]).reshape(len(faultable), -1)
    q_unique, pair_of = np.unique(q_all, axis=1, return_inverse=True)
    rho = np.zeros((q_unique.shape[1], 2**n, 2**n), dtype=complex)
    rho[:, 0, 0] = 1.0
    rho = rho.reshape((len(rho),) + (2,) * 2 * n)
    q_rows = iter(q_unique)
    for op in circuit.ops:
        rho = conjugate_local(rho, op.qubits, gate_matrix(op.kind, op.params))
        if op.faultable:
            q = next(q_rows).reshape((-1,) + (1,) * 2 * n)
            paulis = mode_paulis(mode, len(op.qubits))
            noisy = sum(conjugate_pauli(rho, op.qubits, f) for f in paulis) / len(paulis)
            rho = (1.0 - q) * rho + q * noisy
    rows = correct_rows(circuit, correct)
    diagonal = np.einsum("kii->ki", rho.reshape(len(rho), 2**n, 2**n))
    exact = diagonal[:, rows].real.sum(axis=1)[pair_of]
    none = np.prod(1.0 - q_all, axis=0)
    one = none * np.sum(q_all / (1.0 - q_all), axis=0)
    shape = (len(assignments), len(grid))
    return exact.reshape(shape), (1.0 - none - one).reshape(shape)


def site_error_prob(qubits, timestep, assignment, p, params=DEFAULT_PARAMS):
    """Probability that at least one patch touched by a gate faults."""
    ok = 1.0
    for q in qubits:
        d = assignment.distance_at(q, timestep)
        ok *= 1.0 - logical_error_rate(p, d, params)
    return 1.0 - ok


def scalar_pst_bound(profile, assignment, p, params=DEFAULT_PARAMS):
    """Oracle for the block PST sweep: the bound at one p, one gate at a
    time with scalar rates, then 1-D cumprods and one np.sum. Every bound
    sweep_tts and pst_bound return must equal this one with ==."""
    if assignment.num_qubits != profile.num_qubits:
        raise AssignmentError("assignment does not match the profile's register")
    faultable = [g for g in profile.gates if g.faultable]
    if not faultable:
        return profile.pst_ideal
    q_g = np.array(
        [
            site_error_prob(g.qubits, g.timestep, assignment, p, params)
            for g in faultable
        ]
    )
    mean_noisy = np.array(
        [g.mean_relative_pst * profile.pst_ideal for g in faultable]
    )
    ok = 1.0 - q_g
    # prod over gates != i, robust to q_g == 1
    prefix = np.concatenate([[1.0], np.cumprod(ok)])
    suffix = np.concatenate([np.cumprod(ok[::-1])[::-1], [1.0]])
    excl = prefix[:-1] * suffix[1:]
    total = profile.pst_ideal * prefix[-1] + float(np.sum(q_g * excl * mean_noisy))
    return float(total)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_scan_rz(theta, epsilon, max_length):
    """Oracle for approximate_rz: scan each level of the shared search
    table in full, growing it to max_length, and stop at the first level
    holding an entry within epsilon."""
    from vdqec import synth
    from vdqec.sim import rz_matrix

    table = synth._TABLE

    def sequence_at(level, index):
        return "".join(synth.SYMBOLS[k]
                       for k in table.levels[level][1][index])

    theta = float(theta)
    synth.check_budget(epsilon, max_length)
    target = rz_matrix(theta % (2 * np.pi))
    target_dag = target.conj().T
    best = (2.0, 0, 0)
    for level in range(max_length + 1):
        table.ensure_length(level)
        states = table.levels[level][0]
        overlap = np.abs(np.einsum("ab,nba->n", target_dag, states)) / 2.0
        d = np.sqrt(np.maximum(0.0, 1.0 - overlap))
        hits = np.nonzero(d <= epsilon)[0]
        if hits.size:
            i = int(hits[0])
            seq = sequence_at(level, i)
            return synth.ApproxReport(seq, theta, float(d[i]), level, True)
        i = int(np.argmin(d))
        if d[i] < best[0] - 1e-12:
            best = (float(d[i]), level, i)
    seq = sequence_at(best[1], best[2])
    return synth.ApproxReport(seq, theta, best[0], best[1], False)


def _dense_join_distances(i, j, target):
    """Distances of every pair P.S of table levels i and j, as (first
    prefix rank, block of prefix rows x suffix ranks) chunks, with the
    complex overlap |tr(V_S^dag U_P)|, V_S = U_S^dag target. The overlap
    is summed term by term in the order of the join's exact test, so that
    the two round alike."""
    from vdqec import synth

    prefix = synth._TABLE.levels[i][0]
    suffix = synth._TABLE.levels[j][0]
    v = (suffix.conj().transpose(0, 2, 1) @ target).conj().reshape(-1, 4)
    u = prefix.reshape(-1, 4)
    rows = max(1, 2**16 // len(v))
    for r0 in range(0, len(u), rows):
        a = u[r0 : r0 + rows, None, :]
        tr = np.abs(a[..., 0] * v[:, 0] + a[..., 1] * v[:, 1]
                    + a[..., 2] * v[:, 2] + a[..., 3] * v[:, 3])
        yield r0, np.sqrt(np.maximum(0.0, 1.0 - tr / 2.0))


def dense_join_every(i, j, target, radii):
    """Oracle for _SearchTable.join: per radius, every (prefix rank, suffix
    rank) pair of table levels i and j within that radius, in rank order,
    as an (m, 2) array."""
    found = {r: [np.empty((0, 2), dtype=int)] for r in radii}
    for r0, d in _dense_join_distances(i, j, target):
        for r in radii:
            found[r].append(np.argwhere(d <= r) + (r0, 0))
    return [np.concatenate(found[r]) for r in radii]


@pytest.fixture(autouse=True)
def children_import_the_tested_package(monkeypatch):
    """Child processes (`python -m vdqec.cli`) import vdqec from where the
    tests do, also from a checkout without an install or PYTHONPATH."""
    paths = [str(Path(vdqec.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
