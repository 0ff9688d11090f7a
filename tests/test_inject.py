import json
import math

import numpy as np
import pytest

from conftest import inject, relative_pst_of_injection, traced_peak, with_faultable
from vdqec import inject as inject_module
from vdqec.cli import main
from vdqec.circuits import MAX_QUBITS, Circuit, GateOp, circuit_to_json
from vdqec.config import MAX_SEARCH_LENGTH, RunConfig
from vdqec.errors import CampaignError, ValidationError
from vdqec.inject import enumerate_sites, run_campaign
from vdqec.pipeline import benchmark, compile_rotations
from vdqec.profiles import (
    _NO_RECORDS,
    FaultSite,
    _gate_stats,
    _mean,
    _sites,
    profile_from_json,
    profile_to_json,
)
from vdqec.qpe import QpeSpec, build_qpe
from vdqec.sim import (
    _apply_op,
    _outcome_rows,
    output_distribution,
    pst,
    simulate,
    zero_state,
)
from vdqec.synth import compile_circuit


def single_h():
    return Circuit(1, (GateOp("H", (0,)),), (0,))


def single_cnot():
    return Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1), timestep=1)), (0, 1))


def test_single_qubit_gate_has_three_sites():
    sites = enumerate_sites(single_h())
    assert [s.paulis for s in sites] == [("X",), ("Y",), ("Z",)]


def test_two_qubit_site_counts():
    c = Circuit(2, (GateOp("CNOT", (0, 1)),), (0, 1))
    assert len(enumerate_sites(c, "mirrored")) == 3
    assert len(enumerate_sites(c, "full-depolarizing")) == 15


def test_prep_gates_are_excluded():
    circuit, _ = build_qpe()
    sites = enumerate_sites(circuit)
    assert all(circuit.ops[s.gate_index].faultable for s in sites)
    assert min(s.gate_index for s in sites) == 11


def test_sites_are_ordered():
    circuit, _ = build_qpe()
    sites = enumerate_sites(circuit, "full-depolarizing")
    indices = [s.gate_index for s in sites]
    assert indices == sorted(indices)


def test_fault_site_validation():
    with pytest.raises(ValidationError):
        FaultSite(0, ("Q",))
    with pytest.raises(ValidationError):
        FaultSite(0, ("I", "I"))


def test_inject_inserts_after_gate():
    c = single_cnot()
    noisy = inject(c, FaultSite(1, ("X", "Z")))
    assert [op.kind for op in noisy.ops] == ["H", "CNOT", "X", "Z"]
    assert noisy.ops[2].timestep == noisy.ops[1].timestep
    assert not noisy.ops[2].faultable
    # original untouched
    assert len(c.ops) == 2


def test_inject_validates_site():
    c = single_cnot()
    with pytest.raises(ValidationError):
        inject(c, FaultSite(5, ("X", "X")))
    with pytest.raises(ValidationError):
        inject(c, FaultSite(1, ("X",)))


def test_z_before_measurement_is_harmless():
    c = single_cnot()
    base = output_distribution(simulate(c), c.measured_qubits)
    noisy_c = inject(c, FaultSite(1, ("Z", "Z")))
    noisy = output_distribution(simulate(noisy_c), noisy_c.measured_qubits)
    assert noisy == pytest.approx(base, abs=1e-12)


def test_double_x_cancels():
    c = Circuit(1, (GateOp("X", (0,)),), (0,))
    noisy_c = inject(c, FaultSite(0, ("X",)))
    d = output_distribution(simulate(noisy_c), (0,))
    assert d == pytest.approx({"0": 1.0}, abs=1e-12)


def test_y_equals_x_then_z():
    c = single_cnot()
    y = inject(c, FaultSite(1, ("Y", "Y")))
    xz_ops = list(c.ops)
    for q in (0, 1):
        xz_ops.insert(2, GateOp("Z", (q,), (), 1, faultable=False))
        xz_ops.insert(2, GateOp("X", (q,), (), 1, faultable=False))
    xz = Circuit(2, tuple(xz_ops), (0, 1))
    dy = output_distribution(simulate(y), (0, 1))
    dxz = output_distribution(simulate(xz), (0, 1))
    assert dy == pytest.approx(dxz, abs=1e-12)


def test_campaign_matches_reference_path():
    circuit, correct = build_qpe()
    profile = run_campaign(circuit, correct, "mirrored")
    for rec in profile.records[:20]:
        ref = relative_pst_of_injection(circuit, rec.site, correct)
        assert rec.relative_pst == pytest.approx(ref, abs=1e-12)


def random_circuit(n, gates, seed, measured):
    """One random gate per timestep, drawn from CNOT, ControlledPhase, Rz
    and Clifford+T gates, and the likeliest noiseless outcome."""
    rng = np.random.default_rng(seed)
    kinds = ["H", "T", "S", "X", "Rz"] + (["CNOT", "ControlledPhase"] * 2 if n > 1 else [])
    ops = []
    for t in range(gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("CNOT", "ControlledPhase"):
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        else:
            qubits = (int(rng.integers(n)),)
        params = (float(rng.uniform(-np.pi, np.pi)),) if kind in ("Rz", "ControlledPhase") else ()
        ops.append(GateOp(kind, qubits, params, t))
    circuit = Circuit(n, tuple(ops), tuple(range(measured)))
    dist = output_distribution(simulate(circuit), circuit.measured_qubits)
    return circuit, max(dist, key=dist.get)


@pytest.mark.parametrize("n", [*range(1, 8), "qpe"])
def test_pst_ideal_is_bitwise_the_reference_pst(n):
    """The campaign reads pst_ideal with its fault-site readout: it must be
    the PST of the exact output distribution, bit for bit, for every
    outcome with nonzero PST."""
    if n == "qpe":
        circuits = [build_qpe()[0]]
    else:
        circuits = [random_circuit(n, 40, 300 + n, m)[0] for m in sorted({1, n // 2 or 1, n})]
    for circuit in circuits:
        dist = output_distribution(simulate(circuit), circuit.measured_qubits)
        for bits in dist:
            assert run_campaign(circuit, bits).pst_ideal == pst(dist, bits), bits


BLOCK_CASES = [(1, 1), (2, 2), (3, 3), (7, 5), (12, 1)]  # (qubits, measured)


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
@pytest.mark.parametrize("n, measured", BLOCK_CASES, ids=[f"n{n}" for n, _ in BLOCK_CASES])
def test_block_replay_matches_reference_and_ignores_block_size(monkeypatch, n, measured, mode):
    circuit, correct = random_circuit(n, 18, 100 + n, measured)
    profile = run_campaign(circuit, correct, mode)
    assert len(profile.records) == len(enumerate_sites(circuit, mode))
    for rec in profile.records:
        ref = relative_pst_of_injection(circuit, rec.site, correct)
        assert rec.relative_pst == pytest.approx(ref, abs=1e-12)
    # one state per chunk, which splits a two-qubit gate's sites across
    # chunks, and one chunk for every site
    for amps in (1, 2**20):
        monkeypatch.setattr(inject_module, "_BLOCK_AMPS", amps)
        assert run_campaign(circuit, correct, mode) == profile


def sweep_inputs(circuit, correct):
    """The cached state after every gate and the basis states that read
    `correct`, as run_campaign hands them to a sweep."""
    n = circuit.num_qubits
    amps, prefixes = zero_state(n).amplitudes, []
    for op in circuit.ops:
        amps = _apply_op(amps, n, op)
        prefixes.append(amps)
    return prefixes, _outcome_rows(n, circuit.measured_qubits)[int(correct, 2)]


SWEEPS = ["_adjoint_psts", "_replay_psts"]


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
@pytest.mark.parametrize("n, measured", BLOCK_CASES, ids=[f"n{n}" for n, _ in BLOCK_CASES])
def test_each_sweep_matches_reference(monkeypatch, n, measured, mode, sweep):
    # the replay runs in chunks of 64 rows at n = 12, so the 54 or 162
    # sites of the (12, 1) case fill one or three wide chunks rather than
    # 27 or 81 chunks of the default 2 rows; the adjoint sweep walks its
    # 2,048 rows as one block whatever _BLOCK_AMPS is
    monkeypatch.setattr(inject_module, "_BLOCK_AMPS", 2**18)
    circuit, correct = random_circuit(n, 18, 100 + n, measured)
    sites = enumerate_sites(circuit, mode)
    prefixes, rows = sweep_inputs(circuit, correct)
    noisy = getattr(inject_module, sweep)(circuit, prefixes, sites, rows)
    ideal = pst(output_distribution(simulate(circuit), circuit.measured_qubits), correct)
    assert len(noisy) == len(sites)
    for site, p_noisy in zip(sites, noisy):
        ref = relative_pst_of_injection(circuit, site, correct)
        assert p_noisy / ideal == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
def test_adjoint_sweep_walks_all_rows_as_one_block(monkeypatch, mode):
    """128 correct-readout rows, 16 replay rows per chunk at n = 9: the
    adjoint sweep builds no Pauli image (it applies no gate to a single
    state), takes one reduced overlap per gate with sites, and its records
    do not depend on _BLOCK_AMPS."""
    circuit, correct = random_circuit(9, 18, 109, 2)
    sites = enumerate_sites(circuit, mode)
    prefixes, rows = sweep_inputs(circuit, correct)
    assert len(rows) == 128 > inject_module._BLOCK_AMPS >> 9
    images = applied_ops(monkeypatch, "_apply", lambda amps, *_: amps.ndim == 1)
    overlaps = applied_ops(monkeypatch, "_reduced_overlap", lambda *_: True)
    expected = inject_module._adjoint_psts(circuit, prefixes, sites, rows)
    assert images == []
    gates = sorted({site.gate_index for site in sites}, reverse=True)
    assert len(overlaps) == len(gates)
    for (_, psi, qubits), g in zip(overlaps, gates):
        assert psi is prefixes[g] and qubits == circuit.ops[g].qubits
    for amps in (1, 2**20):
        monkeypatch.setattr(inject_module, "_BLOCK_AMPS", amps)
        assert inject_module._adjoint_psts(circuit, prefixes, sites, rows) == expected


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
def test_adjoint_sweep_holds_three_blocks(mode):
    """The adjoint sweep's traced peak stays under 3.5 times its (R, 2^n)
    block: the block, the gate kernel's result and, for a dense gate such
    as H, the half-block product of a row's second term, with no copy of
    the block per gate and no Pauli image. Measured 2.54 blocks at
    n = 10, R = 512 (an 8 MiB block); a kernel that transposed the block
    into a copy made it 3.00, and a conjugated copy per gate 4.00."""
    circuit, correct = random_circuit(10, 18, 110, 1)
    sites = enumerate_sites(circuit, mode)
    prefixes, rows = sweep_inputs(circuit, correct)
    block = len(prefixes[0]) * len(rows) * 16
    assert block == 8 << 20
    peak = traced_peak(inject_module._adjoint_psts, circuit, prefixes, sites, rows)
    assert peak < 3.5 * block, f"peak {peak / block:.2f} blocks"


def applied_ops(monkeypatch, name, keep):
    """The arguments of every call a sweep makes to inject's `name` that
    `keep` accepts, collected as the calls run."""
    fn, calls = getattr(inject_module, name), []

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return fn(*args)

    monkeypatch.setattr(inject_module, name, counted)
    return calls


def compiled_qpe():
    circuit, correct = build_qpe()
    return compile_circuit(circuit, 0.1), correct


GATE_WALK_CASES = {"random": lambda: random_circuit(7, 18, 107, 5), "qpe-compiled": compiled_qpe}


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
@pytest.mark.parametrize("case", list(GATE_WALK_CASES))
def test_each_sweep_applies_each_gate_between_sites_once(monkeypatch, case, mode):
    """The adjoint sweep walks its block back through the G - 1 - f gates
    after the first site's gate f, last gate first, and the replay walks
    each chunk through the G - 1 - f gates after its first site's gate f,
    in circuit order."""
    circuit, correct = GATE_WALK_CASES[case]()
    ops, sites = circuit.ops, enumerate_sites(circuit, mode)
    prefixes, rows = sweep_inputs(circuit, correct)
    # the adjoint's block is 2-D; a 1-D call would be a single state
    walked = applied_ops(monkeypatch, "_apply", lambda amps, *_: amps.ndim == 2)
    inject_module._adjoint_psts(circuit, prefixes, sites, rows)
    first = sites[0].gate_index
    assert len(walked) == len(ops) - 1 - first
    assert [qubits for _, _, qubits, _ in walked] == [op.qubits for op in ops[:first:-1]]

    # chunks of 16 rows, which split a gate's 15 full-depolarizing sites
    monkeypatch.setattr(inject_module, "_BLOCK_AMPS", 16 << circuit.num_qubits)
    starts = [site.gate_index for site in sites[::16]]
    replayed = applied_ops(monkeypatch, "_apply_op", lambda *_: True)
    inject_module._replay_psts(circuit, prefixes, sites, rows)
    assert len(replayed) == sum(len(ops) - 1 - f for f in starts)
    assert [op for _, _, op in replayed] == [op for f in starts for op in ops[f + 1:]]


def refuse(name):
    def sweep(*args):
        raise AssertionError(f"{name} ran")
    return sweep


# row-gate products, mirrored: the adjoint sweep on the default QPE
# circuit walks 2 rows through 26 gates for 45 sites (142) where the
# replay takes 315; on the (12, 1) case of BLOCK_CASES it walks 2,048 rows
# through 18 gates for 54 sites (147,456) where the replay takes 459
CHOICES = {
    "qpe": (build_qpe, "_adjoint_psts"),
    "n12": (lambda: random_circuit(12, 18, 112, 1), "_replay_psts"),
}


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
@pytest.mark.parametrize("case", list(CHOICES))
def test_campaign_takes_the_cheaper_sweep(monkeypatch, case, mode):
    build, taken = CHOICES[case]
    circuit, correct = build()
    expected = run_campaign(circuit, correct, mode)
    (other,) = set(SWEEPS) - {taken}
    monkeypatch.setattr(inject_module, other, refuse(other))
    assert run_campaign(circuit, correct, mode) == expected


def test_block_replay_edge_cases(monkeypatch):
    circuit, correct = random_circuit(7, 18, 107, 5)
    quiet_circuit = with_faultable(circuit, False)
    quiet = run_campaign(quiet_circuit, correct, "full-depolarizing")
    assert quiet.records == ()
    assert all(g.n_records == 0 for g in quiet.gates)
    sites = enumerate_sites(quiet_circuit, "full-depolarizing")
    prefixes, rows = sweep_inputs(quiet_circuit, correct)
    for sweep in SWEEPS:
        assert getattr(inject_module, sweep)(quiet_circuit, prefixes, sites, rows) == []

    for sweep in SWEEPS:
        monkeypatch.setattr(inject_module, sweep, refuse(sweep))
    for bad in (correct + "0", correct[1:], correct[:-1] + "2"):
        with pytest.raises(ValidationError):
            run_campaign(circuit, bad, "full-depolarizing")


def test_campaign_refuses_circuits_past_the_state_cache_limit(monkeypatch, tmp_path):
    """G * 2^n cached amplitudes above MAX_CACHED_AMPS exit 2 before any
    gate is simulated; the largest pipeline circuit stays below it. That
    is QPE on every qubit compiled with each rotation at the length cap:
    a ControlledPhase becomes three rotations and two CNOTs, and the
    other gates, none of them a rotation, pass through (66 and 23 gates,
    6,887 compiled)."""
    qpe, _ = build_qpe(QpeSpec(MAX_QUBITS - 1, 1, 2))
    cp = sum(op.kind == "ControlledPhase" for op in qpe.ops)
    assert not any(op.kind == "Rz" for op in qpe.ops)
    largest = cp * (3 * MAX_SEARCH_LENGTH + 2) + len(qpe.ops) - cp
    assert largest << MAX_QUBITS <= inject_module.MAX_CACHED_AMPS
    monkeypatch.setattr(inject_module, "_apply_op", refuse("_apply_op"))
    gates = (inject_module.MAX_CACHED_AMPS >> MAX_QUBITS) + 1
    ops = tuple(GateOp("X", (t % MAX_QUBITS,), (), t) for t in range(gates))
    circuit = Circuit(MAX_QUBITS, ops, tuple(range(MAX_QUBITS)))
    with pytest.raises(ValidationError, match="limit"):
        run_campaign(circuit, "0" * MAX_QUBITS)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(circuit_to_json(circuit)))
    argv = ["inject", "--circuit", str(path), "--bitstring", "0" * MAX_QUBITS,
            "-o", str(tmp_path / "profile.json")]
    assert main(argv) == 2
    assert not (tmp_path / "profile.json").exists()


def test_campaign_accepts_circuits_at_the_state_cache_limit(monkeypatch):
    circuit, correct = random_circuit(7, 18, 107, 5)
    expected = run_campaign(circuit, correct)
    monkeypatch.setattr(inject_module, "MAX_CACHED_AMPS", 18 << 7)
    assert run_campaign(circuit, correct) == expected
    monkeypatch.setattr(inject_module, "MAX_CACHED_AMPS", (18 << 7) - 1)
    monkeypatch.setattr(inject_module, "_apply_op", refuse("_apply_op"))
    with pytest.raises(ValidationError, match="limit"):
        run_campaign(circuit, correct)


def test_campaign_record_and_cell_structure():
    circuit, correct = build_qpe()
    profile = run_campaign(circuit, correct, "mirrored")
    faultable = [op for op in circuit.ops if op.faultable]
    assert len(profile.records) == 3 * len(faultable)
    cells = profile.cells
    touches = {(q, op.timestep) for op in circuit.ops for q in op.qubits}
    assert set(cells) == touches
    for op in circuit.ops:
        for q in op.qubits:
            cell = cells[(q, op.timestep)]
            if op.faultable:
                assert cell.n_records == 3
            else:
                assert cell.n_records == 0
                assert cell.mean_relative_pst == 1.0


def test_relative_pst_bounds():
    circuit, correct = build_qpe()
    profile = run_campaign(circuit, correct, "full-depolarizing")
    for rec in profile.records:
        assert rec.relative_pst >= 0.0
        assert rec.relative_pst <= 1.0 / profile.pst_ideal + 1e-12


def test_mirrored_is_subset_of_full():
    circuit, correct = build_qpe()
    mirrored = run_campaign(circuit, correct, "mirrored")
    full = run_campaign(circuit, correct, "full-depolarizing")
    full_map = {(r.site.gate_index, r.site.paulis): r.relative_pst for r in full.records}
    for rec in mirrored.records:
        key = (rec.site.gate_index, rec.site.paulis)
        assert full_map[key] == rec.relative_pst


def test_campaign_without_faultable_gates_is_empty():
    circuit, correct = build_qpe()
    quiet = with_faultable(circuit, False)
    profile = run_campaign(quiet, correct)
    assert profile.records == ()
    assert all(cell.mean_relative_pst == 1.0 for cell in profile.cells.values())


def test_campaign_rejects_zero_ideal_pst():
    circuit, _ = build_qpe()
    with pytest.raises(CampaignError):
        run_campaign(circuit, "11111")


def test_profile_json_roundtrip():
    circuit, correct = build_qpe()
    profile = run_campaign(circuit, correct)
    doc = json.loads(json.dumps(profile_to_json(profile)))
    assert profile_from_json(doc) == profile


def test_gates_sharing_a_cell_are_rejected():
    # the profile keeps one summary per (qubit, timestep) cell, so three
    # gates at t = 0 would collapse into one cell
    shared = Circuit(1, tuple(GateOp(k, (0,)) for k in "HTH"), (0,))
    with pytest.raises(ValidationError, match="timestep 0"):
        run_campaign(shared, "0")
    spread = Circuit(1, tuple(GateOp(k, (0,), (), t) for t, k in enumerate("HTH")), (0,))
    doc = profile_to_json(run_campaign(spread, "0"))
    for gate in doc["gates"]:
        gate[3] = 0
    with pytest.raises(ValidationError, match="timestep 0"):
        profile_from_json(doc)


def test_profile_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        profile_from_json({"records": []})


def _set(path, new):
    """A mutation that replaces doc[path] by new, or by new(old) when new
    is callable."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = new(doc[last]) if callable(new) else new
    return mutate


def _resummarised(mutate):
    """mutate, then recompute every gate summary from the records, so only
    the record check can object."""
    def both(doc):
        mutate(doc)
        for g in doc["gates"]:
            rel = [r[3] for r in doc["records"] if r[0] == g[0]]
            g[5:8] = [float(np.mean(rel)), float(np.min(rel)), len(rel)] if rel else [1.0, 1.0, 0]
    return both


def _noisy_above_one(doc):
    doc["records"][0][2:4] = [1.5, 1.5 / doc["pst_ideal"]]


def _records_past_float_range(doc):
    """relative PSTs whose sum overflows, as only a pst_ideal far below
    any campaign's gives"""
    doc["pst_ideal"] = 1e-308
    for rec in doc["records"]:
        rec[2:4] = [0.9, 0.9 / 1e-308]


def _swap_first_records(doc):
    records = doc["records"]
    records[0], records[1] = records[1], records[0]


# gate 0 is an unfaultable X, gate 1 an H and gate 2 a CNOT; records 0-2
# sit on the H and 3-5 on the CNOT
INCONSISTENT = {
    "mode": _set(["mode"], "depolarizing"),
    "digest-short": _set(["circuit_digest"], "0" * 63),
    "digest-int": _set(["circuit_digest"], 12),
    "num-qubits": _set(["num_qubits"], MAX_QUBITS + 1),
    "pst-ideal-above-1": _set(["pst_ideal"], 1.5),
    "pst-ideal-zero": _set(["pst_ideal"], 0.0),
    "gate-index": _set(["gates", 0, 0], 5),
    "gate-kind": _set(["gates", 1, 1], "Q"),
    "gate-arity": _set(["gates", 1, 1], "CNOT"),
    "gate-qubit": _set(["gates", 2, 2], [0, 2]),
    "record-unfaultable-gate": _set(["gates", 1, 4], False),
    "record-missing-gate": _set(["records", 0, 0], 7),
    "record-pauli-count": _set(["records", 0, 1], "XX"),
    "record-mirrored-ix": _resummarised(_set(["records", 3, 1], "IX")),
    "record-duplicated": _resummarised(
        lambda doc: doc["records"].insert(1, list(doc["records"][0]))),
    "record-dropped": _resummarised(lambda doc: doc["records"].pop(4)),
    "records-swapped": _resummarised(_swap_first_records),
    "records-none": _resummarised(_set(["records"], [])),
    "record-pst-noisy": _resummarised(_noisy_above_one),
    "record-relative": _resummarised(_set(["records", 0, 3], lambda v: v + 1e-9)),
    "summary-mean": _set(["gates", 2, 5], lambda v: v + 1e-9),
    "summary-min": _set(["gates", 2, 6], lambda v: v - 1e-9),
    "summary-count": _set(["gates", 2, 7], 4),
    "summary-sum-overflows": _records_past_float_range,
}


def _valid_profile_doc():
    ops = (GateOp("X", (1,), (), 0, False), GateOp("H", (0,), (), 1),
           GateOp("CNOT", (0, 1), (), 2))
    return profile_to_json(run_campaign(Circuit(2, ops, (0, 1)), "01"))


@pytest.mark.parametrize("mutate", list(INCONSISTENT.values()), ids=list(INCONSISTENT))
def test_profile_from_json_rejects_inconsistent_fields(mutate):
    doc = _valid_profile_doc()
    profile_from_json(doc)
    mutate(doc)
    with pytest.raises(ValidationError):
        profile_from_json(doc)


def test_profile_summaries_tolerate_rounding():
    doc = _valid_profile_doc()
    _set(["gates", 2, 5], lambda v: v + 1e-13)(doc)
    _set(["records", 0, 3], lambda v: v - 1e-13)(doc)
    profile_from_json(doc)


def _fsum_mean_differs(profile):
    """The gates whose stored mean (the campaign's, summed in numpy's
    order) is not the correctly rounded fsum mean, with their record
    counts."""
    by_gate = {}
    for rec in profile.records:
        by_gate.setdefault(rec.site.gate_index, []).append(rec.relative_pst)
    return {i: len(v) for i, v in by_gate.items()
            if math.fsum(v) / len(v) != profile.gates[i].mean_relative_pst}


def test_loader_accepts_full_depolarizing_campaign_means(tmp_path, capsys):
    """A correctly rounded fsum mean can differ from the campaign's mean in
    the last bit; the loader recomputes the campaign's own mean, so every
    profile the campaign writes loads and assigns."""
    circuit, correct = build_qpe(QpeSpec(3, 1, 8))
    compiled = compile_circuit(circuit, 0.1)
    profile = run_campaign(compiled, correct, "full-depolarizing")
    assert 15 in _fsum_mean_differs(profile).values()
    doc = json.loads(json.dumps(profile_to_json(profile)))
    assert profile_from_json(doc) == profile
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["assign", "--profile", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "d=3,5"


def test_loader_scales_tolerance_with_relative_pst():
    """A noiseless PST near 3e-5 puts relative PSTs near 9,000, where one
    ulp of a gate's mean exceeds 1e-12: the summary check scales its
    tolerance with the mean, so the campaign's profile still loads, and a
    mean off by 1e-9 of its size is still refused."""
    theta = math.pi - 10 ** -1.5
    ops = (GateOp("H", (0,), (), 0), GateOp("H", (1,), (), 0),
           GateOp("Rz", (0,), (theta,), 1), GateOp("Rz", (1,), (0.7,), 1),
           GateOp("H", (0,), (), 2), GateOp("H", (1,), (), 2),
           GateOp("CNOT", (0, 1), (), 3), GateOp("T", (0,), (), 4),
           GateOp("S", (1,), (), 4))
    profile = run_campaign(Circuit(2, ops, (0, 1)), "01", "full-depolarizing")
    assert profile.pst_ideal < 1e-4
    gate = profile.gates[6]
    assert gate.mean_relative_pst > 1000
    sums = [r.relative_pst for r in profile.records if r.site.gate_index == 6]
    assert abs(math.fsum(sums) / len(sums) - gate.mean_relative_pst) > 1e-12
    doc = profile_to_json(profile)
    assert profile_from_json(doc) == profile
    doc["gates"][6][5] *= 1 + 1e-9
    with pytest.raises(ValidationError, match="summary of gate 6"):
        profile_from_json(doc)


def test_loader_names_a_repeated_qubit():
    """A gate summary on one qubit twice breaks the circuit model's gate
    rule, which the loader applies, not the one-gate-per-cell rule."""
    doc = _valid_profile_doc()
    _set(["gates", 2, 2], [0, 0])(doc)
    with pytest.raises(ValidationError, match=r"repeated qubit \(0, 0\)"):
        profile_from_json(doc)


@pytest.mark.parametrize("width", [3, 15])
def test_mean_is_numpys(rng, width):
    """The one mean adds a gate's 3 or 15 relative PSTs in numpy's order,
    so it equals float(np.mean(v)) bitwise, over values spread across the
    range relative PSTs take."""
    values = rng.random((10_000, width)) * 10.0 ** rng.integers(-3, 4, (10_000, 1))
    for v in values.tolist():
        assert _mean(v) == float(np.mean(v)), v


CAMPAIGN_CONFIGS = {
    "default": RunConfig(),
    "qpe8-full": RunConfig(counting_qubits=8, phase_num=69, phase_den=256,
                           synthesis_epsilon=0.1, injection_mode="full-depolarizing"),
}


@pytest.mark.parametrize("config", list(CAMPAIGN_CONFIGS.values()),
                         ids=list(CAMPAIGN_CONFIGS))
def test_loader_recomputes_the_campaign_summaries_bitwise(config):
    """The loader's summary rule is the campaign's: on the default and the
    qpe8-full profiles, where an fsum mean differs from the stored one on
    74 and 67 gates, the summaries recomputed from the reloaded records
    equal the stored ones bitwise."""
    circuit, correct = benchmark(config)
    compiled = compile_rotations(circuit, config)
    profile = run_campaign(compiled, correct, config.injection_mode)
    assert _fsum_mean_differs(profile)
    loaded = profile_from_json(json.loads(json.dumps(profile_to_json(profile))))
    stats = _gate_stats(loaded.records)
    for g in loaded.gates:
        want = (g.mean_relative_pst, g.min_relative_pst, g.n_records)
        assert stats.get(g.gate_index, _NO_RECORDS) == want


def test_unknown_mode_is_refused_before_simulating(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("the campaign simulated a gate")

    monkeypatch.setattr(inject_module, "_apply_op", no_simulation)
    with pytest.raises(ValidationError, match="mode must be one of"):
        run_campaign(single_cnot(), "00", "bogus")
    with pytest.raises(ValidationError, match="mode must be one of"):
        _sites(single_cnot().ops, "full")


def test_campaign_mode_has_one_rule():
    """RunConfig and the fault-site rule refuse a mode by one check,
    config.check_mode, which names the field it checks."""
    with pytest.raises(ValidationError) as by_config:
        RunConfig(injection_mode="bogus")
    with pytest.raises(ValidationError) as by_sites:
        _sites((), "bogus")
    assert str(by_sites.value) == (
        "mode must be one of ('mirrored', 'full-depolarizing'), got 'bogus'")
    assert str(by_config.value) == "injection_" + str(by_sites.value)
