"""Acceptance criteria, one test per criterion.

Criterion 3's first clause and criterion 6's above-threshold grid points
fail as stated; the assertion messages explain what was measured. See
the module tests for the surrounding evidence.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import exact_success_and_multi_mass
from vdqec.circuits import Circuit, GateOp
from vdqec.inject import run_campaign
from vdqec.qecc import (
    ErrorModelParams,
    assign_two_distance,
    log_p_grid,
    logical_error_rate,
    sweep_tts,
    uniform_assignment,
)
from vdqec.qpe import QpeSpec, build_qpe
from vdqec.render import heatmap_svg_bytes
from vdqec.sim import output_distribution, pst, rz_matrix, simulate
from vdqec.synth import approximate_rz, compile_circuit, dist, sequence_unitary

TIGHT_EPS = 0.015
LOOSE_EPS = 0.15
P_TH = 0.0057


def run_pst(circuit, correct):
    return pst(output_distribution(simulate(circuit), circuit.measured_qubits), correct)


@pytest.fixture(scope="module")
def qpe():
    return build_qpe()


@pytest.fixture(scope="module")
def tight_compiled(qpe):
    circuit, correct = qpe
    return compile_circuit(circuit, TIGHT_EPS), correct


@pytest.fixture(scope="module")
def compiled_profile(tight_compiled):
    compiled, correct = tight_compiled
    return run_campaign(compiled, correct, "mirrored")


@pytest.fixture(scope="module")
def uncompiled_profile(qpe):
    circuit, correct = qpe
    return run_campaign(circuit, correct, "full-depolarizing")


def test_criterion_1_exact_qpe_for_all_dyadic_phases():
    for k in range(32):
        circuit, correct = build_qpe(QpeSpec(5, k, 32))
        value = run_pst(circuit, correct)
        assert value == pytest.approx(1.0, abs=1e-9), f"phi={k}/32 gave PST {value}"


def test_criterion_2_synthesis_accuracy_ordering(qpe, tight_compiled):
    circuit, correct = qpe
    compiled_tight, _ = tight_compiled
    pst_tight = run_pst(compiled_tight, correct)
    pst_loose = run_pst(compile_circuit(circuit, LOOSE_EPS), correct)
    assert pst_tight >= 0.98, f"tight epsilon PST {pst_tight:.4f} below 0.98"
    assert pst_tight > pst_loose, (
        f"tight PST {pst_tight:.4f} not above loose PST {pst_loose:.4f}"
    )


def test_criterion_3_reference_sequence_beats_identity():
    sequence = "HSTHSHTHSHTST"
    target = rz_matrix(np.pi / 3)
    d_forward = dist(sequence_unitary(sequence), target)
    d_reversed = dist(sequence_unitary(sequence[::-1]), target)
    delta_star = min(d_forward, d_reversed)
    report = approximate_rz(np.pi / 3, delta_star, 13)
    assert report.length <= 13
    d_identity = dist(np.eye(2), target)
    assert delta_star < d_identity, (
        f"the 13-gate reference sequence reaches distance {d_forward:.4f} "
        f"(forward) / {d_reversed:.4f} (reversed) from Rz(pi/3), both worse "
        f"than the empty sequence's {d_identity:.4f}; the sequence as printed "
        "does not approximate Rz(pi/3) under any reading order"
    )


def test_criterion_4_heatmap_structure(qpe, uncompiled_profile):
    circuit, _ = qpe
    profile = uncompiled_profile

    # (a) a Z error on the last gate touching a qubit cannot change the
    # measurement outcome
    rel_by_site = {
        (r.site.gate_index, r.site.paulis): r.relative_pst for r in profile.records
    }
    checked = 0
    for q in range(5):
        gi = max(i for i, op in enumerate(circuit.ops) if q in op.qubits)
        op = circuit.ops[gi]
        paulis = tuple("Z" if qq == q else "I" for qq in op.qubits)
        if (gi, paulis) in rel_by_site:
            checked += 1
            assert rel_by_site[(gi, paulis)] == pytest.approx(1.0, abs=1e-9), (
                f"Z on qubit {q}'s final gate {gi} changed the outcome"
            )
    assert checked == 5

    # (b) sensitivity rises after the first use as an entangling control
    cells = profile.cells
    qubits_confirming = 0
    for q in range(5):
        first_ctrl = min(
            op.timestep
            for op in circuit.ops
            if op.kind == "ControlledPhase" and op.qubits[0] == q
        )
        before = [v.mean_relative_pst for (qq, t), v in cells.items()
                  if qq == q and t < first_ctrl]
        after = [v.mean_relative_pst for (qq, t), v in cells.items()
                 if qq == q and t >= first_ctrl]
        if np.mean(after) < np.mean(before):
            qubits_confirming += 1
    assert qubits_confirming >= 4, f"only {qubits_confirming}/5 counting qubits"

    # (c) the target qubit's heatmap line ends with state preparation
    svg = heatmap_svg_bytes(profile).decode()
    import re

    q5_cells = [
        int(t) for q, t in re.findall(
            r'class="cell" data-qubit="(\d+)" data-timestep="(\d+)"', svg
        ) if int(q) == 5
    ]
    prep_end = max(op.timestep for op in circuit.ops if not op.faultable)
    assert max(q5_cells) == prep_end


def test_criterion_5_logical_error_rate_formula():
    for d in (3, 5, 7):
        assert logical_error_rate(P_TH, d) == pytest.approx(0.03, abs=1e-12)
    assert logical_error_rate(0.00057, 3) == pytest.approx(3.0e-4, abs=1e-12)
    grid = np.logspace(-6, -1, 100)
    for d in (3, 5, 7):
        rates = [logical_error_rate(float(p), d) for p in grid]
        assert all(a < b or b == 1.0 for a, b in zip(rates, rates[1:]))
    below = grid[grid < P_TH]
    for p in below:
        by_d = [logical_error_rate(float(p), d) for d in (3, 5, 7)]
        assert by_d[0] > by_d[1] > by_d[2]


@pytest.fixture(scope="module")
def distance_ladder(compiled_profile):
    profile = compiled_profile
    return [
        uniform_assignment(profile.num_qubits, 3),
        assign_two_distance(profile, 3, 5, 0.9),
        uniform_assignment(profile.num_qubits, 5),
        assign_two_distance(profile, 5, 7, 0.9),
        uniform_assignment(profile.num_qubits, 7),
    ]


@pytest.fixture(scope="module")
def sweep(compiled_profile, distance_ladder):
    grid = log_p_grid(1e-5, 1e-2, 50)
    return sweep_tts(compiled_profile, distance_ladder, grid)


def test_criterion_6_pst_bound_pointwise_ordering(sweep):
    by_config = {}
    for pt in sweep:
        by_config.setdefault(pt.config, []).append(pt)
    order = ["d=3", "d=3,5", "d=5", "d=5,7", "d=7"]
    violations = []
    for low, high in zip(order, order[1:]):
        for a, b in zip(by_config[low], by_config[high]):
            if not a.pst_bound <= b.pst_bound + 1e-12:
                violations.append((low, high, a.p))
    assert not violations, (
        f"{len(violations)} grid points violate the ordering, all at "
        f"p >= {min(v[2] for v in violations):.4g} (every violation lies "
        f"above the threshold p_th = {P_TH}, where the error-rate formula "
        "itself makes larger distances worse, so escalation lowers the "
        "bound there; the ordering holds at every grid point below p_th)"
    )


def test_criterion_7_time_to_solution_crossovers(sweep):
    by_config = {}
    for pt in sweep:
        by_config.setdefault(pt.config, []).append(pt)

    # (a) at the smallest p the cheapest code wins
    smallest = {cfg: pts[0] for cfg, pts in by_config.items()}
    best = min(smallest, key=lambda cfg: smallest[cfg].tts)
    assert best == "d=3", f"tts at p=1e-5 minimal for {best}"

    # (b) somewhere the 3,5 mix beats both uniform codes
    mixed_wins = any(
        m.tts < min(a.tts, b.tts)
        for m, a, b in zip(by_config["d=3,5"], by_config["d=3"], by_config["d=5"])
    )
    assert mixed_wins, "tts(3,5) never beats both tts(3) and tts(5)"

    # (c) at larger p the 5,7 mix beats uniform 5
    larger_wins = any(
        m.tts < a.tts for m, a in zip(by_config["d=5,7"], by_config["d=5"])
    )
    assert larger_wins, "tts(5,7) never beats tts(5)"


def test_criterion_8_lower_bound_against_exhaustive_oracle(rng):
    params = ErrorModelParams()
    kinds_1q = ["H", "S", "T", "X", "Tdg"]
    from vdqec.qecc import pst_bound

    for trial in range(20):
        ops = []
        n_gates = int(rng.integers(3, 9))
        for t in range(n_gates):
            if n_gates > 1 and rng.random() < 0.35:
                qubits = (0, 1) if rng.random() < 0.5 else (1, 0)
                ops.append(GateOp("CNOT", qubits, (), t))
            else:
                kind = kinds_1q[int(rng.integers(len(kinds_1q)))]
                ops.append(GateOp(kind, (int(rng.integers(2)),), (), t))
        circuit = Circuit(2, tuple(ops), (0, 1))
        ideal = output_distribution(simulate(circuit), (0, 1))
        correct = max(ideal, key=ideal.get)
        profile = run_campaign(circuit, correct, "mirrored")
        assignment = uniform_assignment(2, 3)
        for p in (0.001, 0.004):
            bound = pst_bound(profile, assignment, p, params)
            exact, multi = exact_success_and_multi_mass(
                circuit, correct, assignment, p, params
            )
            assert bound <= exact + 1e-10, f"trial {trial}, p={p}"
            assert exact - bound <= multi + 1e-10, f"trial {trial}, p={p}"


def test_criterion_9_pipeline_determinism(tmp_path):
    config = {"synthesis_epsilon": 0.12, "max_length": 25, "p_points": 25}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(out_dir):
        result = subprocess.run(
            [sys.executable, "-m", "vdqec.cli", "pipeline",
             "--config", str(cfg_path), "--out-dir", str(out_dir)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return {
            p.name: p.read_bytes() for p in out_dir.iterdir()
        }

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    assert first == second
