import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    density_matrix_pst,
    exact_success_and_multi_mass,
    scalar_pst_bound,
    site_error_prob,
)
from vdqec import qecc
from vdqec.circuits import Circuit, GateOp
from vdqec.config import RunConfig
from vdqec.errors import AssignmentError, ValidationError
from vdqec.inject import run_campaign
from vdqec.profiles import GateSummary, SensitivityProfile
from vdqec.qecc import (
    CodeAssignment,
    ErrorModelParams,
    assign_two_distance,
    assignment_from_json,
    assignment_to_json,
    ladder,
    latency,
    log_p_grid,
    logical_error_rate,
    pst_bound,
    sweep_tts,
    time_to_solution,
    uniform_assignment,
)
from vdqec.qpe import build_qpe
from vdqec.sim import output_distribution, simulate
from vdqec.synth import compile_circuit

P_TH = 0.0057


def test_rate_at_threshold_is_prefactor():
    for d in (3, 5, 7):
        assert logical_error_rate(P_TH, d) == pytest.approx(0.03, abs=1e-12)


def test_rate_tenth_of_threshold():
    assert logical_error_rate(0.00057, 3) == pytest.approx(3.0e-4, abs=1e-12)


def test_rate_clamps_to_one():
    assert logical_error_rate(4 * P_TH, 3) == pytest.approx(min(1.0, 0.03 * 16))
    assert logical_error_rate(0.9, 3) == 1.0


def test_rate_past_float_range_clamps_to_one():
    # (p / threshold) ** ((d + 1) / 2) overflows a float in both cases
    assert logical_error_rate(0.5, 3, ErrorModelParams(threshold=1e-300)) == 1.0
    assert logical_error_rate(0.01, 100001) == 1.0


def test_distance_past_float_range_is_refused():
    # for 10**400 + 1, (d + 1) / 2 overflows a float, and the rate was
    # answered 1.0 even far below threshold, where the model gives 0.0
    assert logical_error_rate(1e-5, 2**53 - 1) == 0.0
    for d in (2**53 + 1, 10**400 + 1):
        with pytest.raises(AssignmentError):
            logical_error_rate(1e-5, d)
        with pytest.raises(AssignmentError):
            uniform_assignment(2, d)


def test_ladder_holds_at_most_max_configs():
    configs = [[d] for d in range(3, 3 + 2 * qecc.MAX_CONFIGS, 2)]
    assert len(qecc.ladder_configs(configs)) == qecc.MAX_CONFIGS == 16
    with pytest.raises(ValidationError):
        qecc.ladder_configs(configs + [[99]])


def test_rate_validates_inputs():
    with pytest.raises(ValidationError):
        logical_error_rate(0.0, 3)
    with pytest.raises(ValidationError):
        logical_error_rate(0.001, 4)
    with pytest.raises(ValidationError):
        logical_error_rate(0.001, 1)
    for d in (4.5, 3.5, 3.0, True):
        with pytest.raises(ValidationError):
            logical_error_rate(0.001, d)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(1e-6, 0.9, allow_nan=False),
    d=st.sampled_from([3, 5, 7, 9]),
)
def test_rate_monotone_in_p(p, d):
    assert logical_error_rate(p, d) <= logical_error_rate(min(0.99, p * 1.5), d)


def test_rate_monotone_below_threshold_grid():
    for p in np.logspace(-6, np.log10(P_TH * 0.999), 100):
        rates = [logical_error_rate(float(p), d) for d in (3, 5, 7, 9)]
        assert rates == sorted(rates, reverse=True)


def test_site_error_prob_examples():
    a = uniform_assignment(2, 3)
    assert site_error_prob((0,), 0, a, P_TH) == pytest.approx(0.03, abs=1e-12)
    q = logical_error_rate(P_TH, 3)
    assert site_error_prob((0, 1), 0, a, P_TH) == pytest.approx(
        1 - (1 - q) ** 2, abs=1e-12
    )
    assert site_error_prob((0, 1), 0, a, 1e-9) == pytest.approx(0.0, abs=1e-9)


def test_assignment_validation():
    with pytest.raises(AssignmentError):
        CodeAssignment("bad", 1, (((0, 4),),))
    with pytest.raises(AssignmentError):
        CodeAssignment("bad", 1, (((1, 3),),))
    with pytest.raises(AssignmentError):
        CodeAssignment("bad", 1, (((0, 5), (4, 3)),))
    with pytest.raises(AssignmentError):
        CodeAssignment("bad", 2, (((0, 3),),))
    # the distance rule distance_config applies: an odd int >= 3, not a float
    for d in (5.0, True, 1):
        with pytest.raises(AssignmentError):
            uniform_assignment(2, d)


def test_distance_schedule_lookup():
    a = CodeAssignment("d=3,5", 1, (((0, 3), (10, 5)),))
    assert a.distance_at(0, 0) == 3
    assert a.distance_at(0, 9) == 3
    assert a.distance_at(0, 10) == 5
    assert a.distance_at(0, 99) == 5
    with pytest.raises(AssignmentError):
        a.distance_at(0, -1)
    with pytest.raises(AssignmentError):
        a.distance_at(1, 0)


def test_latency_uniform_examples():
    ops = tuple(GateOp("H", (0,), (), t) for t in range(10))
    c = Circuit(1, ops, (0,))
    assert latency(c.ops, uniform_assignment(1, 3)) == 30
    assert latency(c.ops, uniform_assignment(1, 5)) == 50


def test_latency_max_rule_and_resize():
    a = CodeAssignment("mix", 2, (((0, 3),), ((0, 3), (1, 5))))
    c = Circuit(2, (GateOp("CNOT", (0, 1), (), 1),), (0,))
    # gate spans d=3 and d=5 -> 5 cycles, plus one 3->5 resize -> 5 cycles
    assert latency(c.ops, a, include_resize=True) == 10
    assert latency(c.ops, a, include_resize=False) == 5


def test_time_to_solution():
    assert time_to_solution(100, 0.5) == 200
    assert time_to_solution(100, 1.0) == 100
    assert time_to_solution(100, 0.0) == math.inf
    with pytest.raises(ValidationError):
        time_to_solution(0, 0.5)


def _profile():
    circuit, correct = build_qpe()
    return circuit, run_campaign(circuit, correct, "mirrored")


def test_assign_two_distance_escalates_monotonically():
    _, profile = _profile()
    a = assign_two_distance(profile, 3, 5, 0.9)
    assert a.label == "d=3,5"
    for q in range(profile.num_qubits):
        distances = [a.distance_at(q, t) for t in range(30)]
        assert distances == sorted(distances)


def test_assign_all_quiet_cells_stays_low():
    _, profile = _profile()
    a = assign_two_distance(profile, 3, 5, tau=0.0)
    assert a.schedules == uniform_assignment(profile.num_qubits, 3).schedules


def test_assign_two_distance_checks_both_distances_at_any_tau():
    """The pair is validated before any qubit is looked at, so an even
    d_high is refused also when tau 0 escalates no qubit."""
    _, profile = _profile()
    for tau in (0.0, 0.9):
        with pytest.raises(AssignmentError):
            assign_two_distance(profile, 3, 4, tau)
        with pytest.raises(ValidationError):
            assign_two_distance(profile, 5, 3, tau)


def test_assign_target_qubit_never_escalates():
    # qubit 5 idles after prep, so its cells stay at 1.0
    _, profile = _profile()
    a = assign_two_distance(profile, 3, 5, 0.9)
    assert a.schedules[5] == ((0, 3),)


def test_pst_bound_approaches_ideal_at_low_p():
    _, profile = _profile()
    a = uniform_assignment(profile.num_qubits, 3)
    assert pst_bound(profile, a, 1e-12) == pytest.approx(profile.pst_ideal, abs=1e-6)


def test_pst_bound_certain_harmless_error():
    # one faultable gate whose relative PST is exactly 1, with q = 1
    gates = (GateSummary(0, "H", (0,), 0, True, 1.0, 1.0, 3),)
    profile = SensitivityProfile("digest", 1, "mirrored", 0.75, (), gates)
    a = uniform_assignment(1, 3)
    p_huge = 0.5  # P_L clamps to 1 here
    assert site_error_prob((0,), 0, a, p_huge) == 1.0
    assert pst_bound(profile, a, p_huge) == pytest.approx(0.75, abs=1e-12)


def test_pst_bound_monotone_in_p():
    _, profile = _profile()
    a = uniform_assignment(profile.num_qubits, 3)
    values = [pst_bound(profile, a, float(p)) for p in np.logspace(-5, -2, 30)]
    assert all(b <= a_ + 1e-12 for a_, b in zip(values, values[1:]))


def test_pst_bound_is_true_lower_bound_on_toy_circuit():
    ops = (
        GateOp("H", (0,), (), 0, faultable=False),
        GateOp("CNOT", (0, 1), (), 1),
        GateOp("T", (1,), (), 2),
        GateOp("H", (1,), (), 3),
        GateOp("CNOT", (1, 0), (), 4),
    )
    c = Circuit(2, ops, (0, 1))
    correct = "00"
    profile = run_campaign(c, correct, "mirrored")
    a = uniform_assignment(2, 3)
    params = ErrorModelParams()
    for p in (0.0005, 0.002, 0.005):
        bound = pst_bound(profile, a, p, params)
        exact, multi_mass = exact_success_and_multi_mass(c, correct, a, p, params)
        assert bound <= exact + 1e-10
        assert exact - bound <= multi_mass + 1e-10


def test_latency_sandwich():
    circuit, profile = _profile()
    two = assign_two_distance(profile, 3, 5, 0.9)
    low = latency(circuit.ops, uniform_assignment(6, 3))
    high = latency(circuit.ops, uniform_assignment(6, 5))
    mid = latency(circuit.ops, two)
    assert low <= mid <= high + two.resize_cost()
    assert latency(profile.gates, two) == mid


def test_sweep_shape_and_order():
    _, profile = _profile()
    assignments = [uniform_assignment(6, 3), assign_two_distance(profile, 3, 5)]
    grid = log_p_grid(1e-5, 1e-2, 7)
    points = sweep_tts(profile, assignments, grid)
    assert len(points) == 14
    assert [pt.config for pt in points] == ["d=3"] * 7 + ["d=3,5"] * 7
    for chunk in (points[:7], points[7:]):
        assert [pt.p for pt in chunk] == sorted(pt.p for pt in chunk)
        for pt in chunk:
            assert pt.tts >= pt.latency_cycles


def test_sweep_single_point():
    _, profile = _profile()
    points = sweep_tts(profile, [uniform_assignment(6, 3)], np.array([1e-4]))
    assert len(points) == 1


def test_pst_bound_ordering_below_threshold():
    # escalating every distance can only help while p is below threshold
    _, profile = _profile()
    ladder = [
        uniform_assignment(6, 3),
        assign_two_distance(profile, 3, 5),
        uniform_assignment(6, 5),
        assign_two_distance(profile, 5, 7),
        uniform_assignment(6, 7),
    ]
    for p in np.logspace(-5, np.log10(P_TH * 0.999), 25):
        bounds = [pst_bound(profile, a, float(p)) for a in ladder]
        assert all(x <= y + 1e-12 for x, y in zip(bounds, bounds[1:])), p


def test_assignment_json_roundtrip():
    _, profile = _profile()
    a = assign_two_distance(profile, 3, 5, 0.9)
    doc = json.loads(json.dumps(assignment_to_json(a)))
    assert assignment_from_json(doc) == a


@pytest.mark.parametrize("p_min, p_max", [(1e-5, 1e-2), (3e-5, 7e-3)])
@pytest.mark.parametrize("points", [2, 50, 1000])
def test_log_p_grid_ends_exactly_at_its_bounds(p_min, p_max, points):
    """10**log10(p) is not p for every p: np.logspace puts the first point
    of (1e-5, 1e-2) one ulp below 1e-5, and misses both ends of
    (3e-5, 7e-3)."""
    grid = log_p_grid(p_min, p_max, points)
    assert len(grid) == points
    assert grid[0] == p_min and grid[-1] == p_max
    assert np.all(np.diff(grid) > 0)


def test_params_validation():
    with pytest.raises(ValidationError):
        ErrorModelParams(prefactor=0.0)
    with pytest.raises(ValidationError):
        log_p_grid(1e-2, 1e-5, 10)


def _random_profile(rng, num_qubits, num_gates, faultable_share=0.85):
    """A profile of 1- and 2-qubit gates, one per timestep, with random
    mean relative PSTs; only sweep_tts reads it, no campaign made it."""
    gates = []
    for t in range(num_gates):
        if num_qubits > 1 and rng.random() < 0.4:
            kind = "CNOT"
            qubits = tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
        else:
            kind, qubits = "T", (int(rng.integers(num_qubits)),)
        faultable = bool(rng.random() < faultable_share)
        mean = float(rng.random()) if faultable else 1.0
        gates.append(
            GateSummary(t, kind, qubits, t, faultable, mean, mean, 3 * faultable)
        )
    pst_ideal = float(rng.uniform(0.2, 1.0))
    return SensitivityProfile("digest", num_qubits, "mirrored", pst_ideal, (), tuple(gates))


def _random_assignment(rng, num_qubits, num_timesteps):
    """Each qubit starts at 3, 5 or 7 and may grow once or twice."""
    schedules = []
    for _ in range(num_qubits):
        d = int(rng.choice([3, 5, 7]))
        segs = [(0, d)]
        k = min(2, num_timesteps - 1)
        for start in sorted(rng.choice(range(1, num_timesteps), k, replace=False)):
            if rng.random() < 0.5:
                d += 2
                segs.append((int(start), d))
        schedules.append(tuple(segs))
    return CodeAssignment("random", num_qubits, tuple(schedules))


# reaches past every rate's clamp to 1, which d = 3 reaches last, at p = 0.033
CLAMPING_GRID = np.concatenate([log_p_grid(1e-6, 0.9, 60), [P_TH, 0.5]])


def _assert_sweep_is_scalar(profile, assignments, grid):
    points = sweep_tts(profile, assignments, grid)
    want = [scalar_pst_bound(profile, a, float(p)) for a in assignments for p in grid]
    assert [pt.pst_bound for pt in points] == want
    for a in assignments:
        assert [pst_bound(profile, a, float(p)) for p in grid] == [
            scalar_pst_bound(profile, a, float(p)) for p in grid
        ]


def test_sweep_is_bitwise_the_scalar_bound_on_random_profiles(rng):
    for trial in range(12):
        n = int(rng.integers(1, 7))
        profile = _random_profile(rng, n, int(rng.integers(1, 120)))
        assignments = [
            uniform_assignment(n, 3),
            assign_two_distance(profile, 3, 5, 0.5),
            _random_assignment(rng, n, len(profile.gates) + 1),
        ]
        _assert_sweep_is_scalar(profile, assignments, CLAMPING_GRID)


@pytest.fixture(scope="module")
def default_compiled():
    cfg = RunConfig()
    circuit, correct = build_qpe()
    return compile_circuit(circuit, cfg.synthesis_epsilon, cfg.max_length), correct


@pytest.fixture(scope="module")
def default_profile(default_compiled):
    return run_campaign(*default_compiled, RunConfig().injection_mode)


def test_sweep_is_bitwise_the_scalar_bound_on_default_ladder(default_profile):
    cfg = RunConfig()
    assignments = ladder(default_profile, cfg.distance_configs, cfg.tau)
    grid = log_p_grid(cfg.p_min, cfg.p_max, cfg.p_points)
    _assert_sweep_is_scalar(default_profile, assignments, grid)
    _assert_sweep_is_scalar(default_profile, assignments[:2], CLAMPING_GRID)


def test_sweep_is_bitwise_the_scalar_bound_on_uncompiled_profile():
    _, profile = _profile()
    assignments = ladder(profile, [[3], [3, 5], [5, 7], [7, 9]], 0.9)
    _assert_sweep_is_scalar(profile, assignments, CLAMPING_GRID)


def test_sweep_without_faultable_gates_is_the_ideal_pst(rng):
    profile = _random_profile(rng, 2, 5, faultable_share=0.0)
    points = sweep_tts(profile, [uniform_assignment(2, 3)], CLAMPING_GRID)
    assert [pt.pst_bound for pt in points] == [profile.pst_ideal] * len(CLAMPING_GRID)


@pytest.mark.parametrize("cells", [1, 1 << 24])
def test_sweep_does_not_depend_on_block_size(rng, monkeypatch, cells):
    profile = _random_profile(rng, 4, 90)
    assignments = [uniform_assignment(4, 3), _random_assignment(rng, 4, 91)]
    grid = log_p_grid(1e-6, 0.9, 333)
    default = sweep_tts(profile, assignments, grid)
    monkeypatch.setattr(qecc, "BLOCK_CELLS", cells)
    assert sweep_tts(profile, assignments, grid) == default


def test_sweep_memory_is_bounded(rng):
    # 2,000 gates x 10,000 points would be 160 MB in one float64 block
    profile = _random_profile(rng, 8, 2_300)
    assert 1_900 <= sum(g.faultable for g in profile.gates) <= 2_100
    assignment = _random_assignment(rng, 8, 2_301)
    grid = log_p_grid(1e-6, 0.5, qecc.MAX_GRID_POINTS)
    tracemalloc.start()
    try:
        points = sweep_tts(profile, [assignment], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == qecc.MAX_GRID_POINTS
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_density_matrix_oracle_matches_exhaustive_walk(rng):
    """The two exact oracles agree on random 2-qubit circuits of 3-8 gates,
    mirrored, under a two-distance assignment: the density-matrix channel
    and the walk over every error pattern."""
    params = ErrorModelParams()
    assignment = CodeAssignment("mixed", 2, (((0, 3), (2, 5)), ((0, 5),)))
    grid = (1e-3, 4e-3, 8e-3)
    for trial in range(10):
        ops = []
        for t in range(int(rng.integers(3, 9))):
            if rng.random() < 0.35:
                ops.append(GateOp("CNOT", (0, 1) if rng.random() < 0.5 else (1, 0), (), t))
            else:
                kind = ["H", "S", "T", "X", "Tdg"][int(rng.integers(5))]
                ops.append(GateOp(kind, (int(rng.integers(2)),), (), t))
        circuit = Circuit(2, tuple(ops), (0, 1))
        ideal = output_distribution(simulate(circuit), (0, 1))
        correct = max(ideal, key=ideal.get)
        exact, multi = density_matrix_pst(circuit, correct, "mirrored", [assignment],
                                          grid, params)
        for k, p in enumerate(grid):
            walk = exact_success_and_multi_mass(circuit, correct, assignment, p, params)
            assert (exact[0, k], multi[0, k]) == pytest.approx(walk, abs=1e-12), trial


# three points below p_th = 0.0057 and three above, up to the default p_max
DENSITY_GRID = (3e-4, 1e-3, 3e-3, 6e-3, 8e-3, 1e-2)


@pytest.mark.parametrize("mode", ["mirrored", "full-depolarizing"])
def test_pst_bound_against_density_matrix_oracle(default_compiled, mode):
    """On the default compiled circuit (607 faultable gates of 920), for
    every config of the default ladder: the bound is at most the exact PST
    of a density-matrix run under the same fault channel, and below it by
    at most the mass of two or more faults."""
    cfg = RunConfig()
    compiled, correct = default_compiled
    profile = run_campaign(compiled, correct, mode)
    assignments = ladder(profile, cfg.distance_configs, cfg.tau)
    params = ErrorModelParams(cfg.prefactor, cfg.threshold)
    exact, multi = density_matrix_pst(compiled, correct, mode, assignments,
                                      DENSITY_GRID, params)
    bound = np.array([[pst_bound(profile, a, p, params) for p in DENSITY_GRID]
                      for a in assignments])
    assert np.all(bound <= exact + 1e-10)
    assert np.all(exact - bound <= multi + 1e-10)
