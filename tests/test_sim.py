import ast
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_circuit_unitary
from vdqec import inject, sim
from vdqec.circuits import (
    GATE_SIGNATURES,
    Circuit,
    GateOp,
    circuit_digest,
    circuit_from_json,
    circuit_to_json,
)
from vdqec.errors import InvalidCircuitError, ValidationError
from vdqec.sim import (
    StateVector,
    apply_gate,
    gate_matrix,
    output_distribution,
    pst,
    rz_matrix,
    simulate,
    zero_state,
)


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_all_gate_matrices_are_unitary():
    for kind, (arity, nparams) in GATE_SIGNATURES.items():
        params = (0.37,) * nparams
        g = gate_matrix(kind, params)
        assert g.shape == (2**arity,) * 2
        assert np.max(np.abs(g.conj().T @ g - np.eye(2**arity))) <= 1e-12


def test_x_flips_zero():
    state = apply_gate(zero_state(1), GateOp("X", (0,)))
    assert np.allclose(state.amplitudes, [0, 1])


def test_h_makes_plus():
    state = apply_gate(zero_state(1), GateOp("H", (0,)))
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2)] * 2)


def test_cnot_flips_target():
    # |01> means qubit 0 = 1 (LSB convention), so index 1
    state = apply_gate(zero_state(2), GateOp("X", (0,)))
    state = apply_gate(state, GateOp("CNOT", (0, 1)))
    assert np.argmax(np.abs(state.amplitudes)) == 3


def test_s_and_t_match_rz():
    assert np.allclose(gate_matrix("S"), rz_matrix(np.pi / 2))
    assert np.allclose(gate_matrix("T"), rz_matrix(np.pi / 4))
    assert np.allclose(gate_matrix("Sdg"), rz_matrix(-np.pi / 2))


def test_empty_circuit_is_identity(rng):
    c = Circuit(3, (), (0, 1, 2))
    initial = random_state(rng, 3)
    out = simulate(c, initial)
    assert np.allclose(out.amplitudes, initial.amplitudes)


def test_double_hadamard_is_identity():
    c = Circuit(1, (GateOp("H", (0,)), GateOp("H", (0,), timestep=1)), (0,))
    out = simulate(c)
    assert np.allclose(out.amplitudes, [1, 0], atol=1e-12)


def test_simulate_matches_dense_oracle(rng):
    kinds = list(GATE_SIGNATURES)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ops = []
        for t in range(int(rng.integers(1, 13))):
            kind = kinds[int(rng.integers(len(kinds)))]
            arity, nparams = GATE_SIGNATURES[kind]
            if arity > n:
                kind, arity, nparams = "H", 1, 0
            qubits = tuple(rng.choice(n, size=arity, replace=False).tolist())
            params = tuple(rng.uniform(-np.pi, np.pi, size=nparams).tolist())
            ops.append(GateOp(kind, qubits, params, timestep=t))
        c = Circuit(n, tuple(ops), tuple(range(n)))
        initial = random_state(rng, n)
        expected = dense_circuit_unitary(c) @ initial.amplitudes
        got = simulate(c, initial).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(GATE_SIGNATURES)),
    theta=st.floats(-10, 10, allow_nan=False),
)
def test_gates_preserve_norm(seed, kind, theta):
    rng = np.random.default_rng(seed)
    arity, nparams = GATE_SIGNATURES[kind]
    state = random_state(rng, 3)
    qubits = tuple(rng.choice(3, size=arity, replace=False).tolist())
    op = GateOp(kind, qubits, (theta,) * nparams)
    out = apply_gate(state, op)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9


def test_simulation_is_bit_identical():
    c = Circuit(
        2,
        (
            GateOp("H", (0,)),
            GateOp("ControlledPhase", (0, 1), (0.7,), 1),
            GateOp("Rz", (1,), (1.1,), 2),
        ),
        (0, 1),
    )
    a = simulate(c).amplitudes
    b = simulate(c).amplitudes
    assert a.tobytes() == b.tobytes()


def test_output_distribution_point_mass():
    assert output_distribution(zero_state(1), (0,)) == {"0": 1.0}


def test_output_distribution_plus_state():
    state = apply_gate(zero_state(1), GateOp("H", (0,)))
    d = output_distribution(state, (0,))
    assert d == pytest.approx({"0": 0.5, "1": 0.5})


def test_output_distribution_marginalizes_bell():
    state = apply_gate(zero_state(2), GateOp("H", (0,)))
    state = apply_gate(state, GateOp("CNOT", (0, 1)))
    d = output_distribution(state, (0,))
    assert d == pytest.approx({"0": 0.5, "1": 0.5})


def test_output_distribution_sums_to_one(rng):
    state = random_state(rng, 4)
    d = output_distribution(state, (2, 0, 3))
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, measured", [
    (1, (0,)), (4, (2, 0, 3)), (4, (3, 1)), (7, (5, 2, 6)),
    (5, (4, 3, 2, 1, 0)), (9, tuple(range(8, -1, -1))), (10, (6, 3)),
])
def test_output_distribution_is_bitwise_a_plain_loop(rng, n, measured):
    """Each outcome's probability is the sum of the probabilities of the
    basis states that read it, added one at a time in index order, and an
    outcome of probability at most 1e-15 is left out. A plain loop that
    shares no code with the readout must give the same floats, bit for
    bit. Some amplitudes are 0 or about 1e-9, so that with every qubit
    measured some outcomes fall under the cut-off."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps[rng.random(2**n) < 0.2] = 0.0
    amps[rng.random(2**n) < 0.2] *= 1e-9
    state = StateVector(n, amps / np.linalg.norm(amps))
    acc = {}
    for i, z in enumerate(state.amplitudes.tolist()):
        key = "".join(str(i >> q & 1) for q in measured)
        acc[key] = acc.get(key, 0.0) + (z.real * z.real + z.imag * z.imag)
    expected = {key: p for key, p in acc.items() if p > 1e-15}
    if len(measured) == n > 1:
        assert len(expected) < len(acc)
    assert output_distribution(state, measured) == expected


@pytest.mark.parametrize("kind, qubits", [
    ("T", (2,)), ("Tdg", (0,)), ("Rz", (3,)), ("ControlledPhase", (1, 3)),
    ("ControlledPhase", (3, 0)),
])
@pytest.mark.parametrize("rows", [None, 5])
def test_phase_products_are_unfused(rng, kind, qubits, rows):
    """A phase e^{i theta} with a nonzero real and a nonzero imaginary part
    multiplies each amplitude as two rounded products and one sum per
    part, the arithmetic of a plain Python loop, on every SIMD level: a
    fused multiply-add would round the sum once and miss these floats in
    the last bit. Each state of a block gets the same floats."""
    n = 4
    params = (float(rng.uniform(0.1, 3.0)),) * GATE_SIGNATURES[kind][1]
    shape = (2**n,) if rows is None else (rows, 2**n)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    phase = complex(gate_matrix(kind, params)[-1, -1])
    assert phase.real and phase.imag
    got = sim._apply(amps, qubits, gate_matrix(kind, params))
    expected = amps.copy()
    for state in expected.reshape(-1, 2**n):
        for i, z in enumerate(state.tolist()):
            if all(i >> q & 1 for q in qubits):
                state[i] = complex(z.real * phase.real - z.imag * phase.imag,
                                   z.real * phase.imag + z.imag * phase.real)
    assert np.array_equal(got, expected)


def test_pst_reads_distribution():
    assert pst({"00": 1.0}, "00") == 1.0
    assert pst({"00": 0.25, "11": 0.75}, "11") == 0.75
    assert pst({"00": 0.25, "11": 0.75}, "01") == 0.0


def test_pst_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        pst({"00": 1.0}, "000")


def test_gateop_validation():
    with pytest.raises(InvalidCircuitError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(InvalidCircuitError):
        GateOp("H", (0, 1))
    with pytest.raises(InvalidCircuitError):
        GateOp("Rz", (0,))
    with pytest.raises(InvalidCircuitError):
        GateOp("Q", (0,))
    with pytest.raises(InvalidCircuitError, match="sequences of qubits"):
        GateOp("X", 5)
    with pytest.raises(InvalidCircuitError, match="sequences of qubits"):
        GateOp("Rz", (0,), 0.5)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidCircuitError):
            GateOp("Rz", (0,), (value,))
    GateOp("H", (0,), timestep=2**53 - 1)
    for t in (2**53, 10**400):
        with pytest.raises(InvalidCircuitError):
            GateOp("H", (0,), timestep=t)


def test_circuit_validation():
    with pytest.raises(InvalidCircuitError):
        Circuit(1, (GateOp("H", (1,)),), (0,))
    with pytest.raises(InvalidCircuitError):
        Circuit(2, (GateOp("H", (0,), timestep=1), GateOp("H", (0,), timestep=0)), (0,))
    with pytest.raises(InvalidCircuitError):
        Circuit(2, (), ())
    with pytest.raises(InvalidCircuitError):
        Circuit(2, (), (0, 0))


def test_apply_gate_rejects_out_of_range():
    with pytest.raises(InvalidCircuitError):
        apply_gate(zero_state(1), GateOp("CNOT", (0, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: zero_state(True), "num_qubits must be an integer, got True"),
    (lambda: zero_state(2.0), "num_qubits must be an integer, got 2.0"),
    (lambda: apply_gate(zero_state(2), GateOp("X", (-1,))),
     r"X touches qubit outside \[0, 2\): \(-1,\)"),
    (lambda: StateVector(True, np.array([1, 0])), "num_qubits must be an integer, got True"),
], ids=["zero-state-bool", "zero-state-float", "apply-gate-negative-qubit",
        "state-vector-bool"])
def test_registers_are_checked_by_the_circuit_model(call, message):
    """zero_state, apply_gate and StateVector check the register size and
    a gate's qubits by the circuit model's rule, circuits.check_layout."""
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("measured", [(1.7,), (1.0,), ("1",), (True,)])
def test_measured_qubits_are_checked_by_the_circuit_model(measured):
    """output_distribution refuses the measured qubits that Circuit
    refuses, by the one readout rule, circuits.check_measured: a float, a
    string or a bool is refused, not coerced."""
    for call in (lambda: output_distribution(zero_state(2), measured),
                 lambda: Circuit(2, (), measured)):
        with pytest.raises(ValidationError, match="measured qubit must be an integer"):
            call()


def test_circuit_json_roundtrip():
    c = Circuit(
        2,
        (
            GateOp("H", (0,)),
            GateOp("ControlledPhase", (0, 1), (0.25,), 1, faultable=False),
        ),
        (1, 0),
    )
    doc = json.loads(json.dumps(circuit_to_json(c)))
    assert circuit_from_json(doc) == c
    assert circuit_digest(circuit_from_json(doc)) == circuit_digest(c)


def test_digest_changes_with_circuit():
    c1 = Circuit(1, (GateOp("H", (0,)),), (0,))
    c2 = Circuit(1, (GateOp("X", (0,)),), (0,))
    assert circuit_digest(c1) != circuit_digest(c2)


def test_kernel_and_campaign_make_no_blas_product():
    """The gate kernel and both campaign sweeps sum elementwise products in
    a fixed order. A BLAS product (matmul, dot, tensordot, or an einsum
    that optimize hands to tensordot) rounds as the host's BLAS kernel
    does, which would make the artifact bytes depend on the host."""
    banned = {"dot", "vdot", "tensordot", "matmul", "inner", "linalg"}
    for module in (sim, inject):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), module.__name__
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            assert name not in banned, (module.__name__, name)
            assert getattr(node, "arg", None) != "optimize", module.__name__
