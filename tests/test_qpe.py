import numpy as np
import pytest

from conftest import dense_circuit_unitary
from vdqec.circuits import Circuit
from vdqec.errors import ValidationError
from vdqec.qpe import QpeSpec, build_inverse_qft, build_qpe
from vdqec.sim import output_distribution, pst, simulate


def run_pst(circuit, correct):
    return pst(output_distribution(simulate(circuit), circuit.measured_qubits), correct)


def test_zero_phase():
    circuit, correct = build_qpe(QpeSpec(5, 0, 32))
    assert correct == "00000"
    assert run_pst(circuit, correct) == pytest.approx(1.0, abs=1e-9)


def test_half_phase():
    circuit, correct = build_qpe(QpeSpec(5, 1, 2))
    assert correct == "10000"
    assert run_pst(circuit, correct) == pytest.approx(1.0, abs=1e-9)


def test_default_phase_five_thirtyseconds():
    circuit, correct = build_qpe()
    assert correct == "00101"
    assert run_pst(circuit, correct) == pytest.approx(1.0, abs=1e-9)


def test_every_dyadic_phase_is_exact():
    for k in range(32):
        circuit, correct = build_qpe(QpeSpec(5, k, 32))
        assert run_pst(circuit, correct) == pytest.approx(1.0, abs=1e-9), k


def test_gate_count_and_layout_are_locked():
    circuit, _ = build_qpe()
    assert circuit.num_qubits == 6
    assert len(circuit.ops) == 26
    assert circuit.measured_qubits == (0, 1, 2, 3, 4)
    kinds = [op.kind for op in circuit.ops]
    assert kinds[0] == "X" and circuit.ops[0].qubits == (5,)
    assert kinds[1:6] == ["H"] * 5
    assert kinds[6:11] == ["ControlledPhase"] * 5
    # ladder: counting qubit k controls the target
    assert [op.qubits for op in circuit.ops[6:11]] == [(k, 5) for k in range(5)]
    assert [op.timestep for op in circuit.ops] == list(range(26))


def test_prep_is_unfaultable_and_iqft_is_faultable():
    circuit, _ = build_qpe()
    assert all(not op.faultable for op in circuit.ops[:11])
    assert all(op.faultable for op in circuit.ops[11:])


def test_target_idle_after_prep():
    circuit, _ = build_qpe()
    assert all(5 not in op.qubits for op in circuit.ops[11:])


def test_single_qubit_iqft_is_one_hadamard():
    c = build_inverse_qft((0,))
    assert [op.kind for op in c.ops] == ["H"]


def test_two_qubit_iqft_matches_dft_oracle():
    # circuit output is bit-reversed, so U_circuit = REV . F^dagger
    c = build_inverse_qft((0, 1))
    n = 4
    omega = np.exp(2j * np.pi / n)
    dft = np.array([[omega ** (j * k) for k in range(n)] for j in range(n)]) / 2.0
    rev = np.zeros((n, n))
    for j in range(n):
        r = ((j & 1) << 1) | (j >> 1)
        rev[r, j] = 1.0
    expected = rev @ dft.conj().T
    got = dense_circuit_unitary(c)
    assert np.max(np.abs(got - expected)) <= 1e-9


def test_iqft_undoes_qft(rng):
    iqft = build_inverse_qft((0, 1, 2, 3))
    # forward QFT = reversed adjoint of the inverse circuit
    from dataclasses import replace

    fwd_ops = []
    for t, op in enumerate(reversed(iqft.ops)):
        params = tuple(-p for p in op.params)
        fwd_ops.append(replace(op, params=params, timestep=t))
    qft = Circuit(4, tuple(fwd_ops), (0, 1, 2, 3))

    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    from vdqec.sim import StateVector

    state = StateVector(4, amps)
    roundtrip = simulate(iqft, simulate(qft, state))
    assert np.max(np.abs(roundtrip.amplitudes - amps)) <= 1e-9


def test_spec_validation():
    with pytest.raises(ValidationError):
        QpeSpec(5, 32, 32)
    with pytest.raises(ValidationError):
        QpeSpec(5, -1, 32)
    with pytest.raises(ValidationError):
        QpeSpec(5, 1, 0)
    with pytest.raises(ValidationError):
        build_inverse_qft(())
