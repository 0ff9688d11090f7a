import ast
import copy
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdqec.circuits import GATE_SIGNATURES, MAX_QUBITS, circuit_from_json
from vdqec.cli import _config, build_parser, main, parse_theta
from vdqec.config import RunConfig
from vdqec.errors import ValidationError
from vdqec.inject import run_campaign
from vdqec.pipeline import circuit_bytes, config_from_json, run_pipeline, write_atomic
from vdqec.profiles import profile_from_json, profile_to_json
from vdqec.qpe import QpeSpec, build_qpe
from vdqec.qecc import assignment_from_json

QUICK_CONFIG = {
    "synthesis_epsilon": 0.25,
    "max_length": 16,
    "p_points": 8,
}


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_parse_theta_forms():
    assert parse_theta("0.5") == 0.5
    assert parse_theta("pi/3") == pytest.approx(math.pi / 3)
    assert parse_theta("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_theta("5pi/32") == pytest.approx(5 * math.pi / 32)
    assert parse_theta("2*pi/3") == pytest.approx(2 * math.pi / 3)
    with pytest.raises(ValidationError):
        parse_theta("three")


def test_qpe_zero_phase(tmp_path, capsys):
    assert run("qpe", "--counting", "5", "--phase-num", "0", "--phase-den", "32") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["correct_bitstring"] == "00000"


def test_qpe_rejects_zero_denominator(capsys):
    assert run("qpe", "--phase-den", "0") == 2
    assert "phase_den" in capsys.readouterr().err


def test_qpe_compile_flag_removes_rotations(tmp_path):
    out = tmp_path / "compiled.json"
    assert run("qpe", "--compile", "0.25", "--max-length", "16", "-o", str(out)) == 0
    doc = read_json(out)
    kinds = {op["kind"] for op in doc["circuit"]["ops"]}
    assert "Rz" not in kinds and "ControlledPhase" not in kinds


def test_synth_reports_sequence(capsys):
    assert run("synth", "--theta", "pi/2", "--epsilon", "1e-9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sequence"] == "S"
    assert doc["converged"] is True


def test_simulate_reports_pst(tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert run("qpe", "-o", str(circ)) == 0
    assert run("simulate", "--circuit", str(circ)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pst"] == pytest.approx(1.0, abs=1e-9)
    assert doc["distribution"]["00101"] == pytest.approx(1.0, abs=1e-9)


def test_inject_then_heatmap_and_assign(tmp_path, capsys):
    circ = tmp_path / "c.json"
    prof = tmp_path / "p.json"
    assert run("qpe", "-o", str(circ)) == 0
    assert run("inject", "--circuit", str(circ), "-o", str(prof)) == 0
    assert run(
        "heatmap", "--profile", str(prof), "--circuit", str(circ),
        "--out-csv", str(tmp_path / "h.csv"), "--out-svg", str(tmp_path / "h.svg"),
    ) == 0
    assert (tmp_path / "h.csv").read_bytes().startswith(b"qubit,timestep")
    assert run("assign", "--profile", str(prof), "--d-low", "3", "--d-high", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "d=3,5"


def test_stale_profile_is_refused(tmp_path, capsys):
    circ_a = tmp_path / "a.json"
    circ_b = tmp_path / "b.json"
    prof = tmp_path / "p.json"
    assert run("qpe", "-o", str(circ_a)) == 0
    assert run("qpe", "--phase-num", "3", "-o", str(circ_b)) == 0
    assert run("inject", "--circuit", str(circ_a), "-o", str(prof)) == 0
    code = run(
        "tts", "--profile", str(prof), "--circuit", str(circ_b),
        "--out-csv", str(tmp_path / "s.csv"),
    )
    assert code == 2
    assert "stale" in capsys.readouterr().err


def test_missing_profile_is_exit_2(tmp_path, capsys):
    code = run(
        "tts", "--profile", str(tmp_path / "nope.json"),
        "--out-csv", str(tmp_path / "s.csv"),
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_tts_writes_sweep(tmp_path):
    circ = tmp_path / "c.json"
    prof = tmp_path / "p.json"
    assert run("qpe", "-o", str(circ)) == 0
    assert run("inject", "--circuit", str(circ), "-o", str(prof)) == 0
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "curves.svg"
    assert run(
        "tts", "--profile", str(prof), "--p-points", "6",
        "--out-csv", str(csv_path), "--out-svg", str(svg_path),
    ) == 0
    lines = csv_path.read_bytes().split(b"\r\n")
    assert lines[0] == b"config,p,latency_cycles,pst_bound,tts"
    # 5 default configs x 6 grid points (+ header + trailing newline)
    assert len([ln for ln in lines if ln]) == 31


def test_tts_with_rates_past_float_range(tmp_path):
    circ = tmp_path / "c.json"
    prof = tmp_path / "p.json"
    assert run("qpe", "-o", str(circ)) == 0
    assert run("inject", "--circuit", str(circ), "-o", str(prof)) == 0
    csv_path = tmp_path / "sweep.csv"
    assert run(
        "tts", "--profile", str(prof), "--p-points", "3", "--threshold", "1e-300",
        "--out-csv", str(csv_path), "--out-svg", str(tmp_path / "curves.svg"),
    ) == 0
    rows = [ln.split(b",") for ln in csv_path.read_bytes().split(b"\r\n")[1:] if ln]
    assert len(rows) == 15
    assert all(float(r[-2]) == 0.0 and math.isinf(float(r[-1])) for r in rows)


def test_pipeline_writes_all_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))
    out = tmp_path / "run"
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(out)) == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "circuit.json", "compiled.json", "profile.json", "heatmap.csv",
        "heatmap.svg", "sweep.csv", "curves.svg", "manifest.json",
        "assignment_d3.json", "assignment_d3_5.json",
    } <= names
    assert not any(n.endswith(".partial") for n in names)
    manifest = read_json(out / "manifest.json")
    assert set(manifest["artifacts"]) == names - {"manifest.json"}


def test_failed_write_leaves_no_partial_file(tmp_path):
    """A write that fails, in the rename (the name is taken by a directory)
    or in the write itself, removes its .partial file."""
    taken = tmp_path / "DIR"
    taken.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(taken), b"{}")
    assert [p.name for p in tmp_path.iterdir()] == ["DIR"]
    with pytest.raises(TypeError):
        write_atomic(str(tmp_path / "out.json"), "not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["DIR"]


# sha256 of manifest.json for five reference configs: the default run, the
# criterion-9 run (mirrored campaign, 6 qubits), the qpe8-full benchmark
# config at seed 1 (full-depolarizing campaign, 9 qubits), the
# qpe5-mirrored benchmark config at seed 1 (eps 0.03 synthesis, mirrored
# campaign on long sequences) and QPE with 11 counting qubits (mirrored
# campaign, 12 qubits, the largest register). Every one takes the adjoint
# sweep. A change that moves artifact bytes on purpose updates the digests
# and records why
LOCKED_MANIFESTS = {
    "default": ({}, "9a74fe14c474bb67d907b86f5cbc59f88003b9c42308d6ccd752a925333431b7"),
    "criterion-9": (
        {"synthesis_epsilon": 0.12, "max_length": 25, "p_points": 25},
        "a22a6352f0faaf19def1153c7f7a799333971598925fccb2028babe5dd91caf4",
    ),
    "qpe8-full": (
        {"counting_qubits": 8, "phase_num": 69, "phase_den": 256,
         "synthesis_epsilon": 0.1, "injection_mode": "full-depolarizing"},
        "538ebde78890fa61ca4cc900ca6997d58a582d5661a21cdfaa3fdf04bfadc04d",
    ),
    "qpe5-mirrored": (
        {"counting_qubits": 5, "phase_num": 9, "phase_den": 32,
         "synthesis_epsilon": 0.03, "injection_mode": "mirrored"},
        "f99df81380c74b58aa802b79fa792e594dddfe22340546ac790dcd4f10fcb439",
    ),
    "qpe11-mirrored": (
        {"counting_qubits": 11, "phase_num": 3, "phase_den": 2048,
         "synthesis_epsilon": 0.1, "injection_mode": "mirrored"},
        "71e7751fd495491e5810ab36878040fa789bfe28ab9660302ee8a4cca03b7a2a",
    ),
}


@pytest.mark.parametrize("config, digest", list(LOCKED_MANIFESTS.values()),
                         ids=list(LOCKED_MANIFESTS))
def test_pipeline_manifest_is_locked(tmp_path, config, digest):
    run_pipeline(config_from_json(config), str(tmp_path))
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


def _dispatch_levels():
    """Values of NPY_DISABLE_CPU_FEATURES that step numpy's SIMD dispatch
    down: none disabled, the AVX-512 groups disabled, and every dispatched
    group disabled. The names come from numpy's own dispatch list, since
    numpy refuses to disable a baseline group; a level that disables
    nothing new is left out."""
    from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatch

    avx512 = [n for n in dispatch if "AVX512" in n or n == "X86_V4"]
    return list(dict.fromkeys(["", " ".join(avx512), " ".join(dispatch)]))


@pytest.mark.parametrize("name", ["qpe8-full", "criterion-9"])
def test_locked_manifest_does_not_depend_on_the_host(tmp_path, monkeypatch, name):
    """The manifest is the locked one at every numpy SIMD dispatch level
    and, for qpe8-full, under OpenBLAS's Prescott kernel (SSE3, which
    every x86-64 runs): the campaign makes no BLAS product, no fused
    complex product and no vectorised |amp|^2 or power, whose rounding
    would depend on the host. numpy reads NPY_DISABLE_CPU_FEATURES and
    OpenBLAS reads OPENBLAS_CORETYPE when they load, so each setting gets
    a child process of its own."""
    config, digest = LOCKED_MANIFESTS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    runs = [(level, None) for level in _dispatch_levels()]
    if name == "qpe8-full":
        runs.append(("", "Prescott"))
    for i, (disabled, coretype) in enumerate(runs):
        monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        if disabled:
            monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", disabled)
        if coretype:
            monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        out = tmp_path / f"run{i}"
        result = subprocess.run(
            [sys.executable, "-m", "vdqec.cli", "pipeline",
             "--config", str(cfg), "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        manifest = (out / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == digest, (disabled, coretype)


def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.1}))
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "x")) == 2
    assert "epsilon" in capsys.readouterr().err


def test_tts_and_assign_reproduce_the_pipeline_ladder(tmp_path):
    """The stage commands, given the config's flags and each other's
    outputs, write the pipeline's artifacts byte for byte."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"synthesis_epsilon": 0.12, "max_length": 25, "p_points": 25}
    ))
    out = tmp_path / "run"
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(out)) == 0
    mine = tmp_path / "mine"
    mine.mkdir()
    circ, compiled, prof = (str(mine / n) for n in
                            ("circuit.json", "compiled.json", "profile.json"))
    assert run("qpe", "-o", circ) == 0
    assert run("compile", "--circuit", circ, "--epsilon", "0.12",
               "--max-length", "25", "-o", compiled) == 0
    assert run("inject", "--circuit", compiled, "-o", prof) == 0
    assert run(
        "heatmap", "--profile", prof, "--circuit", compiled,
        "--out-csv", str(mine / "heatmap.csv"), "--out-svg", str(mine / "heatmap.svg"),
    ) == 0
    assert run(
        "tts", "--profile", prof, "--p-points", "25",
        "--out-csv", str(mine / "sweep.csv"), "--out-svg", str(mine / "curves.svg"),
    ) == 0
    assert run("assign", "--profile", prof, "-o", str(mine / "assignment_d3_5.json")) == 0
    for name in ("circuit.json", "compiled.json", "profile.json", "heatmap.csv",
                 "heatmap.svg", "sweep.csv", "curves.svg", "assignment_d3_5.json"):
        assert (mine / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("kwargs", [
    {"counting_qubits": 0},
    {"counting_qubits": "3"},
    {"counting_qubits": True},
    {"phase_den": 0},
    {"synthesis_epsilon": float("nan")},
    {"synthesis_epsilon": float("inf")},
    {"max_length": 0},
    {"max_length": 35},
    {"prefactor": 0.0},
    {"prefactor": float("nan")},
    {"threshold": -1.0},
    {"distance_configs": ((4,),)},
    {"distance_configs": (3,)},
    {"distance_configs": ((5, 3),)},
    {"p_min": 0.0},
    {"p_points": 1},
    {"tau": 1.5},
    {"include_resize": 1},
    {"p_points": 10**7},
    {"prefactor": 10**400},
    {"distance_configs": ((3,), (3,))},
    {"distance_configs": ((2**53 + 1,),)},
    {"distance_configs": tuple((d,) for d in range(3, 37, 2))},
    {"distance_configs": ()},
    {"tau": float("nan")},
])
def test_run_config_rejects_bad_values_at_construction(kwargs):
    with pytest.raises(ValidationError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("function, param, field", [
    ("inject.enumerate_sites", "mode", "injection_mode"),
    ("inject.run_campaign", "mode", "injection_mode"),
    ("qecc.assign_two_distance", "tau", "tau"),
    ("qecc.latency", "include_resize", "include_resize"),
    ("qecc.sweep_tts", "include_resize", "include_resize"),
    ("qpe.QpeSpec", "counting_qubits", "counting_qubits"),
    ("qecc.ErrorModelParams", "threshold", "threshold"),
    ("synth.approximate_rz", "max_length", "max_length"),
    ("synth.compile_circuit", "max_length", "max_length"),
])
def test_library_defaults_are_run_config_defaults(function, param, field):
    """A library default that a RunConfig field also sets is that field's
    default, so each default has one home."""
    module, name = function.split(".")
    obj = getattr(importlib.import_module(f"vdqec.{module}"), name)
    default = inspect.signature(obj).parameters[param].default
    assert default == getattr(RunConfig(), field)


@pytest.mark.parametrize("function, args", [
    ("synth.approximate_rz", ("1.0", 0.1, 5)),
    ("synth.approximate_rz", (True, 0.1, 5)),
    ("qpe.build_inverse_qft", ((0.5, 1),)),
    ("qpe.build_inverse_qft", (("0", 1),)),
    ("qpe.QpeSpec", ("3", 1, 8)),
    ("qpe.QpeSpec", (3, 1.0, 8)),
    ("qecc.ErrorModelParams", ("0.03", 1)),
    ("qecc.check_tau", ("x",)),
    ("qecc.log_p_grid", (1e-5, 1e-2, 2.5)),
    ("qecc.time_to_solution", ("5", 0.5)),
    ("qecc.logical_error_rate", ("x", 3)),
    ("qecc.uniform_assignment", ("2", 3)),
], ids=str)
def test_library_arguments_are_checked_by_type(function, args):
    """The library's entry points check their numbers with as_int and
    as_real, as RunConfig checks its fields: a string, a bool or a float
    where an int belongs is refused with a ValidationError, not coerced
    and not left to fail as a bare TypeError."""
    module, name = function.split(".")
    fn = getattr(importlib.import_module(f"vdqec.{module}"), name)
    with pytest.raises(ValidationError, match="must be an? (integer|real number), got"):
        fn(*args)


CIRCUIT_1Q = {"num_qubits": 1, "measured_qubits": [0]}
QPE_2Q = json.loads(circuit_bytes(*build_qpe(QpeSpec(2, 1, 4))))
PROFILE_1Q = {
    "circuit_digest": "0" * 64, "num_qubits": 1, "mode": "mirrored",
    "pst_ideal": 1.0, "records": [], "gates": [],
}
# a document nested deeper than the JSON reader can recurse, written as is
NESTED = '{"a":' * 100_000 + "1" + "}" * 100_000


@pytest.mark.parametrize("doc, argv", [
    ([1, 2], ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({"counting_qubits": "3"}, ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "H", "qubits": [0], "timestep": "x"}]},
     ["simulate", "--circuit", "{in}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "Rz", "qubits": [0], "params": [float("nan")]}]},
     ["compile", "--circuit", "{in}", "--epsilon", "0.1", "--max-length", "4"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": k, "qubits": [0], "timestep": 0} for k in "HTH"]},
     ["inject", "--circuit", "{in}", "--bitstring", "0"]),
    (None, ["qpe", "-o", "{out}/missing_dir/x.json"]),
    (None, ["synth", "--theta", "nan", "--epsilon", "0.1"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "X", "qubits": [0.9]}]},
     ["simulate", "--circuit", "{in}"]),
    ({**CIRCUIT_1Q, "num_qubits": 1.7, "ops": []}, ["simulate", "--circuit", "{in}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "X", "qubits": [0], "faultable": "false"}]},
     ["simulate", "--circuit", "{in}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "H", "qubits": [0], "timestep": float("inf")}]},
     ["simulate", "--circuit", "{in}"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], float("inf"), True, 1.0, 1.0, 0]]},
     ["assign", "--profile", "{in}"]),
    ({**PROFILE_1Q, "records": [[2.5, "X", 0.5, 0.5]]}, ["assign", "--profile", "{in}"]),
    (None, ["synth", "--theta=pi/0", "--epsilon", "0.1"]),
    (None, ["synth", "--theta=.pi", "--epsilon", "0.1"]),
    (None, ["synth", "--theta=-.pi", "--epsilon", "0.1"]),
    ({**PROFILE_1Q, "mode": ["x"], "circuit_digest": 12,
      "gates": [[0, 7, [0], 0, True, 1.0, 1.0, 0]]},
     ["heatmap", "--profile", "{in}", "--out-csv", "{out}.csv", "--out-svg", "{out}.svg"]),
    ({**PROFILE_1Q, "pst_ideal": 5.0, "records": [[0, "XYZ", 0.5, 0.1]],
      "gates": [[0, "H", [3], 0, True, 0.1, 0.1, 1]]},
     ["assign", "--profile", "{in}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "X", "qubits": [0], "timestep": -2}]},
     ["inject", "--circuit", "{in}", "--bitstring", "1"]),
    ({**PROFILE_1Q, "gates": [[0, "X", [0], -2, True, 1.0, 1.0, 0]]},
     ["heatmap", "--profile", "{in}", "--out-csv", "{out}.csv", "--out-svg", "{out}.svg"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "H", "qubits": [0]}]},
     ["compile", "--circuit", "{in}", "--epsilon=-5"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "H", "qubits": [0]}]},
     ["compile", "--circuit", "{in}", "--epsilon", "0.1", "--max-length", "0"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["tts", "--profile", "{in}", "--configs", "3", "3", "--out-csv", "{out}.csv"]),
    ({**QPE_2Q, "correct_bitstring": 5}, ["simulate", "--circuit", "{in}"]),
    ({**QPE_2Q, "correct_bitstring": 5}, ["inject", "--circuit", "{in}"]),
    ({**QPE_2Q, "correct_bitstring": ["0"]},
     ["compile", "--circuit", "{in}", "--epsilon", "0.1", "--max-length", "8"]),
    ({**QPE_2Q, "correct_bitstring": "zz"},
     ["compile", "--circuit", "{in}", "--epsilon", "0.1", "--max-length", "8"]),
    ({**QPE_2Q, "correct_bitstring": "1"},
     ["compile", "--circuit", "{in}", "--epsilon", "0.1", "--max-length", "8"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["tts", "--profile", "{in}", "--configs", str(10**400 + 1), "--out-csv", "{out}.csv"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["assign", "--profile", "{in}", "--d-high", str(2**53 + 1)]),
    ({**QUICK_CONFIG, "distance_configs": [[3, 2**53 + 1]]},
     ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["tts", "--profile", "{in}", "--configs", *map(str, range(3, 37, 2)),
      "--out-csv", "{out}.csv"]),
    ({**QUICK_CONFIG, "distance_configs": [[d] for d in range(3, 37, 2)]},
     ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({**CIRCUIT_1Q, "ops": [{"kind": "H", "qubits": [0], "timestep": 10**400}]},
     ["inject", "--circuit", "{in}", "--bitstring", "0"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 10**400, False, 1.0, 1.0, 0]]},
     ["heatmap", "--profile", "{in}", "--out-csv", "{out}.csv", "--out-svg", "{out}.svg"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["tts", "--profile", "{in}", "--configs", "3", "5", "--tau", "7", "--out-csv", "{out}.csv"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["tts", "--profile", "{in}", "--configs", "3", "5", "--tau", "nan", "--out-csv", "{out}.csv"]),
    ({**QUICK_CONFIG, "distance_configs": []},
     ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({**PROFILE_1Q, "gates": [[0, "H", [0], 1, False, 1.0, 1.0, 0],
                              [1, "H", [0], 0, False, 1.0, 1.0, 0]]},
     ["assign", "--profile", "{in}"]),
    (NESTED, ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    (NESTED, ["simulate", "--circuit", "{in}"]),
    (NESTED, ["assign", "--profile", "{in}"]),
    ({**QUICK_CONFIG, "schema_version": True},
     ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
    ({**QUICK_CONFIG, "schema_version": 1.0},
     ["pipeline", "--config", "{in}", "--out-dir", "{out}"]),
], ids=["config-list", "config-str-int", "timestep-str", "rz-nan", "shared-cell",
        "missing-dir", "theta-nan", "qubit-float", "num-qubits-float",
        "faultable-str", "timestep-inf", "profile-timestep-inf", "record-index-float",
        "theta-pi-over-0", "theta-dot-pi", "theta-minus-dot-pi",
        "profile-mode-digest-kind", "profile-qubit-record-pst",
        "timestep-negative", "profile-timestep-negative", "compile-epsilon-negative",
        "compile-max-length-0", "tts-configs-repeat", "bitstring-int-simulate",
        "bitstring-int-inject", "bitstring-list-compile", "bitstring-bad-compile",
        "bitstring-short-compile", "tts-distance-past-float", "assign-distance-2**53",
        "pipeline-distance-2**53", "tts-17-configs", "pipeline-17-configs",
        "timestep-past-float", "profile-timestep-past-float", "tts-tau-7-uniform",
        "tts-tau-nan-uniform", "pipeline-no-configs", "profile-timestep-decreasing",
        "config-nested", "circuit-nested", "profile-nested", "config-version-true",
        "config-version-float"])
def test_malformed_input_exits_2_without_traceback(tmp_path, doc, argv):
    paths = {"in": str(tmp_path / "in.json"), "out": str(tmp_path / "out")}
    if doc is not None:
        (tmp_path / "in.json").write_text(doc if doc is NESTED else json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "vdqec.cli", *(a.format_map(paths) for a in argv)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == (["in.json"] if doc is not None else [])


@pytest.mark.parametrize("argv", [
    ["inject", "--circuit", "c.json", "-o", "{missing}/p.json"],
    ["compile", "--circuit", "c.json", "--epsilon", "0.1", "-o", "{missing}/c.json"],
    ["heatmap", "--profile", "p.json", "--out-csv", "{tmp}/h.csv",
     "--out-svg", "{missing}/h.svg"],
    ["tts", "--profile", "p.json", "--out-csv", "{tmp}/s.csv",
     "--out-svg", "{missing}/s.svg"],
    ["tts", "--profile", "p.json", "--out-csv", "{missing}/s.csv"],
    ["inject", "--circuit", "c.json", "-o", "{dir}"],
    ["qpe", "--compile", "0.1", "-o", "{dir}"],
    ["compile", "--circuit", "c.json", "--epsilon", "0.1", "-o", "{dir}/"],
    ["heatmap", "--profile", "p.json", "--out-csv", "{dir}", "--out-svg", "{tmp}/h.svg"],
    ["tts", "--profile", "p.json", "--out-csv", "{tmp}/s.csv", "--out-svg", "{dir}"],
], ids=["inject", "compile", "heatmap-svg", "tts-svg", "tts-csv", "inject-dir",
        "qpe-dir", "compile-dir", "heatmap-csv-dir", "tts-svg-dir"])
def test_missing_output_directory_exits_2_before_any_stage(tmp_path, monkeypatch,
                                                           capsys, argv):
    """An output path whose directory is missing, or that names a
    directory, is refused before any input is read or any stage runs, so
    no campaign is lost and no CSV is left without its SVG."""
    def never(*args, **kwargs):
        raise AssertionError("a stage ran before the output paths were checked")

    for target in ("vdqec.inject.run_campaign", "vdqec.pipeline._read_circuit",
                   "vdqec.pipeline._read_profile", "vdqec.pipeline.build_qpe"):
        monkeypatch.setattr(target, never)
    (tmp_path / "dir").mkdir()
    paths = {"tmp": str(tmp_path), "missing": str(tmp_path / "no" / "such"),
             "dir": str(tmp_path / "dir")}
    assert run(*(a.format_map(paths) for a in argv)) == 2
    err = capsys.readouterr().err
    want = "is a directory" if "{dir}" in " ".join(argv) else "does not exist"
    assert err.startswith("error: output ") and want in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


# runs in a fresh interpreter: each case of the JSON list in argv[1] through
# main, then which heavy modules are loaded after it
STARTUP_CHILD = """
import contextlib, io, json, sys
from vdqec.cli import main

heavy = ["numpy", "_hashlib", "vdqec.sim", "vdqec.synth", "vdqec.qpe",
         "vdqec.inject", "vdqec.qecc", "vdqec.render", "vdqec.pipeline"]
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append({"code": code, "error": err.getvalue(),
                "loaded": [m for m in heavy if m in sys.modules]})
print(json.dumps(out))
"""


def test_light_commands_load_no_numerics(tmp_path):
    """--version, --help, argument errors and a refused output path load
    neither numpy nor any stage module, so a process pays at start-up only
    for what its command runs. None of the real runs, qpe without
    --compile, assign, heatmap and tts, loads numpy, the simulator,
    synthesis or the campaign."""
    circuit, correct = build_qpe(QpeSpec(3, 1, 8))
    (tmp_path / "c.json").write_bytes(circuit_bytes(circuit, correct))
    profile = run_campaign(circuit, correct)
    (tmp_path / "p.json").write_text(json.dumps(profile_to_json(profile)))
    paths = {"tmp": str(tmp_path), "missing": str(tmp_path / "no" / "such" / "a.json")}
    light = [["--version"], ["--help"], ["tts", "--bogus"], ["assign"],
             ["assign", "--profile", "p.json", "-o", "{missing}"]]
    runs = [
        ["qpe", "-o", "{tmp}/q.json"],
        ["assign", "--profile", "{tmp}/p.json", "--circuit", "{tmp}/c.json",
         "-o", "{tmp}/a.json"],
        ["heatmap", "--profile", "{tmp}/p.json", "--out-csv", "{tmp}/h.csv",
         "--out-svg", "{tmp}/h.svg"],
        ["tts", "--profile", "{tmp}/p.json", "--circuit", "{tmp}/c.json",
         "--out-csv", "{tmp}/s.csv", "--out-svg", "{tmp}/s.svg"],
    ]
    cases = [[a.format_map(paths) for a in argv] for argv in light + runs]
    result = subprocess.run([sys.executable, "-c", STARTUP_CHILD, json.dumps(cases)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [c["code"] for c in doc] == [0, 0, 2, 2, 2, 0, 0, 0, 0], doc
    assert "output directory does not exist" in doc[4]["error"]
    assert [c["loaded"] for c in doc[:5]] == [[]] * 5
    numerics = {"numpy", "vdqec.sim", "vdqec.synth", "vdqec.inject"}
    for case in doc[5:8]:
        assert numerics.isdisjoint(case["loaded"]), case
    assert "numpy" not in doc[8]["loaded"]
    assert numerics.isdisjoint(doc[8]["loaded"]), doc[8]
    assert (tmp_path / "h.svg").exists() and (tmp_path / "s.svg").exists()


def test_resweep_commands_load_no_numpy_or_openssl(tmp_path):
    """tts and assign on a saved profile, without --circuit, take no
    digest: they load neither numpy nor OpenSSL's _hashlib, which hashlib
    loads and only a circuit digest or a manifest needs."""
    circuit, correct = build_qpe(QpeSpec(3, 1, 8))
    (tmp_path / "p.json").write_text(json.dumps(profile_to_json(run_campaign(circuit, correct))))
    cases = [["tts", "--profile", str(tmp_path / "p.json"), "--out-csv", str(tmp_path / "s.csv"),
              "--out-svg", str(tmp_path / "s.svg")],
             ["assign", "--profile", str(tmp_path / "p.json"), "-o", str(tmp_path / "a.json")]]
    result = subprocess.run([sys.executable, "-c", STARTUP_CHILD, json.dumps(cases)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [c["code"] for c in doc] == [0, 0], doc
    for case in doc:
        assert {"numpy", "_hashlib"}.isdisjoint(case["loaded"]), case


# every name the package root exports, by the submodule that defines it
PACKAGE_EXPORTS = {
    "errors": ["AssignmentError", "CampaignError", "CompileError",
               "InvalidCircuitError", "StaleCacheError", "ValidationError",
               "VdqecError"],
    "circuits": ["Circuit", "GateOp", "circuit_digest", "circuit_from_json",
                 "circuit_to_json"],
    "sim": ["StateVector", "apply_gate", "gate_matrix", "output_distribution",
            "pst", "rz_matrix", "simulate", "zero_state"],
    "synth": ["ApproxReport", "approximate_rz", "compile_circuit", "dist",
              "sequence_unitary"],
    "qpe": ["QpeSpec", "build_inverse_qft", "build_qpe"],
    "profiles": ["FaultSite", "SensitivityProfile", "SensitivityRecord",
                 "profile_from_json", "profile_to_json"],
    "inject": ["enumerate_sites", "run_campaign"],
    "qecc": ["CodeAssignment", "ErrorModelParams", "TtsPoint",
             "assign_two_distance", "assignment_from_json", "assignment_to_json",
             "distance_config", "ladder", "latency", "log_p_grid",
             "logical_error_rate", "pst_bound", "sweep_tts", "time_to_solution",
             "uniform_assignment"],
    "config": ["RunConfig"],
    "pipeline": ["run_pipeline"],
}


def test_package_root_resolves_every_export():
    """Each public name resolves to the module that defines it, its one
    home, which is the module the package root maps it to."""
    import importlib

    import vdqec

    names = sorted(n for group in PACKAGE_EXPORTS.values() for n in group)
    assert len(names) == 52
    for module, group in PACKAGE_EXPORTS.items():
        defining = importlib.import_module(f"vdqec.{module}")
        for name in group:
            value = getattr(vdqec, name)
            assert value is getattr(defining, name), name
            assert value.__module__ == defining.__name__, name
    assert sorted(vdqec.__all__) == names
    assert set(names) <= set(dir(vdqec))
    with pytest.raises(AttributeError):
        vdqec.no_such_name
    from vdqec import (  # noqa: F401  the README's Library block
        build_qpe, compile_circuit, run_campaign, ladder, sweep_tts, log_p_grid,
    )


# (module, name) pairs that a src/vdqec module imports from a sibling and
# does not read itself
UNREAD_IMPORTS = {
    # perfbench/traced.py --micro imports circuit_from_json from vdqec.sim
    ("sim", "circuit_from_json"),
}


def test_modules_import_only_what_they_read():
    """No module re-exports a sibling's names: every name a src/vdqec
    module (the package root aside) imports from a sibling is read in that
    module, so each name has one home."""
    import vdqec

    unread = set()
    for path in sorted(Path(vdqec.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                unread |= {(path.stem, alias.asname or alias.name)
                           for alias in node.names
                           if (alias.asname or alias.name) not in read}
    assert unread == UNREAD_IMPORTS


# the modules that tts, assign, heatmap and qpe without --compile run
NUMPY_FREE_MODULES = ("qecc", "profiles", "circuits", "render", "config", "qpe", "pipeline")


def test_numpy_free_modules_import_no_numpy():
    """None of NUMPY_FREE_MODULES imports numpy, at module level or inside
    a function, so the commands that run only them cannot start loading
    it unnoticed."""
    import vdqec

    for name in NUMPY_FREE_MODULES:
        path = Path(vdqec.__file__).parent / f"{name}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, name


def test_functions_read_every_parameter():
    """Every parameter of every function and lambda in src/vdqec is read in
    its body. The one exception is the `config` of the pipeline's command
    dispatch: every cmd_* takes (args, config), and cmd_simulate and
    cmd_heatmap read no config."""
    import vdqec

    unread = set()
    for path in sorted(Path(vdqec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name, a = getattr(fn, "name", "<lambda>"), fn.args
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for param in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if param is None or param.arg in read:
                    continue
                if (path.stem, param.arg) == ("pipeline", "config") and name.startswith("cmd_"):
                    continue
                unread.add((path.stem, name, param.arg))
    assert unread == set()


# one valid document per loader; the property below mutates them
LOADER_DOCS = {
    circuit_from_json: {
        "num_qubits": 2, "measured_qubits": [0, 1], "ops": [
            {"kind": "H", "qubits": [0], "params": [], "timestep": 0, "faultable": True},
            {"kind": "Rz", "qubits": [1], "params": [0.5], "timestep": 1},
            {"kind": "CNOT", "qubits": [0, 1], "timestep": 2, "faultable": False},
        ],
    },
    profile_from_json: {
        **PROFILE_1Q, "num_qubits": 2,
        "records": [[0, "X", 0.5, 0.5], [1, "ZZ", 0.25, 0.25]],
        "gates": [[0, "H", [0], 0, True, 0.5, 0.5, 1],
                  [1, "CNOT", [0, 1], 1, True, 0.25, 0.25, 1]],
    },
    assignment_from_json: {
        "label": "d=3,5", "num_qubits": 2, "schedules": [[[0, 3], [2, 5]], [[0, 3]]],
    },
    config_from_json: {
        "schema_version": 1, "counting_qubits": 3, "synthesis_epsilon": 0.1,
        "max_length": 10, "injection_mode": "mirrored", "distance_configs": [[3], [3, 5]],
        "p_points": 5, "tau": 0.5, "include_resize": True,
    },
}

# the bools, strings, non-finite floats and ints beyond float range that a
# loader must refuse rather than coerce, plus arbitrary JSON values
TRICKY_SCALARS = st.sampled_from(
    [True, False, None, "", "1", "false", 0.9, 2.5, -1, 10**400,
     math.inf, -math.inf, math.nan]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _leaves(node, prefix=()):
    """Path to every scalar of a JSON document."""
    if not isinstance(node, (dict, list)):
        yield prefix
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(child, prefix + (key,))


@st.composite
def mutated(draw, base):
    """base with one or two scalars replaced by a JSON value, or removed."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        *head, last = draw(st.sampled_from(list(_leaves(doc))))
        parent = doc
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(["scalar", "scalar", "value", "remove"]))
        if action == "remove":
            del parent[last]
        else:
            parent[last] = draw(TRICKY_SCALARS if action == "scalar" else JSON_VALUES)
    return doc


@pytest.mark.parametrize("loader", list(LOADER_DOCS), ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_load_or_raise_validation_error(loader, data):
    doc = data.draw(mutated(LOADER_DOCS[loader]))
    try:
        loaded = loader(doc)
    except ValidationError:
        return
    if loader is profile_from_json:
        assert_profile_makes_sense(loaded)


def assert_profile_makes_sense(profile):
    """What a loaded profile must satisfy, recomputed from its own fields."""
    n, gates = profile.num_qubits, profile.gates
    assert profile.mode in ("mirrored", "full-depolarizing")
    assert re.fullmatch("[0-9a-f]{64}", profile.circuit_digest)
    assert 1 <= n <= MAX_QUBITS
    assert 0 < profile.pst_ideal <= 1 + 1e-12
    for r in profile.records:
        gate = gates[r.site.gate_index]
        assert gate.faultable and len(r.site.paulis) == len(gate.qubits)
        assert 0 <= r.pst_noisy <= 1 + 1e-12
        assert abs(r.relative_pst - r.pst_noisy / profile.pst_ideal) <= 1e-12
    for i, g in enumerate(gates):
        assert g.gate_index == i
        assert i == 0 or gates[i - 1].timestep <= g.timestep
        assert GATE_SIGNATURES[g.kind][0] == len(g.qubits)
        assert all(0 <= q < n for q in g.qubits)
        rel = [r.relative_pst for r in profile.records if r.site.gate_index == i]
        assert g.n_records == len(rel)
        assert abs(g.mean_relative_pst - (statistics.fmean(rel) if rel else 1.0)) <= 1e-12
        assert abs(g.min_relative_pst - min(rel, default=1.0)) <= 1e-12


def test_compile_failure_exits_1(tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert run("qpe", "-o", str(circ)) == 0
    code = run(
        "compile", "--circuit", str(circ), "--epsilon", "1e-9",
        "--max-length", "4", "-o", str(tmp_path / "out.json"),
    )
    assert code == 1
    assert "distance" in capsys.readouterr().err


# the flags of each sub-command, as `vdqec <cmd> --help` listed them before
# the shared flags were declared once as parent parsers
HELP_FLAGS = {
    "qpe": "--compile --counting --max-length --output --phase-den --phase-num -o",
    "synth": "--epsilon --max-length --output --theta -o",
    "compile": "--circuit --epsilon --max-length --output -o",
    "simulate": "--bitstring --circuit --output -o",
    "inject": "--bitstring --circuit --mode --output -o",
    "heatmap": "--circuit --out-csv --out-svg --profile",
    "assign": "--circuit --d-high --d-low --output --profile --tau -o",
    "tts": "--circuit --configs --no-resize --out-csv --out-svg --p-max --p-min "
           "--p-points --prefactor --profile --tau --threshold",
    "pipeline": "--config --out-dir",
}


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_help_lists_each_commands_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(command, "--help")
    assert exit_info.value.code == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    flags = set(re.findall(r"(?:^|\s)(--?[a-z][-a-z]*)", options)) - {"-h", "--help"}
    assert flags == set(HELP_FLAGS[command].split())


# the required arguments of each command; only synth's and compile's
# --epsilon among them sets a config field
REQUIRED_ARGV = {
    "qpe": [],
    "synth": ["--theta", "1", "--epsilon", "0.25"],
    "compile": ["--circuit", "c.json", "--epsilon", "0.25"],
    "simulate": ["--circuit", "c.json"],
    "inject": ["--circuit", "c.json"],
    "heatmap": ["--profile", "p.json", "--out-csv", "h.csv", "--out-svg", "h.svg"],
    "assign": ["--profile", "p.json"],
    "tts": ["--profile", "p.json", "--out-csv", "s.csv"],
    "pipeline": ["--out-dir", "run"],
}
# each flag that sets a RunConfig field: the field, arguments that differ
# from its default, and the value they set
CONFIG_FLAGS = {
    "--counting": ("counting_qubits", ["3"], 3),
    "--phase-num": ("phase_num", ["3"], 3),
    "--phase-den": ("phase_den", ["8"], 8),
    "--max-length": ("max_length", ["20"], 20),
    "--compile": ("synthesis_epsilon", ["0.2"], 0.2),
    "--epsilon": ("synthesis_epsilon", ["0.2"], 0.2),
    "--mode": ("injection_mode", ["full-depolarizing"], "full-depolarizing"),
    "--tau": ("tau", ["0.5"], 0.5),
    "--configs": ("distance_configs", ["3", "5,7"], ((3,), (5, 7))),
    "--p-min": ("p_min", ["1e-4"], 1e-4),
    "--p-max": ("p_max", ["5e-3"], 5e-3),
    "--p-points": ("p_points", ["20"], 20),
    "--prefactor": ("prefactor", ["0.1"], 0.1),
    "--threshold": ("threshold", ["0.01"], 0.01),
    "--no-resize": ("include_resize", [], False),
}
# arguments for each flag that sets no config field
OTHER_FLAGS = {
    "-o": ["x.json"], "--output": ["x.json"], "--theta": ["2"],
    "--circuit": ["d.json"], "--bitstring": ["0"], "--profile": ["q.json"],
    "--out-csv": ["x.csv"], "--out-svg": ["x.svg"], "--d-low": ["5"],
    "--d-high": ["7"], "--config": ["cfg.json"], "--out-dir": ["out"],
}


def _parsed_config(argv):
    return _config(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_each_config_flag_sets_its_own_field(command):
    """A command given no config flag runs RunConfig(); each config flag
    it lists sets its own field and no other, and every other flag sets
    none."""
    required = [command, *REQUIRED_ARGV[command]]
    base = _parsed_config(required)
    given = {"synthesis_epsilon": 0.25} if "--epsilon" in required else {}
    assert base == RunConfig(**given)
    for flag in HELP_FLAGS[command].split():
        if flag in OTHER_FLAGS:
            assert _parsed_config([*required, flag, *OTHER_FLAGS[flag]]) == base, flag
            continue
        name, values, value = CONFIG_FLAGS[flag]
        assert getattr(base, name) != value, flag
        config = _parsed_config([*required, flag, *values])
        assert config == dataclasses.replace(base, **{name: value}), flag


def test_inject_mode_full_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("inject", "--circuit", "c.json", "--mode", "full")
    assert exit_info.value.code == 2
    assert "invalid choice: 'full'" in capsys.readouterr().err


def test_synth_output_is_locked(capsys):
    # sha256 of the document printed before it was written from the
    # report's dataclass fields
    assert run("synth", "--theta", "pi/3", "--epsilon", "0.01") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "b8a45cfd492489fcf114f48c0d2269025c29c77c404b13cd8ce28c57374e8880"
    )


def test_huge_synthesis_epsilon_is_capped(tmp_path, capsys):
    """An epsilon past 1 runs as 1 instead of overflowing when squared."""
    assert run("synth", "--theta", "1", "--epsilon", "1") == 0
    expected = capsys.readouterr().out
    assert run("synth", "--theta", "1", "--epsilon", "1e300") == 0
    assert capsys.readouterr().out == expected
    assert run("qpe", "--compile", "1e300", "-o", str(tmp_path / "qpe.json")) == 0
    # every rotation compiles to the empty sequence, which leaves a nonzero
    # noiseless PST for the campaign only at phase 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**QUICK_CONFIG, "synthesis_epsilon": 1e300, "phase_num": 0}))
    assert run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("epsilon", [1e300, 1.0])
def test_pipeline_with_zero_ideal_pst_exits_2(tmp_path, capsys, epsilon):
    """At epsilon >= 1 every rotation compiles to the empty sequence, and
    the default phase is then never read: a noiseless run that never reads
    the correct bitstring is bad input, refused with exit 2."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**QUICK_CONFIG, "synthesis_epsilon": epsilon}))
    code = run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "stage inject: noiseless PST is zero" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_profile_timestep_stays_below_2_pow_53():
    gate = [0, "H", [0], 2**53 - 1, False, 1.0, 1.0, 0]
    profile_from_json({**PROFILE_1Q, "gates": [gate]})
    gate[3] = 2**53
    with pytest.raises(ValidationError):
        profile_from_json({**PROFILE_1Q, "gates": [gate]})
