import json
import subprocess
import sys

import pytest

from vdqec.cli import main, parse_theta
from vdqec.errors import ValidationError
from vdqec.pipeline import RunConfig

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
    import math

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


def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.1}))
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "x")) == 2
    assert "epsilon" in capsys.readouterr().err


def test_tts_and_assign_reproduce_the_pipeline_ladder(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"synthesis_epsilon": 0.12, "max_length": 25, "p_points": 25}
    ))
    out = tmp_path / "run"
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(out)) == 0
    prof = str(out / "profile.json")
    mine = tmp_path / "mine"
    mine.mkdir()
    assert run(
        "tts", "--profile", prof, "--p-points", "25",
        "--out-csv", str(mine / "sweep.csv"), "--out-svg", str(mine / "curves.svg"),
    ) == 0
    assert run("assign", "--profile", prof, "-o", str(mine / "assignment_d3_5.json")) == 0
    for name in ("sweep.csv", "curves.svg", "assignment_d3_5.json"):
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
])
def test_run_config_rejects_bad_values_at_construction(kwargs):
    with pytest.raises(ValidationError):
        RunConfig(**kwargs)


CIRCUIT_1Q = {"num_qubits": 1, "measured_qubits": [0]}


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
], ids=["config-list", "config-str-int", "timestep-str", "rz-nan", "shared-cell",
        "missing-dir", "theta-nan"])
def test_malformed_input_exits_2_without_traceback(tmp_path, doc, argv):
    paths = {"in": str(tmp_path / "in.json"), "out": str(tmp_path / "out")}
    if doc is not None:
        (tmp_path / "in.json").write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "vdqec.cli", *(a.format_map(paths) for a in argv)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr


def test_compile_failure_exits_1(tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert run("qpe", "-o", str(circ)) == 0
    code = run(
        "compile", "--circuit", str(circ), "--epsilon", "1e-9",
        "--max-length", "4", "-o", str(tmp_path / "out.json"),
    )
    assert code == 1
    assert "distance" in capsys.readouterr().err
