"""Tests of the benchmark itself: the output checks must flag corrupted
artifacts, and a one-op run of every workload must pass and leave the
repository tree as it was.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small but complete `vdqec pipeline` output directory."""
    base = tmp_path_factory.mktemp("pipeline")
    config = run.pipeline_config(3, 3, 8, 0.1, "full-depolarizing")
    (base / "config.json").write_text(json.dumps(config))
    child = run.run_child(run.vdqec(["pipeline", "--config", str(base / "config.json"),
                                     "--out-dir", str(base / "out")]), base / "home")
    assert child.code == 0, child.stderr
    return base / "out", config


def _copy(pipeline_dir, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir[0], out)
    return out


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_checks_pass_on_program_output(pipeline_dir):
    out, config = pipeline_dir
    assert checks.check_pipeline_dir(str(out), config) == []


def test_flipped_symbol_in_compiled_is_flagged(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)
    doc = _load(out / "compiled.json")
    op = next(op for op in doc["circuit"]["ops"] if op["kind"] in ("T", "Tdg"))
    op["kind"] = "Tdg" if op["kind"] == "T" else "T"
    (out / "compiled.json").write_text(json.dumps(doc))
    source = _load(out / "circuit.json")["circuit"]
    flagged = checks.check_compiled(source, doc["circuit"], pipeline_dir[1]["synthesis_epsilon"])
    assert any("distance" in msg for msg in flagged)
    assert checks.check_pipeline_dir(str(out), pipeline_dir[1])


def test_moved_profile_record_is_flagged(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)
    profile = _load(out / "profile.json")
    record = profile["records"][len(profile["records"]) // 2]
    record[2] += 1e-6
    compiled = _load(out / "compiled.json")
    flagged = checks.check_profile(compiled["circuit"], compiled["correct_bitstring"], profile)
    assert any("pst_noisy" in msg for msg in flagged)


def test_dropped_sweep_row_is_flagged(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)
    config = pipeline_dir[1]
    lines = checks.read_text(str(out / "sweep.csv")).split("\r\n")
    del lines[len(lines) // 2]
    expected = checks.expected_sweep(
        _load(out / "profile.json"), [tuple(c) for c in config["distance_configs"]],
        config["p_min"], config["p_max"], config["p_points"], config["tau"],
        config["prefactor"], config["threshold"], config["include_resize"])
    assert checks.check_sweep("\r\n".join(lines), expected)


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_op_smoke_run(workload):
    before = _git_status()
    code, lines = _bench(workload, 0)
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert _git_status() == before


def test_traced_run_reports_every_layer_metric():
    before = _git_status()
    code, lines = _bench("resweep", 1)
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert _git_status() == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = _bench("qpe8-full", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
