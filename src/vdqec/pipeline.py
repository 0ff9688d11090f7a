"""End-to-end pipeline: benchmark -> compile -> inject -> report.

A RunConfig pins every knob, so a pipeline run is a pure function of its
config; artifacts are written atomically (a .partial temp file renamed
on success and removed on a failed write, so only an interrupted run
leaves .partial debris) and a manifest records the digest of every
artifact for staleness checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, fields

from .config import RunConfig
from .errors import ValidationError, VdqecError
from .inject import profile_to_json, run_campaign
from .qecc import (
    ErrorModelParams,
    assignment_to_json,
    ladder,
    log_p_grid,
    sweep_tts,
)
from .qpe import QpeSpec, build_qpe
from .render import (
    curves_svg_bytes,
    heatmap_csv_bytes,
    heatmap_svg_bytes,
    sweep_csv_bytes,
)
from .sim import Circuit, circuit_to_json
from .synth import compile_circuit

SCHEMA_VERSION = 1


@contextlib.contextmanager
def _stage(name: str):
    """Prefix any toolkit error with the pipeline stage that raised it."""
    try:
        yield
    except VdqecError as exc:
        exc.args = (f"stage {name}: {exc}",)
        raise


def config_from_json(doc: dict) -> RunConfig:
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported config schema_version {doc.get('schema_version')}"
        )
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known - {"schema_version"}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{k: v for k, v in doc.items() if k in known})


def config_to_json(config: RunConfig) -> dict:
    doc = asdict(config)
    doc["distance_configs"] = [list(cfg) for cfg in config.distance_configs]
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def circuit_bytes(circuit: Circuit, correct: str | None) -> bytes:
    """The circuit document; correct_bitstring is left out when None."""
    doc = {"circuit": circuit_to_json(circuit)}
    if correct is not None:
        doc["correct_bitstring"] = correct
    return _json_bytes(doc)


def write_atomic(path: str, data: bytes) -> None:
    """Write data to path.partial and rename it to path. If the write or
    the rename fails, the .partial file is removed before the error is
    re-raised."""
    tmp = path + ".partial"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _label_filename(label: str) -> str:
    return "assignment_" + label.replace("=", "").replace(",", "_") + ".json"


def run_pipeline(config: RunConfig, out_dir: str) -> dict:
    """Run every stage and write all artifacts into out_dir.

    Returns the manifest (also written as manifest.json)."""
    os.makedirs(out_dir, exist_ok=True)
    artifacts: dict[str, bytes] = {}

    with _stage("benchmark"):
        spec = QpeSpec(config.counting_qubits, config.phase_num, config.phase_den)
        circuit, correct = build_qpe(spec)
        artifacts["circuit.json"] = circuit_bytes(circuit, correct)

    with _stage("compile"):
        compiled = compile_circuit(
            circuit, config.synthesis_epsilon, config.max_length
        )
        artifacts["compiled.json"] = circuit_bytes(compiled, correct)

    with _stage("inject"):
        profile = run_campaign(compiled, correct, config.injection_mode)
        artifacts["profile.json"] = _json_bytes(profile_to_json(profile))

    with _stage("heatmap"):
        artifacts["heatmap.csv"] = heatmap_csv_bytes(profile)
        artifacts["heatmap.svg"] = heatmap_svg_bytes(profile)

    with _stage("assign"):
        params = ErrorModelParams(config.prefactor, config.threshold)
        assignments = ladder(profile, config.distance_configs, config.tau)
        for assignment in assignments:
            artifacts[_label_filename(assignment.label)] = _json_bytes(
                assignment_to_json(assignment)
            )

    with _stage("tts"):
        grid = log_p_grid(config.p_min, config.p_max, config.p_points)
        points = sweep_tts(
            profile, assignments, grid, params, config.include_resize
        )
        artifacts["sweep.csv"] = sweep_csv_bytes(points)
        artifacts["curves.svg"] = curves_svg_bytes(points)

    for name, data in artifacts.items():
        write_atomic(os.path.join(out_dir, name), data)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_json(config),
        "circuit_digest": profile.circuit_digest,
        "artifacts": {
            name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(artifacts.items())
        },
    }
    write_atomic(os.path.join(out_dir, "manifest.json"), _json_bytes(manifest))
    return manifest
