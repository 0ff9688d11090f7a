"""The pipeline and its commands: benchmark -> compile -> inject -> report.

A RunConfig pins every knob, so a pipeline run is a pure function of its
config. The stage functions (benchmark, compile_rotations, sweep) read
their knobs from a RunConfig, and both run_pipeline and the stage commands
(cmd_*, which vdqec.cli dispatches to) call them, so a stage command given
a config's flags writes the bytes the pipeline writes for that config.
Each command loads only the modules it calls. The data layer (circuits,
profiles), the cost model (qecc), the renderers and qpe import no numpy;
synth, inject and sim, the modules that compute on arrays, are imported
inside the stage functions and commands that run them. So assign, heatmap,
tts and qpe without --compile load no numpy, and the pipeline loads every
stage. hashlib, which loads OpenSSL, is imported only where a digest is
taken: circuits.circuit_digest (the --circuit check) and the manifest.
Artifacts are written atomically (a .partial temp file renamed on success
and removed on a failed write, so only an interrupted run leaves .partial
debris) and a manifest records the digest of every artifact for staleness
checks.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import asdict, fields

from .circuits import (
    Circuit,
    check_bitstring,
    circuit_digest,
    circuit_from_json,
    circuit_to_json,
)
from .config import RunConfig
from .errors import StaleCacheError, ValidationError, VdqecError
from .profiles import profile_from_json, profile_to_json
from .qecc import (
    ErrorModelParams,
    TtsPoint,
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
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported config schema_version {version!r}")
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


# -- stages --------------------------------------------------------------


def benchmark(config: RunConfig) -> tuple[Circuit, str]:
    """The QPE benchmark circuit and its correct bitstring."""
    return build_qpe(
        QpeSpec(config.counting_qubits, config.phase_num, config.phase_den)
    )


def compile_rotations(circuit: Circuit, config: RunConfig) -> Circuit:
    """circuit over Clifford+T+CNOT at the config's synthesis budget."""
    from .synth import compile_circuit

    return compile_circuit(circuit, config.synthesis_epsilon, config.max_length)


def sweep(profile, assignments, config: RunConfig) -> list[TtsPoint]:
    """Every assignment's TTS points over the config's error-rate grid."""
    grid = log_p_grid(config.p_min, config.p_max, config.p_points)
    params = ErrorModelParams(config.prefactor, config.threshold)
    return sweep_tts(profile, assignments, grid, params, config.include_resize)


# -- reading and writing -------------------------------------------------


def _read_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ValidationError(f"missing input file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{path} nests JSON too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return doc


def _read_circuit(path: str):
    """Load a circuit file; returns (circuit, correct_bitstring or None).

    Accepts both a bare circuit document and the {"circuit": ...,
    "correct_bitstring": ...} wrapper the qpe command emits."""
    doc = _read_json(path)
    if "circuit" in doc:
        circuit = circuit_from_json(doc["circuit"])
        correct = doc.get("correct_bitstring")
        if correct is not None:
            check_bitstring(correct, len(circuit.measured_qubits))
        return circuit, correct
    return circuit_from_json(doc), None


def _read_profile(path: str, circuit_path: str | None):
    profile = profile_from_json(_read_json(path))
    if circuit_path:
        circuit, _ = _read_circuit(circuit_path)
        if circuit_digest(circuit) != profile.circuit_digest:
            raise StaleCacheError(
                f"profile {path} was computed for a different circuit than "
                f"{circuit_path}; refusing stale cache"
            )
    return profile


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


def _emit(data: bytes, out: str | None) -> None:
    if out:
        write_atomic(out, data)
    else:
        sys.stdout.write(data.decode())


def _label_filename(label: str) -> str:
    return "assignment_" + label.replace("=", "").replace(",", "_") + ".json"


# -- the pipeline --------------------------------------------------------


def run_pipeline(config: RunConfig, out_dir: str) -> dict:
    """Run every stage and write all artifacts into out_dir.

    Returns the manifest (also written as manifest.json)."""
    from .inject import run_campaign

    os.makedirs(out_dir, exist_ok=True)
    artifacts: dict[str, bytes] = {}

    with _stage("benchmark"):
        circuit, correct = benchmark(config)
        artifacts["circuit.json"] = circuit_bytes(circuit, correct)

    with _stage("compile"):
        compiled = compile_rotations(circuit, config)
        artifacts["compiled.json"] = circuit_bytes(compiled, correct)

    with _stage("inject"):
        profile = run_campaign(compiled, correct, config.injection_mode)
        artifacts["profile.json"] = _json_bytes(profile_to_json(profile))

    with _stage("heatmap"):
        artifacts["heatmap.csv"] = heatmap_csv_bytes(profile)
        artifacts["heatmap.svg"] = heatmap_svg_bytes(profile)

    with _stage("assign"):
        assignments = ladder(profile, config.distance_configs, config.tau)
        for assignment in assignments:
            artifacts[_label_filename(assignment.label)] = _json_bytes(
                assignment_to_json(assignment)
            )

    with _stage("tts"):
        points = sweep(profile, assignments, config)
        artifacts["sweep.csv"] = sweep_csv_bytes(points)
        artifacts["curves.svg"] = curves_svg_bytes(points)

    for name, data in artifacts.items():
        write_atomic(os.path.join(out_dir, name), data)

    import hashlib  # loads OpenSSL, which only the manifest needs

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


# -- the commands: each takes the parsed arguments and the RunConfig of
# the config flags given, and raises on failure --------------------------


def cmd_qpe(args, config: RunConfig) -> None:
    circuit, correct = benchmark(config)
    if "synthesis_epsilon" in vars(args):  # --compile EPS
        circuit = compile_rotations(circuit, config)
    _emit(circuit_bytes(circuit, correct), args.output)


def cmd_synth(args, config: RunConfig) -> None:
    from .synth import approximate_rz

    report = approximate_rz(args.theta, config.synthesis_epsilon, config.max_length)
    _emit(_json_bytes(asdict(report)), args.output)


def cmd_compile(args, config: RunConfig) -> None:
    circuit, correct = _read_circuit(args.circuit)
    _emit(circuit_bytes(compile_rotations(circuit, config), correct), args.output)


def cmd_simulate(args, config: RunConfig) -> None:
    from .sim import output_distribution, pst, simulate

    circuit, correct = _read_circuit(args.circuit)
    state = simulate(circuit)
    dist = output_distribution(state, circuit.measured_qubits)
    doc = {"distribution": dist}
    bitstring = args.bitstring or correct
    if bitstring is not None:
        doc["pst"] = pst(dist, bitstring)
        doc["correct_bitstring"] = bitstring
    _emit(_json_bytes(doc), args.output)


def cmd_inject(args, config: RunConfig) -> None:
    from .inject import run_campaign

    circuit, correct = _read_circuit(args.circuit)
    bitstring = args.bitstring or correct
    if bitstring is None:
        raise ValidationError(
            "no correct bitstring: pass --bitstring or use a circuit file "
            "that carries one"
        )
    profile = run_campaign(circuit, bitstring, config.injection_mode)
    _emit(_json_bytes(profile_to_json(profile)), args.output)


def cmd_heatmap(args, config: RunConfig) -> None:
    profile = _read_profile(args.profile, args.circuit)
    write_atomic(args.out_csv, heatmap_csv_bytes(profile))
    write_atomic(args.out_svg, heatmap_svg_bytes(profile))


def cmd_assign(args, config: RunConfig) -> None:
    profile = _read_profile(args.profile, args.circuit)
    (assignment,) = ladder(profile, [(args.d_low, args.d_high)], config.tau)
    _emit(_json_bytes(assignment_to_json(assignment)), args.output)


def cmd_tts(args, config: RunConfig) -> None:
    profile = _read_profile(args.profile, args.circuit)
    assignments = ladder(profile, config.distance_configs, config.tau)
    points = sweep(profile, assignments, config)
    write_atomic(args.out_csv, sweep_csv_bytes(points))
    if args.out_svg:
        write_atomic(args.out_svg, curves_svg_bytes(points))


def cmd_pipeline(args, config: RunConfig) -> None:
    if args.config:
        config = config_from_json(_read_json(args.config))
    run_pipeline(config, args.out_dir)
