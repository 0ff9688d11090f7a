"""Command line interface.

Exit codes: 0 success, 1 internal failure during a computation,
2 invalid arguments or malformed/missing input files.

At module level this imports only the standard library, vdqec.errors and
vdqec.config, whose RunConfig holds every default the parser shows. Each
command imports the stages it runs in its own body, so --version, --help,
argument errors and refused output paths load neither numpy nor any
stage module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict

from . import __version__
from .config import MODES, RunConfig
from .errors import StaleCacheError, ValidationError, VdqecError

_THETA_RE = re.compile(r"^\s*(-?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$")


def parse_theta(text: str) -> float:
    """Accepts plain floats plus forms like 'pi/3', '-pi/4', '5pi/32'."""
    m = _THETA_RE.match(text)
    try:
        if not m:
            return float(text)
        num, den = m.groups()
        factor = -1.0 if num == "-" else 1.0 if num == "" else float(num)
        return factor * math.pi / (float(den) if den else 1.0)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse angle {text!r}") from None


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
    from .sim import check_bitstring, circuit_from_json

    doc = _read_json(path)
    if "circuit" in doc:
        circuit = circuit_from_json(doc["circuit"])
        correct = doc.get("correct_bitstring")
        if correct is not None:
            check_bitstring(correct, len(circuit.measured_qubits))
        return circuit, correct
    return circuit_from_json(doc), None


def _read_profile(path: str, circuit_path: str | None):
    from .inject import profile_from_json
    from .sim import circuit_digest

    profile = profile_from_json(_read_json(path))
    if circuit_path:
        circuit, _ = _read_circuit(circuit_path)
        if circuit_digest(circuit) != profile.circuit_digest:
            raise StaleCacheError(
                f"profile {path} was computed for a different circuit than "
                f"{circuit_path}; refusing stale cache"
            )
    return profile


def _check_output_dirs(args) -> None:
    """Refuse an output file whose directory is missing, or that names a
    directory, before any stage runs, so that no work is lost and no other
    output is left behind."""
    for name in ("output", "out_csv", "out_svg"):
        path = getattr(args, name, None) or ""
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ValidationError(f"output directory does not exist: {folder}")
        if os.path.isdir(path):
            raise ValidationError(f"output path is a directory: {path}")


def _emit(data: bytes, out: str | None) -> None:
    from .pipeline import write_atomic

    if out:
        write_atomic(out, data)
    else:
        sys.stdout.write(data.decode())


def cmd_qpe(args) -> int:
    from .pipeline import circuit_bytes
    from .qpe import QpeSpec, build_qpe
    from .synth import compile_circuit

    spec = QpeSpec(args.counting, args.phase_num, args.phase_den)
    circuit, correct = build_qpe(spec)
    if args.compile is not None:
        circuit = compile_circuit(circuit, args.compile, args.max_length)
    _emit(circuit_bytes(circuit, correct), args.output)
    return 0


def cmd_synth(args) -> int:
    from .pipeline import _json_bytes
    from .synth import approximate_rz

    report = approximate_rz(parse_theta(args.theta), args.epsilon, args.max_length)
    _emit(_json_bytes(asdict(report)), args.output)
    return 0


def cmd_compile(args) -> int:
    from .pipeline import circuit_bytes
    from .synth import compile_circuit

    circuit, correct = _read_circuit(args.circuit)
    compiled = compile_circuit(circuit, args.epsilon, args.max_length)
    _emit(circuit_bytes(compiled, correct), args.output)
    return 0


def cmd_simulate(args) -> int:
    from .pipeline import _json_bytes
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
    return 0


def cmd_inject(args) -> int:
    from .inject import profile_to_json, run_campaign
    from .pipeline import _json_bytes

    circuit, correct = _read_circuit(args.circuit)
    bitstring = args.bitstring or correct
    if bitstring is None:
        raise ValidationError(
            "no correct bitstring: pass --bitstring or use a circuit file "
            "that carries one"
        )
    mode = "full-depolarizing" if args.mode == "full" else args.mode
    profile = run_campaign(circuit, bitstring, mode)
    _emit(_json_bytes(profile_to_json(profile)), args.output)
    return 0


def cmd_heatmap(args) -> int:
    from .pipeline import write_atomic
    from .render import heatmap_csv_bytes, heatmap_svg_bytes

    profile = _read_profile(args.profile, args.circuit)
    write_atomic(args.out_csv, heatmap_csv_bytes(profile))
    write_atomic(args.out_svg, heatmap_svg_bytes(profile))
    return 0


def cmd_assign(args) -> int:
    from .pipeline import _json_bytes
    from .qecc import assignment_to_json, ladder

    profile = _read_profile(args.profile, args.circuit)
    (assignment,) = ladder(profile, [(args.d_low, args.d_high)], args.tau)
    _emit(_json_bytes(assignment_to_json(assignment)), args.output)
    return 0


def cmd_tts(args) -> int:
    from .pipeline import write_atomic
    from .qecc import ErrorModelParams, ladder, log_p_grid, sweep_tts
    from .render import curves_svg_bytes, sweep_csv_bytes

    profile = _read_profile(args.profile, args.circuit)
    params = ErrorModelParams(args.prefactor, args.threshold)
    configs = []
    for text in args.configs:
        try:
            configs.append([int(part) for part in text.split(",")])
        except ValueError:
            raise ValidationError(f"bad distance config {text!r}") from None
    assignments = ladder(profile, configs, args.tau)
    grid = log_p_grid(args.p_min, args.p_max, args.p_points)
    points = sweep_tts(profile, assignments, grid, params, not args.no_resize)
    write_atomic(args.out_csv, sweep_csv_bytes(points))
    if args.out_svg:
        write_atomic(args.out_svg, curves_svg_bytes(points))
    return 0


def cmd_pipeline(args) -> int:
    from .pipeline import config_from_json, run_pipeline

    if args.config:
        config = config_from_json(_read_json(args.config))
    else:
        config = RunConfig()
    run_pipeline(config, args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdqec",
        description="Fault sensitivity profiling and variable-distance "
        "surface-code cost modeling for small Clifford+T circuits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None)
    length = argparse.ArgumentParser(add_help=False)
    length.add_argument("--max-length", type=int, default=RunConfig.max_length)
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", required=True)
    profile.add_argument("--circuit", default=None,
                         help="verify the profile matches this circuit")

    p = sub.add_parser("qpe", parents=[length, output],
                       help="emit the phase estimation benchmark circuit")
    p.add_argument("--counting", type=int, default=RunConfig.counting_qubits)
    p.add_argument("--phase-num", type=int, default=RunConfig.phase_num)
    p.add_argument("--phase-den", type=int, default=RunConfig.phase_den)
    p.add_argument("--compile", type=float, default=None, metavar="EPS",
                   help="also compile rotations to Clifford+T at this accuracy")
    p.set_defaults(func=cmd_qpe)

    p = sub.add_parser("synth", parents=[length, output],
                       help="approximate one Rz rotation")
    p.add_argument("--theta", required=True, help="radians; accepts 'pi/3' forms")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compile", parents=[length, output],
                       help="rewrite a circuit over Clifford+T+CNOT")
    p.add_argument("--circuit", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", parents=[output],
                       help="exact output distribution of a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--bitstring", default=None, help="also report the PST")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", parents=[output],
                       help="run an exhaustive fault campaign")
    p.add_argument("--circuit", required=True)
    p.add_argument("--bitstring", default=None)
    p.add_argument("--mode", choices=list(MODES) + ["full"],
                   default=RunConfig.injection_mode)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("heatmap", parents=[profile],
                       help="render a profile as CSV and SVG")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("assign", parents=[profile, output],
                       help="derive a two-distance code assignment")
    p.add_argument("--d-low", type=int, default=3)
    p.add_argument("--d-high", type=int, default=5)
    p.add_argument("--tau", type=float, default=RunConfig.tau)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("tts", parents=[profile],
                       help="time-to-solution sweep over error rates")
    p.add_argument("--configs", nargs="+",
                   default=[",".join(map(str, c)) for c in RunConfig.distance_configs],
                   help="distance configs, e.g. 3 or 3,5")
    p.add_argument("--p-min", type=float, default=RunConfig.p_min)
    p.add_argument("--p-max", type=float, default=RunConfig.p_max)
    p.add_argument("--p-points", type=int, default=RunConfig.p_points)
    p.add_argument("--tau", type=float, default=RunConfig.tau)
    p.add_argument("--prefactor", type=float, default=RunConfig.prefactor)
    p.add_argument("--threshold", type=float, default=RunConfig.threshold)
    p.add_argument("--no-resize", action="store_true",
                   help="exclude patch resize cycles from latency")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_tts)

    p = sub.add_parser("pipeline", help="run every stage into a directory")
    p.add_argument("--config", default=None, help="RunConfig JSON file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output_dirs(args)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VdqecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
