"""Command line interface: it parses, and vdqec.pipeline runs.

Exit codes: 0 success, 1 internal failure during a computation,
2 invalid arguments or malformed/missing input files.

A flag that sets a RunConfig field stores into the field's name and has
no default of its own, so the command's RunConfig is built from the flags
actually given and every default and every check comes from RunConfig.
At module level this imports only the standard library, vdqec.errors and
vdqec.config, so --version, --help, argument errors and refused output
paths load neither numpy nor any stage module. main imports
vdqec.pipeline, which holds the commands, once those checks have passed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import fields

from . import __version__
from .config import MODES, RunConfig
from .errors import ValidationError, VdqecError

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


def _distance_config(text: str) -> list[int]:
    """'3' or '3,5' as a list of distances."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad distance config {text!r}") from None


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


def _config(args) -> RunConfig:
    """The RunConfig of the config flags given; RunConfig checks them."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                        if f.name in given})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdqec",
        description="Fault sensitivity profiling and variable-distance "
        "surface-code cost modeling for small Clifford+T circuits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag with no default of its own is in args only when given; each
    # flag that sets a RunConfig field stores into the field's name
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)
    # flags that several commands share, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None)
    length = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    length.add_argument("--max-length", type=int)
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", required=True)
    profile.add_argument("--circuit", default=None,
                         help="verify the profile matches this circuit")

    p = command("qpe", parents=[length, output],
                help="emit the phase estimation benchmark circuit")
    p.add_argument("--counting", type=int, dest="counting_qubits", metavar="COUNTING")
    p.add_argument("--phase-num", type=int)
    p.add_argument("--phase-den", type=int)
    p.add_argument("--compile", type=float, dest="synthesis_epsilon", metavar="EPS",
                   help="also compile rotations to Clifford+T at this accuracy")

    p = command("synth", parents=[length, output],
                help="approximate one Rz rotation")
    p.add_argument("--theta", type=parse_theta, required=True,
                   help="radians; accepts 'pi/3' forms")
    p.add_argument("--epsilon", type=float, required=True,
                   dest="synthesis_epsilon", metavar="EPSILON")

    p = command("compile", parents=[length, output],
                help="rewrite a circuit over Clifford+T+CNOT")
    p.add_argument("--circuit", required=True)
    p.add_argument("--epsilon", type=float, required=True,
                   dest="synthesis_epsilon", metavar="EPSILON")

    p = command("simulate", parents=[output],
                help="exact output distribution of a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--bitstring", default=None, help="also report the PST")

    p = command("inject", parents=[output],
                help="run an exhaustive fault campaign")
    p.add_argument("--circuit", required=True)
    p.add_argument("--bitstring", default=None)
    p.add_argument("--mode", choices=MODES, dest="injection_mode")

    p = command("heatmap", parents=[profile],
                help="render a profile as CSV and SVG")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)

    p = command("assign", parents=[profile, output],
                help="derive a two-distance code assignment")
    p.add_argument("--d-low", type=int, default=3)
    p.add_argument("--d-high", type=int, default=5)
    p.add_argument("--tau", type=float)

    p = command("tts", parents=[profile],
                help="time-to-solution sweep over error rates")
    p.add_argument("--configs", nargs="+", type=_distance_config,
                   dest="distance_configs", metavar="CONFIGS",
                   help="distance configs, e.g. 3 or 3,5")
    p.add_argument("--p-min", type=float)
    p.add_argument("--p-max", type=float)
    p.add_argument("--p-points", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--prefactor", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--no-resize", action="store_false", dest="include_resize",
                   help="exclude patch resize cycles from latency")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)

    p = command("pipeline", help="run every stage into a directory")
    p.add_argument("--config", default=None, help="RunConfig JSON file")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output_dirs(args)
        from . import pipeline

        getattr(pipeline, f"cmd_{args.command}")(args, _config(args))
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VdqecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
