"""vdqec: fault sensitivity profiling and variable-distance surface-code
cost modeling for small Clifford+T circuits.

The public names below resolve on first use: `import vdqec` loads no
submodule and no numpy, and `vdqec.build_qpe` (or `from vdqec import
build_qpe`) imports vdqec.qpe, and what it imports, when it is first read.
Each name maps to the one module that defines it: the circuit and profile
classes and their documents to the numpy-free vdqec.circuits and
vdqec.profiles, and RunConfig to vdqec.config.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "AssignmentError", "CampaignError", "CompileError",
        "InvalidCircuitError", "StaleCacheError", "ValidationError",
        "VdqecError",
    ], "errors"),
    **dict.fromkeys([
        "Circuit", "GateOp", "circuit_digest", "circuit_from_json",
        "circuit_to_json",
    ], "circuits"),
    **dict.fromkeys([
        "StateVector", "apply_gate", "gate_matrix", "output_distribution",
        "pst", "rz_matrix", "simulate", "zero_state",
    ], "sim"),
    **dict.fromkeys([
        "ApproxReport", "approximate_rz", "compile_circuit", "dist",
        "sequence_unitary",
    ], "synth"),
    **dict.fromkeys(["QpeSpec", "build_inverse_qft", "build_qpe"], "qpe"),
    **dict.fromkeys([
        "FaultSite", "SensitivityProfile", "SensitivityRecord",
        "profile_from_json", "profile_to_json",
    ], "profiles"),
    **dict.fromkeys(["enumerate_sites", "run_campaign"], "inject"),
    **dict.fromkeys([
        "CodeAssignment", "ErrorModelParams", "TtsPoint",
        "assign_two_distance", "assignment_from_json", "assignment_to_json",
        "distance_config", "ladder", "latency", "log_p_grid",
        "logical_error_rate", "pst_bound", "sweep_tts", "time_to_solution",
        "uniform_assignment",
    ], "qecc"),
    "RunConfig": "config",
    "run_pipeline": "pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
