"""The run configuration: every knob of a pipeline run and its default.

This is the one home of the defaults. The command-line parser reads them
from RunConfig, and QpeSpec, ErrorModelParams and synth's
DEFAULT_MAX_LENGTH read theirs from it too. At import time the module
loads only the standard library and vdqec.errors, so a command that only
parses its arguments loads nothing numeric; RunConfig's own checks import
the stage validators when a config is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ValidationError, as_bool, as_int, as_real

MODES = ("mirrored", "full-depolarizing")

# synthesis's hard length cap: the join needs table levels up to
# ceil(34/2) = 17 (3,968 entries at level 17)
MAX_SEARCH_LENGTH = 34

# RunConfig annotation -> type check; bools are not numbers here
_FIELD_CHECKS = {"int": as_int, "float": as_real, "bool": as_bool}


@dataclass(frozen=True)
class RunConfig:
    counting_qubits: int = 5
    phase_num: int = 5
    phase_den: int = 32
    synthesis_epsilon: float = 0.015
    max_length: int = MAX_SEARCH_LENGTH
    injection_mode: str = "mirrored"
    prefactor: float = 0.03
    threshold: float = 0.0057
    distance_configs: tuple[tuple[int, ...], ...] = (
        (3,), (3, 5), (5,), (5, 7), (7,),
    )
    p_min: float = 1e-5
    p_max: float = 1e-2
    p_points: int = 50
    tau: float = 0.9
    include_resize: bool = True

    def __post_init__(self):
        """Check every field, so a bad config fails before any stage runs."""
        from .qecc import ErrorModelParams, check_tau, ladder_configs, log_p_grid
        from .qpe import QpeSpec
        from .synth import check_budget

        for f in fields(self):
            if f.type in _FIELD_CHECKS:
                _FIELD_CHECKS[f.type](getattr(self, f.name), f.name)
        if self.injection_mode not in MODES:
            raise ValidationError(
                f"injection_mode must be one of {MODES}"
            )
        object.__setattr__(
            self, "distance_configs", ladder_configs(self.distance_configs)
        )
        QpeSpec(self.counting_qubits, self.phase_num, self.phase_den)
        check_budget(self.synthesis_epsilon, self.max_length)
        ErrorModelParams(self.prefactor, self.threshold)
        log_p_grid(self.p_min, self.p_max, self.p_points)
        check_tau(self.tau)
