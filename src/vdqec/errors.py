"""Exception hierarchy, plus the strict field checks the loaders share.

ValidationError (and subclasses) map to CLI exit code 2; everything else
that goes wrong inside a computation maps to exit code 1. A campaign that
cannot score its circuit (no gates, or a noiseless run that never reads
the correct bitstring) is bad input, so CampaignError is a ValidationError.
"""


class VdqecError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(VdqecError):
    """Invalid argument, malformed input file, or broken precondition."""


class InvalidCircuitError(ValidationError):
    """Circuit structure violates an invariant (arity, qubit range, ...)."""


class CompileError(VdqecError):
    """A rotation could not be approximated within the requested budget."""


class CampaignError(ValidationError):
    """Fault-injection campaign cannot produce a meaningful profile."""


class AssignmentError(ValidationError):
    """Code assignment is malformed or does not cover a requested timestep."""


class StaleCacheError(ValidationError):
    """A cached artifact does not match the circuit it claims to describe."""


def as_bool(value, what: str) -> bool:
    """value if it is a real bool; 0, 1 and strings are refused."""
    if isinstance(value, bool):
        return value
    raise ValidationError(f"{what} must be a bool, got {value!r}")


def as_int(value, what: str) -> int:
    """value if it is an int; bools, floats and strings are refused, not
    coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def as_real(value, what: str) -> float:
    """value as a float; bools, strings and ints beyond float range are
    refused, not coerced."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{what} must be a real number, got {value!r}")
