"""Surface-code cost model: logical error rates, PST lower bounds,
latency, and time-to-solution sweeps.

The logical error rate of a distance-d patch at physical error rate p is
modeled as prefactor * (p / threshold)^((d+1)/2), clamped to [0, 1]. A
code assignment gives every qubit a piecewise-constant distance over
timesteps, so a qubit can run cheaply at low distance while it is
insensitive and be escalated once errors start to matter.

The PST lower bound keeps only the zero-error and exactly-one-error
terms of the logical error process: with q_g the probability that gate
g suffers a logical fault,

    PST >= PST_ideal * prod_g (1 - q_g)
         + sum_g q_g * prod_{g' != g} (1 - q_g') * mean_g PST_noisy

where mean_g PST_noisy is the campaign's mean post-fault PST at gate g.
Discarding the multi-error mass can only lower the estimate, so this is
a true lower bound for the depolarizing-style error model.

A sweep evaluates the bound for one assignment over a whole grid of p by
class. The bound depends on a gate only through its patch distances, the
distances of the patches it touches at its timestep, read in qubit order,
and its mean. So the faultable gates fall into a few classes c (at most
six under a two-distance assignment), one per patch-distance tuple: n_c
gates, whose means mean_g PST_noisy sum, in gate order, to M_c. With ok_c
the product of 1 - rate over the tuple and q_c = 1 - ok_c, each grid point
costs a few float operations per class, however many gates there are:

    PST >= PST_ideal * prod_c ok_c^n_c
         + sum_c q_c * M_c * ok_c^(n_c - 1) * prod_{c' != c} ok_c'^n_c'

A class whose rate clamps to 1 has ok_c = 0.0, and 0.0**0 == 1 keeps the
exactly-one-error term of a lone gate. pst_bound runs the same code at a
single point, so it is bitwise equal to the sweep there. A sweep computes
each (p, d) rate once, for every assignment it costs.

Every power is Python's float power: the rate's (p / threshold)^((d+1)/2),
each ok_c^n_c and each point 10^x of log_p_grid. numpy's vectorised power
rounds by SIMD level, so the bytes of a sweep would depend on the host.
The module imports no numpy, so vdqec tts and vdqec assign run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import check_layout
from .config import RunConfig
from .errors import AssignmentError, ValidationError, as_bool, as_int, as_real
from .profiles import SensitivityProfile


@dataclass(frozen=True)
class ErrorModelParams:
    prefactor: float = RunConfig.prefactor
    threshold: float = RunConfig.threshold

    def __post_init__(self):
        if not (0 < as_real(self.prefactor, "prefactor") < math.inf
                and 0 < as_real(self.threshold, "threshold") < math.inf):
            raise ValidationError("prefactor and threshold must be finite and positive")


DEFAULT_PARAMS = ErrorModelParams()


@dataclass(frozen=True)
class CodeAssignment:
    """Per-qubit distance schedules.

    schedules[q] is a tuple of (start_timestep, distance) segments with
    strictly increasing int starts and nondecreasing distances that pass
    check_distance; the first segment must start at timestep 0 so every
    timestep is covered. The label is a str, and num_qubits obeys the
    circuit model's register rule (circuits.check_layout). The class checks
    every field itself, as GateOp does, and stores the schedules as tuples,
    so assignment_from_json only maps a document onto it.
    """

    label: str
    num_qubits: int
    schedules: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise AssignmentError(f"label must be a str, got {self.label!r}")
        check_layout(self.num_qubits, ())
        try:
            schedules = tuple(
                tuple((as_int(start, "segment start"), d) for start, d in segs)
                for segs in self.schedules)
        except (TypeError, ValueError):
            raise AssignmentError(
                f"schedules must hold (start, distance) pairs, got {self.schedules!r}"
            ) from None
        object.__setattr__(self, "schedules", schedules)
        if len(self.schedules) != self.num_qubits:
            raise AssignmentError("one schedule per qubit is required")
        for q, segs in enumerate(self.schedules):
            if not segs or segs[0][0] != 0:
                raise AssignmentError(
                    f"qubit {q}: schedule must start at timestep 0"
                )
            prev_start, prev_d = None, None
            for start, d in segs:
                check_distance(d)
                if prev_start is not None and start <= prev_start:
                    raise AssignmentError(
                        f"qubit {q}: segment starts must increase"
                    )
                if prev_d is not None and d < prev_d:
                    raise AssignmentError(
                        f"qubit {q}: distances may only grow over time"
                    )
                prev_start, prev_d = start, d

    def distance_at(self, qubit: int, timestep: int) -> int:
        if not 0 <= as_int(qubit, "qubit") < self.num_qubits:
            raise AssignmentError(f"qubit {qubit} outside assignment")
        if as_int(timestep, "timestep") < 0:
            raise AssignmentError(f"timestep {timestep} not covered")
        d = None
        for start, dist in self.schedules[qubit]:
            if start <= timestep:
                d = dist
            else:
                break
        return d

    def resize_cost(self) -> int:
        """Cycles spent growing patches: max(old, new) per distance change."""
        total = 0
        for segs in self.schedules:
            for (_, d_old), (_, d_new) in zip(segs, segs[1:]):
                if d_new != d_old:
                    total += max(d_old, d_new)
        return total


# distances stay below 2**53, where (d + 1) / 2 and every latency sum are
# floats and a rate below threshold is 0.0, not an overflow
MAX_DISTANCE = 2**53


def check_distance(d) -> None:
    """Raise AssignmentError unless d is an odd int in [3, MAX_DISTANCE);
    bools and floats are refused."""
    if (isinstance(d, bool) or not isinstance(d, int) or not 3 <= d < MAX_DISTANCE
            or d % 2 == 0):
        raise AssignmentError(f"distance must be an odd int in [3, 2**53), got {d!r}")


def uniform_assignment(num_qubits: int, distance: int) -> CodeAssignment:
    check_layout(num_qubits, ())
    return CodeAssignment(f"d={distance}", num_qubits, (((0, distance),),) * num_qubits)


def check_tau(tau: float) -> None:
    """Raise ValidationError unless the escalation threshold is in [0, 1]."""
    if not (0.0 <= as_real(tau, "tau") <= 1.0):
        raise ValidationError(f"tau must be in [0, 1], got {tau}")


def assign_two_distance(
    profile: SensitivityProfile, d_low: int, d_high: int, tau: float = RunConfig.tau
) -> CodeAssignment:
    """Escalate each qubit from d_low to d_high at its earliest cell whose
    mean relative PST drops below tau; qubits that never drop stay low."""
    check_tau(tau)
    distance_config((d_low, d_high))
    first: dict[int, int] = {}  # qubit -> earliest timestep below tau
    for g in profile.gates:
        if g.mean_relative_pst < tau:
            for q in g.qubits:
                first[q] = min(first.get(q, g.timestep), g.timestep)
    schedules = []
    for q in range(profile.num_qubits):
        escalate_at = first.get(q)
        if escalate_at is None or d_high == d_low:
            schedules.append(((0, d_low),))
        elif escalate_at == 0:
            schedules.append(((0, d_high),))
        else:
            schedules.append(((0, d_low), (escalate_at, d_high)))
    return CodeAssignment(
        f"d={d_low},{d_high}", profile.num_qubits, tuple(schedules)
    )


def distance_config(values) -> tuple[int, ...]:
    """A validated distance config: (d,) for a uniform code or
    (d_low, d_high) for a two-distance assignment, each odd and >= 3."""
    if not isinstance(values, (list, tuple)) or len(values) not in (1, 2):
        raise ValidationError(
            f"distance config must be a list of 1 or 2 distances, got {values!r}"
        )
    for d in values:
        check_distance(d)
    if values[-1] < values[0]:
        raise ValidationError(f"distances may only grow, got {values!r}")
    return tuple(values)


# each config adds one assignment and one row per grid point to a sweep:
# at 10,000 points, about 4 MB and 0.1 s per config. The worst case, 16
# configs x 10,000 points on the 9-qubit qpe8-full profile, runs `vdqec
# tts` in 1.8-2.1 s at 82 MB peak RSS (2 cores, Python 3.11)
MAX_CONFIGS = 16


def ladder_configs(configs) -> tuple[tuple[int, ...], ...]:
    """Validated distance configs, 1 to MAX_CONFIGS of them and each at most
    once: a config names its assignment artifact and its rows in the sweep."""
    if not isinstance(configs, (list, tuple)) or not 1 <= len(configs) <= MAX_CONFIGS:
        raise ValidationError(
            f"distance configs must be a list of 1 to {MAX_CONFIGS} configs"
        )
    out = tuple(map(distance_config, configs))
    if len(set(out)) != len(out):
        raise ValidationError(f"distance configs must be distinct, got {out}")
    return out


def ladder(profile: SensitivityProfile, configs, tau: float) -> list[CodeAssignment]:
    """One assignment per distance config: uniform for (d,), two-distance
    for (d_low, d_high). tau is checked even when no config uses it."""
    check_tau(tau)
    out = []
    for cfg in ladder_configs(configs):
        if len(cfg) == 1:
            out.append(uniform_assignment(profile.num_qubits, cfg[0]))
        else:
            out.append(assign_two_distance(profile, cfg[0], cfg[1], tau))
    return out


def logical_error_rate(
    p: float, distance: int, params: ErrorModelParams = DEFAULT_PARAMS
) -> float:
    """Per-gate logical error probability of a distance-d patch, in [0, 1]."""
    check_distance(distance)
    p = as_real(p, "physical error rate")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"physical error rate must be in (0, 1), got {p}")
    try:
        rate = params.prefactor * (p / params.threshold) ** ((distance + 1) / 2)
    except OverflowError:  # float ** raises where the rate passes 1e308
        return 1.0
    return min(1.0, float(rate))


def pst_bound(
    profile: SensitivityProfile,
    assignment: CodeAssignment,
    p: float,
    params: ErrorModelParams = DEFAULT_PARAMS,
) -> float:
    """Lower bound on PST under the error model (see module docstring)."""
    grid = [as_real(p, "physical error rate")]
    return _pst_bounds(profile, assignment, grid, params, {})[0]


def _pst_bounds(
    profile: SensitivityProfile,
    assignment: CodeAssignment,
    grid: list[float],
    params: ErrorModelParams,
    survive: dict[int, list[float]],
) -> list[float]:
    """pst_bound at every p of the grid, a list of floats, one class of
    patch distances at a time (see the module docstring). survive maps a
    distance to its 1 - rate at every p; the distances missing from it are
    added, so a sweep shares one map between its assignments."""
    if assignment.num_qubits != profile.num_qubits:
        raise AssignmentError("assignment does not match the profile's register")
    classes: dict[tuple[int, ...], tuple[int, float]] = {}
    for g in profile.gates:
        if g.faultable:
            key = tuple(assignment.distance_at(q, g.timestep) for q in g.qubits)
            n, mean_sum = classes.get(key, (0, 0.0))
            classes[key] = (n + 1, mean_sum + g.mean_relative_pst * profile.pst_ideal)
    if not classes:
        return [profile.pst_ideal] * len(grid)
    for d in {d for key in classes for d in key} - survive.keys():
        survive[d] = [1.0 - logical_error_rate(p, d, params) for p in grid]
    # ok_c at every p, in qubit order
    oks = [survive[key[0]] if len(key) == 1
           else [a * b for a, b in zip(survive[key[0]], survive[key[1]])]
           for key in classes]
    counts, means = zip(*classes.values())
    out = []
    for ok_at_p in zip(*oks):
        powers = [ok**n for ok, n in zip(ok_at_p, counts)]
        bound = profile.pst_ideal * math.prod(powers)
        for c, (ok, n, mean_sum) in enumerate(zip(ok_at_p, counts, means)):
            bound += ((1.0 - ok) * mean_sum * ok ** (n - 1)
                      * math.prod(powers[:c] + powers[c + 1:]))
        out.append(bound)
    return out


def latency(
    gates, assignment: CodeAssignment, include_resize: bool = RunConfig.include_resize
) -> int:
    """Total cycles: each gate costs the largest distance among the patches
    it touches at that timestep, plus optional resize costs. `gates` holds
    anything with .qubits and .timestep, such as circuit.ops or
    profile.gates."""
    total = 0
    for g in gates:
        total += max(assignment.distance_at(q, g.timestep) for q in g.qubits)
    if as_bool(include_resize, "include_resize"):
        total += assignment.resize_cost()
    return total


def time_to_solution(latency_cycles: int, pst_lower_bound: float) -> float:
    """Expected cycles per success; infinite when success is impossible."""
    if as_int(latency_cycles, "latency") <= 0:
        raise ValidationError("latency must be positive")
    if not as_real(pst_lower_bound, "pst bound") >= 0:  # refuses NaN
        raise ValidationError(f"pst bound must be nonnegative, got {pst_lower_bound}")
    if pst_lower_bound == 0.0:
        return math.inf
    return latency_cycles / pst_lower_bound


@dataclass(frozen=True)
class TtsPoint:
    config: str
    p: float
    latency_cycles: int
    pst_bound: float
    tts: float


# the sweep bounds 10,000 points of the default ladder (5 configs, 607
# faultable gates) in 0.21-0.23 s, about 2.6 us a point per config at any
# gate count. A 7-config x 10,000-point `vdqec tts` on a 355-gate profile
# takes 0.8-1.0 s at 46 MB, most of it building and rendering the points
# (2 cores, Python 3.11)
MAX_GRID_POINTS = 10_000


def check_grid(p_min: float, p_max: float, points: int) -> None:
    """Raise ValidationError unless log_p_grid accepts these arguments."""
    if not (0.0 < as_real(p_min, "p_min") < as_real(p_max, "p_max") < 1.0):
        raise ValidationError("need 0 < p_min < p_max < 1")
    if not 2 <= as_int(points, "points") <= MAX_GRID_POINTS:
        raise ValidationError(
            f"grid needs 2 to {MAX_GRID_POINTS} points, got {points}"
        )


def log_p_grid(p_min: float, p_max: float, points: int) -> list[float]:
    """points error rates from p_min to p_max, evenly spaced in log10, as
    a list of floats; the ends are p_min and p_max exactly. The exponents
    are np.linspace's, k * step + log10(p_min), in its order of rounding."""
    check_grid(p_min, p_max, points)
    lo = math.log10(p_min)
    step = (math.log10(p_max) - lo) / (points - 1)
    grid = [10.0 ** (k * step + lo) for k in range(points)]
    # 10**log10(p) can miss p by an ulp; the ends are the bounds asked for
    grid[0], grid[-1] = float(p_min), float(p_max)
    return grid


def sweep_tts(
    profile: SensitivityProfile,
    assignments: list[CodeAssignment],
    p_grid,
    params: ErrorModelParams = DEFAULT_PARAMS,
    include_resize: bool = RunConfig.include_resize,
) -> list[TtsPoint]:
    """Time-to-solution of every assignment across the error-rate grid,
    ordered by assignment then by p. The PST bounds of one assignment come
    from one pass over its classes of patch distances, each bitwise equal
    to pst_bound at its p (see the module docstring)."""
    grid = [as_real(p, "physical error rate") for p in p_grid]
    survive: dict[int, list[float]] = {}
    points = []
    for assignment in assignments:
        cycles = latency(profile.gates, assignment, include_resize)
        bounds = _pst_bounds(profile, assignment, grid, params, survive)
        for p, bound in zip(grid, bounds):
            points.append(
                TtsPoint(
                    config=assignment.label,
                    p=p,
                    latency_cycles=cycles,
                    pst_bound=bound,
                    tts=time_to_solution(cycles, bound),
                )
            )
    return points


def assignment_to_json(assignment: CodeAssignment) -> dict:
    return {
        "label": assignment.label,
        "num_qubits": assignment.num_qubits,
        "schedules": [
            [[start, d] for start, d in segs] for segs in assignment.schedules
        ],
    }


def assignment_from_json(doc: dict) -> CodeAssignment:
    try:
        return CodeAssignment(doc["label"], doc["num_qubits"], doc["schedules"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed assignment document: {exc}") from exc
