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

A sweep evaluates the bound for one assignment over a whole grid of p as
(points x gates) blocks. Each faultable gate's patch distances are read
once. For each block of points the scalar rate function fills a survive
block: one 1 - rate column per distinct distance, plus one column of rate
0. Each gate then takes one gather from it, q_g = 1 - survive[first
patch] * survive[second patch], where a one-qubit gate's second patch is
the rate-0 column. As x * 1.0 = x exactly, that is the one-point
formula's product in qubit order. The q_g block is C-ordered, so the
products run along each row and np.sum(axis=1) adds a row's terms in the
order np.sum adds one point's: every bound is bitwise equal to the
one-point pst_bound. A block holds at most BLOCK_CELLS cells, so memory
stays bounded for any grid.

Every power is Python's float power: the rate's (p / threshold)^((d+1)/2)
and each point 10^x of log_p_grid. numpy's vectorised power rounds by SIMD
level, so the bytes of a sweep would depend on the host.

Only the sweep's two array functions, _pst_bounds and log_p_grid, use
numpy, and each imports it when called: the module loads no numpy at
import, so code assignment (vdqec assign) and the checks RunConfig calls,
check_grid among them, run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import RunConfig
from .errors import AssignmentError, ValidationError, as_int, as_real
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
    strictly increasing starts and nondecreasing odd distances >= 3; the
    first segment must start at timestep 0 so every timestep is covered.
    """

    label: str
    num_qubits: int
    schedules: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
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
        if not (0 <= qubit < self.num_qubits):
            raise AssignmentError(f"qubit {qubit} outside assignment")
        if timestep < 0:
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
    schedules = tuple((((0, distance),)) for _ in range(num_qubits))
    return CodeAssignment(f"d={distance}", num_qubits, schedules)


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
# at 10,000 points, about 4.4 MB and 0.2 s per config. The worst case, 16
# configs x 10,000 points on the 9-qubit qpe8-full profile, runs `vdqec
# tts` in 3.8-3.9 s at 107 MB peak RSS (2 cores, Python 3.11)
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
    if not (0.0 < p < 1.0):
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
    return float(_pst_bounds(profile, assignment, [p], params)[0])


# cells (grid points x faultable gates) in one block of _pst_bounds: a
# 7-config x 1,000-point tts on a 355-gate profile peaked at 38 MB of RSS
# with 2^14 or 2^15, 40 MB with 2^16 and 55 MB with 2^20
BLOCK_CELLS = 1 << 15


def _pst_bounds(
    profile: SensitivityProfile,
    assignment: CodeAssignment,
    p_grid,
    params: ErrorModelParams,
):
    """pst_bound at every p of the grid, as an array, in blocks of at most
    BLOCK_CELLS cells (see the module docstring)."""
    import numpy as np

    if assignment.num_qubits != profile.num_qubits:
        raise AssignmentError("assignment does not match the profile's register")
    grid = [float(p) for p in p_grid]
    faultable = [g for g in profile.gates if g.faultable]
    if not faultable:
        return np.full(len(grid), profile.pst_ideal)
    patches = [
        tuple(assignment.distance_at(q, g.timestep) for q in g.qubits)
        for g in faultable
    ]
    distances = sorted({d for t in patches for d in t})
    column = {d: i for i, d in enumerate(distances)}
    # a one-qubit gate's second patch is the extra column, of rate 0
    first = np.array([column[t[0]] for t in patches])
    second = np.array([column[t[1]] if len(t) == 2 else len(distances)
                       for t in patches])
    mean_noisy = np.array(
        [g.mean_relative_pst * profile.pst_ideal for g in faultable]
    )
    rows = max(1, BLOCK_CELLS // len(faultable))
    out = np.empty(len(grid))
    for start in range(0, len(grid), rows):
        ps = grid[start : start + rows]
        survive = 1.0 - np.array(
            [[logical_error_rate(p, d, params) for d in distances] + [0.0]
             for p in ps]
        )
        # q_g = 1 - survive[first] * survive[second], in place. take()
        # returns C-ordered blocks, where survive[:, first] would not, so
        # np.sum(axis=1) adds each row in the order it adds one point's
        q_g = survive.take(first, axis=1)
        q_g *= survive.take(second, axis=1)
        np.subtract(1.0, q_g, out=q_g)
        ok = 1.0 - q_g
        # prod over gates != i, robust to q_g == 1
        ones = np.ones((len(ps), 1))
        prefix = np.hstack([ones, np.cumprod(ok, axis=1)])
        suffix = np.hstack([np.cumprod(ok[:, ::-1], axis=1)[:, ::-1], ones])
        excl = prefix[:, :-1] * suffix[:, 1:]
        out[start : start + len(ps)] = profile.pst_ideal * prefix[:, -1] + np.sum(
            q_g * excl * mean_noisy, axis=1
        )
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
    if include_resize:
        total += assignment.resize_cost()
    return total


def time_to_solution(latency_cycles: int, pst_lower_bound: float) -> float:
    """Expected cycles per success; infinite when success is impossible."""
    if latency_cycles <= 0:
        raise ValidationError("latency must be positive")
    if pst_lower_bound < 0:
        raise ValidationError("pst bound must be nonnegative")
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


# the block sweep bounds 10,000 points of the default ladder (5 configs,
# 607 faultable gates) in 0.6-0.8 s. A 7-config x 10,000-point `vdqec tts`
# on a 355-gate profile takes 1.5-1.7 s at 65 MB, a third of it the bounds
# and the rest building and rendering the points (2 cores, Python 3.11,
# numpy 2.4)
MAX_GRID_POINTS = 10_000


def check_grid(p_min: float, p_max: float, points: int) -> None:
    """Raise ValidationError unless log_p_grid accepts these arguments."""
    if not (0.0 < as_real(p_min, "p_min") < as_real(p_max, "p_max") < 1.0):
        raise ValidationError("need 0 < p_min < p_max < 1")
    if not 2 <= as_int(points, "points") <= MAX_GRID_POINTS:
        raise ValidationError(
            f"grid needs 2 to {MAX_GRID_POINTS} points, got {points}"
        )


def log_p_grid(p_min: float, p_max: float, points: int):
    """points error rates from p_min to p_max, evenly spaced in log10, as
    an array; the ends are p_min and p_max exactly."""
    import numpy as np

    check_grid(p_min, p_max, points)
    exponents = np.linspace(math.log10(p_min), math.log10(p_max), points)
    grid = np.array([10.0 ** x for x in exponents.tolist()])
    # 10**log10(p) can miss p by an ulp; the ends are the bounds asked for
    grid[0], grid[-1] = p_min, p_max
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
    from one pass over (points x gates) blocks, each bitwise equal to
    pst_bound at its p (see the module docstring)."""
    points = []
    for assignment in assignments:
        cycles = latency(profile.gates, assignment, include_resize)
        bounds = _pst_bounds(profile, assignment, p_grid, params)
        for p, bound in zip(p_grid, bounds.tolist()):
            points.append(
                TtsPoint(
                    config=assignment.label,
                    p=float(p),
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
        return CodeAssignment(
            label=doc["label"],
            num_qubits=as_int(doc["num_qubits"], "num_qubits"),
            schedules=tuple(
                tuple(
                    (as_int(s, "segment start"), as_int(d, "distance"))
                    for s, d in segs
                )
                for segs in doc["schedules"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed assignment document: {exc}") from exc
