"""The sensitivity profile model: fault sites, records, gate summaries and
the profile document.

This is the numpy-free side of the fault campaign. vdqec.inject runs the
campaign, which needs numpy, and re-exports every name here; the cost
model, the renderers and the commands that start from a saved profile
(assign, heatmap, tts) read a profile through this module alone.

A profile's records are its fault sites in campaign order (_sites), and
each gate summary is the mean, minimum and count of the relative PST of
its gate's records. The loader recomputes both from the records and
refuses a document whose fields disagree. The campaign takes each mean
with numpy (float(np.mean(v)), whose rounding the locked artifacts fix);
the loader takes it with math.fsum, which can differ in the last bit, so
a stored mean is checked to within _TOL of its size.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .circuits import GATE_SIGNATURES, MAX_QUBITS, MAX_TIMESTEP
from .config import MODES
from .errors import ValidationError, as_bool, as_int, as_real

# how far a loaded profile's derived numbers may sit from the values
# recomputed from its records, relative to their size where that exceeds 1
# (the floats were rounded once already; a relative PST reaches
# 1 / pst_ideal, so one ulp of a mean can exceed any absolute bound)
_TOL = 1e-12
# (mean, min, count) reported for a gate without records
_NO_RECORDS = (1.0, 1.0, 0)


@dataclass(frozen=True)
class FaultSite:
    """Pauli error right after gate ops[gate_index]; paulis[i] acts on
    qubits[i] of that gate ('I' entries are skipped)."""

    gate_index: int
    paulis: tuple[str, ...]

    def __post_init__(self):
        if any(p not in ("I", "X", "Y", "Z") for p in self.paulis):
            raise ValidationError(f"bad Pauli label in {self.paulis}")
        if all(p == "I" for p in self.paulis):
            raise ValidationError("a fault site needs a non-identity Pauli")


@dataclass(frozen=True)
class SensitivityRecord:
    site: FaultSite
    pst_noisy: float
    relative_pst: float


@dataclass(frozen=True)
class GateSummary:
    """Per-gate slice of the campaign, kept so downstream cost models can
    run from the profile alone."""

    gate_index: int
    kind: str
    qubits: tuple[int, ...]
    timestep: int
    faultable: bool
    mean_relative_pst: float
    min_relative_pst: float
    n_records: int


@dataclass(frozen=True)
class SensitivityProfile:
    circuit_digest: str
    num_qubits: int
    mode: str
    pst_ideal: float
    records: tuple[SensitivityRecord, ...]
    gates: tuple[GateSummary, ...]

    @property
    def cells(self) -> dict[tuple[int, int], GateSummary]:
        """(qubit, timestep) -> the summary of the gate at that cell."""
        return {(q, g.timestep): g for g in self.gates for q in g.qubits}


def _check_distinct_cells(gates) -> None:
    """Raise ValidationError if two gates touch one (qubit, timestep) cell;
    `gates` holds anything with .qubits and .timestep."""
    seen = set()
    for g in gates:
        for q in g.qubits:
            if (q, g.timestep) in seen:
                raise ValidationError(
                    f"two gates act on qubit {q} at timestep {g.timestep}; "
                    "a sensitivity cell holds one gate"
                )
            seen.add((q, g.timestep))


def _sites(gates, mode: str) -> list[FaultSite]:
    """The fault sites of `gates`, anything with .qubits and .faultable,
    such as circuit.ops or profile.gates, in campaign order: by gate index,
    then by the Pauli order of `paulis`."""

    def paulis(k):
        if mode == "mirrored":
            return [(p,) * k for p in "XYZ"]
        return list(itertools.product("IXYZ", repeat=k))[1:]  # [0] is the identity

    return [FaultSite(i, ps) for i, op in enumerate(gates) if op.faultable
            for ps in paulis(len(op.qubits))]


def _by_gate(records) -> dict[int, list[float]]:
    """gate index -> the relative PST of its records, in record order."""
    by_gate: dict[int, list[float]] = {}
    for rec in records:
        by_gate.setdefault(rec.site.gate_index, []).append(rec.relative_pst)
    return by_gate


def profile_to_json(profile: SensitivityProfile) -> dict:
    return {
        "circuit_digest": profile.circuit_digest,
        "num_qubits": profile.num_qubits,
        "mode": profile.mode,
        "pst_ideal": profile.pst_ideal,
        "records": [
            [r.site.gate_index, "".join(r.site.paulis), r.pst_noisy, r.relative_pst]
            for r in profile.records
        ],
        "gates": [
            [
                g.gate_index,
                g.kind,
                list(g.qubits),
                g.timestep,
                g.faultable,
                g.mean_relative_pst,
                g.min_relative_pst,
                g.n_records,
            ]
            for g in profile.gates
        ],
    }


def profile_from_json(doc: dict) -> SensitivityProfile:
    try:
        records = tuple(
            SensitivityRecord(
                FaultSite(as_int(gi, "gate index"), tuple(paulis)),
                as_real(pn, "pst_noisy"), as_real(rp, "relative_pst"),
            )
            for gi, paulis, pn, rp in doc["records"]
        )
        gates = tuple(
            GateSummary(
                as_int(gi, "gate index"), kind,
                tuple(as_int(q, "qubit") for q in qubits),
                as_int(ts, "timestep"), as_bool(f, "faultable"),
                as_real(mean, "mean_relative_pst"),
                as_real(mn, "min_relative_pst"), as_int(nr, "n_records"),
            )
            for gi, kind, qubits, ts, f, mean, mn, nr in doc["gates"]
        )
        _check_distinct_cells(gates)
        profile = SensitivityProfile(
            circuit_digest=doc["circuit_digest"],
            num_qubits=as_int(doc["num_qubits"], "num_qubits"),
            mode=doc["mode"],
            pst_ideal=as_real(doc["pst_ideal"], "pst_ideal"),
            records=records,
            gates=gates,
        )
        _check_consistent(profile)
        return profile
    # OverflowError: records whose sum passes 1e308 (fsum refuses to round
    # it), which only a pst_ideal far below any campaign's can give
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed profile document: {exc}") from exc


def _check_consistent(profile: SensitivityProfile) -> None:
    """Raise ValidationError unless the profile's fields agree with each
    other the way run_campaign writes them."""

    def bad(what):
        raise ValidationError(f"inconsistent profile: {what}")

    def close(a, b):
        tol = _TOL * max(1.0, abs(b))
        return abs(a - b) <= tol < math.inf  # False for NaN and for b = inf

    n, gates = profile.num_qubits, profile.gates
    if profile.mode not in MODES:
        bad(f"mode must be one of {MODES}, got {profile.mode!r}")
    if not (isinstance(profile.circuit_digest, str)
            and re.fullmatch("[0-9a-f]{64}", profile.circuit_digest)):
        bad(f"circuit_digest must be 64 hex characters, got {profile.circuit_digest!r}")
    if not 1 <= n <= MAX_QUBITS:
        bad(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
    if not 0 < profile.pst_ideal <= 1 + _TOL:
        bad(f"pst_ideal must be in (0, 1], got {profile.pst_ideal}")
    for i, g in enumerate(gates):
        if g.gate_index != i:
            bad(f"gate {i} has gate index {g.gate_index}")
        if GATE_SIGNATURES.get(g.kind, (None,))[0] != len(g.qubits):
            bad(f"gate {i}: {g.kind!r} on {len(g.qubits)} qubit(s)")
        if any(not 0 <= q < n for q in g.qubits):
            bad(f"gate {i} touches a qubit outside [0, {n}): {g.qubits}")
        if not 0 <= g.timestep < MAX_TIMESTEP:
            bad(f"gate {i} has timestep {g.timestep} outside [0, 2**53)")
        if i and g.timestep < gates[i - 1].timestep:
            bad(f"gate {i} has timestep {g.timestep}, before gate {i - 1}'s")
    sites = _sites(gates, profile.mode)
    if [rec.site for rec in profile.records] != sites:
        bad(f"the records are not the {len(sites)} {profile.mode} fault sites "
            "of its gates, in campaign order")
    for rec in profile.records:
        if not 0 <= rec.pst_noisy <= 1 + _TOL:
            bad(f"pst_noisy {rec.pst_noisy} is not a probability")
        if not close(rec.relative_pst, rec.pst_noisy / profile.pst_ideal):
            bad(f"relative_pst {rec.relative_pst} is not pst_noisy / pst_ideal")
    stats = {i: (math.fsum(v) / len(v), min(v), len(v))
             for i, v in _by_gate(profile.records).items()}
    for g in gates:
        mean, low, count = stats.get(g.gate_index, _NO_RECORDS)
        if not (close(g.mean_relative_pst, mean) and close(g.min_relative_pst, low)
                and g.n_records == count):
            bad(f"the summary of gate {g.gate_index} does not match its records")
