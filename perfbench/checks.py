"""Output checks for the vdqec benchmark, from oracles that share no code
with the program.

Every check reads the artifacts an op wrote and returns a list of failure
messages; an empty list means the artifacts are correct. The checks
recompute results with their own gate matrices, their own statevector
code and their own reading of the cost-model formulas, and never compare
bytes against a stored reference: float results may legitimately move in
the last digits, so every comparison has a stated tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np

# tolerances for recomputed values
PST_ABS_TOL = 1e-9
SWEEP_REL_TOL = 1e-9
DISTANCE_SLACK = 1e-12

_S2 = 1.0 / math.sqrt(2.0)
_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
ONE_QUBIT = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, _W]], dtype=complex),
    "Tdg": np.array([[1, 0], [0, _W.conjugate()]], dtype=complex),
}
CLIFFORD_T = frozenset(["X", "H", "S", "Sdg", "T", "Tdg"])
COMPILED_KINDS = frozenset(ONE_QUBIT) | {"CNOT"}


# -- statevector ---------------------------------------------------------
# States carry a leading batch axis: shape (k, 2**n). Qubit q is bit q of
# the basis index.


def _apply_1q(states: np.ndarray, n: int, q: int, mat: np.ndarray) -> np.ndarray:
    psi = states.reshape(states.shape[0], 2 ** (n - 1 - q), 2, 2**q)
    return np.einsum("ab,kibj->kiaj", mat, psi).reshape(states.shape)


def _apply_cnot(states: np.ndarray, n: int, ctrl: int, targ: int) -> np.ndarray:
    idx = np.arange(2**n)
    return states[:, idx ^ (((idx >> ctrl) & 1) << targ)]


def _apply(states: np.ndarray, n: int, op: dict, transpose: bool = False) -> np.ndarray:
    """Apply op to each row; with transpose, right-multiply each row by
    the op's matrix instead (the backward pass)."""
    kind, qubits = op["kind"], op["qubits"]
    if kind == "CNOT":
        return _apply_cnot(states, n, qubits[0], qubits[1])  # symmetric
    mat = ONE_QUBIT[kind]
    return _apply_1q(states, n, qubits[0], mat.T if transpose else mat)


def _correct_indices(n: int, measured: list[int], bitstring: str) -> np.ndarray:
    idx = np.arange(2**n)
    keep = np.ones(idx.size, dtype=bool)
    for q, bit in zip(measured, bitstring):
        keep &= ((idx >> q) & 1) == int(bit)
    return np.nonzero(keep)[0]


def expected_sites(ops: list[dict], mode: str) -> list[tuple[int, str]]:
    sites = []
    for i, op in enumerate(ops):
        if not op["faultable"]:
            continue
        if len(op["qubits"]) == 1:
            sites.extend((i, p) for p in "XYZ")
        elif mode == "mirrored":
            sites.extend((i, p + p) for p in "XYZ")
        else:
            pairs = ("".join(pq) for pq in itertools.product("IXYZ", repeat=2))
            sites.extend((i, pq) for pq in pairs if pq != "II")
    return sites


def oracle_profile(circuit: dict, correct: str, mode: str) -> dict:
    """The profile document `vdqec inject` writes for a compiled circuit,
    recomputed for every fault site.

    A forward pass stores the state after each gate; a backward pass
    carries the rows of the correct-outcome projector through the suffix,
    so the PST of a fault after gate g is the squared norm of those rows
    applied to the faulted state. The whole campaign costs O(gates).
    """
    n, ops, measured = circuit["num_qubits"], circuit["ops"], circuit["measured_qubits"]
    states = []
    psi = np.zeros((1, 2**n), dtype=complex)
    psi[0, 0] = 1.0
    for op in ops:
        psi = _apply(psi, n, op)
        states.append(psi)
    keep = _correct_indices(n, measured, correct)
    pst_ideal = float(np.sum(np.abs(psi[0, keep]) ** 2))

    sites = expected_sites(ops, mode)
    by_gate: dict[int, list[int]] = {}
    for k, (gi, _) in enumerate(sites):
        by_gate.setdefault(gi, []).append(k)
    rows = np.zeros((keep.size, 2**n), dtype=complex)
    rows[np.arange(keep.size), keep] = 1.0
    pst_noisy = [0.0] * len(sites)
    for g in range(len(ops) - 1, -1, -1):
        for k in by_gate.get(g, ()):
            phi = states[g]
            for p, q in zip(sites[k][1], ops[g]["qubits"]):
                if p != "I":
                    phi = _apply_1q(phi, n, q, ONE_QUBIT[p])
            pst_noisy[k] = float(np.sum(np.abs(rows @ phi[0]) ** 2))
        rows = _apply(rows, n, ops[g], transpose=True)

    gates = []
    for i, op in enumerate(ops):
        rel = [pst_noisy[k] / pst_ideal for k in by_gate.get(i, ())]
        mean, low = (float(np.mean(rel)), float(np.min(rel))) if rel else (1.0, 1.0)
        gates.append([i, op["kind"], op["qubits"], op["timestep"], op["faultable"],
                      mean, low, len(rel)])
    blob = json.dumps(circuit, sort_keys=True, separators=(",", ":")).encode()
    return {
        "circuit_digest": hashlib.sha256(blob).hexdigest(),
        "num_qubits": n,
        "mode": mode,
        "pst_ideal": pst_ideal,
        "records": [[gi, paulis, v, v / pst_ideal]
                    for (gi, paulis), v in zip(sites, pst_noisy)],
        "gates": gates,
    }


def check_profile(circuit: dict, correct: str, profile: dict) -> list[str]:
    """Compare every record and gate summary with the oracle's."""
    if any(op["kind"] not in COMPILED_KINDS for op in circuit["ops"]):
        return ["profile check needs a compiled circuit"]
    want = oracle_profile(circuit, correct, profile["mode"])
    out = [f"profile {key} differs from the oracle's"
           for key in ("circuit_digest", "num_qubits") if profile[key] != want[key]]
    if abs(profile["pst_ideal"] - want["pst_ideal"]) > PST_ABS_TOL:
        out.append(f"pst_ideal {profile['pst_ideal']!r} != oracle {want['pst_ideal']!r}")
    if [r[:2] for r in profile["records"]] != [r[:2] for r in want["records"]]:
        out.append(f"profile has {len(profile['records'])} records, expected the "
                   f"{len(want['records'])} sites of mode {profile['mode']!r} in order")
        return out
    for k, (got, exp) in enumerate(zip(profile["records"], want["records"])):
        if max(abs(got[2] - exp[2]), abs(got[3] - exp[3])) > PST_ABS_TOL:
            out.append(f"record {k} (gate {exp[0]}, {exp[1]}): pst_noisy, relative "
                       f"{got[2:]} != oracle {exp[2:]}")
    if len(profile["gates"]) != len(want["gates"]):
        out.append("profile gate summaries do not cover every op")
    for got, exp in zip(profile["gates"], want["gates"]):
        if got[:5] + got[7:] != exp[:5] + exp[7:] or max(
            abs(got[5] - exp[5]), abs(got[6] - exp[6])
        ) > PST_ABS_TOL:
            out.append(f"gate summary {exp[0]} differs from the oracle's")
    return out[:20]


# -- synthesis -----------------------------------------------------------


def rotation_distance(sequence: list[str], theta: float) -> float:
    """sqrt(1 - |tr(Rz(theta)^dag U)| / 2), U the product in time order."""
    u = np.eye(2, dtype=complex)
    for kind in sequence:
        u = ONE_QUBIT[kind] @ u
    tr = u[0, 0] + complex(math.cos(theta), -math.sin(theta)) * u[1, 1]
    return math.sqrt(max(0.0, 1.0 - abs(tr) / 2.0))


def check_compiled(source: dict, compiled: dict, epsilon: float) -> list[str]:
    """Walk the source circuit and the compiled one together.

    Exact gates must pass through unchanged. Rz(theta) must become a run
    of Clifford+T gates on its qubit within epsilon of the target, and
    ControlledPhase(theta) the sequence Rz(theta/2) on both qubits, CNOT,
    Rz(-theta/2) on the target, CNOT, each rotation checked the same way.
    """
    out = []
    ops = compiled["ops"]
    pos = 0

    def take_run(qubit: int, theta: float, faultable: bool, origin: int) -> None:
        nonlocal pos
        run = []
        while (pos < len(ops) and ops[pos]["kind"] in CLIFFORD_T
               and ops[pos]["qubits"] == [qubit]):
            if ops[pos]["faultable"] != faultable:
                out.append(f"op {pos}: faultable flag differs from source op {origin}")
            run.append(ops[pos]["kind"])
            pos += 1
        d = rotation_distance(run, theta)
        if not d <= epsilon + DISTANCE_SLACK:
            out.append(f"source op {origin}: Rz({theta!r}) string of length "
                       f"{len(run)} is at distance {d:.3e} > epsilon {epsilon}")

    def take_exact(want: dict, origin: int) -> None:
        nonlocal pos
        got = ops[pos] if pos < len(ops) else None
        if got is None or any(got[k] != want[k] for k in ("kind", "qubits", "faultable")):
            out.append(f"source op {origin}: expected {want['kind']}{want['qubits']} "
                       f"at compiled op {pos}")
        pos += 1

    for i, op in enumerate(source["ops"]):
        f = op["faultable"]
        if op["kind"] == "Rz":
            take_run(op["qubits"][0], op["params"][0], f, i)
        elif op["kind"] == "ControlledPhase":
            ctrl, targ = op["qubits"]
            theta = op["params"][0]
            cnot = {"kind": "CNOT", "qubits": [ctrl, targ], "faultable": f}
            take_run(ctrl, theta / 2, f, i)
            take_run(targ, theta / 2, f, i)
            take_exact(cnot, i)
            take_run(targ, -theta / 2, f, i)
            take_exact(cnot, i)
        else:
            take_exact(op, i)
        if len(out) >= 20:
            return out
    if pos != len(ops):
        out.append(f"compiled circuit has {len(ops) - pos} ops past the source")
    if [op["timestep"] for op in ops] != list(range(len(ops))):
        out.append("compiled timesteps are not renumbered 0..n-1")
    if (compiled["num_qubits"], compiled["measured_qubits"]) != (
        source["num_qubits"], source["measured_qubits"]
    ):
        out.append("compiled register differs from the source")
    return out


def qpe_bitstring(counting: int, num: int, den: int) -> str:
    estimate = round(num / den * 2**counting) % 2**counting
    return format(estimate, f"0{counting}b")


# -- cost model ----------------------------------------------------------


def derive_assignment(profile: dict, d_low: int, d_high: int, tau: float) -> dict:
    """Two-distance rule: a qubit moves from d_low to d_high at the first
    timestep where a gate touching it has mean relative PST below tau."""
    schedules = []
    for q in range(profile["num_qubits"]):
        escalate = next(
            (ts for _, _, qubits, ts, _, mean, _, _ in profile["gates"]
             if q in qubits and mean < tau),
            None,
        )
        if escalate is None or d_high == d_low:
            schedules.append([[0, d_low]])
        elif escalate == 0:
            schedules.append([[0, d_high]])
        else:
            schedules.append([[0, d_low], [escalate, d_high]])
    return {"label": f"d={d_low},{d_high}", "num_qubits": profile["num_qubits"],
            "schedules": schedules}


def assignment_for(profile: dict, config: tuple[int, ...], tau: float) -> dict:
    if len(config) == 1:
        return {"label": f"d={config[0]}", "num_qubits": profile["num_qubits"],
                "schedules": [[[0, config[0]]]] * profile["num_qubits"]}
    return derive_assignment(profile, config[0], config[1], tau)


def check_assignment(profile: dict, doc: dict, config: tuple[int, ...], tau: float) -> list[str]:
    want = assignment_for(profile, config, tau)
    if doc != want:
        return [f"assignment {want['label']} differs from the two-distance rule"]
    return []


def _distance_at(schedule: list[list[int]], ts: int) -> int:
    return [d for start, d in schedule if start <= ts][-1]


def expected_sweep(
    profile: dict, configs: list[tuple[int, ...]], p_min: float, p_max: float,
    points: int, tau: float, prefactor: float, threshold: float, resize: bool,
) -> list[tuple[str, float, int, float, float]]:
    """Rows (config, p, latency, pst_bound, tts) from the formulas:
    P_L = min(1, A (p/p_th)^((d+1)/2)); q_g = 1 - prod over the gate's
    patches of (1 - P_L); bound = PST_ideal prod_g (1 - q_g)
    + sum_g q_g prod_{g' != g} (1 - q_g') mean_g PST_ideal."""
    grid = np.logspace(math.log10(p_min), math.log10(p_max), points)
    gates = profile["gates"]
    faultable = [g for g in gates if g[4]]
    pst_ideal = profile["pst_ideal"]
    mean_noisy = np.array([g[5] for g in faultable]) * pst_ideal
    rows = []
    for config in configs:
        a = assignment_for(profile, config, tau)
        sched = a["schedules"]
        cycles = sum(max(_distance_at(sched[q], g[3]) for q in g[2]) for g in gates)
        if resize:
            cycles += sum(max(s[0][1], s[-1][1]) for s in sched if s[0][1] != s[-1][1])
        ok = np.ones((points, len(faultable)))
        for j, (_, _, qubits, ts, *_rest) in enumerate(faultable):
            for q in qubits:
                d = _distance_at(sched[q], ts)
                ok[:, j] *= 1.0 - np.minimum(1.0, prefactor * (grid / threshold) ** ((d + 1) / 2))
        q_g = 1.0 - ok
        before = np.cumprod(np.hstack([np.ones((points, 1)), ok]), axis=1)
        after = np.cumprod(np.hstack([ok, np.ones((points, 1))])[:, ::-1], axis=1)[:, ::-1]
        bound = pst_ideal * before[:, -1] + np.sum(
            q_g * before[:, :-1] * after[:, 1:] * mean_noisy, axis=1
        )
        for p, b in zip(grid.tolist(), bound.tolist()):
            rows.append((a["label"], p, cycles, b, cycles / b if b > 0 else math.inf))
    return rows


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= SWEEP_REL_TOL * max(abs(a), abs(b), 1e-300)


def check_sweep(csv_text: str, expected: list[tuple]) -> list[str]:
    lines = list(csv.reader(io.StringIO(csv_text, newline="")))
    if not lines or lines[0] != ["config", "p", "latency_cycles", "pst_bound", "tts"]:
        return ["sweep.csv header is wrong"]
    rows = lines[1:]
    if len(rows) != len(expected):
        return [f"sweep.csv has {len(rows)} rows, expected {len(expected)}"]
    out = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        label, p, cycles, bound, tts = want
        try:
            got = (row[0], float(row[1]), int(row[2]), float(row[3]), float(row[4]))
        except (ValueError, IndexError):
            out.append(f"sweep row {i} is malformed: {row}")
            continue
        if (got[0] != label or got[2] != cycles or not _close(got[1], p)
                or not _close(got[3], bound) or not _close(got[4], tts)):
            out.append(f"sweep row {i} {row} != formula {want}")
        if len(out) >= 20:
            break
    return out


# -- artifacts -----------------------------------------------------------


def check_manifest(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["artifacts"]
    out = []
    present = sorted(set(os.listdir(out_dir)) - {"manifest.json"})
    if present != sorted(listed):
        out.append(f"files {present} differ from the manifest's {sorted(listed)}")
    for name, digest in listed.items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                out.append(f"{name}: sha256 does not match manifest.json")
    return out


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def check_svg(path: str) -> list[str]:
    text = read_text(path)
    if not (text.startswith("<?xml") and text.rstrip().endswith("</svg>")):
        return [f"{os.path.basename(path)} is not a complete SVG document"]
    return []


def check_pipeline_dir(out_dir: str, config: dict) -> list[str]:
    """All checks on a `vdqec pipeline` output directory."""
    try:
        out = check_manifest(out_dir)
        circuit_doc = _load(os.path.join(out_dir, "circuit.json"))
        compiled_doc = _load(os.path.join(out_dir, "compiled.json"))
        profile = _load(os.path.join(out_dir, "profile.json"))
        correct = qpe_bitstring(config["counting_qubits"], config["phase_num"],
                                config["phase_den"])
        if circuit_doc["correct_bitstring"] != correct:
            out.append("circuit.json correct_bitstring is not the QPE estimate")
        out += check_compiled(circuit_doc["circuit"], compiled_doc["circuit"],
                              config["synthesis_epsilon"])
        if profile["mode"] != config["injection_mode"]:
            out.append("profile mode differs from the config")
        out += check_profile(compiled_doc["circuit"], correct, profile)
        configs = [tuple(c) for c in config["distance_configs"]]
        for cfg in configs:
            name = "assignment_d" + "_".join(map(str, cfg)) + ".json"
            out += check_assignment(profile, _load(os.path.join(out_dir, name)),
                                    cfg, config["tau"])
        expected = expected_sweep(
            profile, configs, config["p_min"], config["p_max"], config["p_points"],
            config["tau"], config["prefactor"], config["threshold"],
            config["include_resize"],
        )
        out += check_sweep(read_text(os.path.join(out_dir, "sweep.csv")), expected)
        out += check_svg(os.path.join(out_dir, "curves.svg"))
        out += check_svg(os.path.join(out_dir, "heatmap.svg"))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return out
