"""Benchmark of the vdqec command line tool.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a vdqec checkout; the program is run from src/ with
no install step. One client drives a closed loop: each op is one or two
fresh `python3 -m vdqec.cli` child processes, started only after the
previous op ended, each with an empty output directory and its own empty
HOME, TMPDIR and XDG_CACHE_HOME. Every op's outputs are checked by the
oracles in checks.py. The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics from a traced run
with --trace 1. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from traced import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # kept out of tuning; use it to confirm a claimed gain
# setup_s is the median of SETUP_BEFORE + SETUP_AFTER set-ups, each the
# mean of SETUP_RUNS processes: on the measuring machine single runs
# switch between a fast and a slow mode, which makes a plain median jump
SETUP_RUNS = 3
SETUP_BEFORE, SETUP_AFTER = 2, 1
CHILD_TIMEOUT_S = 170.0

RESWEEP_CONFIGS = ["3", "3,5", "5", "5,7", "7", "7,9", "9"]
RESWEEP_P_POINTS = 1000
TAU = 0.9
PREFACTOR = 0.03
THRESHOLD = 0.0057
P_MIN, P_MAX = 1e-5, 1e-2
ASSIGN_D = (3, 5)


def pipeline_config(counting: int, num: int, den: int, epsilon: float, mode: str) -> dict:
    """A complete RunConfig document; every knob is spelled out so the
    checks do not depend on the program's defaults."""
    return {
        "schema_version": 1,
        "counting_qubits": counting,
        "phase_num": num,
        "phase_den": den,
        "synthesis_epsilon": epsilon,
        "max_length": 34,
        "injection_mode": mode,
        "prefactor": PREFACTOR,
        "threshold": THRESHOLD,
        "distance_configs": [[3], [3, 5], [5], [5, 7], [7]],
        "p_min": P_MIN,
        "p_max": P_MAX,
        "p_points": 50,
        "tau": TAU,
        "include_resize": True,
    }


def make_config(workload: str, seed: int) -> dict:
    """The seed picks an odd phase numerator; every odd numerator needs the
    same longest rotation string, so the seed moves the angles, not the
    size of the synthesis search."""
    rng = random.Random(seed)
    if workload == "qpe5-mirrored":
        return pipeline_config(5, 2 * rng.randrange(16) + 1, 32, 0.03, "mirrored")
    return pipeline_config(8, 2 * rng.randrange(128) + 1, 256, 0.1, "full-depolarizing")


WORKLOADS = ("qpe5-mirrored", "qpe8-full", "resweep")


# -- child processes -----------------------------------------------------


class Child:
    """Outcome of one child process: wall time, peak RSS, exit code."""

    def __init__(self, wall_s: float, rss_mb: float, code: int, stderr: str):
        self.wall_s, self.rss_mb, self.code, self.stderr = wall_s, rss_mb, code, stderr


def run_child(cmd: list[str], home: Path) -> Child:
    """Run cmd with a fresh HOME/TMPDIR/XDG_CACHE_HOME under home and wait
    for it with wait4, which also gives its peak RSS."""
    home.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "VDQEC_THREADS"}
    env.update(PYTHONPATH=str(SRC), HOME=str(home), TMPDIR=str(home),
               XDG_CACHE_HOME=str(home))
    err_path = home / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(home), env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")[-2000:]
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def vdqec(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "vdqec.cli", *args]


def traced_vdqec(args: list[str], spans: Path, run_id: str) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), "--run-id", run_id,
            "--spans", str(spans), "--", *args]


# -- ops -----------------------------------------------------------------


class Op:
    """One op: its commands' total wall time, largest peak RSS, and the
    failures its exit codes and output checks found."""

    def __init__(self):
        self.wall_s, self.rss_mb, self.failures = 0.0, 0.0, []

    def add(self, child: Child, what: str) -> None:
        self.wall_s += child.wall_s
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if child.code != 0:
            self.failures.append(f"{what} exited {child.code}: {child.stderr.strip()}")


class Workload:
    """Generated inputs plus the commands of one op and their checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.config = make_config(name, seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.profile_path = self.profile = self.expected_sweep = None

    def prepare(self) -> None:
        """resweep: build the saved profile once, untimed. The program
        compiles the circuit; the profile comes from the checks' oracle,
        which writes the same document as `vdqec inject` in a second
        instead of 15 (the other workloads check the program's own)."""
        if self.name != "resweep":
            return
        saved = self.work / "saved"
        cfg = self.config
        compiled = saved / "compiled.json"
        child = run_child(vdqec([
            "qpe", "--counting", str(cfg["counting_qubits"]),
            "--phase-num", str(cfg["phase_num"]), "--phase-den", str(cfg["phase_den"]),
            "--compile", repr(cfg["synthesis_epsilon"]), "-o", str(compiled)]),
            saved / "home")
        if child.code != 0:
            raise SystemExit(f"resweep set-up failed: {child.stderr}")
        doc = json.loads(compiled.read_text())
        correct = checks.qpe_bitstring(cfg["counting_qubits"], cfg["phase_num"],
                                       cfg["phase_den"])
        if doc["correct_bitstring"] != correct:
            raise SystemExit("resweep set-up failed: wrong QPE bitstring")
        self.profile = checks.oracle_profile(doc["circuit"], correct, cfg["injection_mode"])
        self.profile_path = saved / "profile.json"
        self.profile_path.write_text(json.dumps(self.profile))
        self.expected_sweep = checks.expected_sweep(
            self.profile, [tuple(map(int, c.split(","))) for c in RESWEEP_CONFIGS],
            P_MIN, P_MAX, RESWEEP_P_POINTS, TAU, PREFACTOR, THRESHOLD, True)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        if self.name != "resweep":
            return [("pipeline", ["pipeline", "--config", str(self.config_path),
                                  "--out-dir", str(out)])]
        prof = str(self.profile_path)
        return [
            ("tts", ["tts", "--profile", prof, "--configs", *RESWEEP_CONFIGS,
                     "--p-min", repr(P_MIN), "--p-max", repr(P_MAX),
                     "--p-points", str(RESWEEP_P_POINTS), "--tau", repr(TAU),
                     "--prefactor", repr(PREFACTOR), "--threshold", repr(THRESHOLD),
                     "--out-csv", str(out / "sweep.csv"),
                     "--out-svg", str(out / "curves.svg")]),
            ("assign", ["assign", "--profile", prof, "--d-low", str(ASSIGN_D[0]),
                        "--d-high", str(ASSIGN_D[1]), "--tau", repr(TAU),
                        "-o", str(out / "assignment.json")]),
        ]

    def check(self, out: Path) -> list[str]:
        if self.name != "resweep":
            return checks.check_pipeline_dir(str(out), self.config)
        try:
            text = checks.read_text(str(out / "sweep.csv"))
            failures = checks.check_sweep(text, self.expected_sweep)
            failures += checks.check_svg(str(out / "curves.svg"))
            doc = json.loads((out / "assignment.json").read_text())
            failures += checks.check_assignment(self.profile, doc, ASSIGN_D, TAU)
        except (OSError, ValueError) as exc:
            failures = [f"unreadable artifact: {exc}"]
        return failures

    def run_op(self, index: int, trace_dir: Path | None = None,
               run_id: str = "", keep: bool = False) -> Op:
        """Run one op (traced in-process when trace_dir is given) and check it."""
        base = self.work / f"op{index}"
        out = base / "out"
        out.mkdir(parents=True)
        op = Op()
        for what, args in self.commands(out):
            cmd = (vdqec(args) if trace_dir is None
                   else traced_vdqec(args, trace_dir / f"spans-{index}-{what}.json", run_id))
            op.add(run_child(cmd, base / f"home-{what}"), what)
        if not op.failures:
            op.failures = self.check(out)
        if not keep:
            shutil.rmtree(base)
        return op


# -- statistics ----------------------------------------------------------


def tail(values: list[float]) -> str:
    """The value at the highest percentile with at least ten samples beyond
    it, or why there is none."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return f"undefined: {n} ops, and a tail needs 10 beyond it"
    return f"{ordered[n - 11]!r} s at p{100 * (n - 10) / n:.1f} ({n} ops)"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def setup_time(work: Path, count: int) -> list[float]:
    """Mean wall times of fresh `vdqec --version` processes, SETUP_RUNS per
    set-up: the import and parser set-up every op pays."""
    means = []
    for i in range(count):
        times = []
        for j in range(SETUP_RUNS):
            child = run_child(vdqec(["--version"]), work / f"setup{i}-{j}")
            if child.code != 0:
                raise SystemExit(f"vdqec --version failed: {child.stderr}")
            times.append(child.wall_s)
        means.append(statistics.mean(times))
    return means


# -- traced run ----------------------------------------------------------


def load_spans(paths: list[Path]) -> tuple[list, dict]:
    """Merge span files, renumbering ids so they stay unique."""
    spans, attrs = [], {}
    for path in paths:
        doc = json.loads(path.read_text())
        offset = len(spans)
        for sid, parent, name, start, end in doc["spans"]:
            spans.append([sid + offset, parent + offset if parent >= 0 else -1,
                          name, start, end])
        attrs.update({int(k) + offset: v for k, v in doc["attrs"].items()})
    return spans, attrs


def layer_metrics(spans: list, attrs: dict, op_wall: float, traced_wall: float,
                  micro: dict) -> dict[str, dict]:
    dur = defaultdict(list)
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        dur[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for sid, parent, name, start, end in spans:
        self_s[name.split(".")[0]] += (end - start) - child_time[sid]

    def counts(name: str, key: str) -> list:
        return [attrs[s[0]][key] for s in spans
                if s[2] == name and key in attrs.get(s[0], {})]

    def total(*names: str) -> float:
        return sum(sum(dur[n]) for n in names)

    rz = dur["synth.approximate_rz"]
    rss = [(a["maxrss_kb_after"] - a["maxrss_kb_before"]) / 1024.0
           for a in attrs.values() if "maxrss_kb_after" in a]
    sites = sum(counts("inject.enumerate_sites", "sites"))
    campaign = total("inject.run_campaign")
    loads = ("cli._read_json", "inject.profile_from_json",
             "pipeline.config_from_json", "sim.circuit_from_json")
    commands = [n for n in dur if n.startswith("cli.cmd_")]
    out = {
        "synth.rz_cold_s": metric(rz[0] if rz else 0.0, "s"),
        "synth.rz_warm_ms.p50": metric(1e3 * statistics.median(rz[1:]) if len(rz) > 1 else 0.0, "ms"),
        "synth.compile_s": metric(total("synth.compile_circuit"), "s"),
        "synth.rss_mb": metric(sum(rss), "MB"),
        "synth.rotations": metric(len(rz), "count"),
        "synth.max_length": metric(max(counts("synth.approximate_rz", "length"), default=0), "count"),
        "synth.t_count": metric(sum(counts("synth.approximate_rz", "t_count")), "count"),
    }
    out.update({k: metric(v, "us" if "_us" in k else "ms") for k, v in micro.items()})
    out.update({
        "inject.campaign_s": metric(campaign, "s"),
        "inject.us_per_site": metric(1e6 * campaign / sites if sites else 0.0, "us"),
        "inject.sites": metric(sites, "count"),
        "inject.gate_applications": metric(
            sum(counts("inject.enumerate_sites", "gate_applications")), "count"),
        "qecc.pst_bound_us": metric(
            1e6 * statistics.median(dur["qecc.pst_bound"]) if dur["qecc.pst_bound"] else 0.0, "us"),
        "qecc.faultable_gates": metric(max(counts("qecc.pst_bound", "faultable"), default=0), "count"),
        "qecc.sweep_tts_s": metric(total("qecc.sweep_tts"), "s"),
        "qecc.assign_ms": metric(1e3 * total("qecc.assign_two_distance"), "ms"),
        "qecc.points": metric(sum(counts("qecc.sweep_tts", "points")), "count"),
        "render.sweep_ms": metric(1e3 * total("render.sweep_csv_bytes", "render.curves_svg_bytes"), "ms"),
        "render.heatmap_ms": metric(1e3 * total("render.heatmap_csv_bytes", "render.heatmap_svg_bytes"), "ms"),
        "render.bytes": metric(sum(sum(counts(f"render.{n}", "bytes")) for n in (
            "heatmap_csv_bytes", "heatmap_svg_bytes", "sweep_csv_bytes", "curves_svg_bytes")), "bytes"),
        "pipeline.load_ms": metric(1e3 * total(*loads), "ms"),
        "pipeline.run_s": metric(total("pipeline.run_pipeline"), "s"),
        "cli.process_s": metric(traced_wall - total(*commands), "s"),
        "trace.overhead_s": metric(traced_wall - op_wall, "s"),
    })
    out.update({f"{layer}.self_s": metric(v, "s") for layer, v in self_s.items()})
    return out


def traced_run(wl: Workload) -> tuple[dict, int, int, str]:
    """One untraced op, the same op traced in-process, and the sim kernels.
    Returns (per-layer metrics, ops attempted, ops failed, span file)."""
    run_id = f"{wl.name}-seed{wl.seed}-{os.getpid()}-{time.time_ns()}"
    trace_dir = wl.work / "trace"
    trace_dir.mkdir()
    plain = wl.run_op(0)
    with_spans = wl.run_op(1, trace_dir, run_id, keep=True)
    compiled = (wl.work / "saved" / "compiled.json" if wl.name == "resweep"
                else wl.work / "op1" / "out" / "compiled.json")
    micro_path = trace_dir / "micro.json"
    child = run_child([sys.executable, str(HERE / "traced.py"), "--micro",
                       str(compiled), "--out", str(micro_path)], wl.work / "micro")
    if child.code != 0:
        raise SystemExit(f"sim kernel timing failed: {child.stderr}")
    spans, attrs = load_spans(sorted(trace_dir.glob("spans-*.json")))
    metrics = layer_metrics(spans, attrs, plain.wall_s, with_spans.wall_s,
                            json.loads(micro_path.read_text()))
    WORK_ROOT.mkdir(exist_ok=True)
    trace_file = WORK_ROOT / f"trace-{wl.name}-seed{wl.seed}.json"
    trace_file.write_text(json.dumps({"run_id": run_id, "spans": spans, "attrs": attrs}))
    for op in (plain, with_spans):
        for failure in op.failures[:5]:
            print(f"check failed: {failure}")
    failed = sum(1 for op in (plain, with_spans) if op.failures)
    return metrics, 2, failed, str(trace_file.relative_to(ROOT))


# -- main ----------------------------------------------------------------


def environment(wl: Workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vdqec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": wl.name, "seed": wl.seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
        "config": wl.config,
    }


def main() -> int:
    # on SIGTERM, unwind so the running child is killed and the run
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="vdqec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "vdqec" / "cli.py").is_file():
        print(f"error: no vdqec sources under {SRC}; run from a vdqec checkout",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        wl = Workload(opts.workload, opts.seed, work)
        print("environment:", json.dumps(environment(wl), sort_keys=True))
        if opts.trace:
            wl.prepare()
            metrics, attempted, failed, trace_file = traced_run(wl)
            print(f"spans: {trace_file}")
        else:
            setups = setup_time(work / "before", SETUP_BEFORE)
            wl.prepare()
            ops: list[Op] = []
            # stop at the op boundary nearest to --seconds of measured time
            while not ops or (sum(op.wall_s for op in ops)
                              + statistics.median(op.wall_s for op in ops) / 2
                              < opts.seconds):
                ops.append(wl.run_op(len(ops)))
                for failure in ops[-1].failures[:5]:
                    print(f"check failed (op {len(ops) - 1}): {failure}")
            setups += setup_time(work / "after", SETUP_AFTER)
            walls = [op.wall_s for op in ops]
            attempted, failed = len(ops), sum(1 for op in ops if op.failures)
            metrics = {
                "op_s.p50": metric(statistics.median(walls), "s"),
                "peak_rss_mb": metric(max(op.rss_mb for op in ops), "MB"),
                "setup_s": metric(statistics.median(setups), "s"),
            }
            print(f"ops: {attempted} (closed loop, 1 client); wall s: "
                  + " ".join(f"{w:.3f}" for w in walls))
            print(f"op_s.tail: {tail(walls)}")
            print(f"failed_ratio: {failed / attempted!r} ({failed}/{attempted})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
