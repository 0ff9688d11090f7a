"""Traced child process of the vdqec benchmark.

Two modes, both run with the repository's src/ on PYTHONPATH:

  traced.py --run-id ID --spans OUT.json -- ARGS...
      Import vdqec.cli, wrap every public function of each layer module in
      a span recorder, run `vdqec ARGS...` in this process and write the
      spans as JSON when the command ends. Exits with the command's code.

  traced.py --micro COMPILED.json --out OUT.json
      Time sim-layer kernels (apply_gate by gate kind and register size,
      simulate and output_distribution on the compiled circuit) with no
      wrappers installed, and write the per-call times as JSON.

A span is [id, parent id, "layer.function", start s, end s]; parent -1
marks a top-level span. Spans stay in memory until the command ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import resource
import statistics
import sys
import time

LAYERS = ("qpe", "synth", "sim", "inject", "qecc", "render", "pipeline", "cli")

# Called once per gate application, or once per gate and grid point: a span
# each would cost more than the work it times, so their time stays in the
# caller's span.
NOT_TRACED = frozenset([
    "sim.gate_matrix", "sim.rz_matrix", "sim.controlled_phase_matrix",
    "qecc.logical_error_rate", "qecc.site_error_prob",
])
# Private helpers that are the file-reading and serialisation boundaries.
PRIVATE_TRACED = frozenset(["cli._read_json", "pipeline._json_bytes"])
# Spans that also record the process's peak RSS before and after.
RSS_TRACED = frozenset(["synth.compile_circuit"])


def _rz_counts(args, result):
    seq = result.sequence
    return {"length": result.length, "t_count": seq.count("T") + seq.count("t")}


def _site_counts(args, result):
    gates = len(args[0].ops)
    # computed, not counted: the campaign replays the suffix after each site
    return {"sites": len(result),
            "gate_applications": sum(gates - s.gate_index - 1 for s in result)}


def _faultable_once():
    seen = []

    def hook(args, result):
        if seen:
            return None
        seen.append(True)
        return {"faultable": sum(1 for g in args[0].gates if g.faultable)}
    return hook


COUNT_HOOKS = {
    "synth.approximate_rz": _rz_counts,
    "inject.enumerate_sites": _site_counts,
    "qecc.sweep_tts": lambda args, result: {"points": len(result)},
    "qecc.pst_bound": _faultable_once(),
    **{f"render.{name}": (lambda args, result: {"bytes": len(result)})
       for name in ("heatmap_csv_bytes", "heatmap_svg_bytes",
                    "sweep_csv_bytes", "curves_svg_bytes")},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, attrs, stack = self.spans, self.attrs, self._stack
        clock, t0 = time.perf_counter, self.t0
        hook = COUNT_HOOKS.get(name)
        track_rss = name in RSS_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rss0 = _maxrss_kb() if track_rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [sid, parent, name, start - t0, end - t0]
            if track_rss:
                attrs[sid] = {"maxrss_kb_before": rss0, "maxrss_kb_after": _maxrss_kb()}
            if hook is not None:
                counts = hook(args, result)
                if counts:
                    attrs[sid] = counts
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([len(self.spans), -1, name, start - self.t0, end - self.t0])


def install(tracer: Tracer) -> dict:
    """Replace each traced function in every layer module that binds it."""
    mods = {layer: importlib.import_module(f"vdqec.{layer}") for layer in LAYERS}
    namespaces = [*mods.values(), importlib.import_module("vdqec")]
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name in NOT_TRACED or (attr.startswith("_") and name not in PRIVATE_TRACED):
                continue
            wrapped = tracer.wrap(name, obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    return mods


def run_traced(run_id: str, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    importlib.import_module("vdqec.cli")
    tracer.record("cli.import", start, time.perf_counter())
    mods = install(tracer)
    try:
        code = mods["cli"].main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "spans": tracer.spans,
                   "attrs": tracer.attrs, "exit_code": code,
                   "maxrss_kb": _maxrss_kb()}, fh)
    return code


def _per_call(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the mean time of one call, in seconds."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def run_micro(compiled_path: str, out_path: str) -> int:
    from vdqec.sim import (GateOp, apply_gate, circuit_from_json,
                           output_distribution, simulate, zero_state)

    out = {}
    for n in (6, 9, 12):
        state = zero_state(n)
        for q in range(n):
            state = apply_gate(state, GateOp("H", (q,)))
        for kind in ("H", "T", "CNOT"):
            ops = [GateOp(kind, (q, (q + 1) % n) if kind == "CNOT" else (q,))
                   for q in range(n)]
            us = 1e6 * _per_call(lambda i: apply_gate(state, ops[i % n]), 100)
            out[f"sim.apply_gate_us.{kind}.n{n}"] = us
    with open(compiled_path, encoding="utf-8") as fh:
        circuit = circuit_from_json(json.load(fh)["circuit"])
    out["sim.simulate_ms"] = 1e3 * _per_call(lambda i: simulate(circuit), 1)
    final = simulate(circuit)
    out["sim.output_distribution_us"] = 1e6 * _per_call(
        lambda i: output_distribution(final, circuit.measured_qubits), 50)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id")
    parser.add_argument("--spans")
    parser.add_argument("--micro", metavar="COMPILED_JSON")
    parser.add_argument("--out")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    if opts.micro:
        return run_micro(opts.micro, opts.out)
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    return run_traced(opts.run_id, opts.spans, argv)


if __name__ == "__main__":
    sys.exit(main())
