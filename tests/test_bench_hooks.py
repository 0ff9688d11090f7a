"""The benchmark's trace reaches vdqec by module and function name
(perfbench/traced.py), so a refactor of src/ can silently stop a count or
a span from being recorded. These tests fail instead."""

import importlib
import importlib.util
from pathlib import Path

from vdqec import inject
from vdqec.circuits import Circuit, GateOp

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_micro_imports_resolve_from_sim():
    """traced.py --micro takes these names from vdqec.sim."""
    from vdqec.sim import (  # noqa: F401
        GateOp,
        apply_gate,
        circuit_from_json,
        output_distribution,
        simulate,
        zero_state,
    )


def test_hooked_functions_are_defined_in_their_layer():
    """install() wraps a function only where its __module__ is the layer's
    own, so every count hook and RSS span names a function defined in the
    module it names."""
    traced = _traced()
    names = set(traced.COUNT_HOOKS) | set(traced.RSS_TRACED)
    assert {"synth.approximate_rz", "synth.compile_circuit",
            "inject.enumerate_sites", "qecc.sweep_tts"} <= names
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in traced.LAYERS, name
        module = importlib.import_module(f"vdqec.{layer}")
        fn = getattr(module, attr, None)
        assert callable(fn) and fn.__module__ == module.__name__, name


def test_campaign_counts_sites_through_the_module(monkeypatch):
    """The site count hook wraps inject.enumerate_sites in the module, so
    run_campaign must look it up there."""
    calls = []
    enumerate_sites = inject.enumerate_sites

    def counted(*args):
        calls.append(args)
        return enumerate_sites(*args)

    monkeypatch.setattr(inject, "enumerate_sites", counted)
    circuit = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1), timestep=1)), (0, 1))
    profile = inject.run_campaign(circuit, "00")
    assert len(calls) == 1 and len(profile.records) == 6
