import csv
import hashlib
import io
import math
import re
from dataclasses import replace
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import with_faultable
from vdqec.circuits import Circuit, GateOp
from vdqec.inject import run_campaign
from vdqec.qecc import TtsPoint, log_p_grid, sweep_tts, uniform_assignment
from vdqec.qpe import build_qpe
from vdqec.render import (
    curves_svg_bytes,
    heatmap_csv_bytes,
    heatmap_svg_bytes,
    sweep_csv_bytes,
)
from vdqec.sim import output_distribution, simulate


def qpe_profile():
    circuit, correct = build_qpe()
    return circuit, run_campaign(circuit, correct, "mirrored")


def parse_csv(data: bytes):
    return list(csv.reader(io.StringIO(data.decode())))


def test_heatmap_csv_row_count_and_header():
    circuit, profile = qpe_profile()
    rows = parse_csv(heatmap_csv_bytes(profile))
    assert rows[0] == [
        "qubit", "timestep", "mean_relative_pst", "n_records", "min_relative_pst",
    ]
    touches = sum(len(op.qubits) for op in circuit.ops)
    assert len(rows) - 1 == touches == len(profile.cells)


def test_heatmap_csv_uses_crlf():
    _, profile = qpe_profile()
    assert b"\r\n" in heatmap_csv_bytes(profile)


def test_all_quiet_profile_renders_single_thin_green_width():
    circuit, correct = build_qpe()
    profile = run_campaign(with_faultable(circuit, False), correct)
    svg = heatmap_svg_bytes(profile).decode()
    widths = set(
        re.findall(r'class="cell"[^>]*stroke-width="([^"]+)"', svg)
    )
    colors = set(re.findall(r'class="cell"[^>]*stroke="([^"]+)"', svg))
    assert widths == {"1.00"}
    assert colors == {"rgb(0,160,0)"}


def test_sensitive_profile_uses_multiple_widths_and_red():
    _, profile = qpe_profile()
    svg = heatmap_svg_bytes(profile).decode()
    widths = set(re.findall(r'class="cell"[^>]*stroke-width="([^"]+)"', svg))
    assert len(widths) > 1
    assert 'rgb(220,0,0)' in svg


def test_target_qubit_line_ends_at_prep_boundary():
    circuit, profile = qpe_profile()
    svg = heatmap_svg_bytes(profile).decode()
    cells = re.findall(
        r'class="cell" data-qubit="(\d+)" data-timestep="(\d+)"', svg
    )
    last_t = {}
    for q, t in cells:
        last_t[int(q)] = max(last_t.get(int(q), -1), int(t))
    prep_end = max(op.timestep for op in circuit.ops if not op.faultable)
    assert last_t[5] == prep_end
    assert all(last_t[q] > prep_end for q in range(5))


def test_svg_marks_one_and_two_qubit_gates():
    circuit, profile = qpe_profile()
    svg = heatmap_svg_bytes(profile).decode()
    n_1q = sum(1 for op in circuit.ops if len(op.qubits) == 1)
    n_2q = sum(1 for op in circuit.ops if len(op.qubits) == 2)
    assert svg.count('class="tick"') == n_1q
    assert svg.count('class="arrow"') == n_2q


def test_heatmap_is_deterministic():
    _, p1 = qpe_profile()
    _, p2 = qpe_profile()
    assert heatmap_csv_bytes(p1) == heatmap_csv_bytes(p2)
    assert heatmap_svg_bytes(p1) == heatmap_svg_bytes(p2)


def sweep_points():
    _, profile = qpe_profile()
    assignments = [uniform_assignment(6, 3), uniform_assignment(6, 5)]
    return sweep_tts(profile, assignments, log_p_grid(1e-5, 1e-2, 9))


def test_sweep_csv_columns():
    points = sweep_points()
    rows = parse_csv(sweep_csv_bytes(points))
    assert rows[0] == ["config", "p", "latency_cycles", "pst_bound", "tts"]
    assert len(rows) - 1 == len(points)
    assert rows[1][0] == "d=3"


def test_sweep_csv_roundtrips_floats():
    points = sweep_points()
    rows = parse_csv(sweep_csv_bytes(points))
    assert float(rows[1][1]) == points[0].p
    assert float(rows[1][4]) == points[0].tts


def test_curves_svg_has_one_polyline_per_config_and_legend():
    points = sweep_points()
    svg = curves_svg_bytes(points).decode()
    assert svg.count('class="curve"') == 2
    assert 'data-config="d=3"' in svg and 'data-config="d=5"' in svg
    assert ">d=3</text>" in svg and ">d=5</text>" in svg


def test_curves_svg_skips_infinite_points():
    points = sweep_points()
    import dataclasses

    capped = [
        dataclasses.replace(pt, tts=np.inf if i % 2 else pt.tts)
        for i, pt in enumerate(points)
    ]
    svg = curves_svg_bytes(capped).decode()
    for m in re.findall(r'points="([^"]+)"', svg):
        assert "inf" not in m


def untouched_qubit_profile():
    """Three qubits; qubit 1 has no gate, and the two CNOTs point down and
    up the register."""
    circuit = Circuit(3, (
        GateOp("X", (0,), timestep=0),
        GateOp("CNOT", (0, 2), timestep=1),
        GateOp("T", (2,), timestep=2),
        GateOp("CNOT", (2, 0), timestep=3),
    ), (0, 1, 2))
    dist = output_distribution(simulate(circuit), circuit.measured_qubits)
    return run_campaign(circuit, max(dist, key=dist.get), "full-depolarizing")


def sweep(config_p_tts):
    return [TtsPoint(config, p, 100, 0.5, tts) for config, p, tts in config_p_tts]


GRID = [float(p) for p in log_p_grid(1e-5, 1e-2, 5)]
# inputs that the locked pipeline manifests do not reach
RENDER_INPUTS = {
    "untouched-qubit": untouched_qubit_profile,
    "all-tts-infinite": lambda: sweep([("d=3", p, math.inf) for p in GRID]),
    "one-config": lambda: sweep([("d=3,5", p, 100.0 / (1 - 40 * p)) for p in GRID]),
    "flat-p": lambda: sweep([("d=3", 1e-3, 10.0), ("d=5", 1e-3, 1000.0)]),
    "flat-tts": lambda: sweep([("d=3", 1e-4, 200.0), ("d=3", 1e-3, 200.0)]),
}


def render_all(name):
    data = RENDER_INPUTS[name]()
    if name == "untouched-qubit":
        return heatmap_csv_bytes(data), heatmap_svg_bytes(data)
    return sweep_csv_bytes(data), curves_svg_bytes(data)


# sha256 of (CSV, SVG) for each input, taken before the writers were
# rebuilt on one element writer and one CSV writer. The CSVs of
# all-tts-infinite and one-config moved once since, when log_p_grid began
# to end exactly at its bounds: their first p had been 1e-5 less one ulp
LOCKED_RENDERS = {
    "untouched-qubit": (
        "f1a0d093aec3ef5231865d751b3090714900346d56ab10e62fb542e8b887f6fb",
        "d40aaa176f44f1221b6ffc98d8ad3f334c057c93ebd1799da2617a37323fe836",
    ),
    "all-tts-infinite": (
        "7d54e995880ab04898d4ecfa7999aa6dac181f4b4da63a60101eae9628593039",
        "38ed98825d1f92dde41243e29bdc35cf1f9907177c8ef21a235813d950859fd1",
    ),
    "one-config": (
        "12383a94c182d05d2f6cb3f44151948e8e625cb94ea4d2c44be6548d9182a9bd",
        "4eb81a592b33933b0f7c779fc5942986db7c46059df1eb3aa50c12a710346411",
    ),
    "flat-p": (
        "e2202fa812bf30359652b3b195397e655db25fb1b553293f7aa4b0f316b21951",
        "4ce34abb3950b2135f9e20d95c819ee8fc9298c407578ddcb18485c4ed5e1469",
    ),
    "flat-tts": (
        "3c818f40de5dfe2fef42c5e8d746b6edf685c060092cd7c35f5ee620c6ececd2",
        "85a800fac2047354e868c8993ca917ab6b84f9231787ba639dbf5c5f3617aa72",
    ),
}


@pytest.mark.parametrize("name", list(LOCKED_RENDERS))
def test_render_bytes_are_locked(name):
    digests = tuple(hashlib.sha256(data).hexdigest() for data in render_all(name))
    assert digests == LOCKED_RENDERS[name]


@pytest.mark.parametrize("name", list(RENDER_INPUTS))
def test_every_svg_is_well_formed_xml(name):
    root = ElementTree.fromstring(render_all(name)[1])
    assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_qpe_charts_are_well_formed_xml():
    _, profile = qpe_profile()
    for svg in (heatmap_svg_bytes(profile), curves_svg_bytes(sweep_points())):
        ElementTree.fromstring(svg)


def test_csv_cells_of_numpy_scalars_are_numbers():
    # log_p_grid returns NumPy scalars; their repr is "np.float64(...)"
    grid = log_p_grid(1e-5, 1e-2, 5)
    points = [TtsPoint("d=3", p, 100, np.float64(0.5), 200.0 / p) for p in grid]
    _, profile = qpe_profile()
    numpy_profile = replace(profile, gates=tuple(
        replace(g, mean_relative_pst=np.float64(g.mean_relative_pst),
                min_relative_pst=np.float64(g.min_relative_pst))
        for g in profile.gates))
    heatmap = heatmap_csv_bytes(numpy_profile)
    assert heatmap == heatmap_csv_bytes(profile)
    sweep_rows = parse_csv(sweep_csv_bytes(points))[1:]
    assert [float(row[1]) for row in sweep_rows] == list(grid)
    for row in sweep_rows + parse_csv(heatmap)[1:]:
        for cell in row[1:]:
            float(cell)
