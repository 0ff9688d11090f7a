import csv
import io
import re

import numpy as np

from conftest import with_faultable
from vdqec.inject import run_campaign
from vdqec.qecc import log_p_grid, sweep_tts, uniform_assignment
from vdqec.qpe import build_qpe
from vdqec.render import (
    curves_svg_bytes,
    heatmap_csv_bytes,
    heatmap_svg_bytes,
    sweep_csv_bytes,
)


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
