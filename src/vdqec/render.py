"""Deterministic CSV and SVG rendering of campaign and sweep results.

SVG output is generated directly (no plotting library) so reruns are
byte-identical and the structure stays easy to assert on: the heatmap
draws one horizontal line per qubit whose color runs green (relative
PST 1) to red (0) and whose stroke width grows as sensitivity grows,
with ticks marking single-qubit gates and arrows marking two-qubit
gates; a qubit's line terminates at its last operation. The sweep chart
is a log-log time-to-solution plot with one polyline per configuration.
"""

from __future__ import annotations

import csv
import io
import math

from .inject import SensitivityProfile
from .qecc import TtsPoint

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _cell_color(value: float) -> str:
    v = min(1.0, max(0.0, value))
    return f"rgb({round(220 * (1 - v))},{round(160 * v)},0)"


def _cell_width(value: float) -> str:
    v = min(1.0, max(0.0, value))
    return f"{1.0 + 5.0 * (1.0 - v):.2f}"


def heatmap_rows(profile: SensitivityProfile) -> list[tuple[int, int, float, int, float]]:
    """Cell table sorted by (qubit, timestep)."""
    cells = profile.cells
    return [
        (q, t, cells[(q, t)].mean_relative_pst, cells[(q, t)].n_records,
         cells[(q, t)].min_relative_pst)
        for q, t in sorted(cells)
    ]


def heatmap_csv_bytes(profile: SensitivityProfile) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(
        ["qubit", "timestep", "mean_relative_pst", "n_records", "min_relative_pst"]
    )
    for q, t, mean, n, mn in heatmap_rows(profile):
        writer.writerow([q, t, repr(mean), n, repr(mn)])
    return buf.getvalue().encode()


def heatmap_svg_bytes(profile: SensitivityProfile) -> bytes:
    cells = profile.cells
    dx, row_h = 14.0, 34.0
    left, top = 60.0, 30.0
    max_t = max((t for _, t in cells), default=0)
    width = left + (max_t + 1.5) * dx + 20
    height = top + profile.num_qubits * row_h + 30

    def x_of(t: float) -> float:
        return left + (t + 0.5) * dx

    def y_of(q: int) -> float:
        return top + (q + 0.5) * row_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<text x="{_fmt(left)}" y="16" font-size="12" font-family="sans-serif">'
        "fault sensitivity by qubit and timestep "
        "(green = insensitive, red = sensitive)</text>",
    ]
    for q in range(profile.num_qubits):
        y = y_of(q)
        parts.append(
            f'<text x="8" y="{_fmt(y + 4)}" font-size="11" '
            f'font-family="sans-serif">q{q}</text>'
        )
        times = sorted(t for (qq, t) in cells if qq == q)
        if not times:
            continue
        # piecewise segments; boundaries halfway between neighboring ops,
        # the line stops half a step after the final op
        bounds = [times[0] - 0.5]
        bounds += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        bounds += [times[-1] + 0.5]
        for t, lo, hi in zip(times, bounds, bounds[1:]):
            v = cells[(q, t)].mean_relative_pst
            parts.append(
                f'<line class="cell" data-qubit="{q}" data-timestep="{t}" '
                f'x1="{_fmt(x_of(lo))}" y1="{_fmt(y)}" '
                f'x2="{_fmt(x_of(hi))}" y2="{_fmt(y)}" '
                f'stroke="{_cell_color(v)}" stroke-width="{_cell_width(v)}"/>'
            )
    for g in profile.gates:
        x = x_of(g.timestep)
        if len(g.qubits) == 1:
            y = y_of(g.qubits[0])
            parts.append(
                f'<line class="tick" x1="{_fmt(x)}" y1="{_fmt(y - 5)}" '
                f'x2="{_fmt(x)}" y2="{_fmt(y + 5)}" stroke="#333" '
                'stroke-width="0.8"/>'
            )
        else:
            y1, y2 = y_of(g.qubits[0]), y_of(g.qubits[1])
            tip = y2 - 6 if y2 > y1 else y2 + 6
            parts.append(
                f'<line class="arrow" x1="{_fmt(x)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x)}" y2="{_fmt(tip)}" stroke="#333" '
                'stroke-width="0.8"/>'
            )
            parts.append(
                f'<path class="arrowhead" d="M {_fmt(x - 3)} {_fmt(tip)} '
                f'L {_fmt(x + 3)} {_fmt(tip)} L {_fmt(x)} '
                f'{_fmt(y2 - 1 if y2 > y1 else y2 + 1)} Z" fill="#333"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def sweep_csv_bytes(points: list[TtsPoint]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["config", "p", "latency_cycles", "pst_bound", "tts"])
    for pt in points:
        writer.writerow(
            [pt.config, repr(pt.p), pt.latency_cycles, repr(pt.pst_bound),
             repr(pt.tts)]
        )
    return buf.getvalue().encode()


def curves_svg_bytes(points: list[TtsPoint]) -> bytes:
    """Log-log time-to-solution curves, one per configuration; points with
    infinite TTS are omitted from their polyline."""
    width, height = 640.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 24.0, 46.0
    finite = [pt for pt in points if math.isfinite(pt.tts) and pt.tts > 0]
    configs: list[str] = []
    for pt in points:
        if pt.config not in configs:
            configs.append(pt.config)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    if finite:
        lx = [math.log10(pt.p) for pt in finite]
        ly = [math.log10(pt.tts) for pt in finite]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        if x1 - x0 < 1e-12:
            x1 = x0 + 1.0
        if y1 - y0 < 1e-12:
            y1 = y0 + 1.0

        def px(logp: float) -> float:
            return left + (logp - x0) / (x1 - x0) * (width - left - right)

        def py(logt: float) -> float:
            return height - bottom - (logt - y0) / (y1 - y0) * (
                height - top - bottom
            )

        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(height - bottom)}" '
            f'x2="{_fmt(width - right)}" y2="{_fmt(height - bottom)}" '
            'stroke="#000" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(height - bottom)}" stroke="#000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="{_fmt(height - 10)}" font-size="12" '
            'font-family="sans-serif" text-anchor="middle">'
            "physical error rate p (log)</text>"
        )
        parts.append(
            f'<text x="14" y="{_fmt(height / 2)}" font-size="12" '
            'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 14 {_fmt(height / 2)})">'
            "time to solution, cycles (log)</text>"
        )
        for k in range(math.ceil(x0), math.floor(x1) + 1):
            parts.append(
                f'<text x="{_fmt(px(k))}" y="{_fmt(height - bottom + 16)}" '
                'font-size="10" font-family="sans-serif" text-anchor="middle">'
                f"1e{k}</text>"
            )
        for k in range(math.ceil(y0), math.floor(y1) + 1):
            parts.append(
                f'<text x="{_fmt(left - 6)}" y="{_fmt(py(k) + 3)}" '
                'font-size="10" font-family="sans-serif" text-anchor="end">'
                f"1e{k}</text>"
            )
        for ci, config in enumerate(configs):
            color = _PALETTE[ci % len(_PALETTE)]
            pts = [
                f"{_fmt(px(math.log10(pt.p)))},{_fmt(py(math.log10(pt.tts)))}"
                for pt in finite
                if pt.config == config
            ]
            if pts:
                parts.append(
                    f'<polyline class="curve" data-config="{config}" '
                    f'points="{" ".join(pts)}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
            ly_leg = top + 14 * ci + 8
            parts.append(
                f'<line x1="{_fmt(width - right - 120)}" y1="{_fmt(ly_leg)}" '
                f'x2="{_fmt(width - right - 100)}" y2="{_fmt(ly_leg)}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{_fmt(width - right - 94)}" y="{_fmt(ly_leg + 3)}" '
                f'font-size="11" font-family="sans-serif">{config}</text>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
