"""Deterministic CSV and SVG rendering of campaign and sweep results.

SVG output is generated directly (no plotting library) so reruns are
byte-identical and the structure stays easy to assert on: the heatmap
draws one horizontal line per qubit whose color runs green (relative
PST 1) to red (0) and whose stroke width grows as sensitivity grows,
with ticks marking single-qubit gates and arrows marking two-qubit
gates; a qubit's line terminates at its last operation. The sweep chart
is a log-log time-to-solution plot with one polyline per configuration.

Every document goes through one writer per format: `_csv` for CSV
(CRLF, header, rows) and `_el` plus the `_svg` frame for SVG, where
`_fmt` writes each float coordinate with at most two decimals.
"""

from __future__ import annotations

import csv
import io
import math

from .profiles import SensitivityProfile
from .qecc import TtsPoint

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _el(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element. Keyword `stroke_width` is the attribute
    stroke-width and `class_` is class; floats go through _fmt, other
    values through str."""
    start = f"<{tag}" + "".join([
        f' {k.rstrip("_").replace("_", "-")}="{_fmt(v) if isinstance(v, float) else v}"'
        for k, v in attrs.items()])
    return start + "/>" if text is None else f"{start}>{text}</{tag}>"


def _text(x: float, y: float, size: int, label: str, **attrs) -> str:
    return _el("text", label, x=x, y=y, font_size=size, font_family="sans-serif",
               **attrs)


def _svg(width: float, height: float, parts: list[str]) -> bytes:
    """The document: XML declaration, then the parts one per line inside
    a width x height <svg>."""
    svg = _el("svg", "\n".join(["", *parts, ""]), xmlns="http://www.w3.org/2000/svg",
              width=width, height=height,
              viewBox=f"0 0 {_fmt(width)} {_fmt(height)}")
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{svg}\n'.encode()


def _num(x) -> str:
    """A CSV cell for a float, also a NumPy scalar: the shortest repr that
    reads back as the same float."""
    return repr(float(x))


def _csv(header: list[str], rows) -> bytes:
    """CRLF-terminated CSV: the header, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _cell_stroke(value: float) -> tuple[str, str]:
    """(color, width) of a cell: green and thin at relative PST 1, red
    and wide at 0."""
    v = min(1.0, max(0.0, value))
    color = f"rgb({round(220 * (1 - v))},{round(160 * v)},0)"
    return color, f"{1.0 + 5.0 * (1.0 - v):.2f}"


def heatmap_csv_bytes(profile: SensitivityProfile) -> bytes:
    """One row per cell, sorted by (qubit, timestep)."""
    return _csv(
        ["qubit", "timestep", "mean_relative_pst", "n_records", "min_relative_pst"],
        ((q, t, _num(c.mean_relative_pst), c.n_records, _num(c.min_relative_pst))
         for (q, t), c in sorted(profile.cells.items())),
    )


def heatmap_svg_bytes(profile: SensitivityProfile) -> bytes:
    cells = profile.cells
    dx, row_h = 14.0, 34.0
    left, top = 60.0, 30.0

    def x_of(t: float) -> float:
        return left + (t + 0.5) * dx

    def y_of(q: int) -> float:
        return top + (q + 0.5) * row_h

    parts = [_text(left, 16, 12, "fault sensitivity by qubit and timestep "
                   "(green = insensitive, red = sensitive)")]
    rows: dict[int, list[int]] = {}  # qubit -> its timesteps, ascending
    for q, t in sorted(cells):
        rows.setdefault(q, []).append(t)
    for q in range(profile.num_qubits):
        y = y_of(q)
        parts.append(_text(8, y + 4, 11, f"q{q}"))
        times = rows.get(q)
        if not times:
            continue
        # piecewise segments; boundaries halfway between neighboring ops,
        # the line stops half a step after the final op
        bounds = [times[0] - 0.5]
        bounds += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        bounds += [times[-1] + 0.5]
        for t, lo, hi in zip(times, bounds, bounds[1:]):
            color, stroke_w = _cell_stroke(cells[(q, t)].mean_relative_pst)
            parts.append(_el("line", class_="cell", data_qubit=q, data_timestep=t,
                             x1=x_of(lo), y1=y, x2=x_of(hi), y2=y,
                             stroke=color, stroke_width=stroke_w))
    for g in profile.gates:
        x = x_of(g.timestep)
        if len(g.qubits) == 1:
            y = y_of(g.qubits[0])
            parts.append(_el("line", class_="tick", x1=x, y1=y - 5, x2=x, y2=y + 5,
                             stroke="#333", stroke_width=0.8))
            continue
        y1, y2 = y_of(g.qubits[0]), y_of(g.qubits[1])
        down = 1 if y2 > y1 else -1
        tip = y2 - 6 * down
        parts.append(_el("line", class_="arrow", x1=x, y1=y1, x2=x, y2=tip,
                         stroke="#333", stroke_width=0.8))
        corners = map(_fmt, (x - 3, tip, x + 3, tip, x, y2 - down))
        parts.append(_el("path", class_="arrowhead",
                         d="M {} {} L {} {} L {} {} Z".format(*corners), fill="#333"))
    max_t = max((t for _, t in cells), default=0)
    return _svg(left + (max_t + 1.5) * dx + 20, top + profile.num_qubits * row_h + 30,
                parts)


def sweep_csv_bytes(points: list[TtsPoint]) -> bytes:
    return _csv(
        ["config", "p", "latency_cycles", "pst_bound", "tts"],
        ((pt.config, _num(pt.p), pt.latency_cycles, _num(pt.pst_bound), _num(pt.tts))
         for pt in points),
    )


def curves_svg_bytes(points: list[TtsPoint]) -> bytes:
    """Log-log time-to-solution curves, one per configuration; points with
    infinite TTS are omitted from their polyline."""
    width, height = 640.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 24.0, 46.0
    finite = [pt for pt in points if math.isfinite(pt.tts) and pt.tts > 0]
    if not finite:
        return _svg(width, height, [])
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
        return height - bottom - (logt - y0) / (y1 - y0) * (height - top - bottom)

    base = height - bottom
    parts = [
        _el("line", x1=left, y1=base, x2=width - right, y2=base,
            stroke="#000", stroke_width=1),
        _el("line", x1=left, y1=top, x2=left, y2=base, stroke="#000", stroke_width=1),
        _text(width / 2, height - 10, 12, "physical error rate p (log)",
              text_anchor="middle"),
        _text(14, height / 2, 12, "time to solution, cycles (log)",
              text_anchor="middle", transform=f"rotate(-90 14 {_fmt(height / 2)})"),
    ]
    parts += [_text(px(k), base + 16, 10, f"1e{k}", text_anchor="middle")
              for k in range(math.ceil(x0), math.floor(x1) + 1)]
    parts += [_text(left - 6, py(k) + 3, 10, f"1e{k}", text_anchor="end")
              for k in range(math.ceil(y0), math.floor(y1) + 1)]
    curves: dict[str, list[str]] = {pt.config: [] for pt in points}
    for pt, lp, lt in zip(finite, lx, ly):
        curves[pt.config].append(f"{_fmt(px(lp))},{_fmt(py(lt))}")
    for ci, (config, line) in enumerate(curves.items()):
        color = _PALETTE[ci % len(_PALETTE)]
        if line:
            parts.append(_el("polyline", class_="curve", data_config=config,
                             points=" ".join(line), fill="none", stroke=color,
                             stroke_width=1.5))
        ly_leg = top + 14 * ci + 8
        parts.append(_el("line", x1=width - right - 120, y1=ly_leg,
                         x2=width - right - 100, y2=ly_leg, stroke=color,
                         stroke_width=1.5))
        parts.append(_text(width - right - 94, ly_leg + 3, 11, config))
    return _svg(width, height, parts)
