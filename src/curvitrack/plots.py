"""Dependency-free SVG report figures.

Deliberately minimal: line charts for drift-vs-time and bar charts for
summary metrics.  Every numeric label goes through the same formatter as
the CSV writers so the figure and the table never disagree.
"""

from __future__ import annotations

import html

import numpy as np

from .io_formats import atomic_write, fmt

W, H = 720, 420
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _text(attrs: str, body) -> str:
    """A text element; its body is escaped, so any label is well-formed XML."""
    return f'<text {attrs}>{html.escape(str(body), quote=False)}</text>'


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        _text(f'x="{W / 2}" y="22" text-anchor="middle" font-size="16"', title),
    ]


def _empty(path: str, title: str) -> None:
    parts = _header(title)
    parts.append(_text(f'x="{W / 2}" y="{H / 2}" text-anchor="middle" fill="#888"',
                       "no data") + "</svg>")
    atomic_write(path, "\n".join(parts))


def _scale(vals, lo_px, hi_px):
    vals = np.asarray(vals, dtype=float)
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax - vmin < 1e-12:
        vmin, vmax = vmin - 1.0, vmax + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (np.asarray(v, dtype=float) - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def line_chart(path: str, series: dict, title: str,
               x_label: str = "", y_label: str = "") -> None:
    """series maps name -> (x array, y array)."""
    series = {k: (np.asarray(x, float), np.asarray(y, float))
              for k, (x, y) in series.items() if len(x)}
    if not series:
        _empty(path, title)
        return
    all_x = np.concatenate([x for x, _ in series.values()])
    all_y = np.concatenate([y for _, y in series.values()])
    sx, xmin, xmax = _scale(all_x, MARGIN, W - MARGIN)
    sy, ymin, ymax = _scale(all_y, H - MARGIN, MARGIN)
    parts = _header(title)
    parts.append(f'<line x1="{MARGIN}" y1="{H - MARGIN}" x2="{W - MARGIN}" '
                 f'y2="{H - MARGIN}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
                 f'y2="{H - MARGIN}" stroke="black"/>')
    for v, anchor, x_px, y_px in (
            (xmin, "start", MARGIN, H - MARGIN + 16),
            (xmax, "end", W - MARGIN, H - MARGIN + 16),
            (ymin, "end", MARGIN - 6, H - MARGIN),
            (ymax, "end", MARGIN - 6, MARGIN + 4)):
        parts.append(_text(f'x="{x_px}" y="{y_px}" text-anchor="{anchor}"', fmt(float(v))))
    if x_label:
        parts.append(_text(f'x="{W / 2}" y="{H - 12}" text-anchor="middle"', x_label))
    if y_label:
        parts.append(_text(f'x="16" y="{H / 2}" text-anchor="middle" '
                           f'transform="rotate(-90 16 {H / 2})"', y_label))
    for i, (name, (x, y)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{float(px):.2f},{float(py):.2f}"
                       for px, py in zip(sx(x), sy(y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = MARGIN + 16 * i + 8
        parts.append(f'<line x1="{W - MARGIN - 110}" y1="{ly - 4}" '
                     f'x2="{W - MARGIN - 90}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(_text(f'x="{W - MARGIN - 84}" y="{ly}"', name))
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts))


def bar_chart(path: str, labels, values, title: str,
              y_label: str = "") -> None:
    labels = list(labels)
    values = [float(v) for v in values]
    if not labels:
        _empty(path, title)
        return
    top = max(max(values), 0.0)
    if top <= 0:
        top = 1.0
    span_px = H - 2 * MARGIN
    slot = (W - 2 * MARGIN) / len(labels)
    bar_w = slot * 0.6
    parts = _header(title)
    parts.append(f'<line x1="{MARGIN}" y1="{H - MARGIN}" x2="{W - MARGIN}" '
                 f'y2="{H - MARGIN}" stroke="black"/>')
    if y_label:
        parts.append(_text(f'x="16" y="{H / 2}" text-anchor="middle" '
                           f'transform="rotate(-90 16 {H / 2})"', y_label))
    for i, (lab, val) in enumerate(zip(labels, values)):
        hpx = max(val, 0.0) / top * span_px
        x0 = MARGIN + slot * i + (slot - bar_w) / 2
        y0 = H - MARGIN - hpx
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
                     f'height="{hpx:.2f}" fill="{color}"/>')
        parts.append(_text(f'x="{x0 + bar_w / 2:.2f}" y="{y0 - 5:.2f}" '
                           f'text-anchor="middle"', fmt(val)))
        parts.append(_text(f'x="{x0 + bar_w / 2:.2f}" y="{H - MARGIN + 16}" '
                           f'text-anchor="middle"', lab))
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts))

