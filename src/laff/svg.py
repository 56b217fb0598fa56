"""Minimal SVG polyline plots; CSVs remain the source of truth."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f")
# Canvas size in pixels.
WIDTH, HEIGHT = 640, 400
# Game and algorithm names come from files, so text is escaped as XML.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def svg_line_plot(path, x, series: dict, title: str = ""):
    """Write one polyline per named series over the shared x axis."""
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    pad = 50
    xmin, xmax = float(x.min()), float(x.max())
    ymin = min(float(v.min()) for v in ys.values())
    ymax = max(float(v.max()) for v in ys.values())
    if xmax == xmin:
        xmax = xmin + 1
    if ymax == ymin:
        ymax = ymin + 1
    # elementwise, each operation rounds as the same float64 scalar maths
    px = (pad + (x - xmin) / (xmax - xmin) * (WIDTH - 2 * pad)).tolist()

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
             f'<line x1="{pad}" y1="{HEIGHT - pad}" x2="{WIDTH - pad}" '
             f'y2="{HEIGHT - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{HEIGHT - pad}" '
             f'stroke="black"/>']
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{title.translate(_XML_ESCAPES)}</text>')
    parts.append(f'<text x="{pad}" y="{HEIGHT - pad + 16}" font-size="10">'
                 f'{xmin:.6g}</text>')
    parts.append(f'<text x="{WIDTH - pad}" y="{HEIGHT - pad + 16}" '
                 f'text-anchor="end" font-size="10">{xmax:.6g}</text>')
    parts.append(f'<text x="{pad - 4}" y="{HEIGHT - pad}" text-anchor="end" '
                 f'font-size="10">{ymin:.6g}</text>')
    parts.append(f'<text x="{pad - 4}" y="{pad}" text-anchor="end" '
                 f'font-size="10">{ymax:.6g}</text>')

    for idx, (name, y) in enumerate(ys.items()):
        color = _COLORS[idx % len(_COLORS)]
        py = HEIGHT - pad - (y - ymin) / (ymax - ymin) * (HEIGHT - 2 * pad)
        pts = " ".join(map("{:.2f},{:.2f}".format, px, py.tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - pad - 4}" y="{pad + 14 * idx + 12}" '
                     f'text-anchor="end" font-size="11" fill="{color}">'
                     f'{name.translate(_XML_ESCAPES)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
