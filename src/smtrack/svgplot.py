"""Minimal dependency-free SVG line charts for run and sweep figures.

Only what the command line tool needs: multiple polyline series on a
linear-linear axis grid with ticks, labels and a legend, written as a
standalone ``.svg`` file.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LineChart", "plot_run", "plot_cost"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, target: int = 6):
    if not np.isfinite(lo) or not np.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(t) for t in ticks]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


class LineChart:
    """Accumulates series, then renders one 640 x 400 SVG document.

    Series take the colors of :data:`PALETTE` in the order they are added.
    """

    def __init__(self, title: str = "", x_label: str = "", y_label: str = ""):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series = []

    def add(self, x, y, label: str = "", dash: str = ""):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size:
            raise ValueError("series coordinates differ in length")
        color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append((x, y, label, color, dash))

    def render(self) -> str:
        left, right, top, bottom = 62, 18, 34, 46
        w, h = 640, 400
        px_w = w - left - right
        px_h = h - top - bottom
        finite = [(x[np.isfinite(y)], y[np.isfinite(y)]) for x, y in
                  ((s[0], s[1]) for s in self.series)]
        xs = np.concatenate([f[0] for f in finite]) if finite else np.array([0.0, 1.0])
        ys = np.concatenate([f[1] for f in finite]) if finite else np.array([0.0, 1.0])
        if xs.size == 0:
            xs = np.array([0.0, 1.0])
        if ys.size == 0:
            ys = np.array([0.0, 1.0])
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(v):
            return left + (v - x_lo) / (x_hi - x_lo) * px_w

        def sy(v):
            return top + (y_hi - v) / (y_hi - y_lo) * px_h

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
               f'height="{h}" viewBox="0 0 {w} {h}">',
               f'<rect width="{w}" height="{h}" fill="white"/>']
        for t in _ticks(x_lo, x_hi):
            px = sx(t)
            out.append(f'<line x1="{px:.1f}" y1="{top}" x2="{px:.1f}" '
                       f'y2="{top + px_h}" stroke="#e5e5e5"/>')
            out.append(f'<text x="{px:.1f}" y="{top + px_h + 16}" '
                       f'font-size="11" text-anchor="middle" '
                       f'fill="#444">{_fmt(t)}</text>')
        for t in _ticks(y_lo, y_hi):
            py = sy(t)
            out.append(f'<line x1="{left}" y1="{py:.1f}" x2="{left + px_w}" '
                       f'y2="{py:.1f}" stroke="#e5e5e5"/>')
            out.append(f'<text x="{left - 6}" y="{py + 4:.1f}" font-size="11" '
                       f'text-anchor="end" fill="#444">{_fmt(t)}</text>')
        out.append(f'<rect x="{left}" y="{top}" width="{px_w}" height="{px_h}" '
                   f'fill="none" stroke="#888"/>')
        for x, y, label, color, dash in self.series:
            keep = np.isfinite(x) & np.isfinite(y)
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                           for a, b in zip(x[keep], y[keep]))
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        if self.title:
            out.append(f'<text x="{w / 2:.0f}" y="20" font-size="14" '
                       f'text-anchor="middle">{self.title}</text>')
        if self.x_label:
            out.append(f'<text x="{left + px_w / 2:.0f}" y="{h - 10}" '
                       f'font-size="12" text-anchor="middle">{self.x_label}</text>')
        if self.y_label:
            cy = top + px_h / 2
            out.append(f'<text x="14" y="{cy:.0f}" font-size="12" '
                       f'text-anchor="middle" '
                       f'transform="rotate(-90 14 {cy:.0f})">{self.y_label}</text>')
        ly = top + 8
        for _, _, label, color, dash in self.series:
            if not label:
                continue
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(f'<line x1="{left + px_w - 120}" y1="{ly + 4}" '
                       f'x2="{left + px_w - 96}" y2="{ly + 4}" '
                       f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
            out.append(f'<text x="{left + px_w - 90}" y="{ly + 8}" '
                       f'font-size="11" fill="#222">{label}</text>')
            ly += 16
        out.append("</svg>")
        return "\n".join(out)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())


def plot_run(record, path):
    """Tracked outputs against the reference, one chart per file."""
    chart = LineChart(title=f"{record.scenario} / {record.mode} (seed {record.seed})",
                      x_label="step", y_label="output")
    for t in range(record.y.shape[1]):
        chart.add(record.k, record.y[:, t], label=f"y{t + 1}")
        chart.add(record.k, record.y_ref[:, t], label=f"ref{t + 1}", dash="5,3")
    chart.save(path)


def plot_cost(report, path):
    """Mean accumulated tracking cost per mode, first output."""
    chart = LineChart(title=f"{report.scenario} mean accumulated cost",
                      x_label="step", y_label="J")
    for mode in report.modes:
        arr = report.j_bar[mode]
        if arr.shape[0] == 0:
            continue
        k = np.arange(1, arr.shape[0] + 1)
        chart.add(k, arr[:, 0], label=mode)
    chart.save(path)
