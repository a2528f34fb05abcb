"""Tiny dependency-free SVG line plots for the command-line reports.

Deliberately minimal: polylines on linear or log axes with ticks and a
legend.  Output is deterministic (fixed-precision coordinates, no
timestamps) so repeated runs are byte-identical.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 46


def _ticks(lo: float, hi: float, log: bool):
    if log:
        a = math.floor(math.log10(lo) - 1e-9)
        b = math.ceil(math.log10(hi) + 1e-9)
        if b - a > 12:
            step = max(1, (b - a) // 8)
        else:
            step = 1
        return [10.0**e for e in range(a, b + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt_tick(v: float, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        return f"1e{e:+03d}" if abs(10.0**e - v) < 1e-9 * v else f"{v:g}"
    return f"{v:g}"


def line_plot(
    path: str,
    series: list,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Write an SVG with one polyline per (label, xs, ys) triple.

    Log axes drop nonpositive points; an axis with no plottable data is a
    configuration error.
    """
    kept = []  # each series' plottable points: finite, and positive on a log axis
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ConfigError("series x and y lengths differ")
        pts = [(x, y) for x, y in ((float(x), float(y)) for x, y in zip(xs, ys)) if math.isfinite(x) and math.isfinite(y)]
        kept.append([(x, y) for x, y in pts if not (logx and x <= 0 or logy and y <= 0)])
    pts_all = [p for pts in kept for p in pts]
    if not pts_all:
        raise ConfigError("nothing to plot (all points filtered)")
    xlo, xhi = min(x for x, _ in pts_all), max(x for x, _ in pts_all)
    ylo, yhi = min(y for _, y in pts_all), max(y for _, y in pts_all)
    if logx:
        xlo, xhi = xlo / 1.2, xhi * 1.2
    else:
        pad = 0.05 * (xhi - xlo) or max(1.0, abs(xlo)) * 0.05
        xlo, xhi = xlo - pad, xhi + pad
    if logy:
        ylo, yhi = ylo / 1.5, yhi * 1.5
    else:
        pad = 0.05 * (yhi - ylo) or max(1.0, abs(ylo)) * 0.05
        ylo, yhi = ylo - pad, yhi + pad

    def sx(x: float) -> float:
        u = (math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo)) if logx else (x - xlo) / (xhi - xlo)
        return MARGIN_L + u * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y: float) -> float:
        u = (math.log10(y) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo)) if logy else (y - ylo) / (yhi - ylo)
        return HEIGHT - MARGIN_B - u * (HEIGHT - MARGIN_T - MARGIN_B)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = MARGIN_T, HEIGHT - MARGIN_B
    out.append(f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" fill="none" stroke="#333"/>')
    for t in _ticks(xlo, xhi, logx):
        if t < xlo or t > xhi:
            continue
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{py1}" x2="{x:.2f}" y2="{py1 + 5}" stroke="#333"/>')
        out.append(f'<line x1="{x:.2f}" y1="{py0}" x2="{x:.2f}" y2="{py1}" stroke="#ddd"/>')
        out.append(f'<text x="{x:.2f}" y="{py1 + 18}" text-anchor="middle">{_fmt_tick(t, logx)}</text>')
    for t in _ticks(ylo, yhi, logy):
        if t < ylo or t > yhi:
            continue
        y = sy(t)
        out.append(f'<line x1="{px0 - 5}" y1="{y:.2f}" x2="{px0}" y2="{y:.2f}" stroke="#333"/>')
        out.append(f'<line x1="{px0}" y1="{y:.2f}" x2="{px1}" y2="{y:.2f}" stroke="#ddd"/>')
        out.append(f'<text x="{px0 - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt_tick(t, logy)}</text>')
    for i, ((label, _, _), pts) in enumerate(zip(series, kept)):
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        xy = [(f"{sx(x):.2f}", f"{sy(y):.2f}") for x, y in pts]
        points = " ".join(f"{cx},{cy}" for cx, cy in xy)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.extend(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>' for cx, cy in xy)
        ly = py0 + 14 + 14 * i
        out.append(f'<line x1="{px1 - 130}" y1="{ly - 4}" x2="{px1 - 110}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{px1 - 104}" y="{ly}">{_escape(label)}</text>')
    if title:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py0 - 10}" text-anchor="middle" font-size="13">{_escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(
            f'<text x="14" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {(py0 + py1) / 2:.1f})">{_escape(ylabel)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
