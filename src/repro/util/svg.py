"""Dependency-free SVG rendering for FigureResult.

Exhibits are saved as ASCII and CSV; this adds a small line-chart renderer so
``results/<fig>.svg`` can be opened directly in a browser -- handy for
eyeballing the reproduced curves against the paper's figures.  Supports
linear or log axes (the paper's rate plots are log-y).
"""

from __future__ import annotations

import math

_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 180, 40, 50


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(max(lo, 1e-12)))
        hi_e = math.ceil(math.log10(max(hi, 1e-12)))
        return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)]
    if hi <= lo:
        return [lo]
    step = 10 ** math.floor(math.log10(hi - lo))
    while (hi - lo) / step > 6:
        step *= 2
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9:
        out.append(v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e6:
        return f"{v / 1e6:g}M"
    if abs(v) >= 1e3:
        return f"{v / 1e3:g}K"
    return f"{v:g}"


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log):
        self.log = log
        if log:
            self.lo, self.hi = math.log10(max(lo, 1e-12)), math.log10(max(hi, 1e-12))
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            self.hi = self.lo + 1
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        x = math.log10(max(v, 1e-12)) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def render_svg(fig, log_x: bool = False, log_y: bool = True) -> str:
    """Render a FigureResult as an SVG line chart string."""
    xs = sorted({p.x for s in fig.series for p in s.points})
    ys = [p.mean for s in fig.series for p in s.points if p.mean > 0]
    if not xs or not ys:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
                f'height="{_H}"><text x="20" y="40">{fig.title}: no data'
                f'</text></svg>')
    sx = _Scale(min(xs), max(xs), _ML, _W - _MR, log_x)
    sy = _Scale(min(ys), max(ys), _H - _MB, _MT, log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{_ML}" y="20" font-size="14" font-weight="bold">'
        f'{fig.fig_id}: {fig.title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _MR - _ML}" '
        f'height="{_H - _MB - _MT}" fill="none" stroke="#999"/>',
    ]
    for tx in _ticks(min(xs), max(xs), log_x):
        if not min(xs) <= tx <= max(xs):
            continue
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(min(ys), max(ys), log_y):
        if not min(ys) <= ty <= max(ys):
            continue
        py = sy(ty)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_W - _MR}" '
                     f'y2="{py:.1f}" stroke="#eee"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt(ty)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 8}" '
                 f'text-anchor="middle">{fig.xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">'
                 f'{fig.ylabel}</text>')

    for i, series in enumerate(fig.series):
        color = _COLORS[i % len(_COLORS)]
        pts = [(sx(p.x), sy(p.mean)) for p in series.points if p.mean > 0]
        if not pts:
            continue
        path = " ".join(f"{'M' if j == 0 else 'L'}{x:.1f},{y:.1f}"
                        for j, (x, y) in enumerate(pts))
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.4" '
                         f'fill="{color}"/>')
        ly = _MT + 14 + i * 16
        parts.append(f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" '
                     f'x2="{_W - _MR + 30}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        parts.append(f'<text x="{_W - _MR + 35}" y="{ly}">{series.label}'
                     f'</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# flamegraphs (the observability layer's renderer)
# ----------------------------------------------------------------------

_FLAME_COLORS = ("#e4593b", "#e8743b", "#ec8f3b", "#f0aa3b", "#dd5144",
                 "#e06a35", "#d9813f", "#ef9e30")
_ROW_H = 17


class _FlameNode:
    """One frame in the aggregated flamegraph tree."""

    __slots__ = ("name", "self_value", "children")

    def __init__(self, name: str):
        self.name = name
        self.self_value = 0
        self.children: dict = {}

    def total(self) -> int:
        """Self value plus every descendant's."""
        return self.self_value + sum(c.total() for c in self.children.values())


def _flame_tree(rows, value_key: str) -> _FlameNode:
    root = _FlameNode("all")
    for row in rows:
        node = root
        for frame in row["stack"].split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _FlameNode(frame)
            node = child
        node.self_value += row[value_key]
    return root


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_flamegraph(rows, title: str = "", value_key: str = "self_ns",
                      width: int = 1100) -> str:
    """Render folded-stack rows as a self-contained flamegraph SVG.

    ``rows`` are dicts with a ``stack`` (semicolon-joined frames) and a
    value under ``value_key`` (host ``self_ns`` by default; pass
    ``"calls"`` for a fully deterministic chart).  Layout is an icicle:
    the root spans the top, children split their parent's width
    proportionally to their subtree totals, siblings in name order.
    Every rect carries a ``<title>`` tooltip with the frame's exact
    value, so the SVG is explorable in any browser with zero scripts.
    """
    root = _flame_tree(rows, value_key)
    grand = root.total()
    if grand <= 0:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="40"><text x="10" y="25">{_esc(title)}: no samples'
                f'</text></svg>')

    def depth(node) -> int:
        if not node.children:
            return 1
        return 1 + max(depth(c) for c in node.children.values())

    rows_out: list[str] = []
    height = 30 + depth(root) * _ROW_H + 10

    def emit(node, x: float, w: float, level: int) -> None:
        if w < 0.8:
            return
        y = 30 + level * _ROW_H
        color = _FLAME_COLORS[sum(map(ord, node.name)) % len(_FLAME_COLORS)]
        label = _esc(node.name)
        rows_out.append(
            f'<g><rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{_ROW_H - 1}" fill="{color}" rx="1"/>'
            f'<title>{label}: {node.total()} {value_key} '
            f'({node.total() / grand:.1%})</title>')
        if w > 40:
            chars = max(1, int(w / 6.5))
            shown = label if len(label) <= chars else label[:chars - 1] + "…"
            rows_out.append(f'<text x="{x + 3:.1f}" y="{y + 12}" '
                            f'font-size="10" fill="#222">{shown}</text>')
        rows_out.append("</g>")
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            cw = w * child.total() / node.total()
            emit(child, cx, cw, level + 1)
            cx += cw

    emit(root, 10.0, float(width - 20), 0)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="sans-serif" font-size="11">'
            f'<text x="10" y="18" font-size="13" font-weight="bold">'
            f'{_esc(title)}</text>')
    return head + "".join(rows_out) + "</svg>"
