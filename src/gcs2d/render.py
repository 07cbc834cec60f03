"""Static DOT and SVG renderings of graphs and solved placements."""

from __future__ import annotations

import math
import re

from .geometry import CircleRep, LineRep, Placement, Point2
from .graph import ConstraintGraph, EntityKind

_DOT_SHAPES = {
    EntityKind.POINT: "circle",
    EntityKind.LINE: "box",
    EntityKind.CIRCLE_FIXED_RADIUS: "doublecircle",
    EntityKind.CIRCLE_FREE_RADIUS: "doublecircle",
}


# Characters that XML 1.0 forbids: C0 controls other than tab, newline and
# carriage return, the surrogates (which UTF-8 cannot encode either), U+FFFE
# and U+FFFF.  An id shows each of them as a visible escape such as \u0001.
_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _visible(text: str) -> str:
    if text.isprintable():  # every character to escape is unprintable
        return text
    return _UNWRITABLE.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def _quote(text: str) -> str:
    """A DOT string: backslashes and quotes escaped, then unwritable
    characters shown, so an escape's backslash stays single."""
    return '"' + _visible(text.replace("\\", "\\\\").replace('"', '\\"')) + '"'


def to_dot(g: ConstraintGraph) -> str:
    """Graphviz source: one node per entity (shape by kind), one labelled edge
    per constraint."""
    lines = ["graph constraints {", "  node [fontsize=10];"]
    names = {}  # each id quoted once
    for e in g.entities:
        label = names[e.id] = _quote(e.id)
        if e.kind.is_circle:  # DOT's line break, inside the quotes
            radius = "known" if e.kind is EntityKind.CIRCLE_FIXED_RADIUS else "free"
            label = f'{label[:-1]}\\nr {radius}"'
        lines.append(f"  {names[e.id]} [shape={_DOT_SHAPES[e.kind]}, label={label}];")
    for c in g.constraints:
        label = c.kind.value if c.value is None else f"{c.kind.value}={c.value:g}"
        lines.append(
            f"  {names[c.between[0]]} -- {names[c.between[1]]} [label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


_WIDTH, _HEIGHT = 800.0, 600.0
_MARGIN = 0.05


def _world_bounds(placements: dict[str, Placement]) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for p in placements.values():
        if isinstance(p, Point2):
            xs.append(p.x)
            ys.append(p.y)
        elif isinstance(p, CircleRep):
            xs += [p.center.x - p.r, p.center.x + p.r]
            ys += [p.center.y - p.r, p.center.y + p.r]
    if not xs:
        return -1.0, -1.0, 1.0, 1.0
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    # A flat axis spans the other's extent, so a drawing does not change with
    # the sketch's scale; when both are flat, each spans 2 around its middle.
    span = max(max_x - min_x, max_y - min_y) or 2.0
    if max_x - min_x < 1e-9 * span:
        min_x, max_x = (min_x + max_x - span) / 2.0, (min_x + max_x + span) / 2.0
    if max_y - min_y < 1e-9 * span:
        min_y, max_y = (min_y + max_y - span) / 2.0, (min_y + max_y + span) / 2.0
    return min_x, min_y, max_x, max_y


def _clip_line(l: LineRep, bounds: tuple[float, float, float, float]) -> tuple[Point2, Point2] | None:
    min_x, min_y, max_x, max_y = bounds
    anchor = l.foot_of(Point2((min_x + max_x) / 2.0, (min_y + max_y) / 2.0))
    dx, dy = l.direction
    span = math.hypot(max_x - min_x, max_y - min_y)
    lo, hi = -span, span
    for value, direction, low, high in (
        (anchor.x, dx, min_x, max_x),
        (anchor.y, dy, min_y, max_y),
    ):
        if abs(direction) < 1e-12:
            if not low <= value <= high:
                return None
            continue
        t1 = (low - value) / direction
        t2 = (high - value) / direction
        if t1 > t2:
            t1, t2 = t2, t1
        lo, hi = max(lo, t1), min(hi, t2)
    if lo >= hi:
        return None
    return (
        Point2(anchor.x + lo * dx, anchor.y + lo * dy),
        Point2(anchor.x + hi * dx, anchor.y + hi * dy),
    )


def _text(x: float, y: float, name: str) -> str:
    """A label at screen point (x, y); the id is escaped as XML text."""
    name = _visible(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'  <text x="{x:.2f}" y="{y:.2f}" font-size="12">{name}</text>'


def to_svg(g: ConstraintGraph, placements: dict[str, Placement]) -> str:
    """An 800x600 SVG of solved placements, auto-scaled with a 5% margin."""
    min_x, min_y, max_x, max_y = _world_bounds(placements)
    pad_x = (max_x - min_x) * _MARGIN
    pad_y = (max_y - min_y) * _MARGIN
    bounds = (min_x - pad_x, min_y - pad_y, max_x + pad_x, max_y + pad_y)
    scale = min(
        _WIDTH / (bounds[2] - bounds[0]),
        _HEIGHT / (bounds[3] - bounds[1]),
    )

    def to_screen(p: Point2) -> tuple[float, float]:
        x = (p.x - bounds[0]) * scale + (_WIDTH - (bounds[2] - bounds[0]) * scale) / 2.0
        y = _HEIGHT - ((p.y - bounds[1]) * scale + (_HEIGHT - (bounds[3] - bounds[1]) * scale) / 2.0)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        '  <rect width="100%" height="100%" fill="white"/>',
    ]
    for name, placement in placements.items():
        if isinstance(placement, LineRep):
            segment = _clip_line(placement, bounds)
            if segment is None:
                continue
            (x1, y1), (x2, y2) = to_screen(segment[0]), to_screen(segment[1])
            parts.append(
                f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                'stroke="steelblue" stroke-width="1.5"/>'
            )
            lx, ly = to_screen(segment[0])
            parts.append(_text(lx + 4, ly - 4, name))
        elif isinstance(placement, CircleRep):
            cx, cy = to_screen(placement.center)
            parts.append(
                f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{placement.r * scale:.2f}" '
                'fill="none" stroke="darkseagreen" stroke-width="1.5"/>'
            )
            parts.append(_text(cx + 4, cy - 4, name))
    for name, placement in placements.items():
        if isinstance(placement, Point2):
            x, y = to_screen(placement)
            parts.append(f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="crimson"/>')
            parts.append(_text(x + 5, y - 5, name))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
