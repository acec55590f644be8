"""Deterministic SVG emitter: polygon, pixel grid, guards and witness
rectangles.  Pure string building; byte-identical output for equal inputs."""
from __future__ import annotations

from rguard.pipeline import SolveContext
from rguard.polygon_core import OrthoPolygon

_POLY_FILL = "#f2ead9"
_POLY_EDGE = "#222222"
_GRID = "#b8b8c4"
_WITNESS = "#3366cc"
_GUARD = "#cc3333"


def _fmt(v) -> str:
    """Half-integer coordinates print exactly: '3' or '3.5'."""
    if v == int(v):
        return str(int(v))
    return f"{v:.1f}"


class _View:
    def __init__(self, poly: OrthoPolygon):
        bb = poly.bbox()
        self.ymax = bb.ymax / 2
        self.x0 = bb.xmin / 2 - 1
        self.y0 = -1
        self.w = (bb.xmax - bb.xmin) / 2 + 2
        self.h = (bb.ymax - bb.ymin) / 2 + 2

    def pt(self, x2: int, y2: int) -> str:
        return f"{_fmt(x2 / 2)},{_fmt(self.ymax - y2 / 2)}"

    def xy(self, x2: int, y2: int) -> tuple[str, str]:
        return _fmt(x2 / 2), _fmt(self.ymax - y2 / 2)


def render_svg(ctx: SolveContext) -> str:
    poly = ctx.px.poly
    v = _View(poly)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(v.x0)} '
        f'{_fmt(v.y0)} {_fmt(v.w)} {_fmt(v.h)}" '
        f'width="{_fmt(v.w * 24)}" height="{_fmt(v.h * 24)}">',
    ]
    # polygon with holes, even-odd fill
    path = []
    for ring in poly.rings:
        path.append("M " + " L ".join(v.pt(x, y) for x, y in ring) + " Z")
    out.append(f'<path d="{" ".join(path)}" fill="{_POLY_FILL}" '
               f'stroke="{_POLY_EDGE}" stroke-width="0.08" fill-rule="evenodd"/>')
    # interior pixel sides
    grid = []
    px = ctx.px
    for sid, (c, lo, hi, p, q) in enumerate(zip(
            px.side_c, px.side_lo, px.side_hi, px.pix_lo, px.pix_hi)):
        if p < 0 or q < 0:
            continue
        if sid >= px.n_h:
            a, b, e, f = *v.xy(c, lo), *v.xy(c, hi)
        else:
            a, b, e, f = *v.xy(lo, c), *v.xy(hi, c)
        grid.append(f'<line x1="{a}" y1="{b}" x2="{e}" y2="{f}"/>')
    if grid:
        out.append(f'<g stroke="{_GRID}" stroke-width="0.03" '
                   f'stroke-dasharray="0.12,0.12">')
        out.extend(grid)
        out.append("</g>")
    # one witness rectangle per certificate (deduplicated, order-stable)
    seen = set()
    wit = []
    for c in ctx.solution.certificates:
        if c.rect_id in seen:
            continue
        seen.add(c.rect_id)
        r = ctx.rects[c.rect_id].rect
        x, y = v.xy(r.xmin, r.ymax)
        wit.append(f'<rect x="{x}" y="{y}" width="{_fmt(r.width / 2)}" '
                   f'height="{_fmt(r.height / 2)}"/>')
    if wit:
        out.append(f'<g fill="none" stroke="{_WITNESS}" stroke-width="0.05">')
        out.extend(wit)
        out.append("</g>")
    # guards: circles for points, hatched pixels for pixel-guards
    marks = []
    for g in ctx.solution.guards:
        if g.kind == "point":
            x, y = v.xy(*g.location)
            marks.append(f'<circle cx="{x}" cy="{y}" r="0.16" fill="{_GUARD}"/>')
        else:
            r = ctx.px.pixels[g.pixel]
            x, y = v.xy(r.xmin, r.ymax)
            marks.append(f'<rect x="{x}" y="{y}" width="{_fmt(r.width / 2)}" '
                         f'height="{_fmt(r.height / 2)}" fill="none" '
                         f'stroke="{_GUARD}" stroke-width="0.06"/>')
            a1, b1 = v.xy(r.xmin, r.ymin)
            a2, b2 = v.xy(r.xmax, r.ymax)
            marks.append(f'<line x1="{a1}" y1="{b1}" x2="{a2}" y2="{b2}" '
                         f'stroke="{_GUARD}" stroke-width="0.04"/>')
            a3, b3 = v.xy(r.xmin, r.ymax)
            a4, b4 = v.xy(r.xmax, r.ymin)
            marks.append(f'<line x1="{a3}" y1="{b3}" x2="{a4}" y2="{b4}" '
                         f'stroke="{_GUARD}" stroke-width="0.04"/>')
    out.extend(marks)
    out.append("</svg>")
    return "\n".join(out) + "\n"
