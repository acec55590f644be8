"""Enumeration of the maximal axis-aligned rectangles inside the polygon,
including maximal degenerate segments when the degeneracy policy allows them.

For thin polygons every positive-area maximal rectangle is a slab of the
vertical or horizontal decomposition.  The slabs are read off the pixel
sides in one linear pass: a slab is a maximal chain of pixels joined across
non-boundary sides of one axis, and it is kept when neither of its flanks can
grow.  Every degenerate member is a maximal chain of collinear pixel sides,
filtered to exact maximality with local half-unit expansion tests
(coordinates are doubled, so "+1" is half an input unit and stays within the
neighboring cells).  Non-thin polygons fall back to an occupancy-grid
enumeration, quadratic in the grid lines along the shorter axis times those
along the longer one; fine for the small non-thin instances exercised here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rguard.pixelation import Pixelation, Side
from rguard.polygon_core import Rect


@dataclass(frozen=True, slots=True)
class MaxRect:
    id: int
    rect: Rect
    degenerate: bool
    pixel_ids: tuple[int, ...]   # all pixels with non-empty closed intersection


def enumerate_max_rects(px: Pixelation, allow_degenerate: bool) -> list[MaxRect]:
    """Every maximal rectangle exactly once, ids in deterministic rect order.
    Results are memoized on the pixelation (they are pure functions of it)."""
    key = ("rects", allow_degenerate)
    if key in px.memo:
        return px.memo[key]
    if px.is_thin:
        rects = _thin_positive(px)
    else:
        rects = _grid_positive(px)
    segs = _degenerate_segments(px) if allow_degenerate else []
    out: list[MaxRect] = []
    for r in sorted(set(rects), key=Rect.as_tuple):
        out.append(MaxRect(len(out), r, False, _pixels_touching(px, r)))
    for r in sorted(set(segs), key=Rect.as_tuple):
        out.append(MaxRect(len(out), r, True, _pixels_touching(px, r)))
    px.memo[key] = out
    return out


def classify_degenerate(px: Pixelation, seg: Rect) -> bool:
    """True iff no positive-area rectangle inside P contains the segment."""
    if not seg.is_degenerate_shape():
        raise ValueError("classify_degenerate expects a zero-area rectangle")
    if not px.cover.rect_inside(seg):
        raise ValueError("segment lies outside the polygon")
    if seg.width == 0 and seg.height == 0:
        return False  # a point always fattens inside one of its pixels
    if seg.width == 0:
        left = Rect(seg.xmin - 1, seg.ymin, seg.xmax, seg.ymax)
        right = Rect(seg.xmin, seg.ymin, seg.xmax + 1, seg.ymax)
        return not (px.cover.rect_inside(left) or px.cover.rect_inside(right))
    down = Rect(seg.xmin, seg.ymin - 1, seg.xmax, seg.ymax)
    up = Rect(seg.xmin, seg.ymin, seg.xmax, seg.ymax + 1)
    return not (px.cover.rect_inside(down) or px.cover.rect_inside(up))


# -- thin-polygon path ---------------------------------------------------------


def _thin_positive(px: Pixelation) -> list[Rect]:
    """The maximal slabs.  A chain joined across 'v' sides is a horizontal
    slab, one joined across 'h' sides a vertical slab.  Both ends of a chain
    lie on the boundary, so only its flanks, the sides of the other axis, can
    grow; a flank grows iff every pixel of the chain has an interior side
    there."""
    n = px.pixel_count
    # per axis and pixel: the pixel across its high side, and whether its
    # low / high side of that axis lies on the boundary
    nxt = {"v": [None] * n, "h": [None] * n}
    wall_lo = {"v": [False] * n, "h": [False] * n}
    wall_hi = {"v": [False] * n, "h": [False] * n}
    for s in px.sides:
        if s.pix_lo is None:
            wall_lo[s.axis][s.pix_hi] = True
        elif s.pix_hi is None:
            wall_hi[s.axis][s.pix_lo] = True
        else:
            nxt[s.axis][s.pix_lo] = s.pix_hi
    out = []
    for join, flank in (("v", "h"), ("h", "v")):
        for first in range(n):
            if not wall_lo[join][first]:
                continue
            chain = [first]
            while nxt[join][chain[-1]] is not None:
                chain.append(nxt[join][chain[-1]])
            if (any(wall_lo[flank][p] for p in chain)
                    and any(wall_hi[flank][p] for p in chain)):
                a, b = px.pixels[first], px.pixels[chain[-1]]
                out.append(Rect(a.xmin, a.ymin, b.xmax, b.ymax))
    return out


def _degenerate_segments(px: Pixelation) -> list[Rect]:
    """Maximal chains of collinear pixel sides that neither extend into a
    pixel interior nor fatten to positive area."""
    by_line: dict[tuple[str, int], list[Side]] = {}
    for s in px.sides:
        by_line.setdefault((s.axis, s.c), []).append(s)
    out = []
    for (axis, c), group in sorted(by_line.items()):
        group.sort(key=lambda s: s.lo)
        chain: list[Side] = []
        for s in group + [None]:
            if chain and (s is None or s.lo != chain[-1].hi):
                out.extend(_chain_candidate(px, axis, c, chain))
                chain = []
            if s is not None:
                chain.append(s)
    return out


def _chain_candidate(px: Pixelation, axis: str, c: int, chain: list[Side]):
    lo, hi = chain[0].lo, chain[-1].hi
    if axis == "v":
        seg = Rect(c, lo, c, hi)
        ends = [(c, lo, 0, -1), (c, hi, 0, 1)]
    else:
        seg = Rect(lo, c, hi, c)
        ends = [(lo, c, -1, 0), (hi, c, 1, 0)]
    # extension beyond an endpoint into some incident pixel => not maximal
    for ex, ey, dx, dy in ends:
        probe = (ex + dx, ey + dy)
        for pid in px.corner_pixels[px.corner_ids[(ex, ey)]]:
            if px.pixels[pid].contains_point(probe):
                return []
    fatten_lo = all(s.pix_lo is not None for s in chain)
    fatten_hi = all(s.pix_hi is not None for s in chain)
    if fatten_lo or fatten_hi:
        return []
    return [seg]


# -- general (non-thin) path -----------------------------------------------------


def _grid_positive(px: Pixelation) -> list[Rect]:
    """Maximal rectangles from the occupancy grid.  For every pair of grid
    lines along the axis with fewer of them, the maximal runs of cells lying
    inside between that pair are the candidates; the grid is transposed when
    that axis is y, so the pair loop is quadratic only in the shorter axis."""
    cov = px.cover
    inside, us, vs = cov.inside, cov.xs, cov.ys  # inside[u cell, v cell]
    flip = len(us) > len(vs)
    if flip:
        inside, us, vs = np.ascontiguousarray(inside.T), vs, us

    def rect(u0: int, v0: int, u1: int, v1: int) -> Rect:
        return Rect(v0, u0, v1, u1) if flip else Rect(u0, v0, u1, v1)

    out = []
    n = len(us) - 1
    for i in range(n):
        ok = inside[i].copy()
        for j in range(i, n):
            ok &= inside[j]
            u0, u1 = int(us[i]), int(us[j + 1])
            # a maximal run of ok meets an outside cell at both ends, so
            # the rectangle can only grow along u (by half a unit)
            for a, b in _runs(ok):
                v0, v1 = int(vs[a]), int(vs[b])
                if not (cov.rect_inside(rect(u0 - 1, v0, u1, v1))
                        or cov.rect_inside(rect(u0, v0, u1 + 1, v1))):
                    out.append(rect(u0, v0, u1, v1))
    return out


def _runs(mask: np.ndarray):
    idx = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return [(int(s), int(e)) for s, e in zip(idx[::2], idx[1::2])]


# -- shared helpers ---------------------------------------------------------------


def _pixels_touching(px: Pixelation, r: Rect) -> tuple[int, ...]:
    """All pixels whose closed rectangle meets r.

    Candidates are pixels incident to any arrangement corner lying on or in
    r; conforming adjacency guarantees this covers every contact.
    """
    cand: set[int] = set()
    for pid, rect in _seed_pixels(px, r):
        cand.add(pid)
    found = set()
    stack = list(cand)
    while stack:
        pid = stack.pop()
        if pid in found:
            continue
        if not px.pixels[pid].intersects(r):
            continue
        found.add(pid)
        rect = px.pixels[pid]
        for p in ((rect.xmin, rect.ymin), (rect.xmax, rect.ymin),
                  (rect.xmin, rect.ymax), (rect.xmax, rect.ymax)):
            if (r.xmin <= p[0] <= r.xmax and r.ymin <= p[1] <= r.ymax):
                for q in px.corner_pixels[px.corner_ids[p]]:
                    if q not in found:
                        stack.append(q)
    return tuple(sorted(found))


def _seed_pixels(px: Pixelation, r: Rect):
    """A starting pixel inside r (corner of r is always an arrangement corner
    for maximal rectangles; fall back to locate_point otherwise)."""
    p = (r.xmin, r.ymin)
    if p in px.corner_ids:
        for pid in px.corner_pixels[px.corner_ids[p]]:
            yield pid, px.pixels[pid]
        return
    for pid in px.locate_point(p):
        yield pid, px.pixels[pid]
