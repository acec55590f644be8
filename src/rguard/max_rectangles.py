"""Enumeration of the maximal axis-aligned rectangles inside the polygon,
including maximal degenerate segments when the degeneracy policy allows them.

Every positive-area maximal rectangle is a stack of pixel chains (runs of
pixels joined across interior vertical sides, each a strip from wall to
wall) cut to the x-range they share.  One pass over the pixel sides builds
the chains and links each to the chains above and below it; a walk up the
stacks from every chain then emits each maximal rectangle once, in time
proportional to the pixels plus the rectangles' heights in chains.  This
serves thin and non-thin polygons alike.  Every degenerate member is a
maximal chain of collinear pixel sides, filtered to exact maximality with
local half-unit expansion tests (coordinates are doubled, so "+1" is half an
input unit and stays within the neighboring cells).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from rguard.guard_model import fattenable
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
    rects = _positive_rects(px)
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
    return not fattenable(px, seg)


# -- positive-area rectangles -----------------------------------------------------


def _positive_rects(px: Pixelation) -> list[Rect]:
    """The positive-area maximal rectangles, each once, from its bottom chain.

    A chain is a maximal run of pixels joined across interior 'v' sides: a
    strip of one height running from wall to wall.  A maximal rectangle is
    the stack of chains it crosses, cut to the x-range [a, b] they share.
    From every chain the walk goes up a stack keeping [a, b]: it drops the
    branch when a chain below the bottom one contains [a, b] (the rectangle
    grows down), moves up without emitting when a chain above contains it,
    and otherwise emits the rectangle and branches into each chain above
    that overlaps (a, b).  Linking chains across interior 'h' sides in the
    order of `px.sides` lists those above and below each chain left to right.
    """
    pix = px.pixels
    # a chain is named by its first pixel; 'v' sides come in x order, so the
    # pixel left of a side already knows its chain
    head = list(range(len(pix)))
    x0 = [r.xmin for r in pix]
    x1 = [r.xmax for r in pix]   # per chain: the right end
    for s in px.sides:
        if s.axis == "v" and not s.on_boundary:
            c = head[s.pix_hi] = head[s.pix_lo]
            x1[c] = x1[s.pix_hi]
    above: dict[int, list[int]] = {}
    below: dict[int, list[int]] = {}
    for s in px.sides:
        if s.axis == "h" and not s.on_boundary:
            lo, hi = head[s.pix_lo], head[s.pix_hi]
            up, down = above.setdefault(lo, []), below.setdefault(hi, [])
            if not up or up[-1] != hi:
                up.append(hi)
            if not down or down[-1] != lo:
                down.append(lo)

    def holder(row: list[int], a: int) -> int:
        """Index in row of the chain starting at or left of a, or -1."""
        return bisect_right(row, a, key=x0.__getitem__) - 1

    out = []
    for c0 in range(len(pix)):
        if head[c0] != c0:
            continue
        down = below.get(c0, [])
        todo = [(c0, x0[c0], x1[c0])]
        while todo:
            c, a, b = todo.pop()
            i = holder(down, a)
            if i >= 0 and x1[down[i]] >= b:
                continue
            while True:
                up = above.get(c, [])
                i = holder(up, a)
                if i < 0 or x1[up[i]] < b:
                    break
                c = up[i]
            out.append(Rect(a, pix[c0].ymin, b, pix[c].ymax))
            for d in up[max(i, 0):]:
                if x0[d] >= b:
                    break
                if x1[d] > a:
                    todo.append((d, max(a, x0[d]), min(b, x1[d])))
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
