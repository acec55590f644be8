"""Enumeration of the maximal axis-aligned rectangles inside the polygon,
including maximal degenerate segments when the degeneracy policy allows them.

Every positive-area maximal rectangle is a stack of pixel chains (runs of
pixels joined across interior vertical sides, each a strip from wall to
wall) cut to the x-range they share.  One pass over the pixel sides builds
the chains and links each to the chains above and below it; a walk up the
stacks from every chain then emits each maximal rectangle once, with the
pixels it touches read off the stack and the chains next to it, in time
proportional to the pixels plus the rectangles' heights in chains and their
pixel incidences.  This serves thin and non-thin polygons alike.  Every
degenerate member is a maximal chain of collinear pixel sides, filtered to
exact maximality with local half-unit expansion tests (coordinates are
doubled, so "+1" is half an input unit and stays within the neighboring
cells); it touches the pixels at the corners of its sides.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from rguard.pixelation import Pixelation
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
    for found, degenerate in ((rects, False), (segs, True)):
        for r, pids in sorted(found, key=lambda t: t[0].as_tuple()):
            out.append(MaxRect(len(out), r, degenerate, pids))
    px.memo[key] = out
    return out


# -- positive-area rectangles -----------------------------------------------------


def _positive_rects(px: Pixelation) -> list[tuple[Rect, tuple[int, ...]]]:
    """The positive-area maximal rectangles, each once, from its bottom chain,
    each with the pixels it touches.

    A chain is a maximal run of pixels joined across interior 'v' sides: a
    strip of one height running from wall to wall.  A maximal rectangle is
    the stack of chains it crosses, cut to the x-range [a, b] they share.
    From every chain the walk goes up a stack keeping [a, b]: it drops the
    branch when a chain below the bottom one contains [a, b] (the rectangle
    grows down), moves up without emitting when a chain above contains it,
    and otherwise emits the rectangle and branches into each chain above
    that overlaps (a, b).  Linking chains across interior 'h' sides in side
    id order lists those above and below each chain left to right.

    The rectangle touches the pixels that meet [a, b] in the chains of its
    stack, in the chains just below its bottom chain and in those just above
    its top chain.  A pixel touching it only at a corner lies in one of
    these, or the polygon would pinch at that corner.
    """
    n_h, plo, phi = px.n_h, px.pix_lo, px.pix_hi
    x0, y0, y1 = px.x0, px.y0, px.y1
    x1 = px.x1.copy()   # per chain: the right end
    # a chain is named by its first pixel; 'v' sides come in x order, so the
    # pixel left of a side already knows its chain
    head = list(range(len(x0)))
    run: dict[int, list[int]] = {}   # a chain's pixels, left to right, if 2+
    for lo, hi in zip(plo[n_h:], phi[n_h:]):
        if lo >= 0 and hi >= 0:
            c = head[hi] = head[lo]
            x1[c] = x1[hi]
            run.setdefault(c, [c]).append(hi)
    above: dict[int, list[int]] = {}
    below: dict[int, list[int]] = {}
    for lo, hi in zip(plo[:n_h], phi[:n_h]):
        if lo >= 0 and hi >= 0:
            lo, hi = head[lo], head[hi]
            up, down = above.setdefault(lo, []), below.setdefault(hi, [])
            if not up or up[-1] != hi:
                up.append(hi)
            if not down or down[-1] != lo:
                down.append(lo)

    def meets(row: list[int], a: int, b: int) -> list[int]:
        """The chains of row whose x-range meets [a, b]."""
        return row[bisect_left(row, a, key=x1.__getitem__):
                   bisect_right(row, b, key=x0.__getitem__)]

    def pixels_meeting(c: int, a: int, b: int) -> list[int]:
        """The pixels of chain c whose x-range meets [a, b]."""
        ps = run.get(c, [c])
        i = max(bisect_left(ps, a, key=x0.__getitem__) - 1, 0)
        return ps[i:bisect_right(ps, b, key=x0.__getitem__)]

    def container(chains: list[int], a: int, b: int) -> int | None:
        """The one of chains whose x-range contains [a, b], or None."""
        return next((d for d in chains if x0[d] <= a and b <= x1[d]), None)

    out = []
    for c0 in range(len(x0)):
        if head[c0] != c0:
            continue
        down = below.get(c0, [])
        todo = [(c0, x0[c0], x1[c0])]
        while todo:
            c, a, b = todo.pop()
            low = meets(down, a, b)
            if container(low, a, b) is not None:
                continue
            high = meets(above.get(c, []), a, b)
            while (d := container(high, a, b)) is not None:
                c = d
                high = meets(above.get(c, []), a, b)
            pids = pixels_meeting(c0, a, b)
            d = c0
            while d != c:   # up the stack
                d = container(meets(above[d], a, b), a, b)
                pids += pixels_meeting(d, a, b)
            for d in low + high:
                pids += pixels_meeting(d, a, b)
            out.append((Rect(a, y0[c0], b, y1[c]),
                        tuple(sorted(pids))))
            for d in high:
                if a < x1[d] and x0[d] < b:
                    todo.append((d, max(a, x0[d]), min(b, x1[d])))
    return out


def _degenerate_segments(px: Pixelation) -> list[tuple[Rect, tuple[int, ...]]]:
    """Maximal chains of collinear pixel sides that neither extend into a
    pixel interior nor fatten to positive area, each with the pixels it
    touches: those at the corners of its sides.  The sides are sorted by
    axis, line and position, so a chain is a run of side ids, each side
    starting where the one before ends."""
    c, lo, hi = px.side_c, px.side_lo, px.side_hi
    out = []
    first = 0
    for s in range(1, len(c) + 1):
        if s == len(c) or s == px.n_h or c[s] != c[s - 1] or lo[s] != hi[s - 1]:
            out.extend(_chain_candidate(px, first, s))
            first = s
    return out


def _chain_candidate(px: Pixelation, first: int, end: int):
    """The chain of sides first..end - 1 as a degenerate maximal segment,
    or nothing."""
    c, lo, hi = px.side_c[first], px.side_lo[first], px.side_hi[end - 1]
    a, b = px.corner_a[first], px.corner_b[end - 1]
    # a pixel beyond an end corner, along the chain's line => not maximal
    if first >= px.n_h:
        seg = Rect(c, lo, c, hi)
        beyond = (px.q_sw[a], px.q_se[a], px.q_nw[b], px.q_ne[b])
    else:
        seg = Rect(lo, c, hi, c)
        beyond = (px.q_sw[a], px.q_nw[a], px.q_se[b], px.q_ne[b])
    if max(beyond) >= 0:
        return []
    # a pixel along the whole chain on one side => it fattens
    if min(px.pix_lo[first:end]) >= 0 or min(px.pix_hi[first:end]) >= 0:
        return []
    pids = {p for k in px.corner_a[first:end] + [b]
            for p in px.corner_pixels(k)}
    return [(seg, tuple(sorted(pids)))]
