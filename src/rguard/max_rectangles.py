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

    The rows are lists indexed by chain id, None where a chain has no row:
    `run`, a chain's pixels left to right when it has two or more, and
    `above` and `below`.  Every chain of a stack contains [a, b], and it is
    the only chain of its row that does, so a branch is just its [a, b]:
    the stack is found again by climbing from the bottom chain.

    The rectangle touches the pixels that meet [a, b] in the chains of its
    stack, in the chains just below its bottom chain and in those just above
    its top chain.  A pixel touching it only at a corner lies in one of
    these, or the polygon would pinch at that corner.
    """
    n_h, plo, phi = px.n_h, px.pix_lo, px.pix_hi
    x0, y0, y1 = px.x0, px.y0, px.y1
    x1 = px.x1.copy()   # per chain: the right end
    key0, key1 = x0.__getitem__, x1.__getitem__
    n = len(x0)
    # a chain is named by its first pixel; 'v' sides come in x order, so the
    # pixel left of a side already knows its chain
    head = list(range(n))
    run: list[list[int] | None] = [None] * n
    for lo, hi in zip(plo[n_h:], phi[n_h:]):
        if lo >= 0 and hi >= 0:
            c = head[hi] = head[lo]
            x1[c] = x1[hi]
            if (ps := run[c]) is None:
                run[c] = [c, hi]
            else:
                ps.append(hi)
    above: list[list[int] | None] = [None] * n
    below: list[list[int] | None] = [None] * n
    for lo, hi in zip(plo[:n_h], phi[:n_h]):
        if lo >= 0 and hi >= 0:
            lo, hi = head[lo], head[hi]
            if (up := above[lo]) is None:
                above[lo] = [hi]
            elif up[-1] != hi:
                up.append(hi)
            if (down := below[hi]) is None:
                below[hi] = [lo]
            elif down[-1] != lo:
                down.append(lo)

    def meets(row: list[int] | None, a: int, b: int) -> list[int]:
        """The chains of row whose x-range meets [a, b]."""
        if row is None:
            return []
        return row[bisect_left(row, a, key=key1):bisect_right(row, b, key=key0)]

    out = []
    for c0 in range(n):
        if head[c0] != c0:
            continue
        down = below[c0]
        todo = [(x0[c0], x1[c0])]
        while todo:
            a, b = todo.pop()
            low = meets(down, a, b)
            for d in low:
                if x0[d] <= a and b <= x1[d]:
                    break   # the rectangle grows down
            else:
                # up the stack while a chain above contains [a, b]
                stack = [c0]
                while True:
                    high = meets(above[stack[-1]], a, b)
                    for d in high:
                        if x0[d] <= a and b <= x1[d]:
                            stack.append(d)
                            break
                    else:
                        break
                pids = []
                for d in stack + low + high:
                    if (ps := run[d]) is None:
                        pids.append(d)   # one pixel, meeting [a, b]
                    else:
                        i = max(bisect_left(ps, a, key=key0) - 1, 0)
                        pids += ps[i:bisect_right(ps, b, key=key0)]
                out.append((Rect(a, y0[c0], b, y1[stack[-1]]),
                            tuple(sorted(pids))))
                for d in high:
                    if a < x1[d] and x0[d] < b:
                        todo.append((max(a, x0[d]), min(b, x1[d])))
    return out


def _degenerate_segments(px: Pixelation) -> list[tuple[Rect, tuple[int, ...]]]:
    """Maximal chains of collinear pixel sides that neither extend into a
    pixel interior nor fatten to positive area, each with the pixels it
    touches: those at the corners of its sides.  The sides are sorted by
    axis, line and position, so a chain is a run of side ids, each side
    starting where the one before ends."""
    c, lo, hi, n_h = px.side_c, px.side_lo, px.side_hi, px.n_h
    ca, cb, plo, phi = px.corner_a, px.corner_b, px.pix_lo, px.pix_hi
    q_sw, q_se, q_nw, q_ne = px.q_sw, px.q_se, px.q_nw, px.q_ne
    # the first side of every chain but the first
    firsts = [s for s, (c_s, lo_s, c_p, hi_p)
              in enumerate(zip(c[1:], lo[1:], c, hi), 1)
              if c_s != c_p or lo_s != hi_p or s == n_h]
    out = []
    for first, end in zip([0, *firsts], [*firsts, len(c)]):
        # a pixel along the whole chain on one side => it fattens
        if -1 not in plo[first:end] or -1 not in phi[first:end]:
            continue
        a, b = ca[first], cb[end - 1]
        # a pixel beyond an end corner, along the chain's line => not maximal
        if first >= n_h:
            if q_sw[a] >= 0 or q_se[a] >= 0 or q_nw[b] >= 0 or q_ne[b] >= 0:
                continue
            seg = Rect(c[first], lo[first], c[first], hi[end - 1])
        else:
            if q_sw[a] >= 0 or q_nw[a] >= 0 or q_se[b] >= 0 or q_ne[b] >= 0:
                continue
            seg = Rect(lo[first], c[first], hi[end - 1], c[first])
        ks = ca[first:end]
        ks.append(b)
        pids = {*map(q_sw.__getitem__, ks), *map(q_se.__getitem__, ks),
                *map(q_nw.__getitem__, ks), *map(q_ne.__getitem__, ks)}
        pids.discard(-1)
        out.append((seg, tuple(sorted(pids))))
    return out
