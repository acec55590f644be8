"""Pixelation of an orthogonal polygon, its dual graph, and diagnostics.

The pixelation is the partition of P obtained by shooting a horizontal and a
vertical ray inward from every reflex vertex until it first hits the
boundary; the cells of that arrangement are the pixels.

Construction is a pair of plane sweeps (one per axis).  A sweep maintains the
open cross-section of the interior as a sorted list of intervals; reflex rays
parallel to the sweep front are derived directly from the cross-sections
before/after each event, so no separate ray-shooting structure is needed.
The first sweep yields the horizontal cuts; the second splits its slabs by
those cuts, which yields the pixels.  Interval lists are plain
bisect-maintained Python lists, and each event walks the sorted lists of its
column in step.  No slabs are stored: `max_rectangles` reads both
decompositions' slabs off the pixel sides.

The mesh is conforming: two pixels that touch along a line share a whole
side.  So on one line at most one side starts at a given corner, a side is
named by its first corner (its west end for 'h', its south end for 'v'),
and each quadrant around a corner holds at most one pixel.  The pixels,
corners and sides are stored as parallel lists of ints indexed by their
ids (see `Pixelation`), so the complex holds no object per cell.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter

import numpy as np

from rguard.polygon_core import OrthoPolygon, Pt, Rect, half


@dataclass(slots=True)
class DualGraph:
    """Weak dual of the pixelation: one vertex per pixel."""

    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]]


class PixelationError(RuntimeError):
    """Internal inconsistency while building the pixelation."""


class Pixelation:
    """The pixel complex of a polygon, as parallel int lists.

    Pixels: the boxes `x0`, `y0`, `x1`, `y1`, and the ids of each pixel's
    `south`, `north`, `west` and `east` sides.

    Corners, in (x, y) order: `cx`, `cy`, and the pixel in each quadrant
    around the corner, `q_sw`, `q_se`, `q_nw` and `q_ne` (-1 for none).

    Sides, the 'h' ones first (ids below `n_h`, in (y, x) order), then the
    'v' ones (in (x, y) order): the fixed coordinate `side_c`, the span
    `side_lo` to `side_hi` along it, the end corners `corner_a` and
    `corner_b`, and the pixels `pix_lo` on the south or west and `pix_hi` on
    the north or east (-1 for none, on the boundary).  A side is either
    shared by two pixels or lies on the polygon boundary.

    `pixels` (one `Rect` per pixel), `dual` and `cover` are built on first
    read.  A solve whose reduction keeps nothing reads none of them."""

    def __init__(self, poly: OrthoPolygon):
        self.poly = poly
        # what later layers derive from the pixelation alone (maximal
        # rectangles, the dual decomposition), shared by the tasks solved on it
        self.memo: dict = {}
        v_edges, h_edges, v_rays, h_rays = _oriented_features(poly)
        # pass 1: y-sweep derives the horizontal cuts only
        h_cuts = _sweep(h_edges, h_rays, v_edges, None)[0]
        # pass 2: x-sweep splits its slabs by those cuts into the pixels
        boxes = _sweep(v_edges, v_rays, h_edges, h_cuts)[1]
        self._build(boxes)

    def _build(self, boxes: list[tuple[int, int, int, int]]) -> None:
        """The complex from the pixel boxes (xmin, ymin, xmax, ymax).

        A corner (x, y) is first the integer x * span + y - ybase, which
        sorts in (x, y) order; its id is its rank.  Each pixel then names
        its four sides by their first corners: west and south start at its
        south-west corner, east at its south-east and north at its
        north-west one.  'v' sides come out in corner-id order, and 'h'
        sides, stably sorted by y, in (y, x) order of their first corner.
        The pixels of a side are those in the quadrants of its first corner
        that it bounds.
        """
        # by column, not zip(*boxes): see _oriented_features on 20-item tuples
        self.x0, self.y0, self.x1, self.y1 = (
            list(map(itemgetter(i), boxes)) for i in range(4))
        ybase = min(self.y0)
        span = max(self.y1) - ybase + 1
        sw = [x0 * span + y0 - ybase for x0, y0, _, _ in boxes]
        se = [x1 * span + y0 - ybase for _, y0, x1, _ in boxes]
        nw = [x0 * span + y1 - ybase for x0, _, _, y1 in boxes]
        ne = [x1 * span + y1 - ybase for _, _, x1, y1 in boxes]
        keys = sorted(set(sw).union(se, nw, ne))
        rank = dict(zip(keys, range(len(keys))))
        sw, se, nw, ne = (list(map(rank.__getitem__, ks))
                          for ks in (sw, se, nw, ne))
        # corners and sides share the boxes' int objects rather than hold
        # decoded copies, which would outlive the build
        coord = {v: v for b in boxes for v in b}
        self.cx = cx = [coord[k // span] for k in keys]
        self.cy = cy = [coord[k % span + ybase] for k in keys]
        n_c = len(keys)
        del rank, keys, coord

        # the pixel in each quadrant of a corner, and per first corner the
        # side's last corner (0 for no side: a last corner follows its first
        # in id order)
        q_sw, q_se, q_nw, q_ne = ([-1] * n_c for _ in range(4))
        v_end, h_end = [0] * n_c, [0] * n_c
        for pid, (a, b, c, d) in enumerate(zip(sw, se, nw, ne)):
            q_ne[a] = q_nw[b] = q_se[c] = q_sw[d] = pid
            v_end[a], v_end[b] = c, d      # west and east sides
            h_end[a], h_end[c] = b, d      # south and north sides
        # two sides starting at one corner would overwrite each other's end
        if ([v_end[a] for a in sw] != nw or [v_end[b] for b in se] != ne
                or [h_end[a] for a in sw] != se or [h_end[c] for c in nw] != ne):
            raise PixelationError("pixel sides do not conform")
        self.q_sw, self.q_se, self.q_nw, self.q_ne = q_sw, q_se, q_nw, q_ne

        hs = list(compress(range(n_c), h_end))
        hs.sort(key=cy.__getitem__)
        vs = list(compress(range(n_c), v_end))
        h_last = list(map(h_end.__getitem__, hs))
        v_last = list(map(v_end.__getitem__, vs))
        self.n_h = len(hs)
        self.side_c = [*map(cy.__getitem__, hs), *map(cx.__getitem__, vs)]
        self.side_lo = [*map(cx.__getitem__, hs), *map(cy.__getitem__, vs)]
        self.side_hi = [*map(cx.__getitem__, h_last),
                        *map(cy.__getitem__, v_last)]
        self.corner_a = hs + vs
        self.corner_b = h_last + v_last
        self.pix_lo = [*map(q_se.__getitem__, hs), *map(q_nw.__getitem__, vs)]
        self.pix_hi = list(map(q_ne.__getitem__, self.corner_a))

        # side ids by first corner
        h_sid, v_sid = [0] * n_c, [0] * n_c
        for sid, a in enumerate(hs):
            h_sid[a] = sid
        for sid, a in enumerate(vs, len(hs)):
            v_sid[a] = sid
        self.south = list(map(h_sid.__getitem__, sw))
        self.north = list(map(h_sid.__getitem__, nw))
        self.west = list(map(v_sid.__getitem__, sw))
        self.east = list(map(v_sid.__getitem__, se))

        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
        if area != abs(self.poly.area2()) // 2:
            raise PixelationError("pixel areas do not cover the polygon")

    # -- derived structure ------------------------------------------------------

    @property
    def pixel_count(self) -> int:
        return len(self.x0)

    @cached_property
    def pixels(self) -> list[Rect]:
        """One `Rect` per pixel."""
        return list(map(Rect, self.x0, self.y0, self.x1, self.y1))

    @cached_property
    def dual(self) -> DualGraph:
        """The pixels, joined across the sides they share."""
        edges = sorted((p, q) if p < q else (q, p)
                       for p, q in zip(self.pix_lo, self.pix_hi)
                       if p >= 0 and q >= 0)
        # in sorted edge order each list receives its smaller neighbours,
        # then its larger ones, both ascending: it comes out sorted
        adj: list[list[int]] = [[] for _ in self.x0]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return DualGraph(len(adj), edges, adj)

    def corner_pixels(self, cid: int) -> list[int]:
        """The pixels at corner cid, in id order."""
        return sorted(p for p in (self.q_sw[cid], self.q_se[cid],
                                  self.q_nw[cid], self.q_ne[cid]) if p >= 0)

    def corner_interior(self, cid: int) -> bool:
        """Is corner cid shared by 4 pixels?"""
        return min(self.q_sw[cid], self.q_se[cid],
                   self.q_nw[cid], self.q_ne[cid]) >= 0

    @cached_property
    def is_thin(self) -> bool:
        """True iff no pixel corner is interior (shared by 4 pixels)."""
        return max(map(min, self.q_sw, self.q_se, self.q_nw, self.q_ne)) < 0

    @cached_property
    def cover(self) -> "PixelCover":
        return PixelCover(self.pixels)

    def locate_points(self, pts: Sequence[Pt]) -> list[list[int]]:
        """The pixels whose closure contains each point (none when it is
        outside P), for all the points in one pass.  A corner reads its
        pixels and a point on an open side the side's, found by bisecting
        the coordinate lists, which are sorted: corners by x, then y; each
        axis' sides by line, then position.  The rest are found by one sweep
        over x that keeps the pixels whose x-range strictly holds the sweep
        line ordered by ymin, where they do not overlap."""
        cx, cy, c, lo, hi = self.cx, self.cy, self.side_c, self.side_lo, \
            self.side_hi
        n_h, n_s = self.n_h, len(c)
        out: list[list[int]] = [[] for _ in pts]
        inner = []
        for i, (x, y) in enumerate(pts):
            a = bisect_left(cx, x)
            cid = bisect_left(cy, y, a, bisect_right(cx, x, a))
            if cid < len(cx) and cx[cid] == x and cy[cid] == y:
                out[i] = self.corner_pixels(cid)
                continue
            for u, v, first, end in ((x, y, n_h, n_s), (y, x, 0, n_h)):
                a = bisect_left(c, u, first, end)
                s = bisect_right(lo, v, a, bisect_right(c, u, a, end)) - 1
                if s >= a and lo[s] < v < hi[s]:
                    out[i] = sorted(q for q in (self.pix_lo[s], self.pix_hi[s])
                                    if q >= 0)
                    break
            else:
                inner.append((x, y, i))
        if not inner:
            return out
        inner.sort()
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        n = len(x0)
        by_xmin = sorted(range(n), key=x0.__getitem__)
        by_xmax = sorted(range(n), key=x1.__getitem__)
        active: list[tuple[int, int]] = []   # (ymin, pixel id)
        a = b = 0
        for x, y, i in inner:
            while a < n and x0[by_xmin[a]] < x:
                insort(active, (y0[by_xmin[a]], by_xmin[a]))
                a += 1
            while b < n and x1[by_xmax[b]] <= x:
                del active[bisect_left(active, (y0[by_xmax[b]], by_xmax[b]))]
                b += 1
            j = bisect_left(active, (y,)) - 1
            if j >= 0 and y < y1[active[j][1]]:
                out[i] = [active[j][1]]
        return out


def build_pixelation(poly: OrthoPolygon) -> Pixelation:
    """Compute the pixelation of a validated polygon."""
    return Pixelation(poly)


def estimate_thinness_K(px: Pixelation) -> int:
    """Smallest K such that no (K+1)x(K+1) contiguous pixel block has all of
    its internal corners interior.

    Geometric surrogate for grid-based thinness: equals 1 + the side of the
    largest square grid of interior corners whose neighboring corners are
    joined by single pixel sides.
    """
    interior = set(filter(px.corner_interior, range(len(px.cx))))
    if not interior:
        return 1
    left: dict[int, int] = {}
    down: dict[int, int] = {}
    for sid, (a, b) in enumerate(zip(px.corner_a, px.corner_b)):
        if a in interior and b in interior:
            if sid >= px.n_h:
                down[b] = a
            else:
                left[b] = a
    best = 1
    score: dict[int, int] = {}
    for c in sorted(interior):  # (x, y) order processes left/down first
        l, d = left.get(c), down.get(c)
        s = 1
        if l is not None and d is not None:
            dl = left.get(d)
            if dl is not None and dl == down.get(l):
                s = 1 + min(score[l], score[d], score[dl])
        score[c] = s
        best = max(best, s)
    return best + 1


def dump_pixelation(px: Pixelation) -> str:
    """Debug dump: pixel lines, a separator, then dual edges (original scale)."""
    lines = [f"{i} {half(r.xmin)} {half(r.ymin)} {half(r.xmax)} {half(r.ymax)}"
             for i, r in enumerate(px.pixels)]
    lines.append("--")
    lines.extend(f"{u} {v}" for u, v in px.dual.edges)
    return "\n".join(lines) + "\n"


# -- sweep machinery ------------------------------------------------------------


def _oriented_features(poly: OrthoPolygon):
    """Edges and reflex rays of the polygon, separated by axis.

    Returns (v_edges, h_edges, v_rays, h_rays):
      v_edges: (x, ylo, yhi, opens)  opens=True when the interior lies east
      h_edges: (y, xlo, xhi, opens)  opens=True when the interior lies north
      v_rays:  (x, y0, +1/-1)        vertical reflex ray from (x, y0)
      h_rays:  (y, x0, +1/-1)        horizontal reflex ray, keyed by y
    """
    v_edges, h_edges, v_rays, h_rays = [], [], [], []
    # One pass per ring carries the two vertices before each one, rather
    # than reading them from shifted copies of the ring: CPython 3.11 keeps a
    # freed tuple of exactly 20 items on a free list that it never takes
    # from, until a full collection, and a solve makes few enough objects
    # that those are rare.  The pass starts at the edge into ring[0]; the
    # sweeps sort what they read, so the order of the features is free.
    for ring in poly.rings:
        (ax, ay), (bx, by) = ring[-2], ring[-1]
        for cx, cy in ring:
            # the edge from b to c
            if bx == cx:
                v_edges.append((bx, cy, by, True) if cy < by
                               else (bx, by, cy, False))
            else:
                h_edges.append((by, bx, cx, True) if cx > bx
                               else (by, cx, bx, False))
            # the corner at b: interior on the left, reflex corners turn right
            if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) < 0:
                if ax == bx:  # incoming edge vertical: extend it through b
                    v_rays.append((bx, by, 1 if by > ay else -1))
                    h_rays.append((by, bx, 1 if cx < bx else -1))
                else:         # outgoing edge vertical: extend it backwards
                    v_rays.append((bx, by, 1 if cy < by else -1))
                    h_rays.append((by, bx, 1 if bx > ax else -1))
            ax, ay, bx, by = bx, by, cx, cy
    return v_edges, h_edges, v_rays, h_rays


def _merge_intervals(ivs):
    """Union of closed intervals; touching intervals merge."""
    out = []
    for iv in sorted(ivs):
        if out and iv[0] <= out[-1][1]:
            if iv[1] > out[-1][1]:
                out[-1] = (out[-1][0], iv[1])
        else:
            out.append(iv)
    return out


def _sweep(par_edges, par_rays, perp_edges, perp_cuts):
    """One left-to-right sweep.  Callers pass transposed features to sweep
    the other axis (edges and rays are (sweep-coordinate, lo, hi, ...)).

    par_edges: (x, lo, hi, opens) walls parallel to the sweep front;
    par_rays:  (x, y0, dir) reflex rays parallel to the front (derived here);
    perp_edges: perpendicular boundary edges (m, xlo, xhi, opens), consulted
    to decide whether touching cross-section intervals merge;
    perp_cuts: perpendicular reflex cuts (x1, m, x2) splitting slabs into
    pixels, or None to derive and return this axis' cuts only.

    Returns (cuts, pixels) with cuts as (lo, x, hi); pixels is None when
    perp_cuts is None, else the pixel boxes (xmin, ymin, xmax, ymax), each
    slab's stack bottom-up in the order the slabs close.

    Every list an event touches is sorted by its low end and disjoint, so
    each lookup below is a pointer that only moves forward.
    """
    # (opens, closes, rays) per sweep coordinate
    events: dict[int, list] = defaultdict(lambda: [[], [], []])
    for x, lo, hi, opens in par_edges:
        events[x][0 if opens else 1].append((lo, hi))
    for x, y0, d in par_rays:
        events[x][2].append((y0, d))

    perp_by_c: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for m, xlo, xhi, _opens in perp_edges:
        perp_by_c[m].append((xlo, xhi))
    for lst in perp_by_c.values():
        lst.sort()

    def blocked(m: int, x: int) -> bool:
        """Does a perpendicular edge at coordinate m cover [x, x+eps)?"""
        lst = perp_by_c.get(m)
        if not lst:
            return False
        i = bisect_right(lst, (x, 2**62)) - 1
        return i >= 0 and lst[i][0] <= x < lst[i][1]

    split = perp_cuts is not None
    activations = sorted(perp_cuts) if split else []
    act_i = 0
    # perpendicular cuts crossing the sweep line: their sorted coordinates,
    # and each one's x-range; expired ones are dropped when met
    act_ys: list[int] = []
    act_span: dict[int, tuple[int, int]] = {}

    comps: list[tuple[int, int]] = []  # (lo, hi), disjoint, sorted by lo
    xstart: dict[int, int] = {}        # a component's lo -> where its slab began
    cuts_out: list[tuple[int, int, int]] = []
    boxes = [] if split else None
    key_lo = itemgetter(0)

    for x in sorted(events):
        opens_, closes_, rays_ = events[x]
        opens_.sort()
        closes_.sort()
        rays_.sort()
        bounds = [y for iv in opens_ + closes_ for y in iv]
        bounds += [y0 for y0, _ in rays_]
        lo_b, hi_b = min(bounds), max(bounds)

        # affected components: overlapping or touching [lo_b, hi_b]
        i0 = bisect_right(comps, lo_b, key=key_lo)
        if i0 > 0 and comps[i0 - 1][1] >= lo_b:
            i0 -= 1
        j0 = bisect_right(comps, hi_b, i0, key=key_lo)
        affected = comps[i0:j0]

        # new open set near the event: (old ∪ opens) − closes; touching pieces
        # merge unless a perpendicular edge continues past x
        merged: list[tuple[int, int]] = []
        for iv in sorted(affected + opens_):
            if merged:
                plo, phi = merged[-1]
                if phi > iv[0]:
                    raise PixelationError("overlapping interior intervals")
                if phi == iv[0] and not blocked(phi, x):
                    merged[-1] = (plo, iv[1])
                    continue
            merged.append(iv)
        if closes_:
            after = []
            p, n_cl = 0, len(closes_)
            for iv in merged:
                lo, hi = iv
                while p < n_cl and closes_[p][1] <= lo:
                    p += 1
                cur, q = lo, p
                while q < n_cl and closes_[q][0] < hi:
                    rl, rh = closes_[q]
                    if rh > lo:
                        if rl > cur:
                            after.append((cur, rl))
                        if rh > cur:
                            cur = rh
                    q += 1
                if cur == lo:
                    after.append(iv)
                elif cur < hi:
                    after.append((cur, hi))
        else:
            after = merged

        # reflex rays at x: spans read off the before/after cross-sections,
        # from the component holding points just above (d>0) / below y0
        ray_ivs = []
        ib = ia = 0
        n_b, n_a = len(affected), len(after)
        for y0, d in rays_:
            if d > 0:
                while ib < n_b and affected[ib][1] <= y0:
                    ib += 1
                while ia < n_a and after[ia][1] <= y0:
                    ia += 1
                if ib < n_b and ia < n_a:
                    (b_lo, b_hi), (a_lo, a_hi) = affected[ib], after[ia]
                    if b_lo <= y0 and a_lo <= y0:
                        ray_ivs.append((y0, b_hi if b_hi < a_hi else a_hi))
                        continue
            else:
                while ib < n_b and affected[ib][1] < y0:
                    ib += 1
                while ia < n_a and after[ia][1] < y0:
                    ia += 1
                if ib < n_b and ia < n_a:
                    (b_lo, b_hi), (a_lo, a_hi) = affected[ib], after[ia]
                    if b_lo < y0 and a_lo < y0:
                        ray_ivs.append((b_lo if b_lo > a_lo else a_lo, y0))
                        continue
            raise PixelationError(f"reflex ray at ({x},{y0}) sees no interior")
        ray_ivs = _merge_intervals(ray_ivs)
        cuts_out += [(lo, x, hi) for lo, hi in ray_ivs]

        walls = _merge_intervals(opens_ + closes_ + ray_ivs)
        n_w = len(walls)

        # close every affected component overlapped by a wall's interior
        survivors = []
        w = 0
        for iv in affected:
            lo, hi = iv
            while w < n_w and walls[w][1] <= lo:
                w += 1
            if w == n_w or walls[w][0] >= hi:
                survivors.append(iv)
                continue
            if not (walls[w][0] <= lo and hi <= walls[w][1]):
                raise PixelationError("wall partially covers a slab")
            x0 = xstart.pop(lo)
            if split:
                # the slab's stack of pixels, split by the cuts crossing it
                y_lo = lo
                i = bisect_right(act_ys, lo)
                while i < len(act_ys) and act_ys[i] < hi:
                    y = act_ys[i]
                    x1, x2 = act_span[y]
                    if x2 < x:
                        del act_ys[i], act_span[y]
                        continue
                    if x1 < x:
                        if x1 > x0:
                            raise PixelationError("cut starts inside a slab")
                        boxes.append((x0, y_lo, x, y))
                        y_lo = y
                    i += 1
                boxes.append((x0, y_lo, x, hi))

        # the new window: intervals a wall overlaps start a slab at x, the
        # others must be the surviving components
        kept = []
        w = 0
        for iv in after:
            lo, hi = iv
            while w < n_w and walls[w][1] <= lo:
                w += 1
            if w == n_w or walls[w][0] >= hi:
                kept.append(iv)
            else:
                xstart[lo] = x
        if kept != survivors:
            if set(kept) - set(survivors):
                raise PixelationError("fresh interval without a wall")
            raise PixelationError("surviving slab lost its interval")
        comps[i0:j0] = after

        if split:
            while act_i < len(activations) and activations[act_i][0] <= x:
                x1, m, x2 = activations[act_i]
                if x1 != x:
                    raise PixelationError("cut activation missed its event")
                if m not in act_span:
                    insort(act_ys, m)
                act_span[m] = (x1, x2)
                act_i += 1

    if comps:
        raise PixelationError("sweep finished with open slabs")
    return cuts_out, boxes


# -- grid cover for exact containment queries -----------------------------------


class PixelCover:
    """Exact closed-set containment of rectangles, segments and points in P,
    scalar or vectorized, on a refined grid over the pixel boundary
    coordinates.

    `inside[i, j]` says whether the open cell between grid lines i, i + 1 in
    x and j, j + 1 in y lies in P.  On the refined grid, index 2i + 1 is grid
    line i and index 2i + 2 the open span between lines i and i + 1, so a
    refined cell is an open cell, an open piece of a grid line or a crossing;
    the first and last indices frame the grid and stand for everything
    beyond its outer lines.  A line piece or a crossing lies in P when some
    cell it bounds does, and a closed rectangle lies in P iff the block of
    refined cells it meets holds no outside cell, which one 2-D prefix sum
    over the outside cells answers.

    Its users are the oracle, which states the r-guarding predicate on it,
    and the benchmark's answer checks.  Its one int64 table takes about 4x
    the grid cells, so `Pixelation.cover` builds it only on first use;
    `pipeline.solve_task` never does."""

    def __init__(self, pixels: list[Rect]):
        xs = sorted({v for r in pixels for v in (r.xmin, r.xmax)})
        ys = sorted({v for r in pixels for v in (r.ymin, r.ymax)})
        self.xs = np.asarray(xs, dtype=np.int64)
        self.ys = np.asarray(ys, dtype=np.int64)
        nx, ny = len(xs) - 1, len(ys) - 1
        inside = np.zeros((nx, ny), dtype=bool)
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: i for i, v in enumerate(ys)}
        for r in pixels:
            inside[xi[r.xmin]:xi[r.xmax], yi[r.ymin]:yi[r.ymax]] = True
        self.inside = inside
        fine = np.zeros((2 * nx + 3, 2 * ny + 3), dtype=bool)
        fine[2:-1:2, 2:-1:2] = inside
        # lines take the cells on either side, then crossings the pieces
        fine[1::2] = fine[:-1:2] | fine[2::2]
        fine[:, 1::2] = fine[:, :-1:2] | fine[:, 2::2]
        self.out_pref = np.zeros((2 * nx + 4, 2 * ny + 4), dtype=np.int64)
        self.out_pref[1:, 1:] = (~fine).cumsum(0).cumsum(1)

    def rect_inside(self, r: Rect) -> bool:
        return bool(self.rects_inside(r.xmin, r.ymin, r.xmax, r.ymax))

    def rects_inside(self, x1, y1, x2, y2) -> np.ndarray:
        """Is each closed [x1, x2] x [y1, y2] in P; inverted ones are not."""
        x1, y1, x2, y2 = (np.asarray(v, dtype=np.int64)
                          for v in (x1, y1, x2, y2))
        i0, i1 = _fine(self.xs, x1), _fine(self.xs, x2) + 1
        j0, j1 = _fine(self.ys, y1), _fine(self.ys, y2) + 1
        p = self.out_pref
        out = p[i1, j1] - p[i0, j1] - p[i1, j0] + p[i0, j0]
        return (x1 <= x2) & (y1 <= y2) & (out == 0)


def _fine(coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Refined index of each coordinate v: 2i + 1 on grid line i, 2i + 2
    between lines i and i + 1, and 0 or 2 len(coords) beyond the lines."""
    return (np.searchsorted(coords, v, side="left")
            + np.searchsorted(coords, v, side="right"))
