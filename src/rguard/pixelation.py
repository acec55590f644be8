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
side.  So on one line at most one side starts at a given corner, and a side
is named by its first corner (its west end for 'h', its south end for 'v').
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, repeat, starmap
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from rguard.polygon_core import OrthoPolygon, Pt, Rect, half


class Side(NamedTuple):
    """One pixelation-graph edge: a full pixel side.

    Conforming-mesh property: a side is either shared by exactly two pixels
    or lies on the polygon boundary.  A named tuple: sides are many and
    immutable, and a tuple is cheap to build.
    """

    axis: str              # 'v' (vertical) or 'h'
    c: int                 # the fixed coordinate
    lo: int
    hi: int
    corner_a: int          # corner id at (c, lo) / (lo, c): the first corner
    corner_b: int          # corner id at (c, hi) / (hi, c)
    pix_lo: int | None     # pixel on the smaller-coordinate side (west/south)
    pix_hi: int | None     # pixel on the larger-coordinate side

    @property
    def on_boundary(self) -> bool:
        return self.pix_lo is None or self.pix_hi is None

    def midpoint(self) -> Pt:
        m = (self.lo + self.hi) // 2
        return (self.c, m) if self.axis == "v" else (m, self.c)


# Side._make without its length check
_new_side = partial(tuple.__new__, Side)


@dataclass(slots=True)
class DualGraph:
    """Weak dual of the pixelation: one vertex per pixel."""

    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]]


class PixelationError(RuntimeError):
    """Internal inconsistency while building the pixelation."""


class Pixelation:
    """Pixels, pixelation graph and dual graph of a polygon."""

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
        self.pixels: list[Rect] = list(starmap(Rect, boxes))
        self._build_graph(boxes)

    # -- pixelation graph -----------------------------------------------------

    def _build_graph(self, boxes: list[tuple[int, int, int, int]]) -> None:
        """Corners, sides and the dual graph from the pixel boxes
        (xmin, ymin, xmax, ymax).

        A corner (x, y) is first the integer x * span + y - ybase, which
        sorts in (x, y) order; its id is its rank.  Each pixel then names
        its four sides by their first corners: west and south start at its
        south-west corner, east at its south-east and north at its
        north-west one.  'v' sides come out in corner-id order, and 'h'
        sides, stably sorted by y, in (y, x) order of their first corner:
        together the (axis, c, lo, hi) order of the sides.
        """
        ybase = min((b[1] for b in boxes), default=0)
        span = max((b[3] for b in boxes), default=0) - ybase + 1
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
        cx = [coord[k // span] for k in keys]
        cy = [coord[k % span + ybase] for k in keys]
        n_c = len(keys)
        del rank, keys, coord
        self.corners: list[Pt] = list(zip(cx, cy))

        # per first corner: the side's last corner (0 for no side: a last
        # corner follows its first in id order) and the pixels below and
        # above it (west and east for 'v')
        cp: list[list[int]] = [[] for _ in range(n_c)]
        v_end, v_lo, v_hi = [0] * n_c, [None] * n_c, [None] * n_c
        h_end, h_lo, h_hi = [0] * n_c, [None] * n_c, [None] * n_c
        for pid, (a, b, c, d) in enumerate(zip(sw, se, nw, ne)):
            cp[a].append(pid)
            cp[b].append(pid)
            cp[c].append(pid)
            cp[d].append(pid)
            v_end[a], v_hi[a] = c, pid     # west side
            v_end[b], v_lo[b] = d, pid     # east side
            h_end[a], h_hi[a] = b, pid     # south side
            h_end[c], h_lo[c] = d, pid     # north side
        # two sides starting at one corner would overwrite each other's end
        if ([v_end[a] for a in sw] != nw or [v_end[b] for b in se] != ne
                or [h_end[a] for a in sw] != se or [h_end[c] for c in nw] != ne):
            raise PixelationError("pixel sides do not conform")
        self.corner_pixels: list[list[int]] = cp
        self.corner_interior: list[bool] = [len(v) == 4 for v in cp]

        hs = list(compress(range(n_c), h_end))
        hs.sort(key=cy.__getitem__)
        vs = list(compress(range(n_c), v_end))
        self.sides: list[Side] = []
        edges = []
        for axis, firsts, end, lo, hi, c, along in (
                ("h", hs, h_end, h_lo, h_hi, cy, cx),
                ("v", vs, v_end, v_lo, v_hi, cx, cy)):
            lasts = list(map(end.__getitem__, firsts))
            los = list(map(lo.__getitem__, firsts))
            his = list(map(hi.__getitem__, firsts))
            self.sides += map(_new_side, zip(
                repeat(axis), map(c.__getitem__, firsts),
                map(along.__getitem__, firsts), map(along.__getitem__, lasts),
                firsts, lasts, los, his))
            edges += [(p, q) if p < q else (q, p) for p, q in zip(los, his)
                      if p is not None and q is not None]

        # side ids by first corner; a pixel's sides in id order are its
        # south, north, west and east ones
        h_sid, v_sid = [0] * n_c, [0] * n_c
        for sid, a in enumerate(hs):
            h_sid[a] = sid
        for sid, a in enumerate(vs, len(hs)):
            v_sid[a] = sid
        self.pixel_sides: list[list[int]] = [
            [h_sid[a], h_sid[c], v_sid[a], v_sid[b]]
            for a, b, c in zip(sw, se, nw)]

        edges.sort()
        # in sorted edge order each list receives its smaller neighbours,
        # then its larger ones, both ascending: it comes out sorted
        adj: list[list[int]] = [[] for _ in boxes]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.dual = DualGraph(len(boxes), edges, adj)

        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
        if area != abs(self.poly.area2()) // 2:
            raise PixelationError("pixel areas do not cover the polygon")

    # -- derived structure ------------------------------------------------------

    @property
    def pixel_count(self) -> int:
        return len(self.pixels)

    @cached_property
    def corner_ids(self) -> dict[Pt, int]:
        """Corner id by point."""
        return dict(zip(self.corners, range(len(self.corners))))

    @cached_property
    def is_thin(self) -> bool:
        """True iff no pixel corner is interior (shared by 4 pixels)."""
        return not any(self.corner_interior)

    @cached_property
    def cover(self) -> "PixelCover":
        return PixelCover(self.pixels)

    def locate_points(self, pts: Sequence[Pt]) -> list[list[int]]:
        """The pixels whose closure contains each point (none when it is
        outside P), for all the points in one pass.  A corner reads its
        pixels; a point on an open side is found by bisecting the sides,
        which are sorted by axis, line and position; the rest by one sweep
        over x that keeps the pixels whose x-range strictly holds the sweep
        line ordered by ymin, where they do not overlap."""
        corner_ids, corner_pixels, sides = (self.corner_ids, self.corner_pixels,
                                            self.sides)
        out: list[list[int]] = [[] for _ in pts]
        inner = []
        for i, (x, y) in enumerate(pts):
            cid = corner_ids.get((x, y))
            if cid is not None:
                out[i] = list(corner_pixels[cid])
                continue
            for key in (("v", x, y), ("h", y, x)):
                s = sides[bisect_left(sides, key) - 1]
                if s[:2] == key[:2] and s.lo < key[2] < s.hi:
                    out[i] = sorted(q for q in (s.pix_lo, s.pix_hi)
                                    if q is not None)
                    break
            else:
                inner.append((x, y, i))
        if not inner:
            return out
        inner.sort()
        pixels, n = self.pixels, len(self.pixels)
        by_xmin = sorted(range(n), key=lambda q: pixels[q].xmin)
        by_xmax = sorted(range(n), key=lambda q: pixels[q].xmax)
        active: list[tuple[int, int]] = []   # (ymin, pixel id)
        a = b = 0
        for x, y, i in inner:
            while a < n and pixels[by_xmin[a]].xmin < x:
                insort(active, (pixels[by_xmin[a]].ymin, by_xmin[a]))
                a += 1
            while b < n and pixels[by_xmax[b]].xmax <= x:
                del active[bisect_left(active, (pixels[by_xmax[b]].ymin,
                                                by_xmax[b]))]
                b += 1
            j = bisect_left(active, (y,)) - 1
            if j >= 0 and y < pixels[active[j][1]].ymax:
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
    interior = {p for p, flag in zip(px.corners, px.corner_interior) if flag}
    if not interior:
        return 1
    left: dict[Pt, Pt] = {}
    down: dict[Pt, Pt] = {}
    for s in px.sides:
        a = (s.c, s.lo) if s.axis == "v" else (s.lo, s.c)
        b = (s.c, s.hi) if s.axis == "v" else (s.hi, s.c)
        if a in interior and b in interior:
            if s.axis == "v":
                down[b] = a
            else:
                left[b] = a
    best = 1
    score: dict[Pt, int] = {}
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
    for ring in poly.rings:
        nxt = ring[1:] + ring[:1]
        for (x1, y1), (x2, y2) in zip(ring, nxt):
            if x1 == x2:
                v_edges.append((x1, min(y1, y2), max(y1, y2), y2 < y1))
            else:
                h_edges.append((y1, min(x1, x2), max(x1, x2), x2 > x1))
        for (ax, ay), (bx, by), (cx, cy) in zip(ring[-1:] + ring[:-1], ring, nxt):
            if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) >= 0:
                continue  # interior on the left: reflex corners turn right
            if ax == bx:  # incoming edge vertical: extend it through b
                v_rays.append((bx, by, 1 if by > ay else -1))
                h_rays.append((by, bx, 1 if cx < bx else -1))
            else:         # outgoing edge vertical: extend it backwards
                v_rays.append((bx, by, 1 if cy < by else -1))
                h_rays.append((by, bx, 1 if bx > ax else -1))
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
    events: dict[int, list] = {}
    for x, lo, hi, opens in par_edges:
        events.setdefault(x, [[], [], []])[0 if opens else 1].append((lo, hi))
    for x, y0, d in par_rays:
        events.setdefault(x, [[], [], []])[2].append((y0, d))

    perp_by_c: dict[int, list[tuple[int, int]]] = {}
    for m, xlo, xhi, _opens in perp_edges:
        perp_by_c.setdefault(m, []).append((xlo, xhi))
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
