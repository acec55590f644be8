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
bisect-maintained Python lists, but each reflex ray scans every component
and wall of its event column, so a column with k rays costs O(k^2).  No
slabs are stored: `max_rectangles` reads both decompositions' slabs off the
pixel sides.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from rguard.polygon_core import OrthoPolygon, Pt, Rect, half


@dataclass(frozen=True, slots=True)
class Side:
    """One pixelation-graph edge: a full pixel side.

    Conforming-mesh property: a side is either shared by exactly two pixels
    or lies on the polygon boundary.
    """

    axis: str              # 'v' (vertical) or 'h'
    c: int                 # the fixed coordinate
    lo: int
    hi: int
    corner_a: int          # corner id at (c, lo) / (lo, c)
    corner_b: int          # corner id at (c, hi) / (hi, c)
    pix_lo: int | None     # pixel on the smaller-coordinate side (west/south)
    pix_hi: int | None     # pixel on the larger-coordinate side

    @property
    def on_boundary(self) -> bool:
        return self.pix_lo is None or self.pix_hi is None

    def midpoint(self) -> Pt:
        m = (self.lo + self.hi) // 2
        return (self.c, m) if self.axis == "v" else (m, self.c)


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
        self.pixels = _sweep(v_edges, v_rays, h_edges, h_cuts)[1]
        self._build_graph()

    # -- pixelation graph -----------------------------------------------------

    def _build_graph(self) -> None:
        corner_pixels: dict[Pt, list[int]] = {}
        for pid, r in enumerate(self.pixels):
            for p in ((r.xmin, r.ymin), (r.xmax, r.ymin),
                      (r.xmin, r.ymax), (r.xmax, r.ymax)):
                corner_pixels.setdefault(p, []).append(pid)
        self.corners: list[Pt] = sorted(corner_pixels)
        self.corner_ids: dict[Pt, int] = {p: i for i, p in enumerate(self.corners)}
        self.corner_pixels: list[list[int]] = [corner_pixels[p] for p in self.corners]
        self.corner_interior: list[bool] = [len(v) == 4 for v in self.corner_pixels]

        half_sides: dict[tuple, list] = {}
        for pid, r in enumerate(self.pixels):
            half_sides.setdefault(("v", r.xmin, r.ymin, r.ymax), [None, None])[1] = pid
            half_sides.setdefault(("v", r.xmax, r.ymin, r.ymax), [None, None])[0] = pid
            half_sides.setdefault(("h", r.ymin, r.xmin, r.xmax), [None, None])[1] = pid
            half_sides.setdefault(("h", r.ymax, r.xmin, r.xmax), [None, None])[0] = pid

        self.sides: list[Side] = []
        self.pixel_sides: list[list[int]] = [[] for _ in self.pixels]
        edges = []
        cid = self.corner_ids
        for key in sorted(half_sides):
            axis, c, lo, hi = key
            lo_pix, hi_pix = half_sides[key]
            a = cid[(c, lo) if axis == "v" else (lo, c)]
            b = cid[(c, hi) if axis == "v" else (hi, c)]
            side = Side(axis, c, lo, hi, a, b, lo_pix, hi_pix)
            sid = len(self.sides)
            self.sides.append(side)
            for pid in (lo_pix, hi_pix):
                if pid is not None:
                    self.pixel_sides[pid].append(sid)
            if lo_pix is not None and hi_pix is not None:
                edges.append((min(lo_pix, hi_pix), max(lo_pix, hi_pix)))
        edges.sort()
        adj: list[list[int]] = [[] for _ in self.pixels]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.dual = DualGraph(len(self.pixels), edges, [sorted(a) for a in adj])

        if sum(r.area for r in self.pixels) != abs(self.poly.area2()) // 2:
            raise PixelationError("pixel areas do not cover the polygon")

    # -- derived structure ------------------------------------------------------

    @property
    def pixel_count(self) -> int:
        return len(self.pixels)

    @cached_property
    def is_thin(self) -> bool:
        """True iff no pixel corner is interior (shared by 4 pixels)."""
        return not any(self.corner_interior)

    @cached_property
    def cover(self) -> "PixelCover":
        return PixelCover(self.pixels)

    def locate_point(self, p: Pt) -> list[int]:
        """Pixels whose closure contains p (empty when p is outside P)."""
        if p in self.corner_ids:
            return list(self.corner_pixels[self.corner_ids[p]])
        return [pid for pid, r in enumerate(self.pixels) if r.contains_point(p)]


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
        m = len(ring)
        for i in range(m):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
            if x1 == x2:
                v_edges.append((x1, min(y1, y2), max(y1, y2), y2 < y1))
            else:
                h_edges.append((y1, min(x1, x2), max(x1, x2), x2 > x1))
        for i in range(m):
            ax, ay = ring[i - 1]
            bx, by = ring[i]
            cx, cy = ring[(i + 1) % m]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross >= 0:
                continue  # interior on the left: reflex corners turn right
            din = (bx - ax, by - ay)
            dout = (cx - bx, cy - by)
            if din[0] == 0:  # incoming edge vertical: extend it through b
                v_rays.append((bx, by, 1 if din[1] > 0 else -1))
                h_rays.append((by, bx, 1 if dout[0] < 0 else -1))
            else:            # outgoing edge vertical: extend it backwards
                v_rays.append((bx, by, 1 if dout[1] < 0 else -1))
                h_rays.append((by, bx, 1 if din[0] > 0 else -1))
    return v_edges, h_edges, v_rays, h_rays


def _merge_intervals(ivs):
    """Union of closed intervals; touching intervals merge."""
    if not ivs:
        return []
    ivs = sorted(ivs)
    out = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


class _ActiveCuts:
    """Perpendicular cuts currently crossing the sweep line, keyed by their
    fixed coordinate.  Expired entries are dropped lazily during queries."""

    __slots__ = ("ys", "span")

    def __init__(self):
        self.ys: list[int] = []
        self.span: dict[int, tuple[int, int]] = {}

    def activate(self, y: int, x1: int, x2: int) -> None:
        if y not in self.span:
            insort(self.ys, y)
        self.span[y] = (x1, x2)

    def query(self, lo: int, hi: int, x: int, xstart: int) -> list[int]:
        out = []
        i = bisect_right(self.ys, lo)
        while i < len(self.ys) and self.ys[i] < hi:
            y = self.ys[i]
            x1, x2 = self.span[y]
            if x2 < x:
                del self.ys[i]
                del self.span[y]
                continue
            if x1 < x:
                if x1 > xstart:
                    raise PixelationError("cut starts inside a slab")
                out.append(y)
            i += 1
        return out


def _sweep(par_edges, par_rays, perp_edges, perp_cuts):
    """One left-to-right sweep.  Callers pass transposed features to sweep
    the other axis (all tuples are (sweep-coordinate, lo, hi, ...)).

    par_edges: (x, lo, hi, opens) walls parallel to the sweep front;
    par_rays:  (x, y0, dir) reflex rays parallel to the front (derived here);
    perp_edges: perpendicular boundary edges (m, xlo, xhi, opens), consulted
    to decide whether touching cross-section intervals merge;
    perp_cuts: perpendicular reflex cuts (m, x1, x2) splitting slabs into
    pixels, or None to derive and return this axis' cuts only.

    Returns (cuts, pixels) with cuts as (x, lo, hi); pixels is None when
    perp_cuts is None, else the pixel Rects, each slab's stack bottom-up in
    the order the slabs close.
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
    activations = sorted((x1, m, x2) for (m, x1, x2) in perp_cuts) if split else []
    act_i = 0
    active = _ActiveCuts()

    comps: list[list] = []  # [lo, hi, xstart], disjoint, sorted by lo
    cuts_out: list[tuple[int, int, int]] = []
    pixels_out = [] if split else None
    key_lo = itemgetter(0)

    for x in sorted(events):
        opens_, closes_, rays_ = events[x]
        opens_.sort()
        closes_.sort()
        rays_.sort()
        bounds = [iv[0] for iv in opens_] + [iv[1] for iv in opens_] + \
                 [iv[0] for iv in closes_] + [iv[1] for iv in closes_] + \
                 [r[0] for r in rays_]
        lo_b, hi_b = min(bounds), max(bounds)

        # affected components: overlapping or touching [lo_b, hi_b]
        i0 = bisect_right(comps, lo_b, key=key_lo)
        if i0 > 0 and comps[i0 - 1][1] >= lo_b:
            i0 -= 1
        j0 = i0
        affected = []
        while j0 < len(comps) and comps[j0][0] <= hi_b:
            affected.append(comps[j0])
            j0 += 1

        # new open set near the event: (old ∪ opens) − closes; touching pieces
        # merge unless a perpendicular edge continues past x
        pieces = sorted([(c[0], c[1]) for c in affected] + opens_)
        for a, b in zip(pieces, pieces[1:]):
            if a[1] > b[0]:
                raise PixelationError("overlapping interior intervals")
        merged = []
        for lo, hi in pieces:
            if merged and merged[-1][1] == lo and not blocked(lo, x):
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        after = []
        for lo, hi in merged:
            cur = lo
            for rl, rh in closes_:
                if rh <= lo or rl >= hi:
                    continue
                if rl > cur:
                    after.append((cur, rl))
                cur = max(cur, rh)
            if cur < hi:
                after.append((cur, hi))

        # reflex rays at x: spans read off the before/after cross-sections
        ray_ivs = []
        for y0, d in rays_:
            b_comp = _containing(affected, y0, d)
            a_comp = _containing(after, y0, d)
            if b_comp is None or a_comp is None:
                raise PixelationError(f"reflex ray at ({x},{y0}) sees no interior")
            if d > 0:
                ray_ivs.append((y0, min(b_comp[1], a_comp[1])))
            else:
                ray_ivs.append((max(b_comp[0], a_comp[0]), y0))
        ray_ivs = _merge_intervals(ray_ivs)
        cuts_out.extend((x, lo, hi) for lo, hi in ray_ivs)

        walls = _merge_intervals(opens_ + closes_ + ray_ivs)

        # close every affected component overlapped by a wall's interior
        survivors: dict[tuple[int, int], int] = {}
        for lo, hi, xstart in affected:
            w = _overlapping_wall(walls, lo, hi)
            if w is None:
                survivors[(lo, hi)] = xstart
                continue
            if not (w[0] <= lo and hi <= w[1]):
                raise PixelationError("wall partially covers a slab")
            if split:
                ys = [lo] + active.query(lo, hi, x, xstart) + [hi]
                pixels_out.extend(Rect(xstart, a, x, b)
                                  for a, b in zip(ys, ys[1:]))

        # rebuild the affected window
        new_window = []
        for lo, hi in after:
            if (lo, hi) in survivors:
                new_window.append([lo, hi, survivors.pop((lo, hi))])
            else:
                if _overlapping_wall(walls, lo, hi) is None:
                    raise PixelationError("fresh interval without a wall")
                new_window.append([lo, hi, x])
        if survivors:
            raise PixelationError("surviving slab lost its interval")
        comps[i0:j0] = new_window

        if split:
            while act_i < len(activations) and activations[act_i][0] <= x:
                x1, m, x2 = activations[act_i]
                if x1 != x:
                    raise PixelationError("cut activation missed its event")
                active.activate(m, x1, x2)
                act_i += 1

    if comps:
        raise PixelationError("sweep finished with open slabs")
    return cuts_out, pixels_out


def _containing(comps, y0, d):
    """Entry whose open interval holds points just above (d>0) / below y0."""
    if d > 0:
        for c in comps:
            if c[0] <= y0 < c[1]:
                return (c[0], c[1])
    else:
        for c in comps:
            if c[0] < y0 <= c[1]:
                return (c[0], c[1])
    return None


def _overlapping_wall(walls, lo, hi):
    for w in walls:
        if w[0] < hi and w[1] > lo:
            return w
    return None


# -- grid cover for exact containment queries -----------------------------------


class PixelCover:
    """Occupancy grid over the pixel boundary coordinates with prefix sums,
    answering exact closed-set containment queries for rectangles, segments
    and points, scalar or vectorized.

    Its users are the geometric predicate `guard_model.r_guards` (with
    `fattenable` and `classify_degenerate`), the oracle and the benchmark's
    answer checks.  It takes O(n_x * n_y) memory, so `Pixelation.cover`
    builds it only on first use; `pipeline.solve_task` never does."""

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
        out = (~inside).astype(np.int64)
        self.out_pref = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        self.out_pref[1:, 1:] = out.cumsum(0).cumsum(1)
        # per grid line: cells where BOTH adjacent columns/rows are outside
        pad = np.ones((1, ny), dtype=bool)
        col_out = np.concatenate([pad, ~inside, pad], axis=0)     # (nx+2, ny)
        vline_out = (col_out[:-1] & col_out[1:]).astype(np.int64)  # (nx+1, ny)
        self.vline_pref = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        self.vline_pref[:, 1:] = vline_out.cumsum(1)
        pad = np.ones((nx, 1), dtype=bool)
        row_out = np.concatenate([pad, ~inside, pad], axis=1)      # (nx, ny+2)
        hline_out = (row_out[:, :-1] & row_out[:, 1:]).astype(np.int64)
        self.hline_pref = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        self.hline_pref[1:, :] = hline_out.cumsum(0)

    def _range(self, coords: np.ndarray, a, b):
        """Cell index range [i0, i1) whose open interior meets open (a, b)."""
        i0 = np.searchsorted(coords, a, side="right") - 1
        i1 = np.searchsorted(coords, b, side="left")
        return i0, i1

    def point_inside(self, x: int, y: int) -> bool:
        one = np.array([x]), np.array([y])
        return bool(self.rects_inside(one[0], one[1], one[0], one[1])[0])

    def rect_inside(self, r: Rect) -> bool:
        return bool(self.rects_inside(
            np.array([r.xmin]), np.array([r.ymin]),
            np.array([r.xmax]), np.array([r.ymax]))[0])

    def rects_inside(self, x1, y1, x2, y2) -> np.ndarray:
        """Vectorized closed-set containment for spanned rectangles."""
        x1 = np.asarray(x1, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        y2 = np.asarray(y2, dtype=np.int64)
        res = np.zeros(x1.shape, dtype=bool)

        xs, ys = self.xs, self.ys
        in_bbox = (x1 >= xs[0]) & (x2 <= xs[-1]) & (y1 >= ys[0]) & (y2 <= ys[-1])

        ix0, ix1 = self._range(xs, x1, x2)
        iy0, iy1 = self._range(ys, y1, y2)

        pos = (x1 < x2) & (y1 < y2) & in_bbox
        if pos.any():
            cnt = self._sum2d(self.out_pref, ix0[pos], iy0[pos], ix1[pos], iy1[pos])
            res[pos] = cnt == 0

        vseg = (x1 == x2) & (y1 < y2) & in_bbox
        if vseg.any():
            li = np.searchsorted(xs, x1)
            on_line = np.zeros(x1.shape, dtype=bool)
            ok = vseg & (li < len(xs))
            on_line[ok] = xs[li[ok]] == x1[ok]
            m = vseg & on_line
            if m.any():
                cnt = self.vline_pref[li[m], iy1[m]] - self.vline_pref[li[m], iy0[m]]
                res[m] = cnt == 0
            m = vseg & ~on_line
            if m.any():
                cnt = self._sum2d(self.out_pref, ix0[m], iy0[m], ix0[m] + 1, iy1[m])
                res[m] = cnt == 0

        hseg = (y1 == y2) & (x1 < x2) & in_bbox
        if hseg.any():
            li = np.searchsorted(ys, y1)
            on_line = np.zeros(x1.shape, dtype=bool)
            ok = hseg & (li < len(ys))
            on_line[ok] = ys[li[ok]] == y1[ok]
            m = hseg & on_line
            if m.any():
                cnt = self.hline_pref[ix1[m], li[m]] - self.hline_pref[ix0[m], li[m]]
                res[m] = cnt == 0
            m = hseg & ~on_line
            if m.any():
                cnt = self._sum2d(self.out_pref, ix0[m], iy0[m], ix1[m], iy0[m] + 1)
                res[m] = cnt == 0

        pnt = (x1 == x2) & (y1 == y2) & in_bbox
        if pnt.any():
            # a point is in P iff any cell whose closure contains it is inside
            px, py = x1[pnt], y1[pnt]
            lx = np.searchsorted(xs, px, side="right") - 1
            ly = np.searchsorted(ys, py, side="right") - 1
            on_lx = xs[np.clip(lx, 0, len(xs) - 1)] == px
            on_ly = ys[np.clip(ly, 0, len(ys) - 1)] == py
            got = np.zeros(px.shape, dtype=bool)
            nx, ny = self.inside.shape
            for dx in (0, -1):
                for dy in (0, -1):
                    cx = lx + dx * on_lx
                    cy = ly + dy * on_ly
                    valid = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
                    sub = np.zeros(px.shape, dtype=bool)
                    sub[valid] = self.inside[cx[valid], cy[valid]]
                    got |= sub
            res[pnt] = got
        return res

    @staticmethod
    def _sum2d(pref, i0, j0, i1, j1):
        i0 = np.maximum(i0, 0)
        j0 = np.maximum(j0, 0)
        i1 = np.maximum(i1, i0)
        j1 = np.maximum(j1, j0)
        return pref[i1, j1] - pref[i0, j1] - pref[i1, j0] + pref[i0, j0]
