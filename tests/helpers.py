"""Shared fixtures and an independent brute-force pixelation for cross-checks.

The brute-force path never touches the sweep: rays are marched point by
point, cells are unit grid cells classified by center containment, and pixels
are union-find components of cells not separated by an edge or a ray.
"""
from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from rguard.aux_graph import AuxGraph, Reduction, dominated, reduce
from rguard.dp_solver import (DOMINATED, LIT, PENDING, PROMISED, Certificate,
                              Solution)
from rguard.guard_model import (Guard, GuardTask, TargetPoint, TaskError,
                                _PointSet)
from rguard.instance_gen import rects_union_polygon
from rguard.max_rectangles import MaxRect
from rguard.pixelation import Pixelation
from rguard.polygon_core import (OrthoPolygon, Pt, Rect, _point_in_scaled,
                                 point_in_polygon, rect_inside,
                                 reflex_vertices, spanned_rect)
from rguard.tree_decomposition import (DecompositionReport, TreeDecomposition,
                                       validate_decomposition)

SHAPES: dict[str, list[Pt]] = {
    "unit": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "L": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
    "U": [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)],
    "plus": [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3),
             (1, 2), (0, 2), (0, 1), (1, 1)],
    "T": [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (0, 2), (0, 1), (1, 1)],
    "S2col": [(0, 0), (1, 0), (1, 1), (2, 1), (2, 3), (1, 3), (1, 2), (0, 2)],
    "staircase": [(0, 0), (2, 0), (2, 1), (3, 1), (3, 3), (1, 3), (1, 2),
                  (0, 2)],
    # two dents make {1} x [0,5] a degenerate maximal segment
    "dent2": [(0, 0), (2, 0), (2, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5),
              (0, 2), (1, 2), (1, 1), (0, 1)],
    "bigL": [(0, 0), (6, 0), (6, 2), (2, 2), (2, 6), (0, 6)],
}

HOLED_SHAPES: dict[str, tuple] = {
    "ring": ([(0, 0), (3, 0), (3, 3), (0, 3)], [[(1, 1), (1, 2), (2, 2), (2, 1)]]),
    "bigring": ([(0, 0), (5, 0), (5, 5), (0, 5)], [[(2, 2), (2, 3), (3, 3), (3, 2)]]),
}


# (forward, inverse) maps of doubled coordinates; C keeps them non-negative
C = 1000
TURNS = {
    "mirror": (lambda x, y: (C - x, y), lambda x, y: (C - x, y)),
    "rot90": (lambda x, y: (C - y, x), lambda x, y: (y, C - x)),
}


# -- the pixel complex cell by cell ----------------------------------------------
#
# `Pixelation` stores its pixels, corners and sides as parallel int lists;
# these read one cell at a time off them, for tests that walk the cells.


class Side(NamedTuple):
    """The fields `Pixelation` stores for one side, with None for no pixel."""

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


def sides(px: Pixelation) -> list[Side]:
    """Every side, in id order."""
    return [Side("h" if sid < px.n_h else "v", c, lo, hi, a, b,
                 None if p < 0 else p, None if q < 0 else q)
            for sid, (c, lo, hi, a, b, p, q) in enumerate(zip(
                px.side_c, px.side_lo, px.side_hi, px.corner_a, px.corner_b,
                px.pix_lo, px.pix_hi))]


def corners(px: Pixelation) -> list[Pt]:
    """Every corner point, in id order."""
    return list(zip(px.cx, px.cy))


@lru_cache(maxsize=4)
def corner_ids(px: Pixelation) -> dict[Pt, int]:
    """Corner id by point."""
    return {p: i for i, p in enumerate(corners(px))}


def corner_pixels(px: Pixelation) -> list[list[int]]:
    """The pixels at each corner, in id order."""
    return [px.corner_pixels(cid) for cid in range(len(px.cx))]


@lru_cache(maxsize=4)
def pixel_sides(px: Pixelation) -> list[list[int]]:
    """The side ids of each pixel, in id order: south, north, west, east."""
    return [list(ids) for ids in zip(px.south, px.north, px.west, px.east)]


def turned(poly: OrthoPolygon, how: str) -> OrthoPolygon:
    """poly mirrored in x or rotated by 90 degrees, by the forward map of
    TURNS[how]."""
    fwd = TURNS[how][0]
    step = -1 if how == "mirror" else 1  # keep the ring orientation
    return OrthoPolygon([fwd(*p) for p in poly.outer[::step]],
                        [[fwd(*p) for p in h[::step]] for h in poly.holes],
                        doubled=True)


def best_times(calls, rounds: int = 5) -> list[float]:
    """The least time of each call over `rounds` rounds.  The calls take
    milliseconds, so a burst of other load can hit one size only; running
    every call once per round spreads it over all."""
    times = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            times[i] = min(times[i], time.perf_counter() - t0)
    return times


@contextmanager
def gc_paused():
    """The cyclic garbage collector paused for the block, as solve_task
    pauses it for a solve; the caller's setting is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def fixture_polygons() -> list[OrthoPolygon]:
    polys = [OrthoPolygon(r) for r in SHAPES.values()]
    polys += [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    return polys


def full_lift(T: TreeDecomposition, H: AuxGraph) -> TreeDecomposition:
    """lift_to_H without the dominance reduction: each pixel of every bag is
    replaced by all the targets and guards whose home it is and all the
    rectangles intersecting it.  The reference for the reduced lift, for the
    DP over it and for the paper's lifted width bound."""
    n_pix = 1 + max((v for bag in T.bags for v in bag), default=0)
    per_pixel: list[list[int]] = [[] for _ in range(n_pix)]
    for t in H.targets:
        per_pixel[t.pixel].append(H.tid(t.id))
    for mr in H.rects:
        for pid in mr.pixel_ids:
            per_pixel[pid].append(H.rid(mr.id))
    for g in H.guards:
        per_pixel[g.pixel].append(H.gid(g.id))
    bags = []
    for bag in T.bags:
        content: set[int] = set()
        for pid in bag:
            content.update(per_pixel[pid])
        bags.append(tuple(sorted(content)))
    return TreeDecomposition(bags, list(T.parent), "aux")


def grid_max_rects(px: Pixelation) -> list[Rect]:
    """The positive-area maximal rectangles from `PixelCover`'s occupancy
    grid, independent of the pixel sides; the reference for
    `enumerate_max_rects`.  For every pair of grid lines along the axis with
    fewer of them, the maximal runs of cells lying inside between that pair
    are the candidates; the grid is transposed when that axis is y, so the
    pair loop is quadratic only in the shorter axis."""
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
            idx = np.flatnonzero(np.diff(np.concatenate(([False], ok,
                                                          [False]))))
            for a, b in zip(idx[::2], idx[1::2]):
                v0, v1 = int(vs[a]), int(vs[b])
                if not (cov.rect_inside(rect(u0 - 1, v0, u1, v1))
                        or cov.rect_inside(rect(u0, v0, u1 + 1, v1))):
                    out.append(rect(u0, v0, u1, v1))
    return out


def flood_pixels(px: Pixelation, r: Rect) -> tuple[int, ...]:
    """All pixels whose closed rectangle meets r, by a flood fill over the
    pixelation corners lying on or in r, from the pixels at r's lower-left
    corner (or containing it); the reference for `MaxRect.pixel_ids`."""
    p, ids = (r.xmin, r.ymin), corner_ids(px)
    if p in ids:
        stack = px.corner_pixels(ids[p])
    else:
        stack = px.locate_points([p])[0]
    found: set[int] = set()
    while stack:
        pid = stack.pop()
        if pid in found or not px.pixels[pid].intersects(r):
            continue
        found.add(pid)
        q = px.pixels[pid]
        for c in ((q.xmin, q.ymin), (q.xmax, q.ymin),
                  (q.xmin, q.ymax), (q.xmax, q.ymax)):
            if r.contains_point(c):
                stack.extend(v for v in px.corner_pixels(ids[c])
                             if v not in found)
    return tuple(sorted(found))


def ref_positive_rects(px: Pixelation) -> list[tuple[Rect, tuple[int, ...]]]:
    """The chain-stack walk of `max_rectangles._positive_rects` with its
    rows as dicts and its containment, stack and pixel steps as helpers;
    the reference for the id-indexed walk."""
    n_h, plo, phi = px.n_h, px.pix_lo, px.pix_hi
    x0, y0, y1 = px.x0, px.y0, px.y1
    x1 = px.x1.copy()
    head = list(range(len(x0)))
    run: dict[int, list[int]] = {}
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
        return row[bisect_left(row, a, key=x1.__getitem__):
                   bisect_right(row, b, key=x0.__getitem__)]

    def pixels_meeting(c: int, a: int, b: int) -> list[int]:
        ps = run.get(c, [c])
        i = max(bisect_left(ps, a, key=x0.__getitem__) - 1, 0)
        return ps[i:bisect_right(ps, b, key=x0.__getitem__)]

    def container(chains: list[int], a: int, b: int) -> int | None:
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
            while d != c:
                d = container(meets(above[d], a, b), a, b)
                pids += pixels_meeting(d, a, b)
            for d in low + high:
                pids += pixels_meeting(d, a, b)
            out.append((Rect(a, y0[c0], b, y1[c]), tuple(sorted(pids))))
            for d in high:
                if a < x1[d] and x0[d] < b:
                    todo.append((d, max(a, x0[d]), min(b, x1[d])))
    return out


def ref_degenerate_segments(px: Pixelation
                            ) -> list[tuple[Rect, tuple[int, ...]]]:
    """The side-chain scan of `max_rectangles._degenerate_segments` with one
    candidate test per chain, its pixels read per corner; the reference for
    the one-pass scan."""
    c, lo, hi = px.side_c, px.side_lo, px.side_hi
    out = []
    first = 0
    for s in range(1, len(c) + 1):
        if s == len(c) or s == px.n_h or c[s] != c[s - 1] or lo[s] != hi[s - 1]:
            out.extend(_ref_chain_candidate(px, first, s))
            first = s
    return out


def _ref_chain_candidate(px: Pixelation, first: int, end: int):
    c, lo, hi = px.side_c[first], px.side_lo[first], px.side_hi[end - 1]
    a, b = px.corner_a[first], px.corner_b[end - 1]
    if first >= px.n_h:
        seg = Rect(c, lo, c, hi)
        beyond = (px.q_sw[a], px.q_se[a], px.q_nw[b], px.q_ne[b])
    else:
        seg = Rect(lo, c, hi, c)
        beyond = (px.q_sw[a], px.q_nw[a], px.q_se[b], px.q_ne[b])
    if max(beyond) >= 0:
        return []
    if min(px.pix_lo[first:end]) >= 0 or min(px.pix_hi[first:end]) >= 0:
        return []
    pids = {p for k in px.corner_a[first:end] + [b]
            for p in px.corner_pixels(k)}
    return [(seg, tuple(sorted(pids)))]


# -- the priority loops, the reference for simplify_targets / simplify_guards --


def _ref_vertices(px: Pixelation) -> list[Pt]:
    return sorted({p for ring in px.poly.rings for p in ring})


def _ref_interior_point(px: Pixelation, pset: _PointSet, pid: int) -> Pt | None:
    """The pixel's center for all points, else the least point of the set
    strictly inside the pixel, found by scanning the whole set."""
    r = px.pixels[pid]
    if pset.all_points:
        return ((r.xmin + r.xmax) // 2, (r.ymin + r.ymax) // 2)
    return min((p for p in pset._extras
                if r.xmin < p[0] < r.xmax and r.ymin < p[1] < r.ymax),
               default=None)


def _ref_in_corner(px: Pixelation, pset: _PointSet, cidx: int) -> bool:
    """Does the set hold the corner: all points do, boundary points do when
    fewer than 4 pixels meet there, and explicit points when they list it."""
    return (pset.all_points
            or (pset.boundary and len(px.corner_pixels(cidx)) < 4)
            or corners(px)[cidx] in pset._extras)


def reference_targets(px: Pixelation, task: GuardTask) -> list[TargetPoint]:
    """simplify_targets as a loop per cell kind: pixel interiors, then open
    sides whose incident pixels did not fire, then corners with no fired
    incident pixel or side; `vertices` targets are the polygon vertices."""
    mode = task.target_mode
    if mode == "vertices":
        pts = []
        for v in _ref_vertices(px):
            if v not in corner_ids(px):
                raise TaskError(f"polygon vertex {v} is not an arrangement corner")
            pts.append((v, "corner", min(closure_pixels(px, v))))
        return [TargetPoint(i, p, k, h) for i, (p, k, h) in enumerate(pts)]

    uset = _PointSet(px, all_points=(mode == "all"),
                     boundary=(mode == "boundary"),
                     extras=task.target_points if mode == "points" else ())
    fired_pixels: dict[int, Pt] = {}
    for pid in range(px.pixel_count):
        pt = _ref_interior_point(px, uset, pid)
        if pt is not None:
            fired_pixels[pid] = pt
    fired_sides: dict[int, Pt] = {}
    for sid, side in enumerate(sides(px)):
        incident = [p for p in (side.pix_lo, side.pix_hi) if p is not None]
        if any(p in fired_pixels for p in incident):
            continue
        pt = uset.side_point(sid)
        if pt is not None:
            fired_sides[sid] = pt
    out: list[tuple[Pt, str, int]] = []
    for pid, pt in sorted(fired_pixels.items()):
        out.append((pt, "interior", pid))
    for sid, pt in sorted(fired_sides.items()):
        out.append((pt, "side", min(closure_pixels(px, pt))))
    for cidx, c in enumerate(corners(px)):
        if not _ref_in_corner(px, uset, cidx):
            continue
        if any(pid in fired_pixels for pid in px.corner_pixels(cidx)):
            continue
        if any(sid in fired_sides for sid in _ref_corner_sides(px, cidx)):
            continue
        out.append((c, "corner", min(closure_pixels(px, c))))
    out.sort()
    return [TargetPoint(i, p, k, h) for i, (p, k, h) in enumerate(out)]


def reference_guards(px: Pixelation, task: GuardTask) -> list[Guard]:
    """simplify_guards as a loop per cell kind: corners, then open sides with
    no endpoint in Γ, then pixel interiors with no corner or side point in
    Γ; a point's home is the least pixel whose closure holds it."""
    point_modes = [m for m in task.guard_modes
                   if m in ("all-points", "boundary-points", "vertices", "points")]
    pts: list[tuple[Pt, str, int]] = []
    if point_modes:
        extras = list(task.guard_points if "points" in point_modes else ())
        if "vertices" in point_modes:
            extras.extend(_ref_vertices(px))
        gset = _PointSet(px, all_points="all-points" in point_modes,
                         boundary="boundary-points" in point_modes,
                         extras=tuple(extras))
        fired_corners: set[int] = set()
        for cidx, c in enumerate(corners(px)):
            if _ref_in_corner(px, gset, cidx):
                fired_corners.add(cidx)
                pts.append((c, "corner", min(closure_pixels(px, c))))
        fired_sides: dict[int, Pt] = {}
        for sid, side in enumerate(sides(px)):
            if side.corner_a in fired_corners or side.corner_b in fired_corners:
                continue
            pt = gset.side_point(sid)
            if pt is not None:
                fired_sides[sid] = pt
                pts.append((pt, "side", min(closure_pixels(px, pt))))
        for pid in range(px.pixel_count):
            cids = [corner_ids(px)[c] for c in _ref_pixel_corner_points(px, pid)]
            if any(ci in fired_corners for ci in cids):
                continue
            if any(sid in fired_sides for sid in pixel_sides(px)[pid]):
                continue
            pt = _ref_interior_point(px, gset, pid)
            if pt is not None:
                pts.append((pt, "interior", pid))
    pts.sort()

    out: list[Guard] = []
    for p, _kind, home in pts:
        out.append(Guard(len(out), "point", p, home))
    pixel_ids: list[int] = []
    if "all-pixel-guards" in task.guard_modes:
        pixel_ids = list(range(px.pixel_count))
    elif "pixels" in task.guard_modes:
        for pid in task.guard_pixels:
            if not 0 <= pid < px.pixel_count:
                raise TaskError(f"pixel-guard id {pid} out of range")
        pixel_ids = sorted(set(task.guard_pixels))
    for pid in pixel_ids:
        out.append(Guard(len(out), "pixel", None, pid))
    return out


@lru_cache(maxsize=4)
def _pixel_boxes(px: Pixelation) -> np.ndarray:
    return np.array([r.as_tuple() for r in px.pixels],
                    dtype=np.int64).reshape(-1, 4)


def closure_pixels(px: Pixelation, q: Pt) -> list[int]:
    """Every pixel whose closure holds the point q, by testing each pixel."""
    b, (x, y) = _pixel_boxes(px), q
    return np.flatnonzero((b[:, 0] <= x) & (x <= b[:, 2])
                          & (b[:, 1] <= y) & (y <= b[:, 3])).tolist()


def per_closure_counts(px: Pixelation, pts: list[Pt]) -> dict[int, int]:
    """The number of points of pts in the closure of each pixel: a point
    counts in every pixel whose closure holds it."""
    per: dict[int, int] = {}
    for q in pts:
        for pid in closure_pixels(px, q):
            per[pid] = per.get(pid, 0) + 1
    return per


def multi_home_aux_graph(px: Pixelation, rects: list[MaxRect],
                         targets: list[TargetPoint],
                         guards: list[Guard]) -> AuxGraph:
    """build_aux_graph from every pixel a vertex touches rather than its
    one home: a point's rectangles are those holding it among the
    rectangles of every pixel whose closure holds it, and a pixel guard's
    are those intersecting it among the rectangles of every pixel that
    shares a corner with it, deduplicated by sets and then sorted.  The
    reference for the one-home construction."""
    by_pixel_rects: list[list[int]] = [[] for _ in px.pixels]
    for mr in rects:
        for pid in mr.pixel_ids:
            by_pixel_rects[pid].append(mr.id)

    def rects_at(homes, hit) -> list[int]:
        return sorted({ri for pid in homes for ri in by_pixel_rects[pid]
                       if hit(rects[ri].rect)})

    ur = [rects_at(closure_pixels(px, t.location),
                   lambda r, q=t.location: r.contains_point(q)) for t in targets]
    gr = []
    for g in guards:
        if g.kind == "point":
            gr.append(rects_at(closure_pixels(px, g.location),
                               lambda r, q=g.location: r.contains_point(q)))
        else:
            homes = {q for c in _ref_pixel_corner_points(px, g.pixel)
                     for q in px.corner_pixels(corner_ids(px)[c])}
            gr.append(rects_at(homes, px.pixels[g.pixel].intersects))
    ru: list[list[int]] = [[] for _ in rects]
    rg: list[list[int]] = [[] for _ in rects]
    for ti, rs in enumerate(ur):
        for ri in rs:
            ru[ri].append(ti)
    for gi, rs in enumerate(gr):
        for ri in rs:
            rg[ri].append(gi)
    return AuxGraph(targets, rects, guards, ur, ru, gr, rg)


def _ref_pixel_corner_points(px: Pixelation, pid: int):
    r = px.pixels[pid]
    return ((r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmin, r.ymax), (r.xmax, r.ymax))


def _ref_corner_sides(px: Pixelation, cidx: int) -> list[int]:
    return [sid for pid in px.corner_pixels(cidx) for sid in pixel_sides(px)[pid]
            if cidx in (px.corner_a[sid], px.corner_b[sid])]


def cell_points(px: Pixelation) -> list[Pt]:
    """Doubled points in cells of every kind: corners, open sides (midpoints
    and off-centre), pixel interiors (centers and off-centre) and polygon
    vertices."""
    pts = corners(px)[::3]
    for s in sides(px)[::2]:
        pts.append(s.midpoint())
        pts.append((s.c, s.lo + 1) if s.axis == "v" else (s.lo + 1, s.c))
    pts += [(r.xmin + 1, r.ymin + 1) for r in px.pixels[::2]]
    pts += [((r.xmin + r.xmax) // 2, (r.ymin + r.ymax) // 2)
            for r in px.pixels[1::3]]
    return pts + list(px.poly.outer[::2])


def reference_r_guards(poly: OrthoPolygon, g: Pt, p: Pt,
                       allow_degenerate: bool) -> bool:
    """Does g r-guard p, decided on the rings of P alone: the spanned
    rectangle lies inside P, and without the degenerate policy a zero-area
    one also needs some half-unit fattening of it to lie inside P."""
    r = spanned_rect(g, p)
    if not rect_inside(poly, r):
        return False
    if allow_degenerate or (r.width > 0 and r.height > 0):
        return True
    xs = ([(r.xmin - 1, r.xmax), (r.xmin, r.xmax + 1)] if r.width == 0
          else [(r.xmin, r.xmax)])
    ys = ([(r.ymin - 1, r.ymax), (r.ymin, r.ymax + 1)] if r.height == 0
          else [(r.ymin, r.ymax)])
    return any(rect_inside(poly, Rect(x1, y1, x2, y2))
               for x1, x2 in xs for y1, y2 in ys)


def lifted_away(H: AuxGraph, red: Reduction | None = None) -> set[int]:
    """Lifted ids of the vertices that red, by default reduce(H), leaves
    out, and lift_to_H leaves out of every bag."""
    red = reduce(H) if red is None else red
    return ({H.tid(t) for t in red.targets} | {H.rid(r) for r in red.rects}
            | {H.gid(g) for g in red.guards})


def dominated_only(H: AuxGraph) -> Reduction:
    """The reduction of dominated(H) alone, with no forced guard: what
    lift_to_H left out before the forced-guard rule, and the reference
    for the differential tests of reduce(H)."""
    return Reduction(*dominated(H), [])


def rounds_reduce(H: AuxGraph) -> Reduction:
    """reduce(H) by whole rounds: each round filters every adjacency list
    to the kept vertices, tests every kept target for a forced guard and
    every kept guard for containment, until a round forces no guard and
    drops none.  The reference for the differential tests of the worklist
    reduce(H)."""
    targets, rects, guards = dominated(H)
    forced: list[int] = []
    left = [sum(t not in targets for t in ts) for ts in H.ru]
    while True:
        new = _ref_forced(H.ur, targets, _ref_kept(H.rg, rects, guards))
        dropped = len(guards)
        forced += sorted(new)
        guards |= new
        for r in {r for g in new for r in H.gr[g]}:
            for t in H.ru[r]:
                if t not in targets:
                    targets.add(t)
                    for r2 in H.ur[t]:
                        left[r2] -= 1
                        if not left[r2]:
                            rects.add(r2)
        sets = _ref_kept(H.gr, guards, rects)
        guards.update(g for g, s in enumerate(sets) if not s)
        dups, pairs = _ref_contained_pairs(
            sets, _ref_kept(H.rg, rects, guards))
        guards |= dups
        guards.update(small for small, _big in pairs)
        if not new and len(guards) == dropped:
            return Reduction(targets, rects, guards, forced)


def _ref_forced(ur: list[list[int]], targets: set[int],
                seen_by: list[list[int]]) -> set[int]:
    """The guards that some target not in targets sees alone: the one guard
    in seen_by[r] over all its rectangles r, when there is exactly one."""
    out = set()
    for t, rs in enumerate(ur):
        if t in targets:
            continue
        seen = {g for r in rs for g in seen_by[r]}
        if len(seen) == 1:
            out |= seen
    return out


def _ref_kept(lists: list[list[int]], gone_rows: set[int],
              gone: set[int]) -> list[list[int]]:
    """lists without the ids in gone, and with an empty list for each row
    in gone_rows."""
    return [[] if i in gone_rows else [x for x in xs if x not in gone]
            for i, xs in enumerate(lists)]


def _ref_contained_pairs(sets: list[list[int]], members: list[list[int]]):
    """(dups, pairs): dups are the vertices whose set equals that of a lower
    id; pairs are (a, b) among the others with sets[a] ⊊ sets[b].  A stable
    sort by set puts equal sorted lists next to each other, lowest id
    first; every other vertex of a's least shared rectangle is tried."""
    order = sorted((a for a, s in enumerate(sets) if s), key=sets.__getitem__)
    dups = {b for a, b in zip(order, order[1:]) if sets[a] == sets[b]}
    members = [[b for b in m if b not in dups] for m in members]
    member_sets = [set(m) for m in members]
    pairs = []
    for a in order:
        if a in dups:
            continue
        s = sets[a]
        r0 = min(s, key=lambda r: len(members[r]))
        for b in members[r0]:
            if b != a and all(b in member_sets[r] for r in s):
                pairs.append((a, b))
    return dups, pairs


def nice_tree_lift(T: TreeDecomposition, H: AuxGraph) -> TreeDecomposition:
    """full_lift without the targets and guards of dominated(H), with every
    rectangle kept and no bag merged: the input of nice_tree_solve in the
    differential check of lift_to_H and solve_r2ds."""
    targets, _rects, guards = dominated(H)
    gone = {H.tid(t) for t in targets} | {H.gid(g) for g in guards}
    return TreeDecomposition(
        [tuple(v for v in bag if v not in gone) for bag in full_lift(T, H).bags],
        list(T.parent), "aux")


def two_pass_lift(T: TreeDecomposition, H: AuxGraph,
                  red: Reduction) -> TreeDecomposition:
    """lift_to_H in two passes, the reference for its one-pass walk: first
    the lifted content of every bag of T without the vertices that red
    leaves out, then, from the root down, every tree edge one of whose
    sides is a subset of the other contracted into groups of bags, each
    group's top containing all its members.  The groups are ordered by
    their highest bag, the one nearest the root, and a group's parent is
    the group of that bag's parent."""
    gone = lifted_away(H, red)
    contents = [{v for v in bag if v not in gone} for bag in full_lift(T, H).bags]
    n = len(contents)
    group = {n - 1: n - 1}  # bag -> the highest bag of its group
    top = {n - 1: n - 1}    # highest bag of a group -> the group's top
    for b in reversed(range(n - 1)):
        g = group[T.parent[b]]
        if contents[b] <= contents[top[g]]:
            group[b] = g
        elif contents[top[g]] < contents[b]:
            group[b] = g
            top[g] = b
        else:
            group[b] = top[b] = b
    highest = sorted(top)
    index = {h: i for i, h in enumerate(highest)}
    parent = [index[group[T.parent[h]]] if h < n - 1 else -1 for h in highest]
    return TreeDecomposition([tuple(sorted(contents[top[h]])) for h in highest],
                             parent, "aux")


def aux_graph_edges(H: AuxGraph) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of H in the lifted id space."""
    edges = []
    for ti, rs in enumerate(H.ur):
        for ri in rs:
            edges.append((H.tid(ti), H.rid(ri)))
    for gi, rs in enumerate(H.gr):
        for ri in rs:
            edges.append((H.rid(ri), H.gid(gi)))
    return H.n_vertices, edges


def exact_treewidth_at_most(n: int, adj: list[list[int]], k: int) -> bool:
    """Exact check tw(G) <= k by memoized elimination search (tiny graphs)."""
    nb0 = tuple(frozenset(a) for a in adj)
    memo: dict[frozenset, bool] = {}

    def rec(alive: frozenset, nb: dict[int, frozenset]) -> bool:
        if len(alive) <= k + 1:
            return True
        key = frozenset((v, nb[v]) for v in alive)
        if key in memo:
            return memo[key]
        ok = False
        for v in sorted(alive):
            if len(nb[v]) <= k:
                nxt = dict(nb)
                ns = nb[v]
                for a in ns:
                    nxt[a] = (nxt[a] | ns) - {a, v}
                del nxt[v]
                if rec(alive - {v}, nxt):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return rec(frozenset(range(n)), {v: nb0[v] for v in range(n)})


def to_dot(H: AuxGraph) -> str:
    """Graphviz export of H for debugging."""
    lines = ["graph H {"]
    for t in H.targets:
        lines.append(f'  u{t.id} [shape=circle,label="u{t.id}"];')
    for r in H.rects:
        style = ",style=dashed" if r.degenerate else ""
        lines.append(f'  r{r.id} [shape=box,label="r{r.id}"{style}];')
    for g in H.guards:
        lines.append(f'  g{g.id} [shape=diamond,label="g{g.id}"];')
    for ti, rs in enumerate(H.ur):
        for ri in rs:
            lines.append(f"  u{ti} -- r{ri};")
    for gi, rs in enumerate(H.gr):
        for ri in rs:
            lines.append(f"  g{gi} -- r{ri};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def validate_reduced_lift(H: AuxGraph, T: TreeDecomposition,
                          red: Reduction | None = None) -> DecompositionReport:
    """validate_decomposition of T against H minus lifted_away(H, red), with
    the kept vertices renumbered 0, 1, ... in id order; a left-out vertex
    in a bag is a problem too."""
    gone = lifted_away(H, red)
    rep = validate_decomposition(*reduced_lift_instance(H, T, gone))
    stray = gone & {v for bag in T.bags for v in bag}
    rep.problems += [f"left-out vertex {v} in a bag" for v in sorted(stray)]
    return rep


def reduced_lift_instance(H: AuxGraph, T: TreeDecomposition, gone: set[int]
                          ) -> tuple[int, list[tuple[int, int]],
                                     TreeDecomposition]:
    """(vertex count, edges, decomposition) of H minus the lifted ids gone
    and of T without them, the kept vertices renumbered 0, 1, ... in id
    order: the arguments of validate_decomposition for a reduced lift."""
    keep = [v for v in range(H.n_vertices) if v not in gone]
    new_id = {v: i for i, v in enumerate(keep)}
    _n, edges = aux_graph_edges(H)
    sub_edges = [(new_id[a], new_id[b]) for a, b in edges
                 if a in new_id and b in new_id]
    relabelled = TreeDecomposition(
        [tuple(new_id[v] for v in bag if v in new_id) for bag in T.bags],
        list(T.parent), "aux")
    return len(keep), sub_edges, relabelled


def bfs_validate(n_vertices: int, edges: list[tuple[int, int]],
                 T: TreeDecomposition) -> DecompositionReport:
    """validate_decomposition over the undirected tree of the edges
    (b, parent[b]), by search: the tree must have one edge fewer than bags
    and reach every bag from bag 0, and a breadth-first search from one bag
    holding each vertex must reach every bag holding it.  The reference for
    the linear check over the parent array, which also requires every
    parent to be a later bag: on a decomposition that keeps that rule the
    two verdicts agree."""
    rep = DecompositionReport()
    nb = len(T.bags)
    adj: list[list[int]] = [[] for _ in range(nb)]
    n_edges = 0
    for b, p in enumerate(T.parent):
        if 0 <= p < nb:
            adj[b].append(p)
            adj[p].append(b)
            n_edges += 1
    if n_edges != nb - 1:
        rep.problems.append(f"decomposition tree has {n_edges} edges for {nb} bags")
    if len(_reach(adj, 0, range(nb))) != nb:
        rep.problems.append("decomposition tree is disconnected")
    occurrences: dict[int, list[int]] = {}
    for bi, bag in enumerate(T.bags):
        for v in bag:
            occurrences.setdefault(v, []).append(bi)
    for v in range(n_vertices):
        if v not in occurrences:
            rep.problems.append(f"vertex {v} appears in no bag")
    occ_sets = {v: set(occ) for v, occ in occurrences.items()}
    for u, v in edges:
        if occ_sets.get(u, set()).isdisjoint(occ_sets.get(v, ())):
            rep.problems.append(f"edge ({u},{v}) covered by no bag")
    for v, occ in occurrences.items():
        if len(_reach(adj, occ[0], occ_sets[v])) != len(occ_sets[v]):
            rep.problems.append(f"bags containing vertex {v} are not connected")
    return rep


def _reach(adj: list[list[int]], start: int, members) -> set[int]:
    """The bags of members that a breadth-first search from start reaches
    without leaving members."""
    members = set(members)
    seen = {start}
    dq = deque([start])
    while dq:
        b = dq.popleft()
        for c in adj[b]:
            if c in members and c not in seen:
                seen.add(c)
                dq.append(c)
    return seen


# -- the nice-tree DP, the reference for dp_solver.solve_r2ds -------------------


def nice_tree_solve(H: AuxGraph, T: TreeDecomposition) -> Solution:
    """The DP of solve_r2ds over a nice tree: the decomposition is expanded
    into leaf, introduce, forget and join nodes, one vertex per introduce or
    forget, and a key holds the states of the bag's vertices in sorted
    order, so every introduce and forget re-packs it.  The reference for
    solve_r2ds: status, size and witness must be equal; the chosen guards
    may differ."""
    witness = scan_witness(H)
    if witness is not None:
        return Solution("infeasible", 0, [], [], witness_target=witness)
    if not len(H.targets):
        return Solution("optimal", 0, [], [])
    nodes = _nice_tree(T)
    tables: dict[int, dict] = {}
    for idx, node in enumerate(nodes):
        if node[0] == "leaf":
            tables[idx] = {0: (0, None)}
        elif node[0] == "intro":
            _, child, bag, v, pos = node
            tables[idx] = _nice_introduce(H, tables.pop(child), bag, v, pos)
        elif node[0] == "forget":
            _, child, _bag, v, pos = node
            tables[idx] = _nice_forget(H, tables.pop(child), v, pos)
        else:
            _, left, right, bag = node
            tables[idx] = _nice_join(H, tables.pop(left), tables.pop(right), bag)
        assert tables[idx], "dead end in the nice-tree DP"
    final = tables[len(nodes) - 1]
    assert list(final) == [0], "root table is not a single empty-bag state"
    value, sel = final[0]
    chosen = sorted(_nice_selected(sel))
    assert value == len(chosen)
    return Solution("optimal", value, [H.guards[gi] for gi in chosen],
                    scan_certificates(H, chosen))


def scan_witness(H: AuxGraph) -> int | None:
    """The first target with no rectangle that a guard sees, scanning each
    target's rectangles: the reference for solve_r2ds's witness."""
    return next((ti for ti in range(len(H.targets))
                 if not any(H.rg[ri] for ri in H.ur[ti])), None)


def scan_certificates(H: AuxGraph, chosen: list[int]) -> list[Certificate]:
    """Per target, its first rectangle that a guard of the sorted list
    `chosen` sees, and the first such guard, by a double loop over each
    target's rectangles and their guards: the reference for solve_r2ds's
    certificates."""
    index_of = {gi: k for k, gi in enumerate(chosen)}
    certs = []
    for ti in range(len(H.targets)):
        ri, gi = next((ri, gi) for ri in H.ur[ti] for gi in H.rg[ri]
                      if gi in index_of)
        certs.append(Certificate(ti, ri, index_of[gi]))
    return certs


def _nice_kind(H: AuxGraph, v: int) -> tuple[str, int]:
    """'target', 'rect' or 'guard', and the index in H, of lifted id v."""
    if v >= H.gid(0):
        return "guard", v - H.gid(0)
    if v >= H.rid(0):
        return "rect", v - H.rid(0)
    return "target", v


def _nice_union(a, b):
    """The selection of both of a and b: a node (2, a, b), or the one of
    them that is not empty (None)."""
    if a is None or b is None:
        return b if a is None else a
    return (2, a, b)


def _nice_selected(sel) -> set[int]:
    """The guards of a selection: (1, guard, rest) adds guard to rest and
    (2, a, b) unites a and b.  Nodes are shared, so each is read once."""
    out: set[int] = set()
    seen: set[int] = set()
    todo = [sel]
    while todo:
        node = todo.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if node[0] == 1:
            out.add(node[1])
            todo.append(node[2])
        else:
            todo += node[1:]
    return out


def _nice_tree(T: TreeDecomposition) -> list[tuple]:
    """Leaf/intro/forget/join nodes of T, children before parents, ending in
    an empty root bag.  Every child is brought to its parent's bag (forgets,
    then introduces) before the children are joined."""
    children: list[list[int]] = [[] for _ in T.bags]
    for v, p in enumerate(T.parent):
        if p >= 0:
            children[p].append(v)
    nodes: list[tuple] = []

    def chain(idx: int, cur_bag: tuple, target_bag: tuple) -> tuple:
        bag = list(cur_bag)
        for v in sorted(set(cur_bag) - set(target_bag)):
            pos = bag.index(v)
            bag.pop(pos)
            nodes.append(("forget", idx, tuple(bag), v, pos))
            idx = len(nodes) - 1
        for v in sorted(set(target_bag) - set(cur_bag)):
            pos = bisect_left(bag, v)
            bag.insert(pos, v)
            nodes.append(("intro", idx, tuple(bag), v, pos))
            idx = len(nodes) - 1
        return idx, tuple(bag)

    done: dict[int, tuple] = {}
    for b in range(len(T.bags)):
        tops = [chain(*done.pop(c), T.bags[b])[0] for c in children[b]]
        if not tops:
            nodes.append(("leaf",))
            done[b] = chain(len(nodes) - 1, (), T.bags[b])
            continue
        idx = tops[0]
        for other in tops[1:]:
            nodes.append(("join", idx, other, T.bags[b]))
            idx = len(nodes) - 1
        done[b] = (idx, T.bags[b])
    ridx, rbag = chain(*done[len(T.bags) - 1], ())
    assert rbag == () and ridx == len(nodes) - 1
    return nodes


def _positions(bag: tuple, lo: int, hi: int, ids: list[int]) -> int:
    """The low bit of each position of bag holding a lifted id u with
    lo <= u < hi and u - lo in the sorted list ids."""
    out = 0
    for p, u in enumerate(bag):
        if lo <= u < hi:
            j = bisect_left(ids, u - lo)
            if j < len(ids) and ids[j] == u - lo:
                out |= 1 << (2 * p)
    return out


def _put(out: dict, key: int, val: int, sel) -> None:
    cur = out.get(key)
    if cur is None or val < cur[0]:
        out[key] = (val, sel)


def _nice_introduce(H: AuxGraph, child: dict, bag: tuple, v: int,
                    pos: int) -> dict:
    kind, i = _nice_kind(H, v)
    rbase, gbase = H.rid(0), H.gid(0)
    shift = 2 * pos
    low = (1 << shift) - 1
    out: dict = {}
    if kind == "guard":
        L = _positions(bag, rbase, gbase, H.gr[i])
        for key, (val, sel) in child.items():
            nk = (key & low) | ((key >> shift) << (shift + 2))
            _put(out, nk, val, sel)
            if (nk | nk >> 1) & L == L:
                p = nk & L & ~(nk >> 1)
                _put(out, nk ^ (p | p << 1 | 1 << shift), val + 1, (1, i, sel))
    elif kind == "rect":
        G = _positions(bag, gbase, H.n_vertices, H.rg[i])
        targets = _positions(bag, 0, rbase, H.ru[i])
        for key, (val, sel) in child.items():
            nk = (key & low) | ((key >> shift) << (shift + 2))
            if nk & G:
                _put(out, nk | (LIT << shift) | targets, val, sel)
            else:
                _put(out, nk, val, sel)
                _put(out, nk | (PROMISED << shift) | targets, val, sel)
    else:
        M = 3 * _positions(bag, rbase, gbase, H.ur[i])
        for key, (val, sel) in child.items():
            nk = (key & low) | ((key >> shift) << (shift + 2))
            _put(out, nk | (DOMINATED << shift) if nk & M else nk, val, sel)
    return out


def _nice_forget(H: AuxGraph, child: dict, v: int, pos: int) -> dict:
    kind, _i = _nice_kind(H, v)
    shift = 2 * pos
    low = (1 << shift) - 1
    drop = {"rect": PROMISED, "target": PENDING}.get(kind)
    out: dict = {}
    for key, (val, sel) in child.items():
        if (key >> shift) & 3 != drop:
            _put(out, (key & low) | ((key >> (shift + 2)) << shift), val, sel)
    return out


def _nice_join(H: AuxGraph, left: dict, right: dict, bag: tuple) -> dict:
    """The right table bucketed on its guard bits and which rectangles are
    non-dark; a left key is merged with its bucket."""
    gmask = rlo = 0
    for p, u in enumerate(bag):
        kind = _nice_kind(H, u)[0]
        if kind == "guard":
            gmask |= 1 << (2 * p)
        elif kind == "rect":
            rlo |= 1 << (2 * p)
    buckets: dict[int, list] = {}
    for kb, ent in right.items():
        buckets.setdefault((kb & gmask) | ((kb | kb >> 1) & rlo), []).append(
            (kb, ent))
    out: dict = {}
    for ka, (va, sa) in left.items():
        shared = (ka & gmask).bit_count()
        for kb, (vb, sb) in buckets.get((ka & gmask) | ((ka | ka >> 1) & rlo),
                                        ()):
            o = ka | kb
            _put(out, o & ~((o >> 1) & rlo), va + vb - shared,
                 _nice_union(sa, sb))
    return out


def nonthin_plus() -> OrthoPolygon:
    """Thick plus with a notch whose rays cross the center: not thin."""
    ring = [(4, 0), (8, 0), (8, 4), (10, 4), (10, 5), (12, 5), (12, 6),
            (10, 6), (10, 8), (8, 8), (8, 12), (4, 12), (4, 8), (0, 8),
            (0, 4), (4, 4)]
    return OrthoPolygon(ring)


def notched_square(n: int) -> OrthoPolygon:
    """The square (0, 0, 4n, 4n) with n unit teeth on its top side,
    (4i + 1, 4n, 4i + 2, 4n + 1), and n on its right side,
    (4n, 4i + 3, 4n + 1, 4i + 4), for i < n.  Every tooth's rays cross the
    body, so it is not thin and has about 4n^2 pixels from 8n + 2 vertices;
    no guard sees two top teeth, and its optimum is n."""
    return rects_union_polygon(
        [(0, 0, 4 * n, 4 * n)]
        + [(4 * i + 1, 4 * n, 4 * i + 2, 4 * n + 1) for i in range(n)]
        + [(4 * n, 4 * i + 3, 4 * n + 1, 4 * i + 4) for i in range(n)])


def brute_force_pixels(poly: OrthoPolygon) -> set[tuple[int, int, int, int]]:
    """Pixels by marching rays and union-finding unit cells (doubled grid)."""
    edges = []  # true boundary: ('v', x, y1, y2) / ('h', y, x1, x2)
    for ring in poly.rings:
        m = len(ring)
        for i in range(m):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
            if x1 == x2:
                edges.append(("v", x1, min(y1, y2), max(y1, y2)))
            else:
                edges.append(("h", y1, min(x1, x2), max(x1, x2)))
    segments = list(edges)  # edges plus rays; rays pass through other rays

    def on_boundary(p: Pt) -> bool:
        for kind, c, lo, hi in edges:
            if kind == "v" and p[0] == c and lo <= p[1] <= hi:
                return True
            if kind == "h" and p[1] == c and lo <= p[0] <= hi:
                return True
        return False

    rays = []
    for ri, vi, v in reflex_vertices(poly):
        ring = poly.rings[ri]
        prev = ring[vi - 1]
        nxt = ring[(vi + 1) % len(ring)]
        din = (v[0] - prev[0], v[1] - prev[1])
        dout = (nxt[0] - v[0], nxt[1] - v[1])
        for dx, dy in (din, (-dout[0], -dout[1])):
            dx = (dx > 0) - (dx < 0)
            dy = (dy > 0) - (dy < 0)
            k = 1
            while not on_boundary((v[0] + k * dx, v[1] + k * dy)):
                assert point_in_polygon(poly, (v[0] + k * dx, v[1] + k * dy))
                k += 1
            a = (v[0], v[1])
            b = (v[0] + k * dx, v[1] + k * dy)
            if dx or dy:
                if a > b:
                    a, b = b, a
                if a[0] == b[0]:
                    segments.append(("v", a[0], a[1], b[1]))
                else:
                    segments.append(("h", a[1], a[0], b[0]))

    bb = poly.bbox()
    inside = {}
    for i in range(bb.xmin, bb.xmax):
        for j in range(bb.ymin, bb.ymax):
            if _point_in_scaled(poly.rings, 2 * i + 1, 2 * j + 1):
                inside[(i, j)] = (i, j)

    def find(c):
        while inside[c] != c:
            inside[c] = inside[inside[c]]
            c = inside[c]
        return c

    def blocked_v(x, j) -> bool:
        return any(k == "v" and c == x and lo <= j and j + 1 <= hi
                   for k, c, lo, hi in segments)

    def blocked_h(y, i) -> bool:
        return any(k == "h" and c == y and lo <= i and i + 1 <= hi
                   for k, c, lo, hi in segments)

    for (i, j) in list(inside):
        if (i + 1, j) in inside and not blocked_v(i + 1, j):
            inside[find((i, j))] = find((i + 1, j))
        if (i, j + 1) in inside and not blocked_h(j + 1, i):
            inside[find((i, j))] = find((i, j + 1))

    comps: dict[tuple, list] = {}
    for c in inside:
        comps.setdefault(find(c), []).append(c)
    out = set()
    for cells in comps.values():
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        rect = (min(xs), min(ys), max(xs) + 1, max(ys) + 1)
        assert (rect[2] - rect[0]) * (rect[3] - rect[1]) == len(cells), \
            "brute-force component is not a rectangle"
        out.add(rect)
    return out


# -- the tuple-keyed pixelation, the reference for Pixelation -------------------
#
# The sweep with per-ray scans of each event column and the graph built from
# tuple-keyed corner and side dicts, kept as they were before sides were named
# by their first corner.  `pixelation_fields` reads the same fields off a
# `Pixelation`, so the two compare field for field.


def pixelation_fields(px: Pixelation) -> dict:
    """Every field of a pixelation as plain data."""
    return {
        "pixels": [r.as_tuple() for r in px.pixels],
        "corners": corners(px),
        "corner_ids": dict(corner_ids(px)),
        "corner_pixels": corner_pixels(px),
        "corner_interior": [px.corner_interior(c) for c in range(len(px.cx))],
        "sides": [tuple(s) for s in sides(px)],
        "pixel_sides": pixel_sides(px),
        "dual_n": px.dual.n,
        "dual_edges": list(px.dual.edges),
        "dual_adj": [list(v) for v in px.dual.adj],
    }


def reference_pixelation(poly: OrthoPolygon) -> dict:
    """The fields of `pixelation_fields`, from the reference construction."""
    v_edges, h_edges, v_rays, h_rays = _ref_oriented_features(poly)
    h_cuts = _ref_sweep(h_edges, h_rays, v_edges, None)[0]
    pixels = _ref_sweep(v_edges, v_rays, h_edges, h_cuts)[1]

    corner_pixels: dict[Pt, list[int]] = {}
    for pid, (x0, y0, x1, y1) in enumerate(pixels):
        for p in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            corner_pixels.setdefault(p, []).append(pid)
    corners = sorted(corner_pixels)
    cid = {p: i for i, p in enumerate(corners)}

    half_sides: dict[tuple, list] = {}
    for pid, (x0, y0, x1, y1) in enumerate(pixels):
        half_sides.setdefault(("v", x0, y0, y1), [None, None])[1] = pid
        half_sides.setdefault(("v", x1, y0, y1), [None, None])[0] = pid
        half_sides.setdefault(("h", y0, x0, x1), [None, None])[1] = pid
        half_sides.setdefault(("h", y1, x0, x1), [None, None])[0] = pid
    sides = []
    pixel_sides: list[list[int]] = [[] for _ in pixels]
    edges = []
    for key in sorted(half_sides):
        axis, c, lo, hi = key
        lo_pix, hi_pix = half_sides[key]
        a = cid[(c, lo) if axis == "v" else (lo, c)]
        b = cid[(c, hi) if axis == "v" else (hi, c)]
        for pid in (lo_pix, hi_pix):
            if pid is not None:
                pixel_sides[pid].append(len(sides))
        sides.append((axis, c, lo, hi, a, b, lo_pix, hi_pix))
        if lo_pix is not None and hi_pix is not None:
            edges.append((min(lo_pix, hi_pix), max(lo_pix, hi_pix)))
    edges.sort()
    adj: list[list[int]] = [[] for _ in pixels]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    assert sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in pixels) \
        == abs(poly.area2()) // 2
    return {
        "pixels": pixels,
        "corners": corners,
        "corner_ids": cid,
        "corner_pixels": [corner_pixels[p] for p in corners],
        "corner_interior": [len(corner_pixels[p]) == 4 for p in corners],
        "sides": sides,
        "pixel_sides": pixel_sides,
        "dual_n": len(pixels),
        "dual_edges": edges,
        "dual_adj": [sorted(a) for a in adj],
    }


def _ref_oriented_features(poly: OrthoPolygon):
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
            if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) >= 0:
                continue
            din = (bx - ax, by - ay)
            dout = (cx - bx, cy - by)
            if din[0] == 0:
                v_rays.append((bx, by, 1 if din[1] > 0 else -1))
                h_rays.append((by, bx, 1 if dout[0] < 0 else -1))
            else:
                v_rays.append((bx, by, 1 if dout[1] < 0 else -1))
                h_rays.append((by, bx, 1 if din[0] > 0 else -1))
    return v_edges, h_edges, v_rays, h_rays


def _ref_merge_intervals(ivs):
    if not ivs:
        return []
    ivs = sorted(ivs)
    out = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _ref_containing(comps, y0, d):
    for c in comps:
        if (c[0] <= y0 < c[1]) if d > 0 else (c[0] < y0 <= c[1]):
            return (c[0], c[1])
    return None


def _ref_overlapping_wall(walls, lo, hi):
    for w in walls:
        if w[0] < hi and w[1] > lo:
            return w
    return None


def _ref_sweep(par_edges, par_rays, perp_edges, perp_cuts):
    """(cuts as (x, lo, hi), pixels as (xmin, ymin, xmax, ymax) or None)."""
    events: dict[int, list] = {}
    for x, lo, hi, opens in par_edges:
        events.setdefault(x, [[], [], []])[0 if opens else 1].append((lo, hi))
    for x, y0, d in par_rays:
        events.setdefault(x, [[], [], []])[2].append((y0, d))
    perp_by_c: dict[int, list[tuple[int, int]]] = {}
    for m, xlo, xhi, _opens in perp_edges:
        perp_by_c.setdefault(m, []).append((xlo, xhi))

    def blocked(m: int, x: int) -> bool:
        return any(lo <= x < hi for lo, hi in perp_by_c.get(m, ()))

    split = perp_cuts is not None
    activations = sorted((x1, m, x2) for (m, x1, x2) in perp_cuts) if split else []
    act_i = 0
    active: dict[int, tuple[int, int]] = {}   # cut coordinate -> x-range
    comps: list[list] = []  # [lo, hi, xstart], disjoint, sorted by lo
    cuts_out, pixels_out = [], ([] if split else None)
    for x in sorted(events):
        opens_, closes_, rays_ = (sorted(lst) for lst in events[x])
        bounds = [y for iv in opens_ + closes_ for y in iv] + [r[0] for r in rays_]
        lo_b, hi_b = min(bounds), max(bounds)
        i0 = bisect_right([c[0] for c in comps], lo_b)
        if i0 > 0 and comps[i0 - 1][1] >= lo_b:
            i0 -= 1
        j0 = i0
        while j0 < len(comps) and comps[j0][0] <= hi_b:
            j0 += 1
        affected = comps[i0:j0]
        pieces = sorted([(c[0], c[1]) for c in affected] + opens_)
        for a, b in zip(pieces, pieces[1:]):
            assert a[1] <= b[0], "overlapping interior intervals"
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
        ray_ivs = []
        for y0, d in rays_:
            b_comp = _ref_containing(affected, y0, d)
            a_comp = _ref_containing(after, y0, d)
            assert b_comp is not None and a_comp is not None
            if d > 0:
                ray_ivs.append((y0, min(b_comp[1], a_comp[1])))
            else:
                ray_ivs.append((max(b_comp[0], a_comp[0]), y0))
        ray_ivs = _ref_merge_intervals(ray_ivs)
        cuts_out.extend((x, lo, hi) for lo, hi in ray_ivs)
        walls = _ref_merge_intervals(opens_ + closes_ + ray_ivs)
        survivors: dict[tuple[int, int], int] = {}
        for lo, hi, xstart in affected:
            w = _ref_overlapping_wall(walls, lo, hi)
            if w is None:
                survivors[(lo, hi)] = xstart
                continue
            assert w[0] <= lo and hi <= w[1], "wall partially covers a slab"
            if split:
                cut_ys = sorted(y for y, (x1, x2) in active.items()
                                if lo < y < hi and x1 < x <= x2)
                assert all(active[y][0] <= xstart for y in cut_ys), \
                    "cut starts inside a slab"
                ys = [lo] + cut_ys + [hi]
                pixels_out.extend((xstart, a, x, b) for a, b in zip(ys, ys[1:]))
        new_window = []
        for lo, hi in after:
            if (lo, hi) in survivors:
                new_window.append([lo, hi, survivors.pop((lo, hi))])
            else:
                assert _ref_overlapping_wall(walls, lo, hi) is not None
                new_window.append([lo, hi, x])
        assert not survivors, "surviving slab lost its interval"
        comps[i0:j0] = new_window
        while split and act_i < len(activations) and activations[act_i][0] <= x:
            x1, m, x2 = activations[act_i]
            active[m] = (x1, x2)
            act_i += 1
    assert not comps, "sweep finished with open slabs"
    return cuts_out, pixels_out


# -- the four-branch grid cover, the reference for PixelCover -------------------


class ReferenceCover:
    """The grid cover as it was before the refined grid: three prefix tables
    (cells, and the cell pairs on either side of each vertical and each
    horizontal grid line) and one query branch per shape of the spanned
    rectangle: positive area, a segment on or off a grid line, a point."""

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
