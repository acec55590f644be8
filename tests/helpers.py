"""Shared fixtures and an independent brute-force pixelation for cross-checks.

The brute-force path never touches the sweep: rays are marched point by
point, cells are unit grid cells classified by center containment, and pixels
are union-find components of cells not separated by an edge or a ray.
"""
from __future__ import annotations

import numpy as np

from rguard.aux_graph import AuxGraph, dominated
from rguard.pixelation import Pixelation
from rguard.polygon_core import (OrthoPolygon, Pt, Rect, _point_in_scaled,
                                 point_in_polygon, reflex_vertices)
from rguard.tree_decomposition import (DecompositionReport, TreeDecomposition,
                                       aux_graph_edges, validate_decomposition)

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


def turned(poly: OrthoPolygon, how: str) -> OrthoPolygon:
    """poly mirrored in x or rotated by 90 degrees, by the forward map of
    TURNS[how]."""
    fwd = TURNS[how][0]
    step = -1 if how == "mirror" else 1  # keep the ring orientation
    return OrthoPolygon([fwd(*p) for p in poly.outer[::step]],
                        [[fwd(*p) for p in h[::step]] for h in poly.holes],
                        doubled=True)


def fixture_polygons() -> list[OrthoPolygon]:
    polys = [OrthoPolygon(r) for r in SHAPES.values()]
    polys += [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    return polys


def full_lift(T: TreeDecomposition, H: AuxGraph) -> TreeDecomposition:
    """lift_to_H without the dominance reduction: each pixel of every bag is
    replaced by all the targets it contains and all the guards and
    rectangles intersecting it.  The reference for the reduced lift, for the
    DP over it and for the paper's lifted width bound."""
    n_pix = 1 + max((v for bag in T.bags for v in bag), default=0)
    per_pixel: list[list[int]] = [[] for _ in range(n_pix)]
    for t in H.targets:
        for pid in t.home_pixels:
            per_pixel[pid].append(H.tid(t.id))
    for mr in H.rects:
        for pid in mr.pixel_ids:
            per_pixel[pid].append(H.rid(mr.id))
    for g in H.guards:
        for pid in g.home_pixels:
            per_pixel[pid].append(H.gid(g.id))
    bags = []
    for bag in T.bags:
        content: set[int] = set()
        for pid in bag:
            content.update(per_pixel[pid])
        bags.append(tuple(sorted(content)))
    return TreeDecomposition(bags, list(T.tree_edges), "aux")


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


def validate_reduced_lift(H: AuxGraph, T: TreeDecomposition) -> DecompositionReport:
    """validate_decomposition of T against H minus dominated(H), with the
    kept vertices renumbered 0, 1, ... in id order; a dominated vertex left
    in a bag is a problem too."""
    targets, guards = dominated(H)
    gone = targets | {H.gid(g) for g in guards}
    keep = [v for v in range(H.n_vertices) if v not in gone]
    new_id = {v: i for i, v in enumerate(keep)}
    _n, edges = aux_graph_edges(H)
    sub_edges = [(new_id[a], new_id[b]) for a, b in edges
                 if a in new_id and b in new_id]
    relabelled = TreeDecomposition(
        [tuple(new_id[v] for v in bag if v in new_id) for bag in T.bags],
        T.tree_edges, "aux")
    rep = validate_decomposition(len(keep), sub_edges, relabelled)
    stray = gone & {v for bag in T.bags for v in bag}
    rep.problems += [f"dominated vertex {v} in a bag" for v in sorted(stray)]
    return rep


def nonthin_plus() -> OrthoPolygon:
    """Thick plus with a notch whose rays cross the center: not thin."""
    ring = [(4, 0), (8, 0), (8, 4), (10, 4), (10, 5), (12, 5), (12, 6),
            (10, 6), (10, 8), (8, 8), (8, 12), (4, 12), (4, 8), (0, 8),
            (0, 4), (4, 4)]
    return OrthoPolygon(ring)


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
            if _point_in_scaled(poly, 2 * i + 1, 2 * j + 1):
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
