"""Shared fixtures and an independent brute-force pixelation for cross-checks.

The brute-force path never touches the sweep: rays are marched point by
point, cells are unit grid cells classified by center containment, and pixels
are union-find components of cells not separated by an edge or a ray.
"""
from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

import numpy as np

from rguard.aux_graph import AuxGraph, Reduction, dominated, reduce
from rguard.dp_solver import (DOMINATED, LIT, PENDING, PROMISED, Certificate,
                              Solution, _cons_to_set, _kind, _merge_sel)
from rguard.guard_model import (Guard, GuardTask, TargetPoint, TaskError,
                                _PointSet)
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


def flood_pixels(px: Pixelation, r: Rect) -> tuple[int, ...]:
    """All pixels whose closed rectangle meets r, by a flood fill over the
    pixelation corners lying on or in r, from the pixels at r's lower-left
    corner (or containing it); the reference for `MaxRect.pixel_ids`."""
    p = (r.xmin, r.ymin)
    if p in px.corner_ids:
        stack = list(px.corner_pixels[px.corner_ids[p]])
    else:
        stack = px.locate_point(p)
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
                stack.extend(v for v in px.corner_pixels[px.corner_ids[c]]
                             if v not in found)
    return tuple(sorted(found))


# -- the priority loops, the reference for simplify_targets / simplify_guards --


def _ref_vertices(px: Pixelation) -> list[Pt]:
    return sorted({p for ring in px.poly.rings for p in ring})


def reference_targets(px: Pixelation, task: GuardTask) -> list[TargetPoint]:
    """simplify_targets as a loop per cell kind: pixel interiors, then open
    sides whose incident pixels did not fire, then corners with no fired
    incident pixel or side; `vertices` targets are the polygon vertices."""
    mode = task.target_mode
    if mode == "vertices":
        pts = []
        for v in _ref_vertices(px):
            cidx = px.corner_ids.get(v)
            if cidx is None:
                raise TaskError(f"polygon vertex {v} is not an arrangement corner")
            pts.append((v, "corner", tuple(sorted(px.corner_pixels[cidx]))))
        return [TargetPoint(i, p, k, h) for i, (p, k, h) in enumerate(pts)]

    uset = _PointSet(px, all_points=(mode == "all"),
                     boundary=(mode == "boundary"),
                     extras=task.target_points if mode == "points" else ())
    fired_pixels: dict[int, Pt] = {}
    for pid in range(px.pixel_count):
        pt = uset.interior_point(pid)
        if pt is not None:
            fired_pixels[pid] = pt
    fired_sides: dict[int, Pt] = {}
    for sid, side in enumerate(px.sides):
        incident = [p for p in (side.pix_lo, side.pix_hi) if p is not None]
        if any(p in fired_pixels for p in incident):
            continue
        pt = uset.side_point(side)
        if pt is not None:
            fired_sides[sid] = pt
    out: list[tuple[Pt, str, tuple[int, ...]]] = []
    for pid, pt in sorted(fired_pixels.items()):
        out.append((pt, "interior", (pid,)))
    for sid, pt in sorted(fired_sides.items()):
        side = px.sides[sid]
        homes = tuple(sorted(p for p in (side.pix_lo, side.pix_hi) if p is not None))
        out.append((pt, "side", homes))
    for cidx, c in enumerate(px.corners):
        if uset.corner_point(cidx) is None:
            continue
        if any(pid in fired_pixels for pid in px.corner_pixels[cidx]):
            continue
        if any(sid in fired_sides for sid in _ref_corner_sides(px, cidx)):
            continue
        out.append((c, "corner", tuple(sorted(px.corner_pixels[cidx]))))
    out.sort()
    return [TargetPoint(i, p, k, h) for i, (p, k, h) in enumerate(out)]


def reference_guards(px: Pixelation, task: GuardTask) -> list[Guard]:
    """simplify_guards as a loop per cell kind: corners, then open sides with
    no endpoint in Γ, then pixel interiors with no corner or side point in
    Γ; pixel-guard homes come from the corner points of the pixel."""
    point_modes = [m for m in task.guard_modes
                   if m in ("all-points", "boundary-points", "vertices", "points")]
    pts: list[tuple[Pt, str, tuple[int, ...]]] = []
    if point_modes:
        extras = list(task.guard_points if "points" in point_modes else ())
        if "vertices" in point_modes:
            extras.extend(_ref_vertices(px))
        gset = _PointSet(px, all_points="all-points" in point_modes,
                         boundary="boundary-points" in point_modes,
                         extras=tuple(extras))
        fired_corners: set[int] = set()
        for cidx, c in enumerate(px.corners):
            if gset.corner_point(cidx) is not None:
                fired_corners.add(cidx)
                pts.append((c, "corner", tuple(sorted(px.corner_pixels[cidx]))))
        fired_sides: dict[int, Pt] = {}
        for sid, side in enumerate(px.sides):
            if side.corner_a in fired_corners or side.corner_b in fired_corners:
                continue
            pt = gset.side_point(side)
            if pt is not None:
                fired_sides[sid] = pt
                homes = tuple(sorted(p for p in (side.pix_lo, side.pix_hi)
                                     if p is not None))
                pts.append((pt, "side", homes))
        for pid in range(px.pixel_count):
            cids = [px.corner_ids[c] for c in _ref_pixel_corner_points(px, pid)]
            if any(ci in fired_corners for ci in cids):
                continue
            if any(sid in fired_sides for sid in px.pixel_sides[pid]):
                continue
            pt = gset.interior_point(pid)
            if pt is not None:
                pts.append((pt, "interior", (pid,)))
    pts.sort()

    out: list[Guard] = []
    for p, _kind, homes in pts:
        out.append(Guard(len(out), "point", p, None, homes))
    pixel_ids: list[int] = []
    if "all-pixel-guards" in task.guard_modes:
        pixel_ids = list(range(px.pixel_count))
    elif "pixels" in task.guard_modes:
        for pid in task.guard_pixels:
            if not 0 <= pid < px.pixel_count:
                raise TaskError(f"pixel-guard id {pid} out of range")
        pixel_ids = sorted(set(task.guard_pixels))
    for pid in pixel_ids:
        homes = set()
        for c in _ref_pixel_corner_points(px, pid):
            homes.update(px.corner_pixels[px.corner_ids[c]])
        out.append(Guard(len(out), "pixel", None, pid, tuple(sorted(homes))))
    return out


def _ref_pixel_corner_points(px: Pixelation, pid: int):
    r = px.pixels[pid]
    return ((r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmin, r.ymax), (r.xmax, r.ymax))


def _ref_corner_sides(px: Pixelation, cidx: int) -> list[int]:
    out = []
    for pid in px.corner_pixels[cidx]:
        for sid in px.pixel_sides[pid]:
            s = px.sides[sid]
            if s.corner_a == cidx or s.corner_b == cidx:
                out.append(sid)
    return out


def cell_points(px: Pixelation) -> list[Pt]:
    """Doubled points in cells of every kind: corners, open sides (midpoints
    and off-centre), pixel interiors (centers and off-centre) and polygon
    vertices."""
    pts = list(px.corners[::3])
    for s in px.sides[::2]:
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


def nice_tree_lift(T: TreeDecomposition, H: AuxGraph) -> TreeDecomposition:
    """full_lift without the targets and guards of dominated(H), with every
    rectangle kept and no bag merged: the input of nice_tree_solve in the
    differential check of lift_to_H and solve_r2ds."""
    targets, _rects, guards = dominated(H)
    gone = {H.tid(t) for t in targets} | {H.gid(g) for g in guards}
    return TreeDecomposition(
        [tuple(v for v in bag if v not in gone) for bag in full_lift(T, H).bags],
        list(T.tree_edges), "aux")


def two_pass_lift(T: TreeDecomposition, H: AuxGraph,
                  red: Reduction) -> TreeDecomposition:
    """lift_to_H in two passes, the reference for its one-pass walk: first
    the lifted content of every bag of T without the vertices that red
    leaves out, then, in pre-order from bag 0, every tree edge one of whose
    sides is a subset of the other contracted into groups of bags, each
    group's top containing all its members."""
    gone = lifted_away(H, red)
    contents = [{v for v in bag if v not in gone} for bag in full_lift(T, H).bags]
    order, parent = T.rooted()
    group = [0] * len(contents)
    top = [0]
    for b in order[1:]:
        g = group[parent[b]]
        if contents[b] <= contents[top[g]]:
            group[b] = g
        elif contents[top[g]] < contents[b]:
            group[b] = g
            top[g] = b
        else:
            group[b] = len(top)
            top.append(b)
    edges = sorted((min(ga, gb), max(ga, gb)) for ga, gb in
                   ((group[a], group[b]) for a, b in T.tree_edges) if ga != gb)
    return TreeDecomposition([tuple(sorted(contents[b])) for b in top],
                             edges, "aux")


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
    rep.problems += [f"left-out vertex {v} in a bag" for v in sorted(stray)]
    return rep


# -- the nice-tree DP, the reference for dp_solver.solve_r2ds -------------------


def nice_tree_solve(H: AuxGraph, T: TreeDecomposition) -> Solution:
    """The DP of solve_r2ds over a nice tree: the decomposition is expanded
    into leaf, introduce, forget and join nodes, one vertex per introduce or
    forget, and a key holds the states of the bag's vertices in sorted
    order, so every introduce and forget re-packs it.  The reference for
    solve_r2ds: status, size and witness must be equal; the chosen guards
    may differ."""
    nu = len(H.targets)
    for ti in range(nu):
        if not any(H.rg[ri] for ri in H.ur[ti]):
            return Solution("infeasible", 0, [], [], witness_target=ti)
    if nu == 0:
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
    chosen = sorted(_cons_to_set(sel))
    assert value == len(chosen)
    index_of = {gi: k for k, gi in enumerate(chosen)}
    certs = []
    for ti in range(nu):
        ri, gi = next((ri, gi) for ri in H.ur[ti] for gi in H.rg[ri]
                      if gi in index_of)
        certs.append(Certificate(ti, ri, index_of[gi]))
    return Solution("optimal", value, [H.guards[gi] for gi in chosen], certs)


def _nice_tree(T: TreeDecomposition) -> list[tuple]:
    """Leaf/intro/forget/join nodes of T rooted at bag 0, children before
    parents, ending in an empty root bag.  Every child is brought to its
    parent's bag (forgets, then introduces) before the children are joined."""
    order, parent = T.rooted()
    children: list[list[int]] = [[] for _ in T.bags]
    for v in order[1:]:
        children[parent[v]].append(v)
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
    for b in reversed(order):
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
    ridx, rbag = chain(*done[0], ())
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
    kind, i = _kind(H, v)
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
    kind, _i = _kind(H, v)
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
        kind = _kind(H, u)[0]
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
                 _merge_sel(sa, sb))
    return out


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
        "corners": list(px.corners),
        "corner_ids": dict(px.corner_ids),
        "corner_pixels": [list(v) for v in px.corner_pixels],
        "corner_interior": list(px.corner_interior),
        "sides": [(s.axis, s.c, s.lo, s.hi, s.corner_a, s.corner_b,
                   s.pix_lo, s.pix_hi) for s in px.sides],
        "pixel_sides": [list(v) for v in px.pixel_sides],
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
