"""Instance generators: random tree polygons, holed variants, combs of a
prescribed thinness, and the vertex-cover reduction gadget built from a drawn
planar graph.

All generators are deterministic per seed and emit polygons in original
(undoubled) integer coordinates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, Pt, Rect, _ring_area2


class GenError(ValueError):
    pass


# tries at placing one more hole before gen_holed_variant gives up
HOLE_RETRIES = 200


# -- union-of-rectangles boundary extraction -------------------------------------


def rects_union_polygon(rects: list[tuple[int, int, int, int]]) -> OrthoPolygon:
    """Boundary of a union of axis-aligned integer rectangles whose union is
    connected and touches itself nowhere (no pinch points)."""
    xs = sorted({v for r in rects for v in (r[0], r[2])})
    ys = sorted({v for r in rects for v in (r[1], r[3])})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    nx, ny = len(xs) - 1, len(ys) - 1
    inside = np.zeros((nx + 2, ny + 2), dtype=bool)  # 1-cell padding
    for x1, y1, x2, y2 in rects:
        inside[xi[x1] + 1:xi[x2] + 1, yi[y1] + 1:yi[y2] + 1] = True

    nxt: dict[Pt, Pt] = {}

    def emit(a: Pt, b: Pt) -> None:
        if a in nxt:
            raise GenError("pinched union boundary")
        nxt[a] = b

    vdiff = inside[1:, 1:-1] != inside[:-1, 1:-1]     # (nx+1, ny)
    for i, j in zip(*np.nonzero(vdiff)):
        x = xs[i]
        a, b = (x, ys[j]), (x, ys[j + 1])
        if inside[i + 1][j + 1]:      # interior east: downward edge
            emit(b, a)
        else:                          # interior west: upward edge
            emit(a, b)
    hdiff = inside[1:-1, 1:] != inside[1:-1, :-1]     # (nx, ny+1)
    for i, j in zip(*np.nonzero(hdiff)):
        y = ys[j]
        a, b = (xs[i], y), (xs[i + 1], y)
        if inside[i + 1][j + 1]:      # interior north: rightward
            emit(a, b)
        else:                          # interior south: leftward
            emit(b, a)

    rings = []
    used: set[Pt] = set()
    for start in sorted(nxt):
        if start in used:
            continue
        ring = [start]
        used.add(start)
        cur = nxt[start]
        while cur != start:
            ring.append(cur)
            used.add(cur)
            cur = nxt[cur]
        rings.append(_merge_collinear(ring))

    outer = [r for r in rings if _ring_area2(r) > 0]
    holes = [r for r in rings if _ring_area2(r) < 0]
    if len(outer) != 1:
        raise GenError("union is not a single connected region")
    return OrthoPolygon(outer[0], holes)


def _merge_collinear(ring: list[Pt]) -> list[Pt]:
    out = []
    m = len(ring)
    for i, p in enumerate(ring):
        a, b = ring[i - 1], ring[(i + 1) % m]
        if (a[0] == p[0] == b[0]) or (a[1] == p[1] == b[1]):
            continue
        out.append(p)
    return out


# -- random tree polygons -------------------------------------------------------


def gen_tree_polygon(pixel_count: int, seed: int) -> OrthoPolygon:
    """Random thin hole-free polygon with exactly pixel_count pixels.

    Grows a random tree of unit "rooms" on the even lattice joined by unit
    corridor cells, so the polyomino is always simple, hole-free and free of
    2x2 blocks.  Straight chains of cells merge into single pixels; the pixel
    count is 2r - 1 - sum(u) over the r rooms, where u is 1 for a leaf room,
    2 for a straight degree-2 room and 0 otherwise, and each growth step
    changes it by 0..3, so growth can stop at the target exactly.  No polygon
    has exactly 2 pixels (one reflex vertex already cuts three), hence
    pixel_count=2 is rejected.
    """
    if pixel_count < 1:
        raise GenError("pixel_count must be >= 1")
    if pixel_count == 1:
        return OrthoPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    if pixel_count == 2:
        raise GenError("no orthogonal polygon has exactly 2 pixels")
    for attempt in range(64):
        rng = random.Random(1_000_003 * seed + attempt)
        cells = _grow_maze(pixel_count, rng)
        if cells is not None:
            return rects_union_polygon([(i, j, i + 1, j + 1) for i, j in cells])
    raise GenError(f"could not grow a {pixel_count}-pixel tree polygon")


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _maze_u(dirs) -> int:
    """Uncut incident pairs of a room: both sides of a straight-through
    degree-2 room merge, a leaf merges with its sole corridor."""
    if len(dirs) == 1:
        return 1
    if len(dirs) == 2:
        (a, b) = tuple(dirs)
        return 2 if a[0] + b[0] == 0 and a[1] + b[1] == 0 else 0
    return 0


def _grow_maze(n: int, rng: random.Random):
    rooms: dict[tuple[int, int], set] = {(0, 0): set()}
    cells = {(0, 0)}
    pixels = 1
    frontier = [((0, 0), d) for d in _DIRS]  # dead entries dropped at pop

    def move_ok(R, d):
        if d in rooms[R]:
            return False
        new_room = (R[0] + 2 * d[0], R[1] + 2 * d[1])
        corridor = (R[0] + d[0], R[1] + d[1])
        if new_room in cells or corridor in cells:
            return False
        for d2 in _DIRS:
            if d2 != (-d[0], -d[1]) and \
                    (new_room[0] + d2[0], new_room[1] + d2[1]) in cells:
                return False  # a foreign corridor would close a cycle
        return True

    def apply_move(R, d):
        nonlocal pixels
        new_room = (R[0] + 2 * d[0], R[1] + 2 * d[1])
        pixels += 1 - (_maze_u(rooms[R] | {d}) - _maze_u(rooms[R]))
        rooms[R].add(d)
        rooms[new_room] = {(-d[0], -d[1])}
        cells.add((R[0] + d[0], R[1] + d[1]))
        cells.add(new_room)
        for d2 in _DIRS:
            if d2 != (-d[0], -d[1]):
                frontier.append((new_room, d2))

    endgame_steps = 0
    while pixels < n:
        gap = n - pixels
        if gap > 3:
            while frontier:
                k = rng.randrange(len(frontier))
                frontier[k], frontier[-1] = frontier[-1], frontier[k]
                R, d = frontier.pop()
                if move_ok(R, d):
                    delta = 1 - (_maze_u(rooms[R] | {d}) - _maze_u(rooms[R]))
                    if pixels + delta <= n:
                        apply_move(R, d)
                    break
            else:
                return None
            continue
        # endgame: pick step sizes that cannot strand the remaining gap
        endgame_steps += 1
        if endgame_steps > 64:
            return None
        prefs = {1: (1, 0), 2: (2, 0, 1), 3: (3, 1, 2, 0)}[gap]
        advanced = False
        for want in prefs:
            for R, d in frontier:
                if not move_ok(R, d):
                    continue
                delta = 1 - (_maze_u(rooms[R] | {d}) - _maze_u(rooms[R]))
                if delta == want:
                    apply_move(R, d)
                    advanced = True
                    break
            if advanced:
                break
        if not advanced:
            return None
    return cells


# -- holed variants --------------------------------------------------------------


def gen_holed_variant(poly: OrthoPolygon, holes: int, seed: int) -> OrthoPolygon:
    """Punch unit square holes strictly inside pixels of size >= 3x3
    (original units).  Raises after HOLE_RETRIES tries when no placement
    fits."""
    if holes < 0:
        raise GenError("holes must be >= 0")
    if holes == 0:
        return poly
    px = build_pixelation(poly)
    big = [r for r in px.pixels if r.width >= 6 and r.height >= 6]
    if not big:
        raise GenError("no pixel large enough to hold a hole")
    rng = random.Random(seed)
    chosen: list[tuple[int, int, int, int]] = []
    tries = 0
    while len(chosen) < holes:
        tries += 1
        if tries > HOLE_RETRIES:
            raise GenError(f"hole placement failed after {HOLE_RETRIES} retries")
        r = big[rng.randrange(len(big))]
        ax = rng.randrange(r.xmin // 2 + 1, r.xmax // 2 - 1)
        ay = rng.randrange(r.ymin // 2 + 1, r.ymax // 2 - 1)
        hole = (ax, ay, ax + 1, ay + 1)
        clear = all(not (hole[0] - 1 < h[2] and h[0] < hole[2] + 1
                         and hole[1] - 1 < h[3] and h[1] < hole[3] + 1)
                    for h in chosen)
        if clear:
            chosen.append(hole)
    outer = [(x // 2, y // 2) for x, y in poly.outer]
    hole_rings = [[(x // 2, y // 2) for x, y in h] for h in poly.holes]
    for ax, ay, bx, by in chosen:
        hole_rings.append([(ax, ay), (ax, by), (bx, by), (bx, ay)])
    return OrthoPolygon(outer, hole_rings)


# -- combs of prescribed thinness --------------------------------------------------


def gen_ktin_polygon(K: int, teeth: int, seed: int) -> OrthoPolygon:
    """Polygon whose thinness estimate is exactly K: a left staircase creates
    K full-width horizontal cuts, bottom notches create many vertical cuts,
    and their crossings form a (K-1)-row grid of interior corners.

    K=1 delegates to the tree-polygon generator.
    """
    if K < 1:
        raise GenError("K must be >= 1")
    if teeth < 1:
        raise GenError("teeth must be >= 1")
    if K == 1:
        return gen_tree_polygon(max(3, 2 * teeth + 1), seed)
    rng = random.Random(seed)
    H = K + 2
    gaps = [rng.choice((2, 3)) for _ in range(teeth)]
    notch_x = []
    a = K + 1
    for g in gaps:
        notch_x.append(a)
        a += g
    W = notch_x[-1] + 3
    ring: list[Pt] = [(K, 0)]
    for nx_ in notch_x:
        ring += [(nx_, 0), (nx_, 1), (nx_ + 1, 1), (nx_ + 1, 0)]
    ring += [(W, 0), (W, H), (0, H), (0, K)]
    for j in range(K, 0, -1):
        # step at height j: wall moves from x = K - j to K - j + 1
        ring += [(K - j + 1, j), (K - j + 1, j - 1)]
    ring = ring[:-1]  # final step bottom coincides with the start vertex
    return OrthoPolygon(ring)


# -- vertex-cover hardness gadget ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class DrawnGraph:
    """Planar orthogonal drawing: vertices at integer points, edges with at
    most one bend, segments axis-parallel and interior-disjoint, max degree 3.
    """
    vertices: dict[str, Pt]
    edges: tuple[tuple[str, str, Pt | None], ...]

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DrawnGraph":
        vs = {str(k): (int(v[0]), int(v[1])) for k, v in obj["vertices"].items()}
        es = []
        for e in obj["edges"]:
            bend = tuple(e["bend"]) if e.get("bend") else None
            es.append((str(e["u"]), str(e["v"]), bend))
        g = cls(vs, tuple(es))
        g.validate()
        return g

    def to_json_obj(self) -> dict:
        return {"vertices": {k: list(v) for k, v in sorted(self.vertices.items())},
                "edges": [{"u": u, "v": v, "bend": list(b) if b else None}
                          for u, v, b in self.edges]}

    def segments(self) -> list[tuple[Pt, Pt]]:
        segs = []
        for u, v, bend in self.edges:
            a, b = self.vertices[u], self.vertices[v]
            if bend is None:
                segs.append((a, b))
            else:
                segs.append((a, bend))
                segs.append((bend, b))
        return segs

    def validate(self) -> None:
        deg: dict[str, int] = {k: 0 for k in self.vertices}
        for u, v, bend in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise GenError(f"edge ({u},{v}) references unknown vertex")
            deg[u] += 1
            deg[v] += 1
        bad = [k for k, d in deg.items() if d > 3]
        if bad:
            raise GenError(f"vertices {bad} exceed degree 3")
        segs = self.segments()
        for a, b in segs:
            if a[0] != b[0] and a[1] != b[1]:
                raise GenError(f"segment {a}-{b} is not axis-parallel")
            if a == b:
                raise GenError("zero-length segment")
        for i, s in enumerate(segs):
            for t in segs[i + 1:]:
                if _segments_conflict(s, t):
                    raise GenError(f"segments {s} and {t} overlap or cross")

    def faces_bounded(self) -> int:
        """Bounded face count of the (planar) graph via Euler's formula."""
        comp = _component_count(self.vertices.keys(), self.edges)
        return len(self.edges) - len(self.vertices) + comp


def _component_count(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _b in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in parent})


def _segments_conflict(s, t) -> bool:
    """Do two axis-parallel segments share more than a common endpoint?"""
    pts = _seg_intersection_points(s, t)
    if not pts:
        return False
    if len(pts) > 1:
        return True
    p = pts[0]
    return not (p in s and p in t)


def _seg_intersection_points(s, t):
    (ax, ay), (bx, by) = s
    (cx, cy), (dx, dy) = t
    sxlo, sxhi = min(ax, bx), max(ax, bx)
    sylo, syhi = min(ay, by), max(ay, by)
    txlo, txhi = min(cx, dx), max(cx, dx)
    tylo, tyhi = min(cy, dy), max(cy, dy)
    xlo, xhi = max(sxlo, txlo), min(sxhi, txhi)
    ylo, yhi = max(sylo, tylo), min(syhi, tyhi)
    if xlo > xhi or ylo > yhi:
        return []
    if xlo == xhi and ylo == yhi:
        return [(xlo, ylo)]
    return [(xlo, ylo), (xhi, yhi)]  # overlapping collinear: two witnesses


@dataclass(slots=True)
class HardnessMeta:
    """Where the construction put things, in original coordinates."""
    s_v: dict[str, Rect]                    # vertex -> the shared gadget side
    vertex_rects: dict[str, tuple[Rect, ...]]    # kept gadget pixels
    edge_rects: dict[tuple[str, str], Rect]
    subdivided_vertices: int


def gen_hardness_instance(g: DrawnGraph) -> tuple[OrthoPolygon, HardnessMeta]:
    """Thicken a 1-bend drawing into the reduction polygon.

    Every edge is subdivided twice (one subdivision at the bend, if any) and
    the grid is scaled so lines sit 2n apart.  Each vertex becomes a domino
    of two unit pixels whose shared side s_v separates opposite attachments:
    the domino is stacked vertically in general (left edges attach to the
    upper pixel, right edges to the lower) and horizontally when the vertex
    has both a top and a bottom edge (top attaches to the west pixel, bottom
    to the east).  That misalignment forces every straight chain of edge
    rectangles out of line, so nothing outside R_e, R_v, R_w can guard R_e.
    Attachment flushness propagates unit offsets along rows and columns; a
    gadget pixel with no attachment is omitted.
    """
    g.validate()
    verts: dict[str, Pt] = {k: (4 * x, 4 * y) for k, (x, y) in g.vertices.items()}
    edges_s: list[tuple[str, str]] = []
    sub_i = 0
    for u, v, bend in g.edges:
        a, b = verts[u], verts[v]
        names = [f"_s{sub_i}", f"_s{sub_i + 1}"]
        if bend is not None:
            mid = (4 * bend[0], 4 * bend[1])
            verts[names[0]], verts[names[1]] = _seg_point(a, mid), mid
        else:
            p1 = _seg_point(a, b)
            verts[names[0]], verts[names[1]] = p1, _seg_point(p1, b)
        edges_s += [(u, names[0]), (names[0], names[1]), (names[1], v)]
        sub_i += 2

    n_s = len(verts)
    F = 2 * n_s
    slots: dict[str, set[str]] = {k: set() for k in verts}
    for u, v in edges_s:
        ux, uy = verts[u]
        vx, vy = verts[v]
        if uy == vy:
            w, e = (u, v) if ux < vx else (v, u)
            slots[w].add("right")
            slots[e].add("left")
        else:
            s, t = (u, v) if uy < vy else (v, u)
            slots[s].add("top")
            slots[t].add("bottom")
    horizontal = {k for k, s in slots.items() if "top" in s and "bottom" in s}

    # flushness constraints propagate unit offsets along rows and columns
    dy = _propagate_offsets(
        verts, edges_s, axis=1,
        shift=lambda w, e: 1 if e not in horizontal else 0)
    dx = _propagate_offsets(
        verts, edges_s, axis=0,
        shift=lambda s, t: 1 if t in horizontal else 0)
    if any(abs(d) > n_s for d in list(dx.values()) + list(dy.values())):
        raise GenError("offsets exceed the scaling margin")

    X = {k: F * verts[k][0] + dx[k] for k in verts}
    B = {k: F * verts[k][1] + dy[k] for k in verts}

    rects: list[tuple[int, int, int, int]] = []
    meta = HardnessMeta({}, {}, {}, sub_i)
    for k in sorted(verts):
        x, b = X[k], B[k]
        if k in horizontal:
            first = (x, b, x + 1, b + 1)          # west: left/top slots
            second = (x + 1, b, x + 2, b + 1)     # east: right/bottom slots
            sv = Rect(x + 1, b, x + 1, b + 1)
            first_needed = slots[k] & {"left", "top"}
            second_needed = slots[k] & {"right", "bottom"}
        else:
            first = (x, b, x + 1, b + 1)          # lower: right/bottom slots
            second = (x, b + 1, x + 1, b + 2)     # upper: left/top slots
            sv = Rect(x, b + 1, x + 1, b + 1)
            first_needed = slots[k] & {"right", "bottom"}
            second_needed = slots[k] & {"left", "top"}
        kept = []
        if first_needed or not second_needed:
            rects.append(first)
            kept.append(Rect(*first))
        if second_needed:
            rects.append(second)
            kept.append(Rect(*second))
        meta.vertex_rects[k] = tuple(kept)
        meta.s_v[k] = sv

    for u, v in edges_s:
        ux, uy = verts[u]
        vx, vy = verts[v]
        if uy == vy:
            w, e = (u, v) if ux < vx else (v, u)
            wwidth = 2 if w in horizontal else 1
            r = (X[w] + wwidth, B[w], X[e], B[w] + 1)
            expect = B[e] if e in horizontal else B[e] + 1
            if B[w] != expect:
                raise GenError("misaligned horizontal attachment")
        else:
            s, t = (u, v) if uy < vy else (v, u)
            sheight = 1 if s in horizontal else 2
            r = (X[s], B[s] + sheight, X[s] + 1, B[t])
            expect = X[t] + 1 if t in horizontal else X[t]
            if X[s] != expect:
                raise GenError("misaligned vertical attachment")
        if r[0] >= r[2] or r[1] >= r[3]:
            raise GenError("degenerate edge rectangle; drawing too cramped")
        rects.append(r)
        meta.edge_rects[(u, v)] = Rect(*r)
    return rects_union_polygon(rects), meta


def _propagate_offsets(verts, edges_s, axis: int, shift):
    """BFS offset assignment along the constraint forest of one axis.

    axis=1: along horizontal edges, dy[w] = dy[e] + shift(w, e) with w the
    west endpoint; axis=0: along vertical edges, dx[s] = dx[t] + shift(s, t)
    with s the south endpoint.
    """
    adj: dict[str, list[tuple[str, int]]] = {k: [] for k in verts}
    for u, v in edges_s:
        ux, uy = verts[u]
        vx, vy = verts[v]
        if axis == 1 and uy == vy:         # horizontal edge constrains dy
            w, e = (u, v) if ux < vx else (v, u)
            d = shift(w, e)
            adj[w].append((e, -d))
            adj[e].append((w, +d))
        elif axis == 0 and ux == vx:       # vertical edge constrains dx
            s, t = (u, v) if uy < vy else (v, u)
            d = shift(s, t)
            adj[s].append((t, -d))
            adj[t].append((s, +d))
    out: dict[str, int] = {}
    for k in sorted(verts):
        if k in out:
            continue
        out[k] = 0
        dq = [k]
        while dq:
            a = dq.pop()
            for b, d in adj[a]:
                if b in out:
                    if out[b] != out[a] + d:
                        raise GenError("inconsistent attachment offsets")
                else:
                    out[b] = out[a] + d
                    dq.append(b)
    return out


def _seg_point(a: Pt, b: Pt) -> Pt:
    """An interior lattice point of the (axis-parallel) segment a-b, at a
    third of the way when possible."""
    if a[0] == b[0]:
        d = b[1] - a[1]
        step = max(1, abs(d) // 3) * (1 if d > 0 else -1)
        return (a[0], a[1] + step)
    d = b[0] - a[0]
    step = max(1, abs(d) // 3) * (1 if d > 0 else -1)
    return (a[0] + step, a[1])


# -- fixture drawings ----------------------------------------------------------------


def fixture_graph(name: str) -> DrawnGraph:
    """Hand-drawn 1-bend fixtures: edge, p3, k3, c4 and a 6-vertex cubic
    planar graph (the triangular prism)."""
    data = _FIXTURES[name]
    return DrawnGraph.from_json_obj(data)


_FIXTURES = {
    "edge": {
        "vertices": {"a": [0, 0], "b": [2, 0]},
        "edges": [{"u": "a", "v": "b", "bend": None}],
    },
    "p3": {
        "vertices": {"a": [0, 0], "b": [2, 0], "c": [4, 0]},
        "edges": [{"u": "a", "v": "b", "bend": None},
                  {"u": "b", "v": "c", "bend": None}],
    },
    "k3": {
        "vertices": {"a": [0, 0], "b": [2, 0], "c": [0, 2]},
        "edges": [{"u": "a", "v": "b", "bend": None},
                  {"u": "a", "v": "c", "bend": None},
                  {"u": "b", "v": "c", "bend": [2, 2]}],
    },
    "c4": {
        "vertices": {"a": [0, 0], "b": [2, 0], "c": [2, 2], "d": [0, 2]},
        "edges": [{"u": "a", "v": "b", "bend": None},
                  {"u": "b", "v": "c", "bend": None},
                  {"u": "c", "v": "d", "bend": None},
                  {"u": "d", "v": "a", "bend": None}],
    },
    # triangular prism: outer square a-b-y-x, inner c (adj a,b), z (adj x,y)
    "prism": {
        "vertices": {"a": [2, 0], "b": [8, 2], "c": [4, 2],
                     "x": [0, 6], "y": [6, 8], "z": [4, 6]},
        "edges": [{"u": "a", "v": "b", "bend": [8, 0]},
                  {"u": "b", "v": "y", "bend": [8, 8]},
                  {"u": "y", "v": "x", "bend": [0, 8]},
                  {"u": "x", "v": "a", "bend": [0, 0]},
                  {"u": "a", "v": "c", "bend": [2, 2]},
                  {"u": "b", "v": "c", "bend": None},
                  {"u": "y", "v": "z", "bend": [6, 6]},
                  {"u": "x", "v": "z", "bend": None},
                  {"u": "c", "v": "z", "bend": None}],
    },
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))
