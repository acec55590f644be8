"""The r-guarding predicate, stated once by `_cover_flat` and applied by
`coverage_matrix` and its scalar forms `r_guards`, `guard_covers_point` and
`classify_degenerate`; and on it the brute-force ground truth: dense-sample
geometric coverage, exhaustive minimum guard search, brute-force maximal
rectangles, and a tiny exact vertex-cover solver.

The oracle never touches the auxiliary graph, tree decompositions, or the
target-side simplification: targets are sampled densely on the half-integer
grid (doubled-coordinate integers), which is guarding-equivalent to the full
continuous sets.  Guard candidates default to the reduced guard set; a raw
mode samples guards densely as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from rguard.guard_model import Guard, GuardTask, TaskError, simplify_guards
from rguard.pixelation import Pixelation, build_pixelation
from rguard.polygon_core import Pt, Rect


class OracleSizeError(RuntimeError):
    """Instance exceeds the configured oracle size guard."""


@dataclass(slots=True)
class OracleResult:
    status: str                      # 'optimal' | 'infeasible'
    size: int | None
    guards: list[Guard]
    witness: Pt | None = None        # an unguardable target when infeasible


def _as_px(poly_or_px) -> Pixelation:
    if isinstance(poly_or_px, Pixelation):
        return poly_or_px
    return build_pixelation(poly_or_px)


# -- dense sampling ------------------------------------------------------------


def sample_targets(px: Pixelation, task: GuardTask) -> list[Pt]:
    """Half-integer-grid sample of the target region (doubled ints)."""
    mode = task.target_mode
    if mode == "points":
        for p in task.target_points:
            if not px.locate_point(p):
                raise OracleSizeError(f"explicit target {p} outside polygon")
        return sorted(set(task.target_points))
    pts: set[Pt] = set()
    if mode == "all":
        for r in px.pixels:
            for x in range(r.xmin, r.xmax + 1):
                for y in range(r.ymin, r.ymax + 1):
                    pts.add((x, y))
    elif mode == "boundary":
        for ring in px.poly.rings:
            m = len(ring)
            for i in range(m):
                (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
                if x1 == x2:
                    for y in range(min(y1, y2), max(y1, y2) + 1):
                        pts.add((x1, y))
                else:
                    for x in range(min(x1, x2), max(x1, x2) + 1):
                        pts.add((x, y1))
    elif mode == "vertices":
        for ring in px.poly.rings:
            pts.update(ring)
    return sorted(pts)


def sample_point_guards(px: Pixelation) -> list[Pt]:
    """Every half-integer point of P, used by the raw oracle mode."""
    pts: set[Pt] = set()
    for r in px.pixels:
        for x in range(r.xmin, r.xmax + 1):
            for y in range(r.ymin, r.ymax + 1):
                pts.add((x, y))
    return sorted(pts)


# -- the r-guarding predicate ----------------------------------------------------


def _cover_flat(px: Pixelation, gx, gy, tx, ty, allow_degenerate: bool):
    """Coverage for flat coordinate arrays of (guard point, target) pairs:
    the spanned rectangle lies inside P, and a zero-area one, unless the
    policy allows it, fattens inside P.  A half-unit (doubled +1) probe each
    way is exact: any fattening shrinks into the cells next to the segment."""
    x1, x2 = np.minimum(gx, tx), np.maximum(gx, tx)
    y1, y2 = np.minimum(gy, ty), np.maximum(gy, ty)
    cov = px.cover
    res = cov.rects_inside(x1, y1, x2, y2)
    if allow_degenerate:
        return res
    vseg = (x1 == x2) & (y1 < y2)
    if vseg.any():
        fat = (cov.rects_inside(x1 - 1, y1, x2, y2)
               | cov.rects_inside(x1, y1, x2 + 1, y2))
        res = np.where(vseg, fat, res)
    hseg = (y1 == y2) & (x1 < x2)
    if hseg.any():
        fat = (cov.rects_inside(x1, y1 - 1, x2, y2)
               | cov.rects_inside(x1, y1, x2, y2 + 1))
        res = np.where(hseg, fat, res)
    # coincident points: a point always fattens inside its pixel
    return res | ((x1 == x2) & (y1 == y2))


def coverage_matrix(px: Pixelation, guards: list[Guard], targets: list[Pt],
                    allow_degenerate: bool) -> np.ndarray:
    """(guards x targets) boolean coverage, batched in bounded chunks.  A pixel
    guard stands at its point nearest the target, which spans the least."""
    n = len(targets)
    tx = np.array([p[0] for p in targets], dtype=np.int64)
    ty = np.array([p[1] for p in targets], dtype=np.int64)
    mat = np.zeros((len(guards), n), dtype=bool)
    chunk = max(1, 2_000_000 // max(n, 1))
    for lo in range(0, len(guards), chunk):
        block = guards[lo:lo + chunk]
        m = len(block)
        gx = np.empty((m, n), dtype=np.int64)
        gy = np.empty((m, n), dtype=np.int64)
        for i, g in enumerate(block):
            if g.kind == "point":
                gx[i] = g.location[0]
                gy[i] = g.location[1]
            else:
                r = px.pixels[g.pixel]
                np.clip(tx, r.xmin, r.xmax, out=gx[i])
                np.clip(ty, r.ymin, r.ymax, out=gy[i])
        flat = _cover_flat(px, gx.ravel(), gy.ravel(),
                           np.tile(tx, m), np.tile(ty, m), allow_degenerate)
        mat[lo:lo + m] = flat.reshape(m, n)
    return mat


def r_guards(px: Pixelation, g: Pt, p: Pt, allow_degenerate: bool) -> bool:
    """Does the point g r-guard the point p (see `_cover_flat`)."""
    for what, q in (("guard", g), ("target", p)):
        if not px.cover.point_inside(*q):
            raise TaskError(f"{what} point {q} outside the polygon")
    return bool(_cover_flat(px, [g[0]], [g[1]], [p[0]], [p[1]],
                            allow_degenerate)[0])


def guard_covers_point(px: Pixelation, guard: Guard, p: Pt,
                       allow_degenerate: bool) -> bool:
    """One cell of `coverage_matrix`: does a guard of either kind cover p."""
    return bool(coverage_matrix(px, [guard], [p], allow_degenerate)[0, 0])


def classify_degenerate(px: Pixelation, seg: Rect) -> bool:
    """True iff no positive-area rectangle inside P contains the segment."""
    if not seg.is_degenerate_shape():
        raise ValueError("classify_degenerate expects a zero-area rectangle")
    if not px.cover.rect_inside(seg):
        raise ValueError("segment lies outside the polygon")
    return not _cover_flat(px, [seg.xmin], [seg.ymin], [seg.xmax], [seg.ymax],
                           False)[0]


# -- exact minimum guard search ----------------------------------------------------


def oracle_min_guards(poly_or_px, task: GuardTask, max_pixels: int = 40,
                      raw_guards: bool = False) -> OracleResult:
    """Exact minimum by set-cover branch and bound over the geometric
    coverage matrix.  `max_pixels` guards against oversized instances; raise
    it deliberately for the few large cross-check fixtures."""
    px = _as_px(poly_or_px)
    if px.pixel_count > max_pixels:
        raise OracleSizeError(f"{px.pixel_count} pixels exceed the oracle "
                              f"limit of {max_pixels}")
    if raw_guards:
        guards = [Guard(i, "point", p, None, ())
                  for i, p in enumerate(sample_point_guards(px))]
    else:
        guards = simplify_guards(px, task)
    targets = sample_targets(px, task)
    if not targets:
        return OracleResult("optimal", 0, [])
    if not guards:
        return OracleResult("infeasible", None, [], witness=targets[0])

    mat = coverage_matrix(px, guards, targets, task.allow_degenerate)
    uncovered = ~mat.any(axis=0)
    if uncovered.any():
        return OracleResult("infeasible", None, [],
                            witness=targets[int(np.argmax(uncovered))])

    # Reduce: unique target columns, then subset-minimal columns only.
    cols = np.unique(mat, axis=1)
    col_masks = sorted({_bits(cols[:, j]) for j in range(cols.shape[1])})
    keep = []
    for i, c in enumerate(col_masks):
        if not any(j != i and (c2 & c) == c2 for j, c2 in enumerate(col_masks)):
            keep.append(c)
    col_masks = keep

    # Guard masks over the reduced targets; drop dominated guards.
    gmasks = []
    for gi in range(len(guards)):
        m = 0
        for t, c in enumerate(col_masks):
            if (c >> gi) & 1:
                m |= 1 << t
        gmasks.append(m)
    order = sorted(range(len(guards)), key=lambda i: (-gmasks[i].bit_count(), i))
    alive = []
    for i in order:
        if gmasks[i] and not any((gmasks[i] & ~gmasks[j]) == 0 for j in alive):
            alive.append(i)
    alive.sort()

    universe = (1 << len(col_masks)) - 1
    chosen = _min_cover([gmasks[i] for i in alive], universe)
    picked = sorted(alive[i] for i in chosen)
    return OracleResult("optimal", len(picked), [guards[i] for i in picked])


def _bits(col: np.ndarray) -> int:
    m = 0
    for i in np.flatnonzero(col):
        m |= 1 << int(i)
    return m


def _min_cover(masks: list[int], universe: int) -> list[int]:
    """Exact minimum set cover by iterative-deepening branch and bound."""
    nt = universe.bit_count()
    cover_by_t: list[list[int]] = [[] for _ in range(nt)]
    for gi, m in enumerate(masks):
        mm = m
        while mm:
            b = mm & -mm
            cover_by_t[b.bit_length() - 1].append(gi)
            mm ^= b

    def lower_bound(uncov: int) -> int:
        cnt = 0
        rem = uncov
        while rem:
            t = _rarest(rem)
            hit = 0
            for gi in cover_by_t[t]:
                hit |= masks[gi]
            rem &= ~hit
            cnt += 1
        return cnt

    def _rarest(rem: int) -> int:
        best_t, best_n = -1, 1 << 30
        mm = rem
        while mm:
            b = mm & -mm
            t = b.bit_length() - 1
            n = sum(1 for gi in cover_by_t[t] if masks[gi] & rem)
            if n < best_n:
                best_t, best_n = t, n
            mm ^= b
        return best_t

    failed: dict[int, int] = {}

    def dfs(uncov: int, budget: int) -> list[int] | None:
        if uncov == 0:
            return []
        if budget == 0 or failed.get(uncov, -1) >= budget:
            return None
        if lower_bound(uncov) > budget:
            failed[uncov] = budget
            return None
        t = _rarest(uncov)
        cands = [gi for gi in cover_by_t[t] if masks[gi] & uncov]
        cands.sort(key=lambda gi: (-(masks[gi] & uncov).bit_count(), gi))
        for gi in cands:
            res = dfs(uncov & ~masks[gi], budget - 1)
            if res is not None:
                return [gi] + res
        failed[uncov] = budget
        return None

    for k in range(len(masks) + 1):
        res = dfs(universe, k)
        if res is not None:
            return res
    raise RuntimeError("unreachable: universe is coverable")


# -- brute-force maximal rectangles --------------------------------------------------


def oracle_max_rects(poly_or_px, max_pixels: int = 40) -> list[tuple[Rect, bool]]:
    """All maximal rectangles by brute force over grid-line coordinate pairs,
    with half-unit expansion probes deciding maximality.  Degenerate maximal
    segments are tagged True."""
    px = _as_px(poly_or_px)
    if px.pixel_count > max_pixels:
        raise OracleSizeError("instance too large for the brute-force oracle")
    cov = px.cover
    xs = [int(v) for v in cov.xs]
    ys = [int(v) for v in cov.ys]
    xpairs = [(a, b) for i, a in enumerate(xs) for b in xs[i:]]
    ypairs = [(a, b) for i, a in enumerate(ys) for b in ys[i:]]
    out: list[tuple[Rect, bool]] = []
    X = np.array(xpairs, dtype=np.int64)
    for ya, yb in ypairs:
        x1, x2 = X[:, 0], X[:, 1]
        y1 = np.full(x1.shape, ya, dtype=np.int64)
        y2 = np.full(x1.shape, yb, dtype=np.int64)
        zero = (x1 == x2) & (y1 == y2)
        inside = cov.rects_inside(x1, y1, x2, y2)
        grow = (cov.rects_inside(x1 - 1, y1, x2, y2)
                | cov.rects_inside(x1, y1, x2 + 1, y2)
                | cov.rects_inside(x1, y1 - 1, x2, y2)
                | cov.rects_inside(x1, y1, x2, y2 + 1))
        maximal = inside & ~grow & ~zero
        for i in np.flatnonzero(maximal):
            r = Rect(int(x1[i]), int(y1[i]), int(x2[i]), int(y2[i]))
            out.append((r, r.is_degenerate_shape()))
    return sorted(out, key=lambda t: t[0].as_tuple())


# -- small exact vertex cover ----------------------------------------------------------


def oracle_vertex_cover(n: int, edges: list[tuple[int, int]],
                        max_vertices: int = 16) -> int:
    """Exact minimum vertex cover size by subset enumeration."""
    if n > max_vertices:
        raise OracleSizeError(f"{n} vertices exceed the vertex-cover limit")
    if not edges:
        return 0
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return k
    raise RuntimeError("unreachable")


def has_induced_c4(adj: list[list[int]]) -> bool:
    """Does the graph contain an induced 4-cycle (a 2x2 grid)?"""
    n = len(adj)
    sets = [set(a) for a in adj]
    for a in range(n):
        for b in sets[a]:
            if b <= a:
                continue
            for c in sets[b]:
                if c == a or c in sets[a]:
                    continue
                for d in sets[c]:
                    if d > a and d != b and d in sets[a] and b not in sets[d] \
                            and d not in sets[b]:
                        return True
    return False
