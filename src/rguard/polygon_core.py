"""Integer-exact orthogonal geometry: points, rectangles, polygon validation.

All coordinates are doubled at ingestion so that cell centers and side
midpoints land on integers again.  Everything downstream works in doubled
coordinates; JSON/serialization halves them back (exactly: even values
become ints, odd values become .5 floats).
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

Pt = tuple[int, int]

COORD_LIMIT = 2**31 - 1  # doubled coordinates must stay in signed 32-bit range


class PolygonError(ValueError):
    """Raised when a polygon (or point set) fails validation."""


@dataclass(frozen=True, slots=True)
class Rect:
    """Closed axis-aligned rectangle; zero width/height allowed."""

    xmin: int
    ymin: int
    xmax: int
    ymax: int

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"inverted rectangle {self!r}")

    @property
    def width(self) -> int:
        return self.xmax - self.xmin

    @property
    def height(self) -> int:
        return self.ymax - self.ymin

    @property
    def area(self) -> int:
        return self.width * self.height

    def is_degenerate_shape(self) -> bool:
        """Zero area (segment or point)."""
        return self.width == 0 or self.height == 0

    def contains_point(self, p: Pt) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        return (self.xmin <= other.xmin and other.xmax <= self.xmax
                and self.ymin <= other.ymin and other.ymax <= self.ymax)

    def intersects(self, other: "Rect") -> bool:
        """Closed intersection test (touching counts)."""
        return (self.xmin <= other.xmax and other.xmin <= self.xmax
                and self.ymin <= other.ymax and other.ymin <= self.ymax)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


def spanned_rect(a: Pt, b: Pt) -> Rect:
    """Minimum axis-aligned rectangle containing both points."""
    return Rect(min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))


@dataclass(frozen=True, slots=True)
class Issue:
    code: str
    message: str
    ring: int = -1      # -1 = polygon-level, 0 = outer, i>=1 = hole i-1
    index: int = -1     # offending vertex/edge index within the ring


@dataclass(slots=True)
class ValidationReport:
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str, ring: int = -1, index: int = -1) -> None:
        self.issues.append(Issue(code, message, ring, index))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"[{i.code}] ring {i.ring} idx {i.index}: {i.message}"
                         for i in self.issues)


def _ring_area2(ring: tuple[Pt, ...]) -> int:
    """Twice the signed shoelace area (positive = counterclockwise)."""
    s = 0
    for i, (x1, y1) in enumerate(ring):
        x2, y2 = ring[(i + 1) % len(ring)]
        s += x1 * y2 - x2 * y1
    return s


def _rotate_to_min(ring: tuple[Pt, ...]) -> tuple[Pt, ...]:
    k = ring.index(min(ring)) if ring else 0
    return ring[k:] + ring[:k]


class OrthoPolygon:
    """Orthogonal polygon with integer vertices: one outer ring (CCW) plus
    hole rings (CW).  Stores doubled coordinates; rings are canonically
    rotated to their lexicographically smallest vertex and holes sorted, so
    serialization is deterministic.
    """

    __slots__ = ("outer", "holes", "__dict__")   # __dict__ holds the caches

    def __init__(self, outer, holes=(), *, doubled: bool = False):
        f = 1 if doubled else 2
        self.outer: tuple[Pt, ...] = _rotate_to_min(
            tuple((int(x) * f, int(y) * f) for x, y in outer))
        hs = [tuple((int(x) * f, int(y) * f) for x, y in h) for h in holes]
        self.holes: tuple[tuple[Pt, ...], ...] = tuple(
            sorted((_rotate_to_min(h) for h in hs), key=lambda r: r[:1]))

    @property
    def rings(self) -> tuple[tuple[Pt, ...], ...]:
        return (self.outer,) + self.holes

    @property
    def n(self) -> int:
        """Total vertex count over all rings."""
        return sum(len(r) for r in self.rings)

    @cached_property
    def edges(self) -> tuple[list[tuple], list[tuple]]:
        """_edges_of(self), built once, for the callers that test against
        the edges again and again.  Validation calls _edges_of, so that a
        polygon it reads once keeps no copy."""
        return _edges_of(self)

    def area2(self) -> int:
        """Twice the enclosed area (holes subtracted)."""
        return _ring_area2(self.outer) + sum(_ring_area2(h) for h in self.holes)

    def bbox(self) -> Rect:
        xs = [p[0] for p in self.outer]
        ys = [p[1] for p in self.outer]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def __eq__(self, other):
        return (isinstance(other, OrthoPolygon)
                and self.outer == other.outer and self.holes == other.holes)

    def __hash__(self):
        return hash((self.outer, self.holes))

    def __repr__(self):
        return f"OrthoPolygon(n={self.n}, holes={len(self.holes)})"

    # -- serialization (original, halved scale) --

    def to_json_obj(self) -> dict:
        def ring_out(ring):
            return [[half(x), half(y)] for x, y in ring]
        return {"outer": ring_out(self.outer),
                "holes": [ring_out(h) for h in self.holes]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OrthoPolygon":
        try:
            outer = obj["outer"]
            holes = obj.get("holes", [])
        except (TypeError, KeyError) as exc:
            raise PolygonError(f"malformed polygon JSON: {exc}") from exc
        if not (isinstance(holes, list)
                and all(isinstance(r, list) for r in [outer] + holes)):
            raise PolygonError("polygon rings must be lists of points")
        for ring in [outer] + holes:
            for p in ring:
                # type(True) is bool: JSON true and false are not coordinates
                if not (isinstance(p, list) and len(p) == 2
                        and all(type(v) is int for v in p)):
                    raise PolygonError(f"non-integer polygon coordinate {p}")
        poly = cls(outer, holes)
        report = validate(poly)
        if not report.ok:
            raise PolygonError(f"invalid polygon: {report}")
        return poly

    @classmethod
    def from_json(cls, text: str) -> "OrthoPolygon":
        return cls.from_json_obj(json.loads(text))


def half(v: int):
    """Doubled coordinate back to original scale, exact."""
    return v // 2 if v % 2 == 0 else v / 2


def reflex_vertices(poly: OrthoPolygon) -> list[tuple[int, int, Pt]]:
    """(ring index, vertex index, point) for every reflex vertex.

    Assumes the canonical orientations (outer CCW, holes CW): traversal keeps
    the interior on the left, so a reflex corner is a right turn.
    """
    out = []
    for ri, ring in enumerate(poly.rings):
        m = len(ring)
        for i in range(m):
            ax, ay = ring[i - 1]
            bx, by = ring[i]
            cx, cy = ring[(i + 1) % m]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross < 0:
                out.append((ri, i, ring[i]))
    return out


def validate(poly: OrthoPolygon) -> ValidationReport:
    """Check orthogonality, simplicity, orientation and hole containment."""
    rep = ValidationReport()
    for ri, ring in enumerate(poly.rings):
        _validate_ring_local(ring, ri, rep)
    if rep.issues:
        return rep  # later checks assume locally sane rings

    # Orientation: outer CCW (positive area), holes CW (negative).
    if _ring_area2(poly.outer) <= 0:
        rep.add("orientation", "outer ring must be counterclockwise", 0)
    for hi, hole in enumerate(poly.holes):
        if _ring_area2(hole) >= 0:
            rep.add("orientation", "hole ring must be clockwise", hi + 1)

    crossings = _check_edge_disjointness(poly, rep)
    if rep.issues:
        return rep

    # Holes strictly inside the outer ring and outside each other.  With no
    # edge contacts anywhere, the point just left of a hole's first vertex
    # decides containment: it lies inside a ring iff an upward ray from it
    # crosses that ring's edges an odd number of times.  A hole nested two
    # deep or more is not named itself; the hole it is in, nested an even
    # depth, is.
    for hi, (outer, others) in enumerate(crossings):
        if not outer % 2:
            rep.add("hole-outside", "hole not inside outer ring", hi + 1)
        if others % 2:
            rep.add("hole-in-hole", "hole inside another hole", hi + 1)

    # Reflex-count identity for hole-free polygons (sanity of orientation).
    if not poly.holes and not rep.issues:
        r = len(reflex_vertices(poly))
        if r != len(poly.outer) // 2 - 2:
            rep.add("reflex-count", f"expected {len(poly.outer) // 2 - 2} "
                    f"reflex vertices, found {r}", 0)
    return rep


def _validate_ring_local(ring: tuple[Pt, ...], ri: int, rep: ValidationReport) -> None:
    m = len(ring)
    if m < 4:
        rep.add("too-few-vertices", f"ring has {m} < 4 vertices", ri)
        return
    if m % 2 != 0:
        rep.add("odd-vertex-count", "orthogonal ring needs an even vertex count", ri)
    seen = set()
    for i, p in enumerate(ring):
        if abs(p[0]) > COORD_LIMIT or abs(p[1]) > COORD_LIMIT:
            rep.add("coordinate-range", f"doubled coordinate out of range at {p}", ri, i)
        if p in seen:
            rep.add("repeated-vertex", f"vertex {p} repeats", ri, i)
        seen.add(p)
    prev_horizontal = None
    for i in range(m):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
        if x1 == x2 and y1 == y2:
            rep.add("zero-length-edge", f"edge {i} has zero length", ri, i)
            return
        if x1 != x2 and y1 != y2:
            rep.add("non-orthogonal-edge", f"edge {i} is not axis-parallel", ri, i)
            return
        horizontal = y1 == y2
        if prev_horizontal is not None and horizontal == prev_horizontal:
            rep.add("collinear-edges", f"edges {i - 1},{i} do not alternate", ri, i)
            return
        prev_horizontal = horizontal


def _edges_of(poly: OrthoPolygon):
    """(vertical edges, horizontal edges) as (coord, lo, hi, ring, idx)."""
    vert, horiz = [], []
    for ri, ring in enumerate(poly.rings):
        m = len(ring)
        for i in range(m):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
            if x1 == x2:
                vert.append((x1, min(y1, y2), max(y1, y2), ri, i))
            else:
                horiz.append((y1, min(x1, x2), max(x1, x2), ri, i))
    return vert, horiz


def _check_edge_disjointness(poly: OrthoPolygon,
                             rep: ValidationReport) -> list[tuple[int, int]]:
    """Simplicity across all rings, and per hole the number of edges of the
    outer ring and of the other holes above the point (x - 1, y), where
    (x, y) is the hole's first vertex, its leftmost lowest one.

    Collinear edges may not touch at all (alternation means consecutive edges
    are perpendicular).  Perpendicular contacts are exactly the ring corners:
    their total count must equal the vertex count; any surplus is a crossing
    or a self-touch.  Both are counted in one left-to-right sweep; doubled
    coordinates are even, so the sweep line x - 1 of a hole's count passes
    through no vertex.
    """
    vert, horiz = _edges_of(poly)

    for edges, kind in ((vert, "vertical"), (horiz, "horizontal")):
        by_coord: dict[int, list] = {}
        for e in edges:
            by_coord.setdefault(e[0], []).append(e)
        for group in by_coord.values():
            group.sort(key=lambda e: e[1])
            for a, b in zip(group, group[1:]):
                if b[1] <= a[2]:
                    rep.add("edge-overlap",
                            f"collinear {kind} edges touch or overlap", b[3], b[4])
                    return []

    # Count horizontal/vertical contacts with a left-to-right sweep; the
    # holes' horizontal edges are also kept apart.
    events = []
    for y, x1, x2, ri, _i in horiz:
        events.append((x1, 0, y, ri))    # activate
        events.append((x2, 2, y, ri))    # deactivate (after queries at x2)
    for x, y1, y2, _ri, _i in vert:
        events.append((x, 1, y1, y2))
    for hi, hole in enumerate(poly.holes):
        x, y = hole[0]
        events.append((x - 1, 3, y, hi))
    events.sort(key=itemgetter(0, 1))
    active: list[int] = []
    in_holes: list[int] = []
    crossings = [(0, 0)] * len(poly.holes)
    contacts = 0
    for _x, kind, a, b in events:
        if kind == 0:
            insort(active, a)
            if b:
                insort(in_holes, a)
        elif kind == 2:
            del active[bisect_left(active, a)]
            if b:
                del in_holes[bisect_left(in_holes, a)]
        elif kind == 1:
            contacts += bisect_right(active, b) - bisect_left(active, a)
        else:
            above = len(in_holes) - bisect_right(in_holes, a)
            crossings[b] = (len(active) - bisect_right(active, a) - above, above)
    if contacts != poly.n:
        rep.add("self-intersection",
                f"boundary touches or crosses itself "
                f"({contacts} contacts for {poly.n} vertices)")
    return crossings


def point_in_polygon(poly: OrthoPolygon, q: Pt) -> bool:
    """Closed containment of a doubled-coordinate point in P."""
    return _point_in_scaled(poly.rings, 2 * q[0], 2 * q[1])


def rect_inside(poly: OrthoPolygon, r: Rect) -> bool:
    """Closed containment r ⊆ P by direct boundary tests, O(n) per call.

    A positive-area rectangle is inside iff its center is in P and no edge
    meets its open interior.  A segment is inside iff all components of the
    segment minus the boundary are inside (sampled at component midpoints,
    which stay on the quarter-integer grid: we rescale locally by 2).
    """
    vert, horiz = poly.edges
    if r.width > 0 and r.height > 0:
        for x, y1, y2, _ri, _i in vert:
            if r.xmin < x < r.xmax and y1 < r.ymax and y2 > r.ymin:
                return False
        for y, x1, x2, _ri, _i in horiz:
            if r.ymin < y < r.ymax and x1 < r.xmax and x2 > r.xmin:
                return False
        cx, cy = r.xmin + r.xmax, r.ymin + r.ymax  # center, 4x scale
        return _point_in_scaled(poly.rings, cx, cy)
    if r.width == 0 and r.height == 0:
        return point_in_polygon(poly, (r.xmin, r.ymin))
    # segment: collect crossing coordinates along it, test component midpoints
    if r.width == 0:
        x = r.xmin
        cuts = {r.ymin, r.ymax}
        for y, x1, x2, _ri, _i in horiz:
            if x1 <= x <= x2 and r.ymin <= y <= r.ymax:
                cuts.add(y)
        for x0, y1, y2, _ri, _i in vert:
            if x0 == x:
                for y in (y1, y2):
                    if r.ymin <= y <= r.ymax:
                        cuts.add(y)
        ys = sorted(cuts)
        for a, b in zip(ys, ys[1:]):
            if not _point_in_scaled(poly.rings, 2 * x, a + b):
                return False
        return all(point_in_polygon(poly, (x, y)) for y in ys)
    # horizontal segment, mirror of the vertical case
    y = r.ymin
    cuts = {r.xmin, r.xmax}
    for x0, y1, y2, _ri, _i in vert:
        if y1 <= y <= y2 and r.xmin <= x0 <= r.xmax:
            cuts.add(x0)
    for y0, x1, x2, _ri, _i in horiz:
        if y0 == y:
            for x in (x1, x2):
                if r.xmin <= x <= r.xmax:
                    cuts.add(x)
    xs = sorted(cuts)
    for a, b in zip(xs, xs[1:]):
        if not _point_in_scaled(poly.rings, a + b, 2 * y):
            return False
    return all(point_in_polygon(poly, (x, y)) for x in xs)


def _point_in_scaled(rings: tuple[tuple[Pt, ...], ...], qx4: int,
                     qy4: int) -> bool:
    """Closed containment of a point, given at twice the doubled scale, in
    the region the rings bound."""
    inside = False
    for ring in rings:
        m = len(ring)
        for i in range(m):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
            x1, y1, x2, y2 = 2 * x1, 2 * y1, 2 * x2, 2 * y2
            if x1 == x2:
                if qx4 == x1 and min(y1, y2) <= qy4 <= max(y1, y2):
                    return True
                if (min(y1, y2) <= qy4 < max(y1, y2)) and x1 > qx4:
                    inside = not inside
            elif qy4 == y1 and min(x1, x2) <= qx4 <= max(x1, x2):
                return True
    return inside


def scale_polygon(poly: OrthoPolygon, factor: int) -> OrthoPolygon:
    """Scale all coordinates by a positive integer factor."""
    if factor < 1:
        raise PolygonError("scale factor must be >= 1")
    return OrthoPolygon(
        [(x * factor, y * factor) for x, y in poly.outer],
        [[(x * factor, y * factor) for x, y in h] for h in poly.holes],
        doubled=True)


def translate_polygon(poly: OrthoPolygon, dx: int, dy: int) -> OrthoPolygon:
    """Translate by an original-scale integer vector."""
    return OrthoPolygon(
        [(x + 2 * dx, y + 2 * dy) for x, y in poly.outer],
        [[(x + 2 * dx, y + 2 * dy) for x, y in h] for h in poly.holes],
        doubled=True)
