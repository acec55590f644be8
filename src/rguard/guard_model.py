"""Targets U, guards Γ, the exact r-guarding predicate, and the reduction of
both sets to finitely many representatives per pixel.

Both reductions are one firing pass over the cells of the pixel complex:
pixel interiors, open sides and corners.  Taking the cell kinds in a fixed
order, a cell fires when it holds a point of the set and no cell it touches
has fired before it; a fired cell keeps one point and marks every cell it
touches.  Targets take the order interior, side, corner; guards take corner,
side, interior.  Kept points are canonical: pixel centers for interiors and
side midpoints for sides (exact integers thanks to the global coordinate
doubling) when the set holds them, else the least point of the set in the
cell.  Each reduction leaves at most 4 points per pixel and preserves
optimal guard sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from rguard.pixelation import Pixelation
from rguard.polygon_core import Pt, Rect, half, spanned_rect


class TaskError(ValueError):
    """Malformed or inconsistent guard task."""


TARGET_MODES = ("all", "boundary", "vertices", "points")
GUARD_MODES = ("all-points", "boundary-points", "vertices", "points",
               "all-pixel-guards", "pixels")


@dataclass(frozen=True, slots=True)
class GuardTask:
    target_mode: str
    target_points: tuple[Pt, ...]          # doubled coordinates
    guard_modes: tuple[str, ...]
    guard_points: tuple[Pt, ...]           # doubled coordinates
    guard_pixels: tuple[int, ...]
    allow_degenerate: bool

    @classmethod
    def make(cls, target_mode="all", target_points=(), guard_modes=("all-points",),
             guard_points=(), guard_pixels=(), allow_degenerate=False,
             doubled=False) -> "GuardTask":
        f = 1 if doubled else 2
        if target_mode not in TARGET_MODES:
            raise TaskError(f"unknown target mode {target_mode!r}")
        for m in guard_modes:
            if m not in GUARD_MODES:
                raise TaskError(f"unknown guard mode {m!r}")
        return cls(target_mode,
                   tuple((x * f, y * f) for x, y in target_points),
                   tuple(guard_modes),
                   tuple((x * f, y * f) for x, y in guard_points),
                   tuple(int(p) for p in guard_pixels),
                   bool(allow_degenerate))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GuardTask":
        """Unlike `make`, coerces nothing: malformed fields raise TaskError."""
        if not isinstance(obj, dict):
            raise TaskError("task JSON must be an object")
        if not isinstance(obj.get("degenerate"), bool):
            raise TaskError("task JSON must set \"degenerate\" to true or false")
        t = _json_field(obj, "targets", dict, {})
        g = _json_field(obj, "guards", dict, {})
        pixels = _json_field(g, "pixels", list, [])
        if any(type(pid) is not int for pid in pixels):
            raise TaskError(f"pixel-guard ids {pixels!r} are not all integers")
        return cls.make(
            target_mode=t.get("mode", "all"),
            target_points=[_parse_half_point(p)
                           for p in _json_field(t, "points", list, [])],
            guard_modes=tuple(_json_field(g, "modes", list, ["all-points"])),
            guard_points=[_parse_half_point(p)
                          for p in _json_field(g, "points", list, [])],
            guard_pixels=pixels,
            allow_degenerate=obj["degenerate"],
            doubled=True)

    def to_json_obj(self) -> dict:
        return {
            "targets": {"mode": self.target_mode,
                        "points": [[half(x), half(y)] for x, y in self.target_points]},
            "guards": {"modes": list(self.guard_modes),
                       "points": [[half(x), half(y)] for x, y in self.guard_points],
                       "pixels": list(self.guard_pixels)},
            "degenerate": self.allow_degenerate,
        }


def _json_field(obj: dict, name: str, kind: type, default):
    v = obj.get(name, default)
    if not isinstance(v, kind):
        raise TaskError(f"task field {name!r} is not a {kind.__name__}: {v!r}")
    return v


def _parse_half_point(p) -> Pt:
    """JSON point with integer or half-integer coordinates -> doubled ints."""
    if not isinstance(p, list) or len(p) != 2:
        raise TaskError(f"bad point {p!r}")
    out = []
    for v in p:
        if type(v) not in (int, float) or not math.isfinite(v):
            raise TaskError(f"coordinate {v!r} is not a number")
        d = round(2 * v)
        if d != 2 * v:
            raise TaskError(f"coordinate {v!r} is not a multiple of 1/2")
        out.append(int(d))
    return (out[0], out[1])


@dataclass(frozen=True, slots=True)
class TargetPoint:
    id: int
    location: Pt
    kind: str                   # 'interior' | 'side' | 'corner'
    home_pixels: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Guard:
    id: int
    kind: str                   # 'point' | 'pixel'
    location: Pt | None
    pixel: int | None
    home_pixels: tuple[int, ...]  # pixels with non-empty closed intersection

    def json_obj(self) -> dict:
        if self.kind == "point":
            return {"type": "point", "x": half(self.location[0]),
                    "y": half(self.location[1])}
        return {"type": "pixel", "id": self.pixel}


# -- geometric predicate -------------------------------------------------------


def r_guards(px: Pixelation, g: Pt, p: Pt, allow_degenerate: bool) -> bool:
    """Does g r-guard p: the spanned rectangle stays inside P, with zero-area
    rectangles admitted only when fattenable or when the policy allows them."""
    cov = px.cover
    if not cov.point_inside(*g):
        raise TaskError(f"guard point {g} outside the polygon")
    if not cov.point_inside(*p):
        raise TaskError(f"target point {p} outside the polygon")
    r = spanned_rect(g, p)
    if not r.is_degenerate_shape():
        return cov.rect_inside(r)
    if allow_degenerate:
        return cov.rect_inside(r)
    return fattenable(px, r)


def fattenable(px: Pixelation, r: Rect) -> bool:
    """Zero-area rectangle contained in some positive-area rectangle ⊆ P.

    A half-unit (doubled +1) probe each way is exact: any fattening can be
    shrunk into the cells adjacent to the segment.
    """
    cov = px.cover
    if r.width == 0 and r.height == 0:
        return cov.point_inside(r.xmin, r.ymin)
    if r.width == 0:
        return (cov.rect_inside(Rect(r.xmin - 1, r.ymin, r.xmax, r.ymax))
                or cov.rect_inside(Rect(r.xmin, r.ymin, r.xmax + 1, r.ymax)))
    return (cov.rect_inside(Rect(r.xmin, r.ymin - 1, r.xmax, r.ymax))
            or cov.rect_inside(Rect(r.xmin, r.ymin, r.xmax, r.ymax + 1)))


# -- membership machinery for U and Γ specs -------------------------------------


class _PointSet:
    """Finite queries against 'all points', 'boundary points' or explicit
    sets: a point of the set in one cell of the pixel complex (the canonical
    one when the set holds it, else the least), or None."""

    def __init__(self, px: Pixelation, all_points: bool, boundary: bool,
                 extras: tuple[Pt, ...]):
        self.px = px
        self.all_points = all_points
        self.boundary = boundary
        self._by_pixel: dict[int, list[Pt]] = {}
        # each point maps to itself, so a kept corner of the set is the
        # task's or the polygon's own tuple, not a second copy of it
        self._extras = {pt: pt for pt in extras}
        for pt in sorted(self._extras):
            pids = px.locate_point(pt)
            if not pids:
                raise TaskError(f"point {pt} lies outside the polygon")
            for pid in pids:
                self._by_pixel.setdefault(pid, []).append(pt)

    def corner_point(self, cid: int) -> Pt | None:
        c = self.px.corners[cid]
        if self.all_points or (self.boundary and not self.px.corner_interior[cid]):
            return c
        return self._extras.get(c)

    def side_point(self, side) -> Pt | None:
        """Some point from the open side, preferring the midpoint."""
        if self.all_points or (self.boundary and side.on_boundary):
            return side.midpoint()
        pid = side.pix_lo if side.pix_lo is not None else side.pix_hi
        return min((pt for pt in self._by_pixel.get(pid, ())
                    if _on_open_side(side, pt)), default=None)

    def interior_point(self, pid: int) -> Pt | None:
        r = self.px.pixels[pid]
        if self.all_points:
            return ((r.xmin + r.xmax) // 2, (r.ymin + r.ymax) // 2)
        return min((pt for pt in self._by_pixel.get(pid, ())
                    if r.xmin < pt[0] < r.xmax and r.ymin < pt[1] < r.ymax),
                   default=None)


def _on_open_side(side, pt: Pt) -> bool:
    if side.axis == "v":
        return pt[0] == side.c and side.lo < pt[1] < side.hi
    return pt[1] == side.c and side.lo < pt[0] < side.hi


def _vertices_of(px: Pixelation) -> tuple[Pt, ...]:
    return tuple(p for ring in px.poly.rings for p in ring)


# -- simplification ---------------------------------------------------------------

_TARGET_ORDER = ("interior", "side", "corner")
_FIRED, _MARKED = 1, 2


def _fire(px: Pixelation, pset: _PointSet,
          order: tuple[str, ...]) -> list[tuple[Pt, str, tuple[int, ...]]]:
    """The points pset keeps, taking the cell kinds in `order` (see the
    module docstring), as sorted (point, kind, home pixels).

    A pixel touches its sides and corners, a side its two end corners.  The
    pixelation lists no sides per corner, so a side reads whether its end
    corners fired instead of being marked by them."""
    sides, corner_pixels = px.sides, px.corner_pixels
    pixel_mark = bytearray(px.pixel_count)
    side_mark = bytearray(len(sides))
    corner_mark = bytearray(len(px.corners))
    out: list[tuple[Pt, str, tuple[int, ...]]] = []

    def interiors() -> None:
        for pid, m in enumerate(pixel_mark):
            if m or (pt := pset.interior_point(pid)) is None:
                continue
            out.append((pt, "interior", (pid,)))
            for sid in px.pixel_sides[pid]:
                s = sides[sid]
                side_mark[sid] = corner_mark[s.corner_a] = \
                    corner_mark[s.corner_b] = _MARKED

    def open_sides() -> None:
        for sid, m in enumerate(side_mark):
            s = sides[sid]
            if (m or corner_mark[s.corner_a] == _FIRED
                    or corner_mark[s.corner_b] == _FIRED
                    or (pt := pset.side_point(s)) is None):
                continue
            homes = tuple(sorted(p for p in (s.pix_lo, s.pix_hi) if p is not None))
            out.append((pt, "side", homes))
            for pid in homes:
                pixel_mark[pid] = _MARKED
            corner_mark[s.corner_a] = corner_mark[s.corner_b] = _MARKED

    def corners() -> None:
        for cid, m in enumerate(corner_mark):
            if m or (pt := pset.corner_point(cid)) is None:
                continue
            corner_mark[cid] = _FIRED
            out.append((pt, "corner", tuple(sorted(corner_pixels[cid]))))
            for pid in corner_pixels[cid]:
                pixel_mark[pid] = _MARKED

    passes = {"interior": interiors, "side": open_sides, "corner": corners}
    for kind in order:
        passes[kind]()
    out.sort()
    return out


def simplify_targets(px: Pixelation, task: GuardTask) -> list[TargetPoint]:
    """Finite U' ⊆ U, at most 4 per pixel, guarding-equivalent to U: the
    cells that fire taking pixel interiors, then open sides, then corners."""
    mode = task.target_mode
    extras = (task.target_points if mode == "points"
              else _vertices_of(px) if mode == "vertices" else ())
    uset = _PointSet(px, all_points=(mode == "all"),
                     boundary=(mode == "boundary"), extras=extras)
    return [TargetPoint(i, *rep)
            for i, rep in enumerate(_fire(px, uset, _TARGET_ORDER))]


def simplify_guards(px: Pixelation, task: GuardTask) -> list[Guard]:
    """Finite Γ' with at most 4 point-guards per pixel; for any S ⊆ Γ there is
    an S' ⊆ Γ' no larger that guards at least as much.

    Point-guards are the cells that fire taking corners, then open sides,
    then pixel interiors.  Pixel-guards pass through.
    """
    point_modes = [m for m in task.guard_modes
                   if m in ("all-points", "boundary-points", "vertices", "points")]
    pts: list[tuple[Pt, str, tuple[int, ...]]] = []
    if point_modes:
        extras = task.guard_points if "points" in point_modes else ()
        if "vertices" in point_modes:
            extras += _vertices_of(px)
        gset = _PointSet(px, all_points="all-points" in point_modes,
                         boundary="boundary-points" in point_modes,
                         extras=extras)
        pts = _fire(px, gset, _TARGET_ORDER[::-1])

    out = [Guard(i, "point", p, None, homes)
           for i, (p, _kind, homes) in enumerate(pts)]
    pixel_ids: list[int] = []
    if "all-pixel-guards" in task.guard_modes:
        pixel_ids = list(range(px.pixel_count))
    elif "pixels" in task.guard_modes:
        for pid in task.guard_pixels:
            if not 0 <= pid < px.pixel_count:
                raise TaskError(f"pixel-guard id {pid} out of range")
        pixel_ids = sorted(set(task.guard_pixels))
    for pid in pixel_ids:
        homes = {q for sid in px.pixel_sides[pid]
                 for c in (px.sides[sid].corner_a, px.sides[sid].corner_b)
                 for q in px.corner_pixels[c]}
        out.append(Guard(len(out), "pixel", None, pid, tuple(sorted(homes))))
    return out


def guard_covers_point(px: Pixelation, guard: Guard, p: Pt,
                       allow_degenerate: bool) -> bool:
    """Geometric coverage test for either guard variant (clamping a pixel
    guard to the target minimizes the spanned rectangle)."""
    if guard.kind == "point":
        return r_guards(px, guard.location, p, allow_degenerate)
    r = px.pixels[guard.pixel]
    g = (min(max(p[0], r.xmin), r.xmax), min(max(p[1], r.ymin), r.ymax))
    return r_guards(px, g, p, allow_degenerate)
