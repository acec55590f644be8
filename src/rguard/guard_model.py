"""Targets U, guards Γ, the exact r-guarding predicate, and the reduction of
both sets to finitely many representatives per pixel.

Representatives are canonical: pixel centers for interiors and side midpoints
for sides (exact integers thanks to the global coordinate doubling).  Target
reduction prefers interiors, then open sides, then corners; guard reduction
prefers corners, then open sides, then interiors.  Each leaves at most 4
points per pixel and preserves optimal guard sets.
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
    """Finite queries against 'all points', 'boundary points' or explicit sets."""

    def __init__(self, px: Pixelation, all_points: bool, boundary: bool,
                 extras: tuple[Pt, ...]):
        self.px = px
        self.all_points = all_points
        self.boundary = boundary
        self.extras = sorted(set(extras))
        self._by_pixel: dict[int, list[Pt]] = {}
        self._extra_set = set(self.extras)
        for pt in self.extras:
            pids = px.locate_point(pt)
            if not pids:
                raise TaskError(f"point {pt} lies outside the polygon")
            for pid in pids:
                self._by_pixel.setdefault(pid, []).append(pt)

    def has_corner(self, c: Pt, boundary_corner: bool) -> bool:
        if self.all_points or (self.boundary and boundary_corner):
            return True
        return c in self._extra_set

    def side_interior_point(self, side) -> Pt | None:
        """Some point from the open side, preferring the midpoint."""
        if self.all_points or (self.boundary and side.on_boundary):
            return side.midpoint()
        pid = side.pix_lo if side.pix_lo is not None else side.pix_hi
        best = None
        for pt in self._by_pixel.get(pid, ()):
            if _on_open_side(side, pt) and (best is None or pt < best):
                best = pt
        return best

    def pixel_interior_point(self, pid: int) -> Pt | None:
        if self.all_points:
            r = self.px.pixels[pid]
            return ((r.xmin + r.xmax) // 2, (r.ymin + r.ymax) // 2)
        r = self.px.pixels[pid]
        best = None
        for pt in self._by_pixel.get(pid, ()):
            if r.xmin < pt[0] < r.xmax and r.ymin < pt[1] < r.ymax:
                if best is None or pt < best:
                    best = pt
        return best


def _on_open_side(side, pt: Pt) -> bool:
    if side.axis == "v":
        return pt[0] == side.c and side.lo < pt[1] < side.hi
    return pt[1] == side.c and side.lo < pt[0] < side.hi


def _vertices_of(px: Pixelation) -> list[Pt]:
    out = []
    for ring in px.poly.rings:
        out.extend(ring)
    return sorted(set(out))


# -- simplification ---------------------------------------------------------------


def simplify_targets(px: Pixelation, task: GuardTask) -> list[TargetPoint]:
    """Finite U' ⊆ U, at most 4 per pixel, guarding-equivalent to U.

    Priority: pixel interiors, then open sides whose incident pixels did not
    fire, then corners with no fired incident pixel or side.
    """
    mode = task.target_mode
    if mode == "vertices":
        pts = []
        for v in _vertices_of(px):
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
        pt = uset.pixel_interior_point(pid)
        if pt is not None:
            fired_pixels[pid] = pt
    fired_sides: dict[int, Pt] = {}
    for sid, side in enumerate(px.sides):
        incident = [p for p in (side.pix_lo, side.pix_hi) if p is not None]
        if any(p in fired_pixels for p in incident):
            continue
        pt = uset.side_interior_point(side)
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
        boundary_corner = not px.corner_interior[cidx]
        if not uset.has_corner(c, boundary_corner):
            continue
        if any(pid in fired_pixels for pid in px.corner_pixels[cidx]):
            continue
        if any(sid in fired_sides for sid in _corner_sides(px, cidx)):
            continue
        out.append((c, "corner", tuple(sorted(px.corner_pixels[cidx]))))
    out.sort()
    return [TargetPoint(i, p, k, h) for i, (p, k, h) in enumerate(out)]


def simplify_guards(px: Pixelation, task: GuardTask) -> list[Guard]:
    """Finite Γ' with at most 4 point-guards per pixel; for any S ⊆ Γ there is
    an S' ⊆ Γ' no larger that guards at least as much.

    Priority: corners, then open sides with no endpoint in Γ, then pixel
    interiors with no corner/side point in Γ.  Pixel-guards pass through.
    """
    point_modes = [m for m in task.guard_modes
                   if m in ("all-points", "boundary-points", "vertices", "points")]
    pts: list[tuple[Pt, str, tuple[int, ...]]] = []
    if point_modes:
        extras = list(task.guard_points if "points" in point_modes else ())
        if "vertices" in point_modes:
            extras.extend(_vertices_of(px))
        gset = _PointSet(px, all_points="all-points" in point_modes,
                         boundary="boundary-points" in point_modes,
                         extras=tuple(extras))
        fired_corners: set[int] = set()
        for cidx, c in enumerate(px.corners):
            if gset.has_corner(c, not px.corner_interior[cidx]):
                fired_corners.add(cidx)
                pts.append((c, "corner", tuple(sorted(px.corner_pixels[cidx]))))
        fired_sides: dict[int, Pt] = {}
        for sid, side in enumerate(px.sides):
            if side.corner_a in fired_corners or side.corner_b in fired_corners:
                continue
            pt = gset.side_interior_point(side)
            if pt is not None:
                fired_sides[sid] = pt
                homes = tuple(sorted(p for p in (side.pix_lo, side.pix_hi)
                                     if p is not None))
                pts.append((pt, "side", homes))
        for pid in range(px.pixel_count):
            cids = [px.corner_ids[c] for c in _pixel_corner_points(px, pid)]
            if any(ci in fired_corners for ci in cids):
                continue
            if any(sid in fired_sides for sid in px.pixel_sides[pid]):
                continue
            pt = gset.pixel_interior_point(pid)
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
        for c in _pixel_corner_points(px, pid):
            homes.update(px.corner_pixels[px.corner_ids[c]])
        out.append(Guard(len(out), "pixel", None, pid, tuple(sorted(homes))))
    return out


def _pixel_corner_points(px: Pixelation, pid: int):
    r = px.pixels[pid]
    return ((r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmin, r.ymax), (r.xmax, r.ymax))


def _corner_sides(px: Pixelation, cidx: int) -> list[int]:
    out = []
    for pid in px.corner_pixels[cidx]:
        for sid in px.pixel_sides[pid]:
            s = px.sides[sid]
            if s.corner_a == cidx or s.corner_b == cidx:
                out.append(sid)
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
