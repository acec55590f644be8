"""Targets U, guards Γ, and the reduction of both sets to finitely many
representatives per pixel.  The r-guarding predicate itself is
`oracle.r_guards`; the reductions need only the pixel complex.

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

Every kept point has one home: the lowest-id pixel whose closure holds
it, which is its own pixel, the lower pixel of its open side, or the first
of its corner's pixels (listed in id order).

Both reductions return their points as columns: a `TargetTable` or
`GuardTable` holds parallel lists `location`, `kind` and `pixel`, and
builds a `TargetPoint` or `Guard` only when one is indexed or iterated.
A solve reads the columns, so it makes objects only for the guards it
returns.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from operator import index

from rguard.pixelation import Pixelation
from rguard.polygon_core import Pt, half


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
    pixel: int                  # home: least pixel whose closure holds it


@dataclass(frozen=True, slots=True)
class Guard:
    id: int
    kind: str                   # 'point' | 'pixel'
    location: Pt | None         # None for a pixel guard
    pixel: int | None           # a point guard's home, or the guarded pixel;
                                # None for the oracle's raw point guards

    def json_obj(self) -> dict:
        if self.kind == "point":
            return {"type": "point", "x": half(self.location[0]),
                    "y": half(self.location[1])}
        return {"type": "pixel", "id": self.pixel}


class _Table(Sequence):
    """Kept points as parallel columns; the i-th row is built on read, and
    its location is the stored tuple.  No slices: copy to a list first."""
    __slots__ = ("location", "kind", "pixel")

    def __init__(self, location: list, kind: list[str], pixel: list[int]):
        self.location = location
        self.kind = kind
        self.pixel = pixel

    def __len__(self) -> int:
        return len(self.pixel)

    def __getitem__(self, i: int):
        i = range(len(self.pixel))[index(i)]
        return self._row(i, self.location[i], self.kind[i], self.pixel[i])

    def __iter__(self):
        return map(self._row, count(), self.location, self.kind, self.pixel)


class TargetTable(_Table):
    """Kept targets: `location` a point, `kind` 'interior', 'side' or
    'corner', `pixel` its home."""
    __slots__ = ()
    _row = TargetPoint


class GuardTable(_Table):
    """Kept guards, the point guards first: `location` a point, or None for
    a pixel guard; `kind` 'point' or 'pixel'; `pixel` a point guard's home,
    or the guarded pixel."""
    __slots__ = ()

    @staticmethod
    def _row(i: int, location: Pt | None, kind: str, pixel: int) -> Guard:
        return Guard(i, kind, location, pixel)


# -- membership machinery for U and Γ specs -------------------------------------


class _PointSet:
    """Finite queries against 'all points', 'boundary points' or explicit
    sets: a point of the set in each cell of the pixel complex (the
    canonical one when the set holds it, else the least), or None."""

    def __init__(self, px: Pixelation, all_points: bool, boundary: bool,
                 extras: Sequence[Pt]):
        self.px = px
        self.all_points = all_points
        self.boundary = boundary
        self._by_pixel: dict[int, list[Pt]] = {}
        # each point maps to itself, so a kept corner of the set is the
        # task's or the polygon's own tuple, not a second copy of it
        self._extras = {pt: pt for pt in extras}
        pts = sorted(self._extras)
        for pt, pids in zip(pts, px.locate_points(pts)):
            if not pids:
                raise TaskError(f"point {pt} lies outside the polygon")
            for pid in pids:
                self._by_pixel.setdefault(pid, []).append(pt)

    def corner_points(self) -> list[Pt | None]:
        """The point of the set at each corner, by corner id."""
        px = self.px
        pts = list(zip(px.cx, px.cy))
        if self.all_points:
            return pts
        if self.boundary:
            return [self._extras.get(pt) if px.corner_interior(cid) else pt
                    for cid, pt in enumerate(pts)]
        return list(map(self._extras.get, pts))

    def side_point(self, sid: int) -> Pt | None:
        """Some point from the open side, preferring the midpoint."""
        px = self.px
        lo, hi = px.pix_lo[sid], px.pix_hi[sid]
        if self.all_points or (self.boundary and min(lo, hi) < 0):
            c, m = px.side_c[sid], (px.side_lo[sid] + px.side_hi[sid]) // 2
            return (c, m) if sid >= px.n_h else (m, c)
        return min((pt for pt in self._by_pixel.get(lo if lo >= 0 else hi, ())
                    if _on_open_side(px, sid, pt)), default=None)

    def interior_points(self) -> list[Pt | None]:
        """The point of the set in each pixel interior, by pixel id."""
        px = self.px
        x0, y0, x1, y1 = px.x0, px.y0, px.x1, px.y1
        if self.all_points:
            return [((a + b) // 2, (c + d) // 2)
                    for a, b, c, d in zip(x0, x1, y0, y1)]
        out: list[Pt | None] = [None] * px.pixel_count
        for pid, pts in self._by_pixel.items():
            out[pid] = min((pt for pt in pts if x0[pid] < pt[0] < x1[pid]
                            and y0[pid] < pt[1] < y1[pid]), default=None)
        return out


def _on_open_side(px: Pixelation, sid: int, pt: Pt) -> bool:
    x, y = pt if sid >= px.n_h else (pt[1], pt[0])
    return x == px.side_c[sid] and px.side_lo[sid] < y < px.side_hi[sid]


def _vertices_of(px: Pixelation) -> list[Pt]:
    # a list, not a tuple: see pixelation._oriented_features on 20-item tuples
    return [p for ring in px.poly.rings for p in ring]


# -- simplification ---------------------------------------------------------------

_TARGET_ORDER = ("interior", "side", "corner")
_FIRED, _MARKED = 1, 2


def _fire(px: Pixelation, pset: _PointSet, order: tuple[str, ...]
          ) -> tuple[list[Pt], list[str], list[int]]:
    """The points pset keeps, taking the cell kinds in `order` (see the
    module docstring), sorted, as columns: point, kind and home pixel.

    A pixel touches its sides and corners, a side its two end corners.  The
    pixelation lists no sides per corner, so a side reads whether its end
    corners fired instead of being marked by them."""
    ca, cb, plo, phi = px.corner_a, px.corner_b, px.pix_lo, px.pix_hi
    # one more slot, always marked, takes the marks for no pixel (-1)
    pixel_mark = bytearray(px.pixel_count) + bytes([_MARKED])
    side_mark = bytearray(len(ca))
    corner_mark = bytearray(len(px.cx))
    out: list[tuple[Pt, str, int]] = []

    # a pass with no unmarked cell returns before it lists the set's points:
    # with all points, the corners mark every pixel, the pixels every corner
    def interiors() -> None:
        if 0 not in pixel_mark:
            return
        south, north, west, east = px.south, px.north, px.west, px.east
        # zip stops before the extra slot of pixel_mark
        for pid, (m, pt) in enumerate(zip(pixel_mark,
                                          pset.interior_points())):
            if m or pt is None:
                continue
            out.append((pt, "interior", pid))
            s, n = south[pid], north[pid]
            side_mark[s] = side_mark[n] = side_mark[west[pid]] = \
                side_mark[east[pid]] = _MARKED
            corner_mark[ca[s]] = corner_mark[cb[s]] = corner_mark[ca[n]] = \
                corner_mark[cb[n]] = _MARKED

    def open_sides() -> None:
        for sid, m in enumerate(side_mark):
            if (m or corner_mark[ca[sid]] == _FIRED
                    or corner_mark[cb[sid]] == _FIRED
                    or (pt := pset.side_point(sid)) is None):
                continue
            lo, hi = plo[sid], phi[sid]
            out.append((pt, "side", min(p for p in (lo, hi) if p >= 0)))
            pixel_mark[lo] = pixel_mark[hi] = _MARKED
            corner_mark[ca[sid]] = corner_mark[cb[sid]] = _MARKED

    def corners() -> None:
        if 0 not in corner_mark:
            return
        q_sw, q_se, q_nw, q_ne = px.q_sw, px.q_se, px.q_nw, px.q_ne
        for cid, (m, pt) in enumerate(zip(corner_mark, pset.corner_points())):
            if m or pt is None:
                continue
            corner_mark[cid] = _FIRED
            a, b, c, d = q_sw[cid], q_se[cid], q_nw[cid], q_ne[cid]
            pixel_mark[a] = pixel_mark[b] = pixel_mark[c] = pixel_mark[d] = \
                _MARKED
            # the least of its pixels, compared inline: min() over a filter
            # took 3x as long
            home = a if a >= 0 else len(pixel_mark)
            if 0 <= b < home:
                home = b
            if 0 <= c < home:
                home = c
            if 0 <= d < home:
                home = d
            out.append((pt, "corner", home))

    passes = {"interior": interiors, "side": open_sides, "corner": corners}
    for kind in order:
        passes[kind]()
    out.sort()
    # three passes, not zip(*out): that makes a tuple of every column, and
    # tuples of fewer than 20 items stay on CPython's free lists
    return ([p for p, _k, _h in out], [k for _p, k, _h in out],
            [h for _p, _k, h in out])


def simplify_targets(px: Pixelation, task: GuardTask) -> TargetTable:
    """Finite U' ⊆ U, at most 4 per pixel, guarding-equivalent to U: the
    cells that fire taking pixel interiors, then open sides, then corners."""
    mode = task.target_mode
    extras = (task.target_points if mode == "points"
              else _vertices_of(px) if mode == "vertices" else ())
    uset = _PointSet(px, all_points=(mode == "all"),
                     boundary=(mode == "boundary"), extras=extras)
    return TargetTable(*_fire(px, uset, _TARGET_ORDER))


def simplify_guards(px: Pixelation, task: GuardTask) -> GuardTable:
    """Finite Γ' with at most 4 point-guards per pixel; for any S ⊆ Γ there is
    an S' ⊆ Γ' no larger that guards at least as much.

    Point-guards are the cells that fire taking corners, then open sides,
    then pixel interiors.  Pixel-guards pass through, after them.
    """
    point_modes = [m for m in task.guard_modes
                   if m in ("all-points", "boundary-points", "vertices", "points")]
    location: list[Pt | None] = []
    pixel: list[int] = []
    if point_modes:
        extras = list(task.guard_points if "points" in point_modes else ())
        if "vertices" in point_modes:
            extras += _vertices_of(px)
        gset = _PointSet(px, all_points="all-points" in point_modes,
                         boundary="boundary-points" in point_modes,
                         extras=extras)
        location, _kind, pixel = _fire(px, gset, _TARGET_ORDER[::-1])
    kind = ["point"] * len(pixel)

    pixel_ids: list[int] = []
    if "all-pixel-guards" in task.guard_modes:
        pixel_ids = list(range(px.pixel_count))
    elif "pixels" in task.guard_modes:
        for pid in task.guard_pixels:
            if not 0 <= pid < px.pixel_count:
                raise TaskError(f"pixel-guard id {pid} out of range")
        pixel_ids = sorted(set(task.guard_pixels))
    location += [None] * len(pixel_ids)
    kind += ["pixel"] * len(pixel_ids)
    pixel += pixel_ids
    return GuardTable(location, kind, pixel)
