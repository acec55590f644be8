"""The four workloads: frozen polygons from `inputs/`, the tasks run on them,
and the orientations each large polygon is solved in.

Importing this module needs `rguard` on the path; `run.py` puts the
checkout's `src` there first.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from rguard.guard_model import GuardTask
from rguard.polygon_core import OrthoPolygon

INPUTS = Path(__file__).resolve().parent / "inputs"

WORKLOADS = ("tree", "holed", "kthin", "mixed_small")

# mixed_small: 4 target modes x 3 guard modes x the degenerate flag.  The
# guard modes between them reach point guards everywhere, at the vertices,
# at explicit points, and pixel guards.
TARGET_MODES = ("all", "boundary", "vertices", "points")
GUARD_MODES = (("all-points",), ("vertices", "points"), ("all-pixel-guards",))

# The large workloads solve each polygon as given, mirrored and rotated;
# their optimal sizes must agree.
ORIENTATIONS = ("id", "mirror", "rot90")


@dataclass(frozen=True, slots=True)
class Case:
    name: str
    poly: OrthoPolygon
    task: GuardTask
    base: int           # index of the frozen polygon this case comes from


def load(workload: str) -> list[Case]:
    """Read and validate the frozen inputs and expand them into cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    with open(INPUTS / f"{workload}.json", encoding="utf-8") as f:
        doc = json.load(f)
    cases = []
    for base, inst in enumerate(doc["instances"]):
        poly = OrthoPolygon.from_json_obj(inst["polygon"])
        if workload == "mixed_small":
            for task in _mixed_tasks(inst):
                cases.append(Case(inst["name"], poly, task, base))
        else:
            for o in ORIENTATIONS:
                cases.append(Case(f"{inst['name']}/{o}", orient(poly, o),
                                  GuardTask.make(), base))
    return cases


def _mixed_tasks(inst: dict):
    for tm in TARGET_MODES:
        tpts = [tuple(p) for p in inst["target_points"]] if tm == "points" else ()
        for gm in GUARD_MODES:
            gpts = [tuple(p) for p in inst["guard_points"]] if "points" in gm else ()
            for deg in (False, True):
                yield GuardTask.make(target_mode=tm, target_points=tpts,
                                     guard_modes=gm, guard_points=gpts,
                                     allow_degenerate=deg)


def orient(poly: OrthoPolygon, how: str) -> OrthoPolygon:
    """The polygon as given, mirrored in x, or rotated by 90 degrees, moved
    back to the same non-negative quadrant (doubled coordinates)."""
    if how == "id":
        return poly
    bb = poly.bbox()
    if how == "mirror":
        # a mirror reverses the ring orientation, so reverse each ring
        def f(ring):
            return [(bb.xmax + bb.xmin - x, y) for x, y in reversed(ring)]
    elif how == "rot90":
        def f(ring):
            return [(bb.ymax + bb.xmin - y, x - bb.xmin + bb.ymin)
                    for x, y in ring]
    else:
        raise ValueError(f"unknown orientation {how!r}")
    return OrthoPolygon(f(poly.outer), [f(h) for h in poly.holes], doubled=True)
