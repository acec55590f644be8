"""End-to-end solve pipeline: pixelation, simplification, maximal rectangles,
auxiliary graph, decomposition, lift, and the DP, with per-phase timings."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from rguard.aux_graph import AuxGraph, build_aux_graph
from rguard.dp_solver import Solution, solve_r2ds
from rguard.guard_model import Guard, GuardTask, TargetPoint, simplify_guards, \
    simplify_targets
from rguard.max_rectangles import MaxRect, enumerate_max_rects
from rguard.pixelation import Pixelation, build_pixelation
from rguard.polygon_core import OrthoPolygon
from rguard.tree_decomposition import TreeDecomposition, decompose_dual, lift_to_H


@dataclass(slots=True)
class SolveContext:
    px: Pixelation
    targets: list[TargetPoint]
    guards: list[Guard]
    rects: list[MaxRect]
    H: AuxGraph
    T_dual: TreeDecomposition
    T_aux: TreeDecomposition
    solution: Solution
    timings: dict[str, float] = field(default_factory=dict)


def solve_task(poly_or_px, task: GuardTask) -> SolveContext:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if isinstance(poly_or_px, OrthoPolygon):
        px = build_pixelation(poly_or_px)
    else:
        px = poly_or_px
    timings["pixelate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    targets = simplify_targets(px, task)
    guards = simplify_guards(px, task)
    timings["simplify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rects = enumerate_max_rects(px, task.allow_degenerate)
    timings["rects"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    H = build_aux_graph(px, rects, targets, guards)
    timings["aux"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if "dual" not in px.memo:
        px.memo["dual"] = decompose_dual(px.dual)
    T_dual = px.memo["dual"]
    timings["decompose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    T_aux = lift_to_H(T_dual, H)
    timings["lift"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = solve_r2ds(H, T_aux)
    timings["dp"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())
    return SolveContext(px, targets, guards, rects, H, T_dual, T_aux,
                        solution, timings)
