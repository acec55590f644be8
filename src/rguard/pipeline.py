"""End-to-end solve pipeline: pixelation, simplification, maximal rectangles,
auxiliary graph, its reduction, decomposition and lift (skipped when the
reduction keeps nothing), and the DP, with per-phase timings."""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from rguard.aux_graph import AuxGraph, Reduction, build_aux_graph, reduce
from rguard.dp_solver import Solution, solve_r2ds
from rguard.guard_model import GuardTable, GuardTask, TargetTable, \
    simplify_guards, simplify_targets
from rguard.max_rectangles import MaxRect, enumerate_max_rects
from rguard.pixelation import Pixelation, build_pixelation
from rguard.polygon_core import OrthoPolygon
from rguard import tree_decomposition
from rguard.tree_decomposition import TreeDecomposition, decompose_dual, lift_to_H


@dataclass(slots=True)
class SolveContext:
    """What a solve made, and the seconds of each phase in `timings`.

    `T_dual`, the decomposition of the pixel dual, is built on first read
    and kept in `px.memo["dual"]`.  A solve whose reduction keeps no vertex
    of H does not build it: its `T_aux` is one empty bag, and its
    `decompose` and `lift` timings are about 0."""
    px: Pixelation
    targets: TargetTable
    guards: GuardTable
    rects: list[MaxRect]
    H: AuxGraph
    reduction: Reduction
    T_aux: TreeDecomposition
    solution: Solution
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def T_dual(self) -> TreeDecomposition:
        # tree_decomposition's name, not pipeline's: a tracer that wraps
        # pipeline.decompose_dual to time a solve's layers would record a
        # read made after the solve as a span outside any solve
        return _dual_decomposition(self.px, tree_decomposition.decompose_dual)


def _dual_decomposition(px: Pixelation, decompose) -> TreeDecomposition:
    """The decomposition of px's dual, made by `decompose` once per
    pixelation and memoized in px.memo."""
    T = px.memo.get("dual")
    if T is None:
        T = px.memo["dual"] = decompose(px.dual)
    return T


def solve_task(poly_or_px, task: GuardTask) -> SolveContext:
    """Solve `task` on a polygon or on an existing pixelation.

    The cyclic garbage collector is paused for the solve.  The pipeline
    makes no reference cycles (test_solve_makes_no_reference_cycles), so
    its collections would only re-walk the live objects of the solve.
    Before returning, the solve pays the young-generation pass that the
    pause made due, and an older generation that this pass would make due,
    timed as `timings["gc"]` (0.0 when none was due).  The caller's setting
    is restored: a caller that turned the collector off keeps it off, and
    no pass runs for it.  The setting is global to the process, so a solve
    in another thread may see the collector resume when this one returns.

    When `aux_graph.reduce` keeps no vertex of H, the dual is not
    decomposed and not lifted, and `timings["decompose"]` and
    `timings["lift"]` are about 0."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = _solve(poly_or_px, task)
        timings = ctx.timings
        timings["gc"] = 0.0
        count, threshold = gc.get_count(), gc.get_threshold()
        if enabled and count[0] > threshold[0]:
            # a pass counts toward the next generation's threshold; take an
            # older generation that this pass would make due as well, or
            # the caller's next allocation walks the solve's survivors
            gen = 0
            while gen < 2 and count[gen + 1] >= threshold[gen + 1]:
                gen += 1
            t0 = time.perf_counter()
            gc.collect(gen)
            timings["gc"] = time.perf_counter() - t0
        timings["total"] = sum(timings.values())
        return ctx
    finally:
        if enabled:
            gc.enable()


def _solve(poly_or_px, task: GuardTask) -> SolveContext:
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
    red = reduce(H)
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a reduction that keeps no target of H keeps no rectangle and no guard;
    # then the lift would return one empty bag, so the dual is not decomposed
    kept = len(red.targets) < len(H.targets)
    T_dual = _dual_decomposition(px, decompose_dual) if kept else None
    timings["decompose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    T_aux = (lift_to_H(T_dual, H, red) if kept
             else TreeDecomposition([()], [-1], "aux"))
    timings["lift"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = solve_r2ds(H, T_aux, red.forced)
    timings["dp"] = time.perf_counter() - t0
    return SolveContext(px, targets, guards, rects, H, red, T_aux, solution,
                        timings)
