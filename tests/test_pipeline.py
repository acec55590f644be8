import gc
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import SHAPES, fixture_polygons
from test_dp_solver import _combs_small, _infeasible_cases
from test_max_rectangles import thick_staircase
from rguard import pipeline
from rguard.guard_model import GuardTask
from rguard.instance_gen import (gen_holed_variant, gen_tree_polygon,
                                 rects_union_polygon)
from rguard.polygon_core import OrthoPolygon, scale_polygon

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _layer_names() -> list[str]:
    """The layer names the benchmark wraps to time a solve layer by layer."""
    return list(_perfbench_module("spans").LAYERS)


def test_solve_calls_each_layer_by_its_pipeline_name(monkeypatch):
    names = _layer_names()
    assert len(names) == 8
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    ctx = pipeline.solve_task(OrthoPolygon(SHAPES["U"]), GuardTask.make())
    assert calls == dict.fromkeys(names, 1)
    # a second task on the same pixelation reuses its memoized decomposition
    pipeline.solve_task(ctx.px, GuardTask.make(allow_degenerate=True))
    assert calls == {name: 1 if name in ("build_pixelation", "decompose_dual")
                     else 2 for name in names}


def _cycle_cases() -> list[tuple[OrthoPolygon, GuardTask]]:
    """(polygon, task) pairs reaching every path of the solver: the
    fixtures (the holed shapes among them), trees, holed variants, the
    K=2 and K=3 combs, the staircase band with and without degenerate
    rectangles, a 5-step thick staircase (lifted width 23), the 24 task
    modes of the benchmark's mixed_small workload on a tree, a holed tree
    and two fixtures, and the infeasible cases."""
    task = GuardTask.make()
    polys = fixture_polygons() + _combs_small()
    polys += [gen_tree_polygon(n, seed) for n, seed in ((40, 0), (1000, 1))]
    polys += [gen_holed_variant(scale_polygon(gen_tree_polygon(n, seed), 3),
                                holes, seed)
              for n, holes, seed in ((6, 1, 2), (200, 4, 24))]
    polys.append(thick_staircase(5))
    cases = [(poly, task) for poly in polys]
    band = rects_union_polygon([c for i in range(50) for c in (
        (i, i, i + 1, i + 1), (i + 1, i, i + 2, i + 1))])
    cases += [(band, GuardTask.make(allow_degenerate=deg))
              for deg in (False, True)]
    workloads = _perfbench_module("workloads")
    cases += [(case.poly, case.task) for case in workloads.load("mixed_small")
              if case.name in ("tree40_s29", "holed_s0", "shape_dent2",
                               "shape_ring")]
    return cases + _infeasible_cases()


def test_solve_makes_no_reference_cycles():
    """With the collector off, a solve whose context is dropped leaves
    nothing for the collector to free: every object of the solve goes by
    reference counting alone, so pausing the collector in solve_task loses
    nothing."""
    cases = _cycle_cases()
    assert len(cases) == 11 + 4 + 2 + 2 + 1 + 2 + 4 * 24 + 3
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for poly, task in cases:
            ctx = pipeline.solve_task(poly, task)
            assert ctx.timings["gc"] == 0.0
            del ctx
            assert gc.collect() == 0, (poly.to_json(), task)
    finally:
        if enabled:
            gc.enable()


def test_solve_restores_collector(monkeypatch):
    """solve_task leaves the collector as it found it, after a solve and
    after a layer raises, and pays inside the solve the collection that
    the pause made due."""
    poly = OrthoPolygon(SHAPES["U"])
    task = GuardTask.make()
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            gc.enable() if on else gc.disable()
            pipeline.solve_task(poly, task)
            assert gc.isenabled() == on

        gc.enable()
        ctx = pipeline.solve_task(gen_tree_polygon(3000, 0), task)
        # no generation is left over its threshold for the caller to collect
        assert all(c <= t for c, t in zip(gc.get_count(), gc.get_threshold()))
        assert ctx.timings["gc"] > 0.0
        assert ctx.timings["total"] == pytest.approx(
            sum(t for phase, t in ctx.timings.items() if phase != "total"))

        def failing(H, T):
            raise RuntimeError("layer failed")
        monkeypatch.setattr(pipeline, "solve_r2ds", failing)
        for on in (True, False):
            gc.enable() if on else gc.disable()
            with pytest.raises(RuntimeError, match="layer failed"):
                pipeline.solve_task(poly, task)
            assert gc.isenabled() == on
    finally:
        gc.enable() if enabled else gc.disable()
