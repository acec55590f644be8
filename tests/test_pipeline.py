import gc
import importlib.util
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import HOLED_SHAPES, SHAPES, fixture_polygons
from test_dp_solver import _combs_small, _infeasible_cases, _task_modes
from test_max_rectangles import thick_staircase
import rguard
from rguard import aux_graph, pipeline
from rguard.dp_solver import solve_r2ds, verify_solution
from rguard.guard_model import Guard, GuardTask, TargetPoint
from rguard.instance_gen import (GenError, gen_holed_variant, gen_tree_polygon,
                                 rects_union_polygon)
from rguard.oracle import oracle_min_guards
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, scale_polygon
from rguard.tree_decomposition import decompose_dual, lift_to_H

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
    # the ring's reduction keeps part of H: the DP gets a lifted decomposition
    ctx = pipeline.solve_task(OrthoPolygon(*HOLED_SHAPES["ring"]),
                              GuardTask.make())
    assert calls == dict.fromkeys(names, 1)
    # a second task on the same pixelation reuses its memoized decomposition
    pipeline.solve_task(ctx.px, GuardTask.make(allow_degenerate=True))
    assert calls == {name: 1 if name in ("build_pixelation", "decompose_dual")
                     else 2 for name in names}
    # U's reduction keeps nothing: the dual is neither decomposed nor lifted
    calls.clear()
    pipeline.solve_task(OrthoPolygon(SHAPES["U"]), GuardTask.make())
    assert calls == {name: 1 for name in names
                     if name not in ("decompose_dual", "lift_to_H")}


def _band_cases() -> list[tuple[OrthoPolygon, GuardTask]]:
    """The staircase band of 50 steps, with and without degenerate
    rectangles."""
    band = rects_union_polygon([c for i in range(50) for c in (
        (i, i, i + 1, i + 1), (i + 1, i, i + 2, i + 1))])
    return [(band, GuardTask.make(allow_degenerate=deg))
            for deg in (False, True)]


def _mixed_small_cases(*names: str) -> list[tuple[OrthoPolygon, GuardTask]]:
    """The 24 task modes of the benchmark's mixed_small workload on each of
    the named polygons."""
    workloads = _perfbench_module("workloads")
    return [(case.poly, case.task) for case in workloads.load("mixed_small")
            if case.name in names]


def test_skipping_the_decomposition_matches_the_full_path():
    """A solve skips the decomposition and the lift exactly when lifting
    the decomposition of the dual would leave one empty bag, which is when
    the reduction keeps no vertex of H.  Then its T_aux and its solution
    bytes are those of the full path.  The fixtures, a tree in the 24
    mixed_small modes, the combs, the band and the infeasible cases are
    covered; so are tasks with no target, with guards or without: the
    reduction keeps no guard, and the solve skips."""
    task = GuardTask.make()
    cases = [(poly, task) for poly in fixture_polygons() + _combs_small()]
    cases += _mixed_small_cases("tree40_s29") + _band_cases()
    cases += _infeasible_cases()
    cases += [(poly, GuardTask.make(target_mode="points", guard_modes=gm))
              for poly in fixture_polygons()[:3]
              for gm in (("all-points",), ("pixels",))]
    skipped = []
    for poly, task in cases:
        ctx = pipeline.solve_task(poly, task)
        px, H, red = ctx.px, ctx.H, ctx.reduction
        T = lift_to_H(decompose_dual(px.dual), H, red)
        assert (ctx.T_aux.bags, ctx.T_aux.parent) == (T.bags, T.parent)
        full = solve_r2ds(H, T, red.forced)
        assert ctx.solution.to_json_obj(H) == full.to_json_obj(H)
        skip = "dual" not in px.memo
        assert skip == (T.bags == [()]), (poly.to_json(), task)
        skipped.append(skip)
    assert len(cases) == 11 + 4 + 24 + 2 + 3 + 6
    # the holed fixtures, the band and the infeasible cases keep part of H
    assert skipped.count(False) == 2 + 2 + 3
    kept_holed = [skip for (poly, _task), skip in zip(cases, skipped)
                  if poly.holes]
    assert kept_holed == [False, False]


def test_dual_decomposition_is_built_on_first_read(monkeypatch):
    """After a solve that keeps nothing, the dual is decomposed on the
    first read of ctx.T_dual, without pipeline.decompose_dual, and
    memoized in the pixelation."""
    ctx = pipeline.solve_task(OrthoPolygon(SHAPES["U"]), GuardTask.make())
    assert "dual" not in ctx.px.memo

    def failing(D):
        raise AssertionError("read through pipeline.decompose_dual")
    monkeypatch.setattr(pipeline, "decompose_dual", failing)
    T = ctx.T_dual
    assert T == decompose_dual(ctx.px.dual)
    assert ctx.px.memo["dual"] is T
    assert ctx.T_dual is T


def test_tree_solve_leaves_few_objects():
    """A 3000-pixel tree solve leaves at most 6 objects tracked by the
    collector per pixel (16.5 when sides were tuples and corners and pixels
    had lists of their own, 8.5 when every kept target and guard was an
    object), and builds neither the dual nor the pixel `Rect`s: its
    reduction keeps nothing, and every layer it runs reads the pixel
    complex from flat int lists.  Of the targets and guards it keeps as
    columns, it builds only the guards of the solution."""
    poly, task = gen_tree_polygon(3000, 0), GuardTask.make()
    gc.collect()
    before = gc.get_objects()   # held, so no new object reuses an old id
    old = set(map(id, before))
    ctx = pipeline.solve_task(poly, task)
    left = [o for o in gc.get_objects() if id(o) not in old]
    per_pixel = len(left) / ctx.px.pixel_count
    assert per_pixel <= 6, per_pixel
    assert "dual" not in vars(ctx.px) and "pixels" not in vars(ctx.px)
    kinds = Counter(type(o) for o in left)
    assert kinds[TargetPoint] == 0
    assert kinds[Guard] == ctx.solution.size > 0


def _cycle_cases() -> list[tuple[OrthoPolygon, GuardTask]]:
    """(polygon, task) pairs reaching every path of the solver: the
    fixtures (the holed shapes among them), trees, holed variants, the
    K=2 and K=3 combs, the staircase band with and without degenerate
    rectangles, a 10-step thick staircase (lifted width 25 without what
    reduce(H) leaves out), the 24 task
    modes of the benchmark's mixed_small workload on a tree, a holed tree
    and two fixtures, and the infeasible cases."""
    task = GuardTask.make()
    polys = fixture_polygons() + _combs_small()
    polys += [gen_tree_polygon(n, seed) for n, seed in ((40, 0), (1000, 1))]
    polys += [gen_holed_variant(scale_polygon(gen_tree_polygon(n, seed), 3),
                                holes, seed)
              for n, holes, seed in ((6, 1, 2), (200, 4, 24))]
    polys.append(thick_staircase(10))
    cases = [(poly, task) for poly in polys] + _band_cases()
    cases += _mixed_small_cases("tree40_s29", "holed_s0", "shape_dent2",
                                "shape_ring")
    return cases + _infeasible_cases()


def test_solve_makes_no_reference_cycles():
    """With the collector off, a solve whose context is dropped leaves
    nothing for the collector to free: every object of the solve goes by
    reference counting alone, so pausing the collector in solve_task loses
    nothing.  The objects alive before the loop are frozen, so that each
    collection examines only what the solves made, and not the session's
    shared pixelations."""
    cases = _cycle_cases()
    assert len(cases) == 11 + 4 + 2 + 2 + 1 + 2 + 4 * 24 + 3
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        for poly, task in cases:
            ctx = pipeline.solve_task(poly, task)
            assert ctx.timings["gc"] == 0.0
            del ctx
            assert gc.collect() == 0, (poly.to_json(), task)
    finally:
        gc.unfreeze()
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

        def failing(H, T, forced):
            raise RuntimeError("layer failed")
        monkeypatch.setattr(pipeline, "solve_r2ds", failing)
        for on in (True, False):
            gc.enable() if on else gc.disable()
            with pytest.raises(RuntimeError, match="layer failed"):
                pipeline.solve_task(poly, task)
            assert gc.isenabled() == on
    finally:
        gc.enable() if enabled else gc.disable()


def _thick_polygons() -> list[tuple[OrthoPolygon, bool]]:
    """(polygon, whether to run its vertex-guard modes): 40 fixed-seed
    random unions of 4 to 9 rectangles with corners in [0, 9] and sides 1
    to 5, kept at 12 to 48 pixels, and the thick staircases of 1 to 9 steps
    (4 to 49 pixels).  From 5 steps on, a staircase leaves out the modes
    with vertex guards: there the reduction forces no guard, and the DP
    took more than 3 s for each (148 s for vertex targets with degenerate
    rectangles at 5 steps)."""
    rng = random.Random(16)
    polys = []
    while len(polys) < 40:
        rects = []
        for _ in range(rng.randint(4, 9)):
            w, h = rng.randint(1, 5), rng.randint(1, 5)
            x, y = rng.randint(0, 9 - w), rng.randint(0, 9 - h)
            rects.append((x, y, x + w, y + h))
        try:
            poly = rects_union_polygon(rects)
        except GenError:
            continue
        if 12 <= build_pixelation(poly).pixel_count <= 48:
            polys.append((poly, True))
    return polys + [(thick_staircase(m), m < 5) for m in range(1, 10)]


def _thick_oracle_mismatches() -> tuple[int, list]:
    """(cases, mismatches) of the thick polygons, each in the 24 task modes
    or those without vertex guards, against the oracle."""
    cases, bad = 0, []
    for poly, vertex_guards in _thick_polygons():
        px = build_pixelation(poly)
        for mode, task in _task_modes(px):
            if mode[1] == ("vertices",) and not vertex_guards:
                continue
            ctx = pipeline.solve_task(px, task)
            sol = ctx.solution
            ref = oracle_min_guards(px, task, max_pixels=64)
            got = (sol.status, sol.size if sol.status == "optimal" else None)
            if got != (ref.status, ref.size) or (
                    sol.status == "optimal" and not verify_solution(ctx.H, sol)):
                bad.append((poly.to_json(), mode, got, ref.size))
            cases += 1
    return cases, bad


def test_thick_polygons_match_oracle():
    """Forced guards and domination leave the optimum of thick polygons,
    which are neither thin nor combs, as the brute-force oracle finds it."""
    cases, bad = _thick_oracle_mismatches()
    assert cases == 40 * 24 + 4 * 24 + 5 * 16
    assert bad == []


def test_thick_oracle_check_catches_forcing_a_guard_seen_by_two(monkeypatch):
    """A forced-guard rule that also takes the lower of two kept guards
    that see a target gives answers larger than the oracle's; the
    differential check of the thick polygons fails on it."""
    def forced_seen_by_two(check, ur, seen_by):
        out = set()
        for t in check:
            gs = sorted({g for r in ur[t] for g in seen_by[r]})
            if 1 <= len(gs) <= 2:
                out.add(gs[0])
        return out

    monkeypatch.setattr(aux_graph, "_forced", forced_seen_by_two)
    _cases, bad = _thick_oracle_mismatches()
    assert bad


def test_ten_step_staircase_solves_under_2gb():
    """The 10-step thick staircase, which ran out of memory under a 2 GB
    cap before the forced-guard rule, solves in a child process with its
    address space capped at 2 GB, at the oracle's size."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    code = ("from rguard.guard_model import GuardTask\n"
            "from rguard.instance_gen import rects_union_polygon\n"
            "from rguard.pipeline import solve_task\n"
            "poly = rects_union_polygon([(i, i, i + 3, i + 3)"
            " for i in range(10)])\n"
            "print(solve_task(poly, GuardTask.make()).solution.size)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(rguard.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         preexec_fn=cap, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    want = oracle_min_guards(thick_staircase(10), GuardTask.make(),
                             max_pixels=64)
    assert int(run.stdout) == want.size == 3
