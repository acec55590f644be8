"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and measured constants.
"""
import itertools
import json
import subprocess
import sys
import time

import pytest

from helpers import (SHAPES, HOLED_SHAPES, dominated_only, full_lift,
                     per_closure_counts, validate_reduced_lift)
from rguard.aux_graph import build_aux_graph, reduce
from rguard.cli_io import loglog_slope
from rguard.dp_solver import verify_solution
from rguard.guard_model import GuardTask, simplify_guards, simplify_targets
from rguard.instance_gen import (FIXTURE_NAMES, fixture_graph,
                                 gen_hardness_instance, gen_holed_variant,
                                 gen_ktin_polygon, gen_tree_polygon)
from rguard.max_rectangles import enumerate_max_rects
from rguard.oracle import oracle_min_guards, oracle_vertex_cover
from rguard.pipeline import solve_task
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, scale_polygon
from rguard.tree_decomposition import decompose_dual, lift_to_H

TARGET_MODES = ("all", "boundary", "vertices", "points")
GUARD_MODES = (("all-points",), ("vertices",), ("all-pixel-guards",))


def _corpus():
    """>= 500 instances: trees of 5..40 pixels, holed variants, fixtures."""
    polys = []
    sizes = itertools.cycle(range(5, 41))
    for seed in range(435):
        polys.append(gen_tree_polygon(next(sizes), seed))
    for seed in range(50):
        base = scale_polygon(gen_tree_polygon(5 + seed % 8, 1000 + seed), 3)
        polys.append(gen_holed_variant(base, 1 + seed % 2, seed))
    polys.extend(OrthoPolygon(r) for r in SHAPES.values())
    polys.extend(OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values())
    return polys


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _explicit_targets(px):
    r0 = px.pixels[0]
    r1 = px.pixels[-1]
    pts = [((r0.xmin + r0.xmax) / 4, (r0.ymin + r0.ymax) / 4),
           ((r1.xmin + r1.xmax) / 4, (r1.ymin + r1.ymax) / 4),
           (px.poly.outer[0][0] / 2, px.poly.outer[0][1] / 2)]
    return pts


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    checked = 0
    for poly in corpus:
        px = build_pixelation(poly)
        for tm in TARGET_MODES:
            tpts = _explicit_targets(px) if tm == "points" else ()
            for gm in GUARD_MODES:
                for deg in (False, True):
                    task = GuardTask.make(target_mode=tm, target_points=tpts,
                                          guard_modes=gm, allow_degenerate=deg,
                                          doubled=False)
                    ctx = solve_task(px, task)
                    # holed variants may exceed the default oracle size guard
                    ref = oracle_min_guards(px, task, max_pixels=64)
                    got = (ctx.solution.status,
                           ctx.solution.size if ctx.solution.status == "optimal"
                           else None)
                    want = (ref.status, ref.size)
                    assert got == want, (poly.to_json(), tm, gm, deg, got, want)
                    if ctx.solution.status == "optimal":
                        assert verify_solution(ctx.H, ctx.solution)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s (budget 300s)"
    print(f"\nACCEPTANCE 1: PASS — solver == oracle on {len(corpus)} instances"
          f" x {checked // len(corpus)} mode combos ({checked} runs,"
          f" {elapsed:.0f}s)")


def test_criterion_2_simplification_lemmas():
    t0 = time.perf_counter()
    count = 0
    for seed in range(100):
        n = 5 + seed % 21  # 5..25 pixels
        px = build_pixelation(gen_tree_polygon(n, 2000 + seed))
        for deg in (False, True):
            task = GuardTask.make(allow_degenerate=deg)
            raw = oracle_min_guards(px, task, raw_guards=True)
            red = oracle_min_guards(px, task)
            assert raw.size == red.size, (seed, deg, raw.size, red.size)
        # each kept point counts in every pixel whose closure holds it
        per_t = per_closure_counts(
            px, [t.location for t in simplify_targets(px, GuardTask.make())])
        per_g = per_closure_counts(
            px, [g.location for g in simplify_guards(px, GuardTask.make())])
        assert all(v <= 4 for v in per_t.values())
        assert all(v <= 4 for v in per_g.values())
        count += 1
    print(f"\nACCEPTANCE 2: PASS — simplification preserves the optimum and "
          f"stays <= 4 per pixel on {count} instances "
          f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_3_structural_invariants(corpus):
    t0 = time.perf_counter()
    violations = 0
    thin_count = 0
    for poly in corpus:
        px = build_pixelation(poly)
        if not px.is_thin:
            continue
        thin_count += 1
        if not poly.holes:
            if len(px.dual.edges) != px.pixel_count - 1:
                violations += 1
        rects = enumerate_max_rects(px, False)
        counts = [0] * px.pixel_count
        for m in rects:
            for pid in m.pixel_ids:
                counts[pid] += 1
        if counts and max(counts) > 6:
            violations += 1
        task = GuardTask.make(guard_modes=("all-points", "all-pixel-guards"))
        H = build_aux_graph(px, rects, simplify_targets(px, task),
                            simplify_guards(px, task))
        Td = decompose_dual(px.dual)
        if full_lift(Td, H).width + 1 > 23 * (Td.width + 1):
            violations += 1
        for red in (reduce(H), dominated_only(H)):
            if not validate_reduced_lift(H, lift_to_H(Td, H, red), red).ok:
                violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 3: PASS — tree duals, <=6 rectangles per pixel, "
          f"lifted width bound and valid reduced lift on {thin_count} thin "
          f"instances, 0 violations "
          f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_4_hardness_identity():
    t0 = time.perf_counter()
    results = []
    for name in FIXTURE_NAMES:
        g = fixture_graph(name)
        poly, _meta = gen_hardness_instance(g)
        px = build_pixelation(poly)
        assert px.is_thin
        assert len(poly.holes) == g.faces_bounded()
        ids = sorted(g.vertices)
        idx = {v: i for i, v in enumerate(ids)}
        vc = oracle_vertex_cover(len(ids), [(idx[u], idx[v])
                                            for u, v, _b in g.edges])
        res = oracle_min_guards(px, GuardTask.make(), max_pixels=200)
        expected = len(g.edges) + vc
        assert res.size == expected, (name, res.size, expected)
        results.append(f"{name}={res.size}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 4 took {elapsed:.0f}s (budget 60s)"
    print(f"\nACCEPTANCE 4: PASS — guard number == |E|+VC on "
          f"{', '.join(results)} ({elapsed:.0f}s)")


def test_criterion_5_scaling():
    sizes = (1000, 10000, 100000)
    totals = {}
    for size in sizes:
        poly = gen_tree_polygon(size, seed=0)
        ctx = solve_task(poly, GuardTask.make())
        assert ctx.solution.status == "optimal"
        totals[size] = ctx.timings["total"]
    slope = loglog_slope(sizes, [totals[s] for s in sizes])
    assert slope <= 1.3, f"log-log slope {slope:.3f} exceeds 1.3"

    ratios = []
    for K in (1, 2, 3):
        for teeth in (20, 60, 180):
            poly = gen_ktin_polygon(K, teeth, seed=1)
            px = build_pixelation(poly)
            ratios.append(px.pixel_count / (K * K * poly.n))
    c = max(ratios)
    assert c <= 2.0, f"fitted pixel-count constant {c:.2f} looks wrong"
    times = ", ".join(f"{s}px={totals[s]:.1f}s" for s in sizes)
    print(f"\nACCEPTANCE 5: PASS — end-to-end slope {slope:.2f} <= 1.3 "
          f"({times}); K-thin pixels <= {c:.2f}*K^2*n for K in 1..3")


def test_criterion_6_determinism(tmp_path):
    t0 = time.perf_counter()
    fixtures = {
        "L": {"outer": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
              "holes": []},
        "U": {"outer": [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1],
                        [1, 3], [0, 3]], "holes": []},
        "ring": {"outer": [[0, 0], [3, 0], [3, 3], [0, 3]],
                 "holes": [[[1, 1], [1, 2], [2, 2], [2, 1]]]},
        "tree": json.loads(gen_tree_polygon(24, 3).to_json()),
    }
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(
        {"targets": {"mode": "all"}, "guards": {"modes": ["all-points"]},
         "degenerate": False}), encoding="utf-8")
    for name, obj in fixtures.items():
        ppath = tmp_path / f"{name}.json"
        ppath.write_text(json.dumps(obj), encoding="utf-8")
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.json"
            svg = tmp_path / f"{name}-{run}.svg"
            subprocess.run(
                [sys.executable, "-m", "rguard.cli_io", "solve",
                 "--polygon", str(ppath), "--task", str(task_path),
                 "--out", str(out), "--svg", str(svg)],
                capture_output=True, check=True)
            blobs.append((out.read_bytes(), svg.read_bytes()))
        assert blobs[0] == blobs[1], f"{name} output differs between runs"
    print(f"\nACCEPTANCE 6: PASS — byte-identical solution JSON and SVG on "
          f"{len(fixtures)} fixtures across two runs "
          f"({time.perf_counter() - t0:.0f}s)")
