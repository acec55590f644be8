import numpy as np
import pytest

from helpers import (SHAPES, TURNS, fixture_polygons, reference_guards,
                     reference_targets, turned)
from rguard.guard_model import (GUARD_MODES, TARGET_MODES, GuardTask, TaskError,
                                guard_covers_point, r_guards, simplify_guards,
                                simplify_targets)
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.oracle import coverage_matrix, oracle_min_guards, \
    sample_point_guards, sample_targets
from rguard.pixelation import Pixelation, build_pixelation
from rguard.polygon_core import OrthoPolygon, Pt, scale_polygon


def L_px():
    return build_pixelation(OrthoPolygon(SHAPES["L"]))


def test_r_guards_examples():
    px = L_px()
    # (0.5, 0.5) sees (1.5, 0.75): doubled (1,1) and (3,1.5) -> use (3, 2)
    assert r_guards(px, (1, 1), (3, 1), allow_degenerate=False)
    assert not r_guards(px, (1, 3), (3, 1), False)  # rectangle covers the notch
    for p in ((1, 1), (2, 2), (4, 0)):
        assert r_guards(px, p, p, False)  # points always see themselves


def test_r_guards_rejects_outside_points():
    px = L_px()
    with pytest.raises(TaskError):
        r_guards(px, (3, 3), (1, 1), False)


def test_degenerate_policy():
    px = build_pixelation(OrthoPolygon(SHAPES["dent2"]))
    g, p = (2, 1), (2, 9)  # on the double-dent chord
    assert r_guards(px, g, p, allow_degenerate=True)
    assert not r_guards(px, g, p, allow_degenerate=False)
    # fattenable zero-area rectangles count under both policies
    pxL = L_px()
    assert r_guards(pxL, (2, 0), (2, 2), False)
    assert r_guards(pxL, (2, 0), (2, 2), True)


def test_simplify_targets_all_centers():
    px = L_px()
    ts = simplify_targets(px, GuardTask.make(target_mode="all"))
    assert sorted(t.location for t in ts) == [(1, 1), (1, 3), (3, 1)]
    assert all(t.kind == "interior" for t in ts)


def test_simplify_targets_vertices():
    px = L_px()
    ts = simplify_targets(px, GuardTask.make(target_mode="vertices"))
    assert len(ts) == 6
    assert all(t.kind == "corner" for t in ts)


def test_simplify_targets_boundary_side_midpoints():
    px = L_px()
    ts = simplify_targets(px, GuardTask.make(target_mode="boundary"))
    boundary_sides = [s for s in px.sides if s.on_boundary]
    assert len(ts) == len(boundary_sides) == 8
    assert {t.location for t in ts} == {s.midpoint() for s in boundary_sides}


def test_simplify_targets_explicit_tiers():
    px = L_px()
    # one interior point suppresses the sides and corners of its pixel
    task = GuardTask.make(target_mode="points",
                          target_points=[(0.5, 0.5), (1, 0.5), (0, 0)],
                          doubled=False)
    ts = simplify_targets(px, task)
    locs = {t.location for t in ts}
    assert (1, 1) in locs            # the interior representative
    assert (2, 1) not in locs        # side point suppressed by pixel interior
    assert (0, 0) not in locs        # corner suppressed too
    assert len(ts) == 1


def test_simplify_guards_all_points_are_corners():
    px = L_px()
    gs = simplify_guards(px, GuardTask.make(guard_modes=("all-points",)))
    assert {g.location for g in gs} == set(px.corners)
    assert all(g.kind == "point" for g in gs)


def test_simplify_guards_vertices_kept():
    px = L_px()
    gs = simplify_guards(px, GuardTask.make(guard_modes=("vertices",)))
    assert sorted(g.location for g in gs) == sorted(px.poly.outer)


def test_simplify_guards_pixel_guards_homes():
    px = build_pixelation(OrthoPolygon(SHAPES["plus"]))
    gs = simplify_guards(px, GuardTask.make(guard_modes=("all-pixel-guards",)))
    assert len(gs) == 5
    center = next(g for g in gs if len(g.home_pixels) == 5)
    assert center.home_pixels == (0, 1, 2, 3, 4)
    for g in gs:
        assert len(g.home_pixels) <= 9


def test_per_pixel_limits():
    for seed in range(6):
        px = build_pixelation(gen_tree_polygon(20, seed))
        for task in (GuardTask.make(target_mode="all"),
                     GuardTask.make(target_mode="boundary"),
                     GuardTask.make(target_mode="vertices")):
            per = {}
            for t in simplify_targets(px, task):
                for pid in t.home_pixels:
                    per[pid] = per.get(pid, 0) + 1
            assert all(v <= 4 for v in per.values())
        per = {}
        for g in simplify_guards(px, GuardTask.make(guard_modes=("all-points",))):
            for pid in g.home_pixels:
                per[pid] = per.get(pid, 0) + 1
        assert all(v <= 4 for v in per.values())


@pytest.mark.parametrize("allow", [False, True])
def test_interior_dominates_pixel(allow):
    """Whoever sees an interior point of a pixel sees every point of it."""
    for poly in fixture_polygons()[:6]:
        px = build_pixelation(poly)
        pts = sample_point_guards(px)
        from rguard.guard_model import Guard
        guards = [Guard(i, "point", p, None, ()) for i, p in enumerate(pts)]
        mat = coverage_matrix(px, guards, pts, allow)
        idx = {p: i for i, p in enumerate(pts)}
        for rect in px.pixels:
            cx, cy = (rect.xmin + rect.xmax) // 2, (rect.ymin + rect.ymax) // 2
            sees_center = mat[:, idx[(cx, cy)]]
            for x in range(rect.xmin, rect.xmax + 1):
                for y in range(rect.ymin, rect.ymax + 1):
                    assert not np.any(sees_center & ~mat[:, idx[(x, y)]])


@pytest.mark.parametrize("allow", [False, True])
def test_side_interior_dominates_side(allow):
    for poly in fixture_polygons()[:6]:
        px = build_pixelation(poly)
        pts = sample_point_guards(px)
        from rguard.guard_model import Guard
        guards = [Guard(i, "point", p, None, ()) for i, p in enumerate(pts)]
        mat = coverage_matrix(px, guards, pts, allow)
        idx = {p: i for i, p in enumerate(pts)}
        for s in px.sides:
            mid = s.midpoint()
            sees_mid = mat[:, idx[mid]]
            ends = [(s.c, s.lo), (s.c, s.hi)] if s.axis == "v" else \
                [(s.lo, s.c), (s.hi, s.c)]
            for q in ends:
                assert not np.any(sees_mid & ~mat[:, idx[q]])


def _cell_points(px: Pixelation) -> list[Pt]:
    """Doubled points in cells of every kind: corners, open sides (midpoints
    and off-centre), pixel interiors (centers and off-centre) and polygon
    vertices."""
    pts = list(px.corners[::3])
    for s in px.sides[::2]:
        pts.append(s.midpoint())
        pts.append((s.c, s.lo + 1) if s.axis == "v" else (s.lo + 1, s.c))
    pts += [(r.xmin + 1, r.ymin + 1) for r in px.pixels[::2]]
    pts += [((r.xmin + r.xmax) // 2, (r.ymin + r.ymax) // 2)
            for r in px.pixels[1::3]]
    return pts + list(px.poly.outer[::2])


def test_simplify_matches_priority_loops():
    """The firing pass against the loop per cell kind it replaced, for every
    target mode against every guard mode, on fixtures, trees, holed and
    K-thin polygons in every orientation."""
    polys = fixture_polygons()
    polys += [gen_tree_polygon(n, seed) for n, seed in ((12, 0), (30, 1), (60, 2))]
    polys += [gen_holed_variant(scale_polygon(gen_tree_polygon(8, seed), 3),
                                2, seed) for seed in range(2)]
    polys += [gen_ktin_polygon(k, 4, k) for k in (2, 3)]
    guard_modes = [(m,) for m in GUARD_MODES]
    guard_modes += [("vertices", "points"), ("boundary-points", "pixels")]
    for poly in polys:
        for p in [poly] + [turned(poly, how) for how in TURNS]:
            px = build_pixelation(p)
            pts = _cell_points(px)
            for tm in TARGET_MODES:
                for gm in guard_modes:
                    task = GuardTask.make(
                        target_mode=tm, target_points=pts, guard_modes=gm,
                        guard_points=pts[1::2],
                        guard_pixels=range(0, px.pixel_count, 3), doubled=True)
                    got = simplify_targets(px, task), simplify_guards(px, task)
                    want = reference_targets(px, task), reference_guards(px, task)
                    assert got == want, (p, task)


def test_simplification_preserves_optimum():
    """Raw dense-grid guards versus the reduced guard set."""
    for seed in range(4):
        px = build_pixelation(gen_tree_polygon(12, seed))
        for deg in (False, True):
            task = GuardTask.make(allow_degenerate=deg)
            a = oracle_min_guards(px, task, raw_guards=True)
            b = oracle_min_guards(px, task)
            assert a.size == b.size


def test_guard_covers_point_pixel_clamp():
    px = build_pixelation(OrthoPolygon(SHAPES["plus"]))
    gs = simplify_guards(px, GuardTask.make(guard_modes=("all-pixel-guards",)))
    center_pixel = next(g for g in gs if len(g.home_pixels) == 5)
    targets = sample_targets(px, GuardTask.make())
    for t in targets:
        assert guard_covers_point(px, center_pixel, t, False)


def test_task_json_round_trip():
    task = GuardTask.make(target_mode="points", target_points=[(0.5, 0.5)],
                          guard_modes=("vertices", "pixels"), guard_pixels=(0, 2),
                          allow_degenerate=True, doubled=False)
    again = GuardTask.from_json_obj(task.to_json_obj())
    assert again == task
    with pytest.raises(TaskError):
        GuardTask.from_json_obj({"targets": {"mode": "all"},
                                 "guards": {"modes": ["all-points"]}})
