import time

import pytest

from helpers import (HOLED_SHAPES, SHAPES, TURNS, fixture_polygons,
                     grid_max_rects, nonthin_plus, turned)
from rguard.cli_io import loglog_slope
from rguard.guard_model import GuardTask
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon, rects_union_polygon)
from rguard.max_rectangles import classify_degenerate, enumerate_max_rects
from rguard.oracle import oracle_max_rects
from rguard.pipeline import solve_task
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, Rect, scale_polygon


def halves(mr_list):
    return {(tuple(v // 2 for v in m.rect.as_tuple()), m.degenerate)
            for m in mr_list}


def test_unit_square():
    px = build_pixelation(OrthoPolygon(SHAPES["unit"]))
    assert halves(enumerate_max_rects(px, True)) == {((0, 0, 1, 1), False)}


def test_l_shape_two_rects_no_degenerate():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))
    got = halves(enumerate_max_rects(px, True))
    assert got == {((0, 0, 2, 1), False), ((0, 0, 1, 2), False)}


def test_u_shape_three_rects():
    px = build_pixelation(OrthoPolygon(SHAPES["U"]))
    got = halves(enumerate_max_rects(px, False))
    assert got == {((0, 0, 3, 1), False), ((0, 0, 1, 3), False),
                   ((2, 0, 3, 3), False)}


def test_oracle_equivalence_fixtures():
    for poly in fixture_polygons() + [nonthin_plus()]:
        px = build_pixelation(poly)
        for allow in (False, True):
            mine = {(m.rect.as_tuple(), m.degenerate)
                    for m in enumerate_max_rects(px, allow)}
            ref = {(r.as_tuple(), d) for r, d in oracle_max_rects(px)
                   if allow or not d}
            assert mine == ref, (poly, allow)


def test_oracle_equivalence_generated():
    for seed in range(6):
        px = build_pixelation(gen_tree_polygon(10 + 4 * seed, seed))
        for allow in (False, True):
            mine = {(m.rect.as_tuple(), m.degenerate)
                    for m in enumerate_max_rects(px, allow)}
            ref = {(r.as_tuple(), d) for r, d in oracle_max_rects(px)
                   if allow or not d}
            assert mine == ref


def nonthin_samples() -> list[OrthoPolygon]:
    return [gen_ktin_polygon(2, 12, 31), gen_ktin_polygon(3, 10, 32),
            nonthin_plus(),
            gen_holed_variant(scale_polygon(gen_tree_polygon(20, 1), 3), 2, 1)]


def test_max_rects_match_grid_reference():
    # the grid is an independent reference at sizes beyond the oracle
    polys = [gen_tree_polygon(n, s) for n in (100, 200, 400) for s in range(3)]
    polys += [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    polys += nonthin_samples()
    for poly in polys:
        for p in [poly] + [turned(poly, how) for how in TURNS]:
            px = build_pixelation(p)
            mine = {m.rect for m in enumerate_max_rects(px, False)}
            assert mine == set(grid_max_rects(px)), p


def test_max_rects_skip_the_grid():
    # the solver path never builds the occupancy grid, and the rectangles of
    # a thick staircase (non-thin, many grid lines on both axes) take linear
    # time
    for poly in (nonthin_plus(), nonthin_samples()[-1]):
        px = build_pixelation(poly)
        assert not px.is_thin
        solve_task(px, GuardTask.make())
        assert "cover" not in vars(px)
    sizes = [125, 250, 500, 1000]
    times = []
    for m in sizes:
        px = build_pixelation(
            rects_union_polygon([(i, i, i + 3, i + 3) for i in range(m)]))
        best = float("inf")
        for _ in range(3):
            px.memo.clear()
            t0 = time.perf_counter()
            enumerate_max_rects(px, False)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
        assert "cover" not in vars(px)
    assert loglog_slope(sizes, times) <= 1.3, times


def test_no_containment_between_results():
    for poly in fixture_polygons():
        px = build_pixelation(poly)
        rs = enumerate_max_rects(px, True)
        for a in rs:
            for b in rs:
                if a.id != b.id:
                    assert not a.rect.contains_rect(b.rect)


def test_degenerate_segment_found_in_dent2():
    px = build_pixelation(OrthoPolygon(SHAPES["dent2"]))
    degs = [m for m in enumerate_max_rects(px, True) if m.degenerate]
    assert [m.rect.as_tuple() for m in degs] == [(2, 0, 2, 10)]
    assert degs[0].pixel_ids == tuple(range(px.pixel_count))
    assert not [m for m in enumerate_max_rects(px, False) if m.degenerate]


def test_classify_degenerate():
    pxL = build_pixelation(OrthoPolygon(SHAPES["L"]))
    assert not classify_degenerate(pxL, Rect(2, 0, 2, 2))  # fattens into the arm
    px2 = build_pixelation(OrthoPolygon(SHAPES["dent2"]))
    assert classify_degenerate(px2, Rect(2, 0, 2, 10))
    with pytest.raises(ValueError):
        classify_degenerate(pxL, Rect(0, 0, 2, 2))  # positive area rejected
    with pytest.raises(ValueError):
        classify_degenerate(pxL, Rect(3, 2, 3, 6))  # leaves the polygon


def test_per_pixel_incidence_bound_thin():
    for seed in range(8):
        px = build_pixelation(gen_tree_polygon(30, seed))
        counts = [0] * px.pixel_count
        for m in enumerate_max_rects(px, False):
            for pid in m.pixel_ids:
                counts[pid] += 1
        assert min(counts) >= 1
        assert max(counts) <= 6


def test_pixel_ids_closed_intersection():
    px = build_pixelation(OrthoPolygon(SHAPES["plus"]))
    rects = enumerate_max_rects(px, False)
    # both bars of the plus touch every pixel (closed intersection)
    for m in rects:
        assert m.pixel_ids == tuple(range(5))


def test_same_rects_mirrored_and_rotated():
    # chains run along x only, so a rotation exercises the other axis
    nonthin = nonthin_samples()
    thin_holed = [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    for poly, thin in ([(p, False) for p in nonthin]
                       + [(p, True) for p in thin_holed]):
        px = build_pixelation(poly)
        assert px.is_thin == thin
        want = {(m.rect.as_tuple(), m.degenerate)
                for m in enumerate_max_rects(px, True)}
        for how, (_, back) in TURNS.items():
            got = set()
            for m in enumerate_max_rects(build_pixelation(turned(poly, how)),
                                         True):
                r = m.rect
                (x0, y0), (x1, y1) = back(r.xmin, r.ymin), back(r.xmax, r.ymax)
                got.add(((min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
                         m.degenerate))
            assert got == want, (poly, how)
