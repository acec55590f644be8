import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SHAPES, best_times, fixture_polygons, gc_paused
from rguard.cli_io import loglog_slope
from rguard.polygon_core import (OrthoPolygon, PolygonError, Rect, half,
                                 point_in_polygon, rect_inside, scale_polygon,
                                 spanned_rect, translate_polygon, validate)


def test_unit_square_valid():
    assert validate(OrthoPolygon(SHAPES["unit"])).ok


def test_diagonal_edge_rejected():
    rep = validate(OrthoPolygon([(0, 0), (2, 2), (0, 2), (0, 1)]))
    assert not rep.ok
    assert any(i.code == "non-orthogonal-edge" for i in rep.issues)


def test_l_shape_reflex_count():
    poly = OrthoPolygon(SHAPES["L"])
    rep = validate(poly)
    assert rep.ok
    # 6 vertices, one reflex: n/2 - 2 = 1 is checked inside validate


def test_orientation_diagnostics():
    rep = validate(OrthoPolygon(list(reversed(SHAPES["L"]))))
    assert any(i.code == "orientation" for i in rep.issues)
    outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
    hole_ccw = [[(1, 1), (2, 1), (2, 2), (1, 2)]]
    rep = validate(OrthoPolygon(outer, hole_ccw))
    assert any(i.code == "orientation" and i.ring == 1 for i in rep.issues)


def test_self_intersection_detected():
    # bowtie-like overlap of collinear edges
    ring = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 0), (3, 0), (3, 2), (0, 2)]
    rep = validate(OrthoPolygon(ring))
    assert not rep.ok


def test_hole_outside_detected():
    rep = validate(OrthoPolygon([(0, 0), (2, 0), (2, 2), (0, 2)],
                                [[(3, 3), (3, 4), (4, 4), (4, 3)]]))
    assert [(i.code, i.ring) for i in rep.issues] == [("hole-outside", 1)]


def test_hole_in_hole_detected():
    # ring 2, the inner square, lies in ring 1; ring 3 lies in neither
    rep = validate(OrthoPolygon([(0, 0), (12, 0), (12, 12), (0, 12)],
                                [_cw_square(2, 6), _cw_square(4, 2),
                                 _cw_square(9, 2)]))
    assert [(i.code, i.ring) for i in rep.issues] == [("hole-in-hole", 2)]


def _cw_square(lo: int, side: int) -> list[tuple[int, int]]:
    hi = lo + side
    return [(lo, lo), (lo, hi), (hi, hi), (hi, lo)]


def _hole_grid(k: int) -> OrthoPolygon:
    """A square with a k x k grid of unit holes."""
    m = 2 * k + 1
    return OrthoPolygon([(0, 0), (m, 0), (m, m), (0, m)],
                        [[(x, y), (x, y + 1), (x + 1, y + 1), (x + 1, y)]
                         for x in range(1, m, 2) for y in range(1, m, 2)])


def test_validate_scales_with_many_holes():
    """Hole nesting is read off the contact sweep, not tested ring against
    ring: validation is near-linear in the number of holes."""
    polys = [_hole_grid(k) for k in (20, 40, 80)]
    assert all(validate(p).ok for p in polys)
    with gc_paused():
        times = best_times([lambda p=p: validate(p) for p in polys], rounds=3)
    assert times[-1] < 2, times
    assert loglog_slope([400, 1600, 6400], times) <= 1.3, times


def test_spanned_rect_examples():
    assert spanned_rect((0, 0), (2, 1)) == Rect(0, 0, 2, 1)
    assert spanned_rect((1, 3), (1, 0)) == Rect(1, 0, 1, 3)
    assert spanned_rect((5, 5), (5, 5)) == Rect(5, 5, 5, 5)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_spanned_rect_symmetric_idempotent(ax, ay, bx, by):
    r = spanned_rect((ax, ay), (bx, by))
    assert r == spanned_rect((bx, by), (ax, ay))
    assert r == spanned_rect((r.xmin, r.ymin), (r.xmax, r.ymax))


def test_rect_inside_l_shape():
    poly = OrthoPolygon(SHAPES["L"])  # doubled: arms [0,4]x[0,2], [0,2]x[0,4]
    assert rect_inside(poly, Rect(0, 0, 2, 4))
    assert not rect_inside(poly, Rect(0, 0, 4, 4))
    assert rect_inside(poly, Rect(2, 0, 2, 4))  # segment on pixel sides


def test_rect_inside_monotone_and_vertices():
    poly = OrthoPolygon(SHAPES["U"])
    assert rect_inside(poly, Rect(0, 0, 6, 2))
    assert rect_inside(poly, Rect(1, 1, 5, 2))   # subset stays inside
    for x, y in poly.outer:
        assert rect_inside(poly, Rect(x, y, x, y))


def test_rect_inside_matches_cover_on_random_rects():
    from rguard.pixelation import build_pixelation
    import random
    rng = random.Random(7)
    for poly in fixture_polygons():
        cov = build_pixelation(poly).cover
        bb = poly.bbox()
        for _ in range(120):
            x1 = rng.randrange(bb.xmin - 1, bb.xmax + 2)
            x2 = rng.randrange(x1, bb.xmax + 2)
            y1 = rng.randrange(bb.ymin - 1, bb.ymax + 2)
            y2 = rng.randrange(y1, bb.ymax + 2)
            r = Rect(x1, y1, x2, y2)
            assert rect_inside(poly, r) == cov.rect_inside(r), r
            q = Rect(x1, y1, x1, y1)
            assert point_in_polygon(poly, (x1, y1)) == cov.rect_inside(q), q


def test_json_round_trip_and_reject():
    poly = OrthoPolygon(SHAPES["L"])
    again = OrthoPolygon.from_json(poly.to_json())
    assert again == poly
    with pytest.raises(PolygonError):
        OrthoPolygon.from_json(json.dumps({"outer": [[0, 0], [2, 2], [0, 2]]}))
    with pytest.raises(PolygonError):
        OrthoPolygon.from_json(json.dumps({"outer": [[0, 0], [1.5, 0], [1, 1]]}))


def test_serialization_deterministic_under_rotation():
    a = OrthoPolygon(SHAPES["U"])
    ring = SHAPES["U"]
    b = OrthoPolygon(ring[3:] + ring[:3])
    assert a.to_json() == b.to_json()


def test_half_exact():
    assert half(4) == 2 and isinstance(half(4), int)
    assert half(5) == 2.5


def test_scale_translate():
    poly = OrthoPolygon(SHAPES["L"])
    big = scale_polygon(poly, 3)
    assert validate(big).ok
    assert big.area2() == 9 * poly.area2()
    moved = translate_polygon(poly, 5, -2)
    assert validate(moved).ok
    assert moved.area2() == poly.area2()


def test_point_in_polygon_holes():
    poly = OrthoPolygon([(0, 0), (3, 0), (3, 3), (0, 3)],
                        [[(1, 1), (1, 2), (2, 2), (2, 1)]])
    assert point_in_polygon(poly, (1, 1))      # on outer boundary? inside
    assert point_in_polygon(poly, (2, 2))      # hole corner is in closed P
    assert not point_in_polygon(poly, (3, 3))  # strictly inside the hole
    assert point_in_polygon(poly, (5, 5))
    assert not point_in_polygon(poly, (7, 2))
