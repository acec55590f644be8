import numpy as np

from helpers import SHAPES, HOLED_SHAPES, TURNS, ReferenceCover, \
    brute_force_pixels, cell_points, fixture_polygons, nonthin_plus, \
    pixelation_fields, reference_pixelation, turned
from test_acceptance import _corpus, _explicit_targets
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon, rects_union_polygon)
from rguard.pixelation import (build_pixelation, dump_pixelation,
                               estimate_thinness_K)
from rguard.polygon_core import OrthoPolygon, scale_polygon


def rects(px):
    return {tuple(v // 2 for v in r.as_tuple()) for r in px.pixels}


def test_unit_square_single_pixel():
    px = build_pixelation(OrthoPolygon(SHAPES["unit"]))
    assert rects(px) == {(0, 0, 1, 1)}
    assert not any(px.corner_interior)


def test_l_shape_pixels_and_dual_path():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))
    assert rects(px) == {(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2)}
    d = px.dual
    assert len(d.edges) == 2
    degs = sorted(len(a) for a in d.adj)
    assert degs == [1, 1, 2]  # path through the corner pixel


def test_u_shape_five_pixel_path():
    px = build_pixelation(OrthoPolygon(SHAPES["U"]))
    assert px.pixel_count == 5
    d = px.dual
    assert len(d.edges) == 4
    assert sorted(len(a) for a in d.adj) == [1, 1, 2, 2, 2]


def test_plus_shape_star_dual():
    px = build_pixelation(OrthoPolygon(SHAPES["plus"]))
    assert px.pixel_count == 5
    assert sorted(len(a) for a in px.dual.adj) == [1, 1, 1, 1, 4]


def test_holed_square_cycle():
    outer, holes = HOLED_SHAPES["ring"]
    px = build_pixelation(OrthoPolygon(outer, holes))
    assert px.pixel_count == 8
    assert len(px.dual.edges) == 8  # one cycle
    assert px.is_thin


def test_matches_brute_force_on_fixtures():
    for poly in fixture_polygons() + [nonthin_plus()]:
        px = build_pixelation(poly)
        got = {r.as_tuple() for r in px.pixels}
        assert got == brute_force_pixels(poly), poly


def test_matches_brute_force_on_generated():
    for seed in range(8):
        poly = gen_tree_polygon(6 + 3 * seed, seed)
        px = build_pixelation(poly)
        assert {r.as_tuple() for r in px.pixels} == brute_force_pixels(poly)


def thin_staircase(m: int) -> OrthoPolygon:
    """A staircase of width 1: every step is two unit cells."""
    return rects_union_polygon([c for i in range(m) for c in (
        (i, i, i + 1, i + 1), (i + 1, i, i + 2, i + 1))])


def test_matches_reference_field_for_field():
    # sides named by their first corner and the pointer-walk sweep give the
    # tuple-keyed construction's fields, orders included
    polys = fixture_polygons() + [nonthin_plus()]
    polys += [gen_tree_polygon(n, s) for n in (40, 300) for s in range(3)]
    polys += [gen_holed_variant(scale_polygon(gen_tree_polygon(n, s), 3), h, s)
              for n, h, s in ((20, 2, 1), (60, 5, 2))]
    polys += [gen_ktin_polygon(k, t, s) for k, t, s in ((2, 12, 31), (3, 10, 32))]
    polys += [thin_staircase(m) for m in (1, 5, 30)]
    for poly in polys:
        for p in [poly] + [turned(poly, how) for how in TURNS]:
            assert pixelation_fields(build_pixelation(p)) == \
                reference_pixelation(p), p


def test_area_conservation():
    for poly in fixture_polygons() + [nonthin_plus()]:
        px = build_pixelation(poly)
        assert sum(r.area for r in px.pixels) == abs(poly.area2()) // 2


def test_conforming_sides():
    for poly in fixture_polygons() + [nonthin_plus()]:
        px = build_pixelation(poly)
        for s in px.sides:
            assert (s.pix_lo is None) + (s.pix_hi is None) <= 1


def test_thinness_flags():
    assert build_pixelation(OrthoPolygon(SHAPES["L"])).is_thin
    assert build_pixelation(OrthoPolygon(SHAPES["unit"])).is_thin
    px = build_pixelation(nonthin_plus())
    assert not px.is_thin
    # the notch rays cross two full-width cuts: a 2x2 interior-corner grid
    assert estimate_thinness_K(px) == 3


def test_thinness_K_examples():
    for name in ("unit", "L", "U"):
        px = build_pixelation(OrthoPolygon(SHAPES[name]))
        assert estimate_thinness_K(px) == 1
    from rguard.instance_gen import gen_ktin_polygon
    for k in (2, 3, 4):
        px = build_pixelation(gen_ktin_polygon(k, 5, seed=3))
        assert estimate_thinness_K(px) == k


def test_thinness_vs_induced_grid_surrogate_report():
    """Open question: the geometric block surrogate versus induced-grid
    thinness of the dual.  On small instances report both; 1-thin must agree
    with the absence of an induced 4-cycle."""
    from rguard.oracle import has_induced_c4
    disagreements = []
    for poly in fixture_polygons() + [nonthin_plus()]:
        px = build_pixelation(poly)
        k_geo = estimate_thinness_K(px)
        c4 = has_induced_c4(px.dual.adj)
        if (k_geo == 1) != (not c4):
            disagreements.append((poly, k_geo, c4))
    assert not disagreements


def test_generated_tree_polygons_are_trees():
    for seed in range(10):
        poly = gen_tree_polygon(24, seed)
        px = build_pixelation(poly)
        assert px.is_thin
        assert len(poly.holes) == 0
        assert len(px.dual.edges) == px.pixel_count - 1


def test_pixel_count_linear_in_vertices_for_thin():
    # thin polygons have O(n) pixels; measured constant stays small
    for seed in range(5):
        poly = gen_tree_polygon(200, seed)
        px = build_pixelation(poly)
        assert px.pixel_count <= 2 * poly.n


def test_dump_golden_l_shape():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))
    assert dump_pixelation(px) == (
        "0 0 0 1 1\n"
        "1 0 1 1 2\n"
        "2 1 0 2 1\n"
        "--\n"
        "0 1\n"
        "0 2\n"
    )


def test_locate_point():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))

    def locate(p):
        return px.locate_points([p])[0]

    assert locate((1, 1)) == [0]            # interior of pixel 0
    assert sorted(locate((2, 1))) == [0, 2]  # on a shared side
    assert sorted(locate((2, 2))) == [0, 1, 2]  # the reflex corner
    assert locate((5, 5)) == []


def test_locate_points_matches_scan():
    """locate_points against a scan of every pixel, on the acceptance corpus
    with the explicit targets of its `points` task mode, cell points of
    every kind, a point in each hole and a sparse grid over and around the
    bounding box."""
    for poly in _corpus():
        px = build_pixelation(poly)
        bb = poly.bbox()
        pts = [(round(2 * x), round(2 * y)) for x, y in _explicit_targets(px)]
        pts += cell_points(px) + [(h[0][0] + 1, h[0][1] + 1) for h in poly.holes]
        pts += [(x, y) for x in range(bb.xmin - 1, bb.xmax + 2, 5)
                for y in range(bb.ymin - 1, bb.ymax + 2, 5)]
        want = [[pid for pid, r in enumerate(px.pixels) if r.contains_point(p)]
                for p in pts]
        assert px.locate_points(pts) == want, poly.to_json()


def test_cover_matches_four_branch_reference():
    """The refined grid of `PixelCover` against `ReferenceCover`, its form
    with one branch per shape, on 1.1M closed rectangles.  Each side lies on
    a grid line, just inside a span next to one, or one unit beyond the
    bounding box, and the far side is at most 8 values past the near one or
    2 before it (inverted), so every shape occurs: areas, segments and
    points, on and off the grid lines, inside and out."""
    polys = fixture_polygons() + [
        turned(OrthoPolygon(SHAPES["dent2"]), "rot90"),  # a horizontal chord
        gen_ktin_polygon(2, 6, 0), gen_ktin_polygon(3, 6, 1),
        gen_holed_variant(scale_polygon(gen_tree_polygon(40, 0), 3), 4, 0),
        gen_tree_polygon(3000, 0)]
    rng = np.random.default_rng(19)
    n = 70_000
    # per (sign of x2 - x1, of y2 - y1, x1 on a line, y1 on a line, answer)
    tally = np.zeros((3, 3, 2, 2, 2), dtype=np.int64)
    for poly in polys:
        px = build_pixelation(poly)
        cov, ref = px.cover, ReferenceCover(px.pixels)
        q = []
        for c in (cov.xs, cov.ys):
            vals = np.unique(np.concatenate([c - 1, c, c + 1]))
            lo = rng.integers(0, len(vals), n)
            hi = np.clip(lo + rng.integers(-2, 9, n), 0, len(vals) - 1)
            q += [vals[lo], vals[hi]]
        x1, x2, y1, y2 = q
        got = cov.rects_inside(x1, y1, x2, y2)
        assert np.array_equal(got, ref.rects_inside(x1, y1, x2, y2)), poly
        np.add.at(tally, (np.sign(x2 - x1) + 1, np.sign(y2 - y1) + 1,
                          np.isin(x1, cov.xs).astype(int),
                          np.isin(y1, cov.ys).astype(int), got.astype(int)), 1)
        empty = np.zeros(0, dtype=np.int64)
        assert cov.rects_inside(empty, empty, empty, empty).shape == (0,)
    # both answers for every shape on and off the lines; inverted is out
    assert tally[1:, 1:].all()
    assert not tally[0, ..., 1].any() and not tally[:, 0, ..., 1].any()
