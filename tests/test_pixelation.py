from helpers import SHAPES, HOLED_SHAPES, brute_force_pixels, fixture_polygons, \
    nonthin_plus
from rguard.instance_gen import gen_tree_polygon
from rguard.pixelation import (build_pixelation, dump_pixelation,
                               estimate_thinness_K)
from rguard.polygon_core import OrthoPolygon


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
    assert px.locate_point((1, 1)) == [0]            # interior of pixel 0
    assert sorted(px.locate_point((2, 1))) == [0, 2]  # on a shared side
    assert sorted(px.locate_point((2, 2))) == [0, 1, 2]  # the reflex corner
    assert px.locate_point((5, 5)) == []
