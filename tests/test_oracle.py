import pytest

from helpers import (SHAPES, cell_points, fixture_polygons, reference_r_guards,
                     turned)
from rguard.guard_model import Guard, GuardTask
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.oracle import (OracleSizeError, classify_degenerate,
                           coverage_matrix, has_induced_c4, oracle_max_rects,
                           oracle_min_guards, oracle_vertex_cover, r_guards)
from rguard.pixelation import build_pixelation
from rguard.polygon_core import (OrthoPolygon, scale_polygon, spanned_rect,
                                 translate_polygon)


def test_min_guards_fixture_values():
    assert oracle_min_guards(OrthoPolygon(SHAPES["unit"]), GuardTask.make()).size == 1
    assert oracle_min_guards(OrthoPolygon(SHAPES["L"]), GuardTask.make()).size == 1
    assert oracle_min_guards(OrthoPolygon(SHAPES["U"]), GuardTask.make()).size == 2


def test_min_guards_translation_invariant():
    for seed in range(4):
        poly = gen_tree_polygon(12, seed)
        moved = translate_polygon(poly, 13, -9)
        for deg in (False, True):
            task = GuardTask.make(allow_degenerate=deg)
            assert oracle_min_guards(poly, task).size == \
                oracle_min_guards(moved, task).size


def test_min_guards_infeasible_witness():
    task = GuardTask.make(guard_modes=("pixels",), guard_pixels=())
    res = oracle_min_guards(OrthoPolygon(SHAPES["L"]), task)
    assert res.status == "infeasible" and res.witness is not None


def test_size_guard():
    poly = gen_tree_polygon(45, 0)
    with pytest.raises(OracleSizeError):
        oracle_min_guards(poly, GuardTask.make(), max_pixels=40)
    assert oracle_min_guards(poly, GuardTask.make(), max_pixels=60).size >= 1


def test_max_rects_counts():
    assert len(oracle_max_rects(OrthoPolygon(SHAPES["unit"]))) == 1
    L = [r for r, d in oracle_max_rects(OrthoPolygon(SHAPES["L"])) if not d]
    assert len(L) == 2
    U = [r for r, d in oracle_max_rects(OrthoPolygon(SHAPES["U"])) if not d]
    assert len(U) == 3


def test_vertex_cover_values():
    assert oracle_vertex_cover(3, [(0, 1), (1, 2), (0, 2)]) == 2
    assert oracle_vertex_cover(4, [(0, 1), (1, 2), (2, 3)]) == 2
    assert oracle_vertex_cover(2, [(0, 1)]) == 1
    assert oracle_vertex_cover(5, []) == 0
    with pytest.raises(OracleSizeError):
        oracle_vertex_cover(20, [(0, 1)])


def test_has_induced_c4():
    square = [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert has_induced_c4(square)
    diag = [[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]]  # chord kills induced C4
    assert not has_induced_c4(diag)
    px = build_pixelation(OrthoPolygon(SHAPES["plus"]))
    assert not has_induced_c4(px.dual.adj)



def test_predicate_matches_ring_reference():
    """`coverage_matrix`, `r_guards` and `classify_degenerate` under both
    policies against `reference_r_guards`, which reads the rings of P and not
    its PixelCover, for point guards and pixel guards at cell points of every
    kind.  A pixel guard covers p when some half-integer point of its pixel
    r-guards p."""
    polys = fixture_polygons() + [
        turned(OrthoPolygon(SHAPES["dent2"]), "rot90"),  # a horizontal chord
        gen_ktin_polygon(3, 1, 0),
        gen_holed_variant(scale_polygon(gen_tree_polygon(4, 0), 3), 1, 0)]
    for poly in polys:
        px = build_pixelation(poly)
        pts = cell_points(px)
        n = len(pts)
        pixel_ids = range(0, px.pixel_count, 5)
        guards = [Guard(i, "point", p, None, ()) for i, p in enumerate(pts)]
        guards += [Guard(n + k, "pixel", None, pid, ())
                   for k, pid in enumerate(pixel_ids)]
        mats = {allow: coverage_matrix(px, guards, pts, allow)
                for allow in (False, True)}
        segs = {}
        for i, g in enumerate(pts):
            for j, p in enumerate(pts):
                inside = reference_r_guards(poly, g, p, True)
                want = {True: inside,
                        False: inside and reference_r_guards(poly, g, p, False)}
                r = spanned_rect(g, p)
                if want[True] and r.is_degenerate_shape():
                    segs[r] = not want[False]
                for allow in (False, True):
                    assert mats[allow][i, j] == want[allow], \
                        (poly, g, p, allow)
                    if (i + j) % 23 == 0:
                        assert r_guards(px, g, p, allow) == want[allow], \
                            (poly, g, p, allow)
        for r, thin in segs.items():
            assert classify_degenerate(px, r) == thin, (poly, r)
        for k, pid in enumerate(pixel_ids):
            pix = px.pixels[pid]
            inner = [(x, y) for x in range(pix.xmin, pix.xmax + 1)
                     for y in range(pix.ymin, pix.ymax + 1)]
            for j, p in enumerate(pts):
                for allow in (False, True):
                    want = any(reference_r_guards(poly, g, p, allow)
                               for g in inner)
                    assert mats[allow][n + k, j] == want, (poly, pid, p, allow)
