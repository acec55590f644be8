import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rguard.guard_model import GuardTask
from rguard.instance_gen import (FIXTURE_NAMES, DrawnGraph, GenError,
                                 fixture_graph, gen_hardness_instance,
                                 gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.oracle import oracle_min_guards, oracle_vertex_cover
from rguard.pixelation import build_pixelation, estimate_thinness_K
from rguard.polygon_core import scale_polygon, validate


def test_tree_polygon_unit():
    poly = gen_tree_polygon(1, 0)
    assert build_pixelation(poly).pixel_count == 1


def test_tree_polygon_two_pixels_impossible():
    with pytest.raises(GenError):
        gen_tree_polygon(2, 0)


def test_tree_polygon_exact_and_thin():
    for n in (3, 4, 7, 13, 30):
        for seed in (0, 5):
            poly = gen_tree_polygon(n, seed)
            assert validate(poly).ok
            px = build_pixelation(poly)
            assert px.pixel_count == n
            assert px.is_thin
            assert len(px.dual.edges) == n - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10 ** 6))
def test_tree_polygon_property(n, seed):
    px = build_pixelation(gen_tree_polygon(n, seed))
    assert px.pixel_count == n and px.is_thin


def test_tree_polygon_deterministic():
    assert gen_tree_polygon(17, 9).to_json() == gen_tree_polygon(17, 9).to_json()


def test_holed_variant():
    base = scale_polygon(gen_tree_polygon(9, 1), 3)
    assert gen_holed_variant(base, 0, 0) == base
    two = gen_holed_variant(base, 2, 3)
    assert validate(two).ok and len(two.holes) == 2
    px = build_pixelation(two)
    assert len(px.dual.edges) >= px.pixel_count  # cycles appeared
    with pytest.raises(GenError):
        gen_holed_variant(gen_tree_polygon(9, 1), 1, 0)  # pixels too small


def test_ktin_estimates():
    for k in (1, 2, 3, 5):
        poly = gen_ktin_polygon(k, 6, 0)
        assert validate(poly).ok
        assert estimate_thinness_K(build_pixelation(poly)) == k


def test_fixture_graphs_valid():
    assert FIXTURE_NAMES == ("c4", "edge", "k3", "p3", "prism")
    for name in FIXTURE_NAMES:
        g = fixture_graph(name)
        again = DrawnGraph.from_json_obj(g.to_json_obj())
        assert again.vertices == g.vertices
    prism = fixture_graph("prism")
    assert len(prism.vertices) == 6 and len(prism.edges) == 9


def test_drawn_graph_rejects_bad():
    with pytest.raises(GenError):
        DrawnGraph.from_json_obj({
            "vertices": {"a": [0, 0], "b": [2, 2]},
            "edges": [{"u": "a", "v": "b", "bend": None}]})
    with pytest.raises(GenError):  # crossing segments
        DrawnGraph.from_json_obj({
            "vertices": {"a": [0, 0], "b": [2, 0], "c": [1, -1], "d": [1, 1]},
            "edges": [{"u": "a", "v": "b", "bend": None},
                      {"u": "c", "v": "d", "bend": None}]})


def test_hardness_small_identity():
    g = fixture_graph("edge")
    poly, meta = gen_hardness_instance(g)
    assert validate(poly).ok
    px = build_pixelation(poly)
    assert px.is_thin
    assert len(poly.holes) == g.faces_bounded() == 0
    vc = oracle_vertex_cover(2, [(0, 1)])
    res = oracle_min_guards(px, GuardTask.make(), max_pixels=100)
    assert res.size == len(g.edges) + vc == 2
    assert meta.s_v and meta.edge_rects


def test_hardness_k3_structure():
    g = fixture_graph("k3")
    poly, _meta = gen_hardness_instance(g)
    assert validate(poly).ok
    px = build_pixelation(poly)
    assert px.is_thin
    assert len(poly.holes) == g.faces_bounded() == 1


def test_hardness_s_v_guards_attached_edges():
    """Any point of s_v sees the incident edge rectangles."""
    from rguard.guard_model import r_guards
    g = fixture_graph("p3")
    poly, meta = gen_hardness_instance(g)
    px = build_pixelation(poly)
    for v, sv in meta.s_v.items():
        q = (sv.xmin + sv.xmax, sv.ymin + sv.ymax)  # doubled s_v midpoint
        for (a, b), r in meta.edge_rects.items():
            if v not in (a, b):
                continue
            target = (2 * r.xmin + 1, 2 * r.ymin + 1)
            assert r_guards(px, q, target, False), (v, a, b)
