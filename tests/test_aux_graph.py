from helpers import SHAPES, to_dot
from rguard.aux_graph import build_aux_graph, guards_via_path2
from rguard.guard_model import GuardTask, simplify_guards, simplify_targets
from rguard.instance_gen import gen_tree_polygon
from rguard.max_rectangles import enumerate_max_rects
from rguard.oracle import coverage_matrix
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon


def build(poly, task):
    px = build_pixelation(poly)
    targets = simplify_targets(px, task)
    guards = simplify_guards(px, task)
    rects = enumerate_max_rects(px, task.allow_degenerate)
    return px, build_aux_graph(px, rects, targets, guards)


def test_unit_square_star():
    task = GuardTask.make()
    px, H = build(OrthoPolygon(SHAPES["unit"]), task)
    assert len(H.rects) == 1
    assert len(H.targets) == 1 and len(H.guards) == 4
    assert H.ur[0] == [0]
    assert all(H.gr[g.id] == [0] for g in H.guards)


def test_l_shape_single_guard_distance_two():
    # only the corner-pixel center may guard
    task = GuardTask.make(guard_modes=("points",), guard_points=[(0.5, 0.5)],
                          doubled=False)
    px, H = build(OrthoPolygon(SHAPES["L"]), task)
    assert len(H.guards) == 1
    assert H.gr[0] == [0, 1]            # adjacent to both maximal rectangles
    assert all(len(rs) >= 1 for rs in H.ur)
    assert all(guards_via_path2(H, t.id, 0) for t in H.targets)


def test_path2_negative_case():
    task = GuardTask.make(target_mode="points", guard_modes=("points",),
                          target_points=[(0.75, 1.75)],
                          guard_points=[(1.75, 0.25)], doubled=False)
    px, H = build(OrthoPolygon(SHAPES["L"]), task)
    assert not guards_via_path2(H, 0, 0)


def test_pixel_guard_corner_contact_edge():
    # the plus-shape center pixel touches both bars
    task = GuardTask.make(guard_modes=("pixels",), guard_pixels=(2,))
    poly = OrthoPolygon(SHAPES["plus"])
    px, H = build(poly, task)
    assert len(H.gr[0]) == len(H.rects) == 2
    assert all(guards_via_path2(H, t.id, 0) for t in H.targets)


def test_path2_equals_geometry_exhaustively():
    for seed in range(5):
        poly = gen_tree_polygon(10 + 2 * seed, seed)
        for deg in (False, True):
            for gm in (("all-points",), ("all-pixel-guards",)):
                task = GuardTask.make(guard_modes=gm, allow_degenerate=deg)
                px, H = build(poly, task)
                geo = coverage_matrix(px, H.guards,
                                      [t.location for t in H.targets], deg)
                for t in H.targets:
                    for g in H.guards:
                        assert (guards_via_path2(H, t.id, g.id)
                                == geo[g.id, t.id]), (seed, deg, gm, t, g)


def test_edges_linear_in_pixels_on_thin():
    for seed in range(4):
        poly = gen_tree_polygon(40, seed)
        task = GuardTask.make()
        px, H = build(poly, task)
        n_edges = sum(len(r) for r in H.ur) + sum(len(r) for r in H.gr)
        assert n_edges <= 40 * px.pixel_count


def test_dot_export():
    task = GuardTask.make()
    _px, H = build(OrthoPolygon(SHAPES["unit"]), task)
    dot = to_dot(H)
    assert dot.startswith("graph H {") and "u0 -- r0" in dot
