import random

from helpers import (SHAPES, cell_points, multi_home_aux_graph, rounds_reduce,
                     to_dot)
from test_dp_solver import (_aux, _combs, _combs_small, _corpus_slice, _graph,
                            _task_modes)
from test_pipeline import _thick_polygons
from rguard.aux_graph import AuxGraph, build_aux_graph, reduce
from rguard.guard_model import GuardTask, simplify_guards, simplify_targets
from rguard.instance_gen import gen_tree_polygon
from rguard.pipeline import solve_task
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


def path2(H, target_id, guard_id):
    """A target-rectangle-guard path exists: their rectangle lists meet."""
    return not set(H.ur[target_id]).isdisjoint(H.gr[guard_id])


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
    assert all(path2(H, t.id, 0) for t in H.targets)


def test_path2_negative_case():
    task = GuardTask.make(target_mode="points", guard_modes=("points",),
                          target_points=[(0.75, 1.75)],
                          guard_points=[(1.75, 0.25)], doubled=False)
    px, H = build(OrthoPolygon(SHAPES["L"]), task)
    assert not path2(H, 0, 0)


def test_pixel_guard_corner_contact_edge():
    # the plus-shape center pixel touches both bars
    task = GuardTask.make(guard_modes=("pixels",), guard_pixels=(2,))
    poly = OrthoPolygon(SHAPES["plus"])
    px, H = build(poly, task)
    assert len(H.gr[0]) == len(H.rects) == 2
    assert all(path2(H, t.id, 0) for t in H.targets)


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
                        assert (path2(H, t.id, g.id)
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


def test_reduce_matches_rounds_reduce():
    """The worklist reduce(H) gives the Reduction of rounds_reduce(H), which
    re-reads all of H each round: the same forced guards in the same order,
    and the same left-out targets, rectangles and guards.  On the corpus
    slice, the small K=2 and K=3 combs and the thick polygons, each in the
    24 task modes, and on the K=3 combs of 50 to 400 teeth, where a
    rectangle across the comb has thousands of guards, with the default
    task."""
    polys = (_corpus_slice() + _combs_small()
             + [poly for poly, _vertex_guards in _thick_polygons()])
    checked = forcing = 0
    for poly in polys:
        px = build_pixelation(poly)
        for mode, task in _task_modes(px):
            H = _aux(px, task)
            want = rounds_reduce(H)
            assert reduce(H) == want, (poly.to_json(), mode)
            checked += 1
            forcing += bool(want.forced)
    assert checked == 24 * len(polys) and forcing
    for _n, _px, H in _combs():
        assert reduce(H) == rounds_reduce(H)


def test_one_home_matches_multi_home():
    """build_aux_graph, which reads each target's and guard's home pixel
    alone, gives the H of multi_home_aux_graph, which reads every pixel a
    target or guard touches, and the same reduce(H).  On the corpus slice,
    the small K=2 and K=3 combs and the thick polygons, each in the 24 task
    modes and with targets and point guards in cells of every kind."""
    polys = (_corpus_slice() + _combs_small()
             + [poly for poly, _vertex_guards in _thick_polygons()])
    checked = 0
    for poly in polys:
        px = build_pixelation(poly)
        pts = cell_points(px)
        cells = GuardTask.make(
            target_mode="points", target_points=pts,
            guard_modes=("points", "pixels"), guard_points=pts[1::2],
            guard_pixels=range(0, px.pixel_count, 3), doubled=True)
        for mode, task in [*_task_modes(px), ("cell points", cells)]:
            rects = enumerate_max_rects(px, task.allow_degenerate)
            targets = simplify_targets(px, task)
            guards = simplify_guards(px, task)
            H = build_aux_graph(px, rects, targets, guards)
            ref = multi_home_aux_graph(px, rects, targets, guards)
            assert (H.ur, H.ru, H.gr, H.rg) == (ref.ur, ref.ru, ref.gr,
                                                ref.rg), (poly.to_json(), mode)
            assert reduce(H) == reduce(ref), (poly.to_json(), mode)
            checked += 1
    assert checked == 25 * len(polys)


def _random_aux(rng: random.Random) -> AuxGraph:
    """A bare H of 1 to 8 targets on 1 to 3 of 1 to 6 rectangles each, and
    0 to 8 guards on 0 to 3 of them each."""
    n_rects = rng.randint(1, 6)
    ur = [rng.sample(range(n_rects), rng.randint(1, min(3, n_rects)))
          for _ in range(rng.randint(1, 8))]
    gr = [rng.sample(range(n_rects), rng.randint(0, min(3, n_rects)))
          for _ in range(rng.randint(0, 8))]
    return _graph(ur=ur, gr=gr, n_rects=n_rects)


def test_reduce_matches_rounds_reduce_on_random_graphs():
    """reduce(H) against rounds_reduce(H) on 20000 seeded random bare H.
    Only these have guards with no rectangle at all: dominated(H) keeps
    them, and the first round must drop them, whether it forces a guard or
    not."""
    rng = random.Random(21)
    bare = 0
    for _ in range(20000):
        H = _random_aux(rng)
        want = rounds_reduce(H)
        assert reduce(H) == want, (H.ur, H.gr)
        bare += bool(want.forced) and not all(H.gr)
    assert bare > 1000


def test_reduce_keeps_no_guard_without_a_kept_rectangle():
    """Every guard that reduce(H) keeps has a kept rectangle, also when its
    first round forces nothing: a guard whose rectangles dominated(H)
    dropped is tested before reduce returns.  On the corpus slice, the
    small combs and the thick polygons, each in the 24 task modes.  A task
    with no target then keeps no vertex of H, so its solve takes the one
    empty bag without decomposing the dual."""
    polys = (_corpus_slice() + _combs_small()
             + [poly for poly, _vertex_guards in _thick_polygons()])
    shrank = 0
    for poly in polys:
        px = build_pixelation(poly)
        for mode, task in _task_modes(px):
            H = _aux(px, task)
            red = reduce(H)
            for g, rs in enumerate(H.gr):
                if g not in red.guards:
                    assert set(rs) - red.rects, (poly.to_json(), mode, g)
            shrank += any(set(rs) & red.rects for g, rs in enumerate(H.gr)
                          if g not in red.guards)
    assert shrank
    for name in ("U", "plus"):
        ctx = solve_task(OrthoPolygon(SHAPES[name]), GuardTask.make(
            target_mode="points", guard_modes=("all-points",)))
        assert list(ctx.H.targets) == [] and ctx.H.guards
        assert len(ctx.reduction.guards) == len(ctx.H.guards)
        assert ctx.T_aux.bags == [()] and "dual" not in ctx.px.memo
