import random

import pytest

from helpers import (HOLED_SHAPES, SHAPES, TURNS, aux_graph_edges, best_times,
                     dominated_only, exact_treewidth_at_most, fixture_polygons,
                     full_lift, gc_paused, lifted_away, turned, two_pass_lift,
                     validate_reduced_lift)
from test_dp_solver import (_aux, _combs_small, _corpus_slice, _found_polygons,
                            _task_modes)
from test_max_rectangles import thick_staircase
from rguard.aux_graph import build_aux_graph, reduce
from rguard.cli_io import loglog_slope
from rguard.guard_model import GuardTask, simplify_guards, simplify_targets
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.max_rectangles import enumerate_max_rects
from rguard.pixelation import DualGraph, build_pixelation
from rguard.polygon_core import OrthoPolygon, scale_polygon
from rguard.tree_decomposition import (DecompositionError, TreeDecomposition,
                                       decompose_dual, lift_to_H,
                                       validate_decomposition)


def dual_of(edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return DualGraph(n, edges, adj)


def test_single_vertex():
    T = decompose_dual(dual_of([], 1))
    assert T.bags == [(0,)] and T.width == 0


def test_path_dual_width_one():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))
    T = decompose_dual(px.dual)
    assert T.width == 1
    assert T.bags == [(0, 1), (0, 2), (2,)]
    assert T.tree_edges == [(0, 1), (1, 2)]
    assert_reference_decomposition(px.dual, T)


def test_tree_dual_canonical():
    """A tree dual takes min-degree's bags: one per pixel, the last a
    singleton, and width 1."""
    for seed in range(5):
        px = build_pixelation(gen_tree_polygon(25, seed))
        T = decompose_dual(px.dual)
        assert T.width == 1
        assert len(T.bags) == px.pixel_count and len(T.bags[-1]) == 1
        assert_reference_decomposition(px.dual, T)


def test_cycle_min_degree_width_two():
    for k in (4, 6, 9):
        cyc = dual_of([(i, (i + 1) % k) for i in range(k)], k)
        T = decompose_dual(cyc)
        assert T.width == 2
        assert validate_decomposition(k, cyc.edges, T).ok
        assert exact_treewidth_at_most(k, cyc.adj, 2)
        assert not exact_treewidth_at_most(k, cyc.adj, 1)


def test_holed_polygon_decomposition_valid():
    outer, holes = HOLED_SHAPES["ring"]
    px = build_pixelation(OrthoPolygon(outer, holes))
    T = decompose_dual(px.dual)
    assert T.width == 2
    assert validate_decomposition(px.pixel_count, px.dual.edges, T).ok


def test_disconnected_rejected():
    """Two isolated vertices; two triangles, which only the core phase
    eliminates; a path and an isolated vertex, which the pendant phase
    eliminates alone."""
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    for edges, n in (([], 2), (triangles, 6), ([(0, 1), (1, 3)], 4)):
        with pytest.raises(DecompositionError):
            decompose_dual(dual_of(edges, n))


def test_validator_mutations():
    px = build_pixelation(OrthoPolygon(SHAPES["U"]))
    T = decompose_dual(px.dual)
    good = validate_decomposition(px.pixel_count, px.dual.edges, T)
    assert good.ok
    cut = TreeDecomposition(T.bags, T.tree_edges[1:], "dual")
    bad = validate_decomposition(px.pixel_count, px.dual.edges, cut)
    assert "decomposition tree is disconnected" in bad.problems
    T.bags[0] = ()
    bad = validate_decomposition(px.pixel_count, px.dual.edges, T)
    assert not bad.ok
    assert any("edge" in p or "vertex" in p for p in bad.problems)


def test_lift_unit_square():
    px = build_pixelation(OrthoPolygon(SHAPES["unit"]))
    task = GuardTask.make()
    H = build_aux_graph(px, enumerate_max_rects(px, False),
                        simplify_targets(px, task), simplify_guards(px, task))
    Td = decompose_dual(px.dual)
    full = full_lift(Td, H)
    assert len(full.bags) == 1
    assert len(full.bags[0]) == 6  # 1 target + 1 rectangle + 4 corner guards
    n, edges = aux_graph_edges(H)
    assert validate_decomposition(n, edges, full).ok
    # the corner guards all see the one rectangle: the lowest id stays
    red = dominated_only(H)
    T = lift_to_H(Td, H, red)
    assert T.bags == [(H.tid(0), H.rid(0), H.gid(0))]
    assert validate_reduced_lift(H, T, red).ok
    # and the one target forces it, which leaves nothing for the DP
    red = reduce(H)
    assert red.forced == [0]
    T = lift_to_H(Td, H, red)
    assert T.bags == [()] and T.width == -1
    assert validate_reduced_lift(H, T).ok


def test_lift_valid_and_width_bound():
    for seed in range(6):
        px = build_pixelation(gen_tree_polygon(22, seed))
        task = GuardTask.make(guard_modes=("all-points", "all-pixel-guards"))
        H = build_aux_graph(px, enumerate_max_rects(px, False),
                            simplify_targets(px, task),
                            simplify_guards(px, task))
        Td = decompose_dual(px.dual)
        full = full_lift(Td, H)
        n, edges = aux_graph_edges(H)
        assert validate_decomposition(n, edges, full).ok
        assert full.width + 1 <= 23 * (Td.width + 1)
        rep = validate_reduced_lift(H, lift_to_H(Td, H, reduce(H)))
        assert rep.ok, rep.problems


def test_lift_merges_subset_bags():
    """lift_to_H merges every lifted bag that is a subset of a tree
    neighbour's: the result is a valid reduced lift with the width of the
    unmerged bags and within full_lift's, and no bag is a subset of a
    neighbour's.  Each H is lifted without the vertices of reduce(H) and,
    so that wide bags are merged too, of dominated(H) alone."""
    polys = fixture_polygons() + [
        gen_holed_variant(scale_polygon(gen_tree_polygon(30, 2), 3), 3, 2),
        gen_tree_polygon(30, 5), gen_ktin_polygon(2, 40, 33),
        gen_ktin_polygon(3, 40, 34)]
    merged = 0
    for poly in polys:
        px = build_pixelation(poly)
        Td = decompose_dual(px.dual)
        for gm in (("all-points",), ("vertices",), ("all-pixel-guards",)):
            task = GuardTask.make(guard_modes=gm)
            H = build_aux_graph(px, enumerate_max_rects(px, False),
                                simplify_targets(px, task),
                                simplify_guards(px, task))
            full = full_lift(Td, H)
            for red in (dominated_only(H), reduce(H)):
                T = lift_to_H(Td, H, red)
                rep = validate_reduced_lift(H, T, red)
                assert rep.ok, rep.problems
                gone = lifted_away(H, red)
                unmerged = [[v for v in bag if v not in gone]
                            for bag in full.bags]
                assert T.width == max(map(len, unmerged)) - 1 <= full.width
                sets = [set(bag) for bag in T.bags]
                for a, b in T.tree_edges:
                    assert not sets[a] <= sets[b] and not sets[b] <= sets[a]
                merged += len(unmerged) - len(T.bags)
    assert merged


def test_lift_matches_two_pass_lift():
    """lift_to_H, which builds and merges the bags in one walk, gives the
    bags and tree edges, in order, of two_pass_lift, which lifts every bag
    first and merges them after: on the corpus slice and the small combs in
    the 24 task modes, the orientation instances as given, mirrored and
    rotated, and a 5-step thick staircase, each with the default task.
    Each H is lifted without the vertices of reduce(H) and of dominated(H)
    alone."""
    cases = []
    for poly in _corpus_slice() + _combs_small():
        px = build_pixelation(poly)
        cases += [(px, task) for _mode, task in _task_modes(px)]
    cases += [(build_pixelation(poly), GuardTask.make())
              for poly in _found_polygons() + [thick_staircase(5)]]
    merged = 0
    for px, task in cases:
        H = _aux(px, task)
        Td = decompose_dual(px.dual)
        for red in (dominated_only(H), reduce(H)):
            want = two_pass_lift(Td, H, red)
            got = lift_to_H(Td, H, red)
            key = (px.poly.to_json(), task, red.forced)
            assert got.bags == want.bags, key
            assert got.tree_edges == want.tree_edges, key
            merged += len(got.bags) < len(Td.bags)
    assert len(cases) == 24 * 32 + 7 and merged


def test_lift_mutation_detected():
    px = build_pixelation(OrthoPolygon(SHAPES["L"]))
    task = GuardTask.make()
    H = build_aux_graph(px, enumerate_max_rects(px, False),
                        simplify_targets(px, task), simplify_guards(px, task))
    red = dominated_only(H)
    Ta = lift_to_H(decompose_dual(px.dual), H, red)
    assert validate_reduced_lift(H, Ta, red).ok
    # drop one rectangle vertex from every bag
    rid = H.rid(0)
    broken = [tuple(v for v in bag if v != rid) for bag in Ta.bags]
    Ta.bags = broken
    assert not validate_reduced_lift(H, Ta, red).ok


def reference_min_degree(n, adj):
    """Min-degree elimination that rescans every live vertex for the least
    (degree, id) at every step, then replays the order to read off the bags
    (the quadratic reference)."""
    nb = [set(a) for a in adj]
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (len(nb[u]), u))
        ns = sorted(nb[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                nb[a].add(b)
                nb[b].add(a)
        for a in ns:
            nb[a].discard(v)
        nb[v] = set()
        alive.discard(v)
        order.append(v)
    pos = {v: i for i, v in enumerate(order)}
    nb = [set(a) for a in adj]
    bags, edges = [], []
    for i, v in enumerate(order):
        ns = sorted(nb[v])
        bags.append(tuple(sorted([v] + ns)))
        for j, a in enumerate(ns):
            for b in ns[j + 1:]:
                nb[a].add(b)
                nb[b].add(a)
        for a in ns:
            nb[a].discard(v)
        if ns:
            edges.append((i, min(pos[a] for a in ns)))
    return TreeDecomposition(bags, sorted(edges), "dual")


def grid_dual(w, h, drop, seed):
    """Largest component of a w x h grid graph with a share of cells removed,
    relabelled in a seeded random order."""
    rng = random.Random(seed)
    cells = {(x, y) for x in range(w) for y in range(h) if rng.random() >= drop}
    comps, seen = [], set()
    for c in sorted(cells):
        if c in seen:
            continue
        comp, stack = [], [c]
        seen.add(c)
        while stack:
            x, y = stack.pop()
            comp.append((x, y))
            for d in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if d in cells and d not in seen:
                    seen.add(d)
                    stack.append(d)
        comps.append(comp)
    comp = max(comps, key=len)
    rng.shuffle(comp)
    ids = {c: i for i, c in enumerate(comp)}
    edges = [(ids[(x, y)], ids[d]) for x, y in comp
             for d in ((x + 1, y), (x, y + 1)) if d in ids]
    return dual_of(edges, len(comp))


def differential_duals():
    polys = [gen_ktin_polygon(k, teeth, seed)
             for k in (2, 3) for teeth in (4, 12) for seed in (31, 32)]
    for n, h, s in ((20, 2, 1), (30, 3, 2), (40, 4, 5)):
        base = gen_holed_variant(scale_polygon(gen_tree_polygon(n, s), 3), h, s)
        polys += [base] + [turned(base, how) for how in TURNS]
    polys += [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    duals = [build_pixelation(p).dual for p in polys]
    duals += [dual_of([(i, (i + 1) % k) for i in range(k)], k)
              for k in (3, 4, 7, 12)]
    duals += [grid_dual(w, h, drop, seed) for w, h, drop, seed in
              ((6, 6, 0.1, 0), (8, 5, 0.2, 1), (12, 9, 0.25, 2),
               (15, 15, 0.15, 3))]
    return duals


def shuffled_tree(n, seed):
    """A random tree on n vertices, each attached to an earlier one, with
    its ids in a seeded random order."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    return dual_of([(ids[rng.randrange(v)], ids[v]) for v in range(1, n)], n)


def cycle_with_paths(k, length, seed):
    """A k-cycle with a path of `length` vertices hanging from every other
    cycle vertex, with its ids in a seeded random order."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % k) for i in range(k)]
    n = k
    for c in range(0, k, 2):
        for j in range(length):
            edges.append((c if j == 0 else n - 1, n))
            n += 1
    ids = list(range(n))
    rng.shuffle(ids)
    return dual_of([(ids[a], ids[b]) for a, b in edges], n)


def pendant_duals():
    """Duals that the pendant phase eliminates whole, trees, and in part,
    cycles with long pendant paths."""
    duals = [build_pixelation(gen_tree_polygon(n, seed)).dual
             for n in (10, 40, 150) for seed in (0, 1, 2)]
    duals += [shuffled_tree(n, seed) for n, seed in
              ((2, 0), (3, 1), (12, 2), (60, 3), (200, 4))]
    duals += [cycle_with_paths(k, length, seed) for k, length, seed in
              ((3, 1, 0), (4, 10, 1), (7, 25, 2), (12, 6, 3))]
    return duals


def assert_reference_decomposition(D, T):
    want = reference_min_degree(D.n, D.adj)
    assert T.bags == want.bags
    assert T.tree_edges == want.tree_edges
    rep = validate_decomposition(D.n, D.edges, T)
    assert rep.ok, rep.problems


def test_min_degree_matches_reference():
    """decompose_dual against the quadratic reference on duals with and
    without cycles, trees included."""
    duals = differential_duals() + pendant_duals()
    assert any(len(D.edges) == D.n - 1 for D in duals)
    for D in duals:
        assert_reference_decomposition(D, decompose_dual(D))


def test_dual_decomposition_scales_linearly(thin_trees):
    """On K=3 combs, which reach the core phase, and on thin trees of 1k to
    64k pixels, which the pendant phase eliminates whole.  Each size is
    timed as the best of 5 runs with the collector paused, as solve_task
    runs it: the smallest comb takes under 2 ms, so a collection in one run
    would show as a bend in the slope."""
    combs = [build_pixelation(gen_ktin_polygon(3, teeth, 32)).dual
             for teeth in (50, 100, 200, 400, 800)]
    trees = [px.dual for px in thin_trees]
    for duals in (combs, trees):
        with gc_paused():
            times = best_times([lambda D=D: decompose_dual(D) for D in duals])
        pixels = [D.n for D in duals]
        assert loglog_slope(pixels, times) <= 1.3, (pixels, times)
