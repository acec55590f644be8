import itertools
import random
import tracemalloc

import pytest

from helpers import (HOLED_SHAPES, SHAPES, _nice_kind, best_times,
                     dominated_only, fixture_polygons, full_lift, gc_paused,
                     lifted_away, nice_tree_lift, nice_tree_solve,
                     notched_square, scan_certificates, scan_witness, turned,
                     validate_reduced_lift)
from test_acceptance import GUARD_MODES, TARGET_MODES, _corpus, _explicit_targets
from rguard.aux_graph import AuxGraph, build_aux_graph, dominated, reduce
from rguard.cli_io import loglog_slope
from rguard import dp_solver
from rguard.dp_solver import (DARK, DOMINATED, LIT, PENDING, PROMISED,
                              SolverError, _introduce, _join, _slots,
                              solve_r2ds, verify_solution)
from rguard.guard_model import (GuardTable, GuardTask, TargetTable,
                                simplify_guards, simplify_targets)
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.max_rectangles import MaxRect, enumerate_max_rects
from rguard.oracle import oracle_min_guards
from rguard.pipeline import solve_task
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, Rect, scale_polygon
from rguard.tree_decomposition import (TreeDecomposition, decompose_dual,
                                       lift_to_H)


def solve(poly, **kw):
    return solve_task(poly, GuardTask.make(**kw))


def test_unit_square_one_guard():
    ctx = solve(OrthoPolygon(SHAPES["unit"]))
    assert ctx.solution.size == 1
    assert verify_solution(ctx.H, ctx.solution)


def test_l_shape_one_guard():
    ctx = solve(OrthoPolygon(SHAPES["L"]))
    assert ctx.solution.size == 1


def test_u_shape_two_guards():
    ctx = solve(OrthoPolygon(SHAPES["U"]))
    assert ctx.solution.size == 2


def test_plus_one_pixel_guard():
    ctx = solve(OrthoPolygon(SHAPES["plus"]), guard_modes=("all-pixel-guards",))
    assert ctx.solution.size == 1
    assert ctx.solution.guards[0].kind == "pixel"


def test_infeasible_empty_guard_set():
    ctx = solve(OrthoPolygon(SHAPES["L"]), guard_modes=("pixels",),
                guard_pixels=())
    assert ctx.solution.status == "infeasible"
    assert ctx.solution.witness_target is not None
    assert not verify_solution(ctx.H, ctx.solution)


def test_verify_mutations():
    ctx = solve(OrthoPolygon(SHAPES["U"]))
    sol = ctx.solution
    assert verify_solution(ctx.H, sol)
    removed = sol.guards.pop()
    assert not verify_solution(ctx.H, sol)
    sol.guards.append(removed)
    assert verify_solution(ctx.H, sol)
    old = sol.certificates[0].rect_id
    sol.certificates[0].rect_id = 10 ** 6
    assert not verify_solution(ctx.H, sol)
    sol.certificates[0].rect_id = old


def test_certificates_cover_every_target():
    for poly in fixture_polygons():
        ctx = solve(poly)
        assert len(ctx.solution.certificates) == len(ctx.H.targets)
        assert verify_solution(ctx.H, ctx.solution)


def test_determinism_same_guard_ids():
    poly_a = gen_tree_polygon(30, 4)
    poly_b = gen_tree_polygon(30, 4)
    a = solve(poly_a)
    b = solve(poly_b)
    assert [g.json_obj() for g in a.solution.guards] == \
        [g.json_obj() for g in b.solution.guards]


def test_oracle_equivalence_mode_grid():
    polys = [gen_tree_polygon(n, s) for n in (6, 14, 24) for s in (0, 1)]
    polys.append(gen_holed_variant(scale_polygon(gen_tree_polygon(6, 2), 3), 1, 2))
    modes = itertools.product(
        ["all", "boundary", "vertices"],
        [("all-points",), ("vertices",), ("all-pixel-guards",)],
        [False, True])
    for poly in polys:
        for tm, gm, deg in modes:
            task = GuardTask.make(target_mode=tm, guard_modes=gm,
                                  allow_degenerate=deg)
            ctx = solve_task(poly, task)
            ref = oracle_min_guards(ctx.px, task)
            got = ctx.solution.size if ctx.solution.status == "optimal" else None
            want = ref.size if ref.status == "optimal" else None
            assert got == want, (tm, gm, deg)
        modes = itertools.product(["all"], [("all-points",)], [False, True])


def test_monotonicity_metamorphic():
    for seed in range(5):
        poly = gen_tree_polygon(18, seed)
        # more guards never hurt: vertices ⊆ all points
        a = solve(poly, guard_modes=("vertices",)).solution
        b = solve(poly, guard_modes=("all-points",)).solution
        if a.status == "optimal":
            assert b.status == "optimal" and b.size <= a.size
        # fewer targets never hurt: vertices ⊆ boundary ⊆ all
        sizes = {}
        for tm in ("vertices", "boundary", "all"):
            s = solve(poly, target_mode=tm).solution
            assert s.status == "optimal"
            sizes[tm] = s.size
        assert sizes["vertices"] <= sizes["boundary"] <= sizes["all"]


def test_solution_json_shape():
    ctx = solve(OrthoPolygon(SHAPES["L"]))
    obj = ctx.solution.to_json_obj(ctx.H)
    assert obj["status"] == "optimal"
    assert obj["size"] == 1
    assert obj["guards"][0]["type"] == "point"
    cert = obj["certificates"][0]
    assert set(cert) == {"target", "rect", "guard"}
    assert cert["guard"] == 0


def _graph(ur, gr, n_rects):
    """A bare H from target->rect and guard->rect lists (no geometry)."""
    ru = [[t for t, rs in enumerate(ur) if r in rs] for r in range(n_rects)]
    rg = [[g for g, rs in enumerate(gr) if r in rs] for r in range(n_rects)]
    nu, ng = len(ur), len(gr)
    return AuxGraph(
        TargetTable([(0, 0)] * nu, ["interior"] * nu, [0] * nu),
        [MaxRect(i, Rect(0, 0, 1, 1), False, ()) for i in range(n_rects)],
        GuardTable([(0, 0)] * ng, ["point"] * ng, [0] * ng),
        [sorted(rs) for rs in ur], ru, [sorted(rs) for rs in gr], rg)


def test_dominance_equal_guards_keep_lowest_id():
    H = _graph(ur=[[0]], gr=[[2], [0, 1], [0, 1], [0, 1]], n_rects=3)
    _targets, _rects, guards = dominated(H)
    assert guards == {2, 3}


def test_dominance_strict_subset_guard_dropped():
    H = _graph(ur=[[0], [2]], gr=[[0, 1, 2], [0, 1], [2], [3]], n_rects=4)
    _targets, _rects, guards = dominated(H)
    assert guards == {1, 2}


def test_dominance_strict_superset_target_dropped():
    H = _graph(ur=[[0, 1], [1], [1, 2], [1], [3]], gr=[[0, 1, 2, 3]],
               n_rects=4)
    targets, rects, _guards = dominated(H)
    # 0 and 2 contain {1}; 3 equals 1 and has the higher id; 4 is alone
    assert targets == {0, 2, 3}
    # rectangles 0 and 2 have only dropped targets
    assert rects == {0, 2}


def test_forced_guards_to_a_fixpoint():
    """On a path of six rectangles, each with one target, and five guards
    that each see two neighbouring rectangles, the end targets force the
    end guards; that leaves the middle guard seeing both kept rectangles
    and its neighbours one each, so containment drops the neighbours and a
    second round forces the middle guard.  Nothing is left for the DP."""
    H = _graph(ur=[[r] for r in range(6)],
               gr=[[i, i + 1] for i in range(5)], n_rects=6)
    assert dominated(H) == (set(), set(), set())
    red = reduce(H)
    assert red.forced == [0, 4, 2]
    assert (red.targets, red.rects, red.guards) == (
        set(range(6)), set(range(6)), set(range(5)))


def test_forced_guard_needs_one_kept_guard():
    """A target seen by two kept guards forces neither: target 1 is seen
    by guards 0 and 1, once dominated(H) has dropped guard 2, whose
    rectangle guard 1 sees too.  Only target 0 forces a guard."""
    H = _graph(ur=[[0], [1, 2]], gr=[[0, 1], [1, 2], [2]], n_rects=3)
    assert dominated(H)[2] == {2}
    red = reduce(H)
    assert red.forced == [0]
    # guard 0 covers both targets through rectangle 1
    assert red.targets == {0, 1} and red.guards == {0, 1, 2}


def test_dominance_filtered_bags_stay_valid():
    polys = [gen_holed_variant(scale_polygon(gen_tree_polygon(6, 2), 3), 1, 2),
             gen_tree_polygon(30, 5)] + fixture_polygons()
    removed = 0
    for poly in polys:
        for gm in GUARD_MODES:
            ctx = solve(poly, guard_modes=gm)
            assert ctx.reduction == reduce(ctx.H)
            removed += len(lifted_away(ctx.H))
            rep = validate_reduced_lift(ctx.H, ctx.T_aux)
            assert rep.ok, rep.problems
            assert ctx.T_aux.width <= full_lift(ctx.T_dual, ctx.H).width
    assert removed


def _infeasible_cases():
    """(polygon, task) pairs with a target that no guard sees."""
    return [(OrthoPolygon(SHAPES["L"]),
             GuardTask.make(guard_modes=("pixels",), guard_pixels=())),
            (OrthoPolygon(SHAPES["U"]),
             GuardTask.make(guard_modes=("pixels",), guard_pixels=(0,))),
            (OrthoPolygon(SHAPES["U"]),
             GuardTask.make(guard_modes=("points",), guard_points=((0, 0),)))]


def test_dominance_infeasible_witness_unchanged():
    for poly, task in _infeasible_cases():
        ctx = solve_task(poly, task)
        H = ctx.H
        first_unseen = min(ti for ti in range(len(H.targets))
                           if not any(H.rg[ri] for ri in H.ur[ti]))
        full = solve_r2ds(H, full_lift(ctx.T_dual, H))
        assert ctx.solution.status == full.status == "infeasible"
        assert ctx.solution.witness_target == full.witness_target == first_unseen
        assert solve_r2ds(H, ctx.T_aux).witness_target == first_unseen


def test_certificates_and_witness_match_per_target_scans():
    """solve_r2ds finds the witness with one has-a-guard flag per rectangle
    and each certificate from the first chosen guard of a rectangle; the
    per-target scans it replaced give the same, on criterion 1's corpus in
    its 24 task modes and on the infeasible cases."""
    def cases():
        for poly in _corpus():
            px = build_pixelation(poly)
            for _mode, task in _task_modes(px):
                yield px, task
        yield from _infeasible_cases()

    optimal = infeasible = 0
    for poly, task in cases():
        ctx = solve_task(poly, task)
        sol, H = ctx.solution, ctx.H
        assert sol.witness_target == scan_witness(H), task
        if sol.status == "optimal":
            assert sol.certificates == scan_certificates(
                H, [g.id for g in sol.guards]), task
            optimal += 1
        else:
            infeasible += 1
    assert optimal and infeasible >= len(_infeasible_cases())


def _task_modes(px):
    """The 24 task modes of the acceptance corpus for one pixelation."""
    for tm in TARGET_MODES:
        tpts = _explicit_targets(px) if tm == "points" else ()
        for gm in GUARD_MODES:
            for deg in (False, True):
                yield (tm, gm, deg), GuardTask.make(
                    target_mode=tm, target_points=tpts, guard_modes=gm,
                    allow_degenerate=deg, doubled=False)


def _corpus_slice():
    """Every 29th tree of the acceptance corpus, two of its holed variants,
    the fixtures (the HOLED_SHAPES among them)."""
    corpus = _corpus()
    return corpus[0:435:29] + corpus[435:485:25] + corpus[485:]


def _combs_small():
    """K=2 and K=3 combs of 6 and 40 teeth."""
    return [gen_ktin_polygon(k, teeth, 31 + k) for k in (2, 3)
            for teeth in (6, 40)]


def test_dominance_reduction_matches_full_dp():
    """Differential check of the reduced DP against the DP over the full
    lifted bags on a slice of the acceptance corpus: trees, holed variants
    and the fixtures, across every target mode, guard mode and the
    degenerate flag."""
    polys = _corpus_slice()
    runs = 0
    for poly in polys:
        px = build_pixelation(poly)
        for mode, task in _task_modes(px):
            ctx = solve_task(px, task)
            red = ctx.solution
            full = solve_r2ds(ctx.H, full_lift(ctx.T_dual, ctx.H))
            key = (poly.to_json(), mode)
            assert red.status == full.status, key
            assert red.size == full.size, key
            if red.status == "optimal":
                assert verify_solution(ctx.H, red), key
                assert verify_solution(ctx.H, full), key
            runs += 1
    assert runs == 24 * len(polys)


def _found_polygons():
    """The two holed trees whose min-degree width depends on the orientation,
    as given, mirrored and rotated by 90 degrees."""
    polys = []
    for n, h, seed in ((500, 8, 21), (200, 4, 24)):
        poly = gen_holed_variant(scale_polygon(gen_tree_polygon(n, seed), 3),
                                 h, seed)
        polys += [poly, turned(poly, "mirror"), turned(poly, "rot90")]
    return polys


def _nice_tree_cases():
    """(pixelation, task) pairs: the corpus slice and the small combs, each
    in the 24 task modes, the default task on the orientation instances, and
    the infeasible cases."""
    cases = []
    for poly in _corpus_slice() + _combs_small():
        px = build_pixelation(poly)
        cases += [(px, task) for _mode, task in _task_modes(px)]
    cases += [(build_pixelation(poly), GuardTask.make())
              for poly in _found_polygons()]
    cases += [(build_pixelation(poly), task)
              for poly, task in _infeasible_cases()]
    return cases


def _nice_tree_mismatches(cases):
    """The cases on which solve_task and the nice-tree DP over
    nice_tree_lift differ in status, size or witness, or give a solution that fails
    verify_solution, or on which solve_task raises SolverError."""
    bad = []
    for px, task in cases:
        key = (px.poly.to_json(), task)
        try:
            ctx = solve_task(px, task)
        except SolverError as e:
            bad.append((key, str(e)))
            continue
        got = ctx.solution
        ref = nice_tree_solve(ctx.H, nice_tree_lift(ctx.T_dual, ctx.H))
        if (got.status, got.size, got.witness_target) != \
                (ref.status, ref.size, ref.witness_target):
            bad.append((key, (got.size, ref.size)))
        elif got.status == "optimal" and not (verify_solution(ctx.H, got)
                                              and verify_solution(ctx.H, ref)):
            bad.append((key, "certificate"))
    return bad


def test_dp_matches_nice_tree_dp():
    """Differential check of the DP over the merged lift against the
    nice-tree DP over nice_tree_lift (one vertex per introduce or forget,
    no bag merging, every rectangle kept)."""
    cases = _nice_tree_cases()
    assert len(cases) == 24 * 32 + 6 + 3
    assert _nice_tree_mismatches(cases) == []


def test_nice_tree_check_catches_kept_promised(monkeypatch):
    """A forget that keeps the keys in which a forgotten rectangle is still
    promised lets a target be dominated by a rectangle no guard ever sees;
    the differential check fails on it."""
    def forget_keeping_promised(H, child, gone, slot):
        targets = sum(1 << (2 * slot[u]) for u in gone if u < H.rid(0))
        keep = ~sum(3 << (2 * slot[u]) for u in gone)
        out = {}
        for key, m in child.items():
            if key & targets == targets:
                nk = key & keep
                if nk not in out or m.bit_count() < out[nk].bit_count():
                    out[nk] = m
        return out

    cases = _nice_tree_cases()
    assert _nice_tree_mismatches(cases) == []
    monkeypatch.setattr(dp_solver, "_forget", forget_keeping_promised)
    assert _nice_tree_mismatches(cases)


def test_slots_distinct_within_bags():
    """_slots gives the vertices of every bag distinct slots, fewer than
    the largest bag holds, and each guard that a bag holds its own mask
    bit, 1, 2, 4 and so on, on the merged lifts of the orientation instances
    and, since reduce(H) leaves no vertex of a comb to the DP, on the lifts
    of the combs without the vertices of dominated(H) alone."""
    lifts = []
    for poly in _found_polygons():
        ctx = solve(poly)
        lifts.append((ctx.H, ctx.T_aux))
    for k in (2, 3):
        px = build_pixelation(gen_ktin_polygon(k, 40, 31 + k))
        H = _aux(px, GuardTask.make())
        lifts.append((H, lift_to_H(decompose_dual(px.dual), H,
                                   dominated_only(H))))
    for H, T in lifts:
        assert T.width > 0
        slot, gbit = _slots(T, reversed(range(len(T.bags))), H.gid(0))
        assert max(slot.values()) <= T.width
        for bag in T.bags:
            assert len({slot[u] for u in bag}) == len(bag), bag
        guards = {u for bag in T.bags for u in bag if u >= H.gid(0)}
        assert guards and set(gbit) == guards
        assert sorted(gbit.values()) == [1 << k for k in range(len(guards))]


def _aux(px, task):
    """H of a task, built by the pipeline's layers without the DP."""
    rects = enumerate_max_rects(px, task.allow_degenerate)
    return build_aux_graph(px, rects, simplify_targets(px, task),
                           simplify_guards(px, task))


def _reference_dominated(H):
    """dominated without grouping equal sets: every vertex is tried against
    the members of its least shared rectangle, and of two equal sets the
    lower id is kept."""
    def contained_pairs(sets, members):
        member_sets = [set(m) for m in members]
        for a, s in enumerate(sets):
            if not s:
                continue
            r0 = min(s, key=lambda r: len(members[r]))
            for b in members[r0]:
                if b != a and all(b in member_sets[r] for r in s):
                    yield a, b

    targets = {big for small, big in contained_pairs(H.ur, H.ru)
               if len(H.ur[small]) < len(H.ur[big]) or small < big}
    guards = {small for small, big in contained_pairs(H.gr, H.rg)
              if len(H.gr[small]) < len(H.gr[big]) or big < small}
    rects = {r for r, ts in enumerate(H.ru) if targets.issuperset(ts)}
    return targets, rects, guards


def test_dominance_grouping_matches_reference():
    """Grouping equal sets first drops exactly the vertices that pairwise
    containment over all vertices drops, on the corpus slice of
    test_dominance_reduction_matches_full_dp and on K=2 and K=3 combs."""
    polys = _corpus_slice() + _combs_small()
    checked = dropped = 0
    for poly in polys:
        px = build_pixelation(poly)
        for mode, task in _task_modes(px):
            H = _aux(px, task)
            got = dominated(H)
            assert got == _reference_dominated(H), (poly.to_json(), mode)
            checked += 1
            dropped += sum(map(len, got))
    assert checked == 24 * len(polys) and dropped


def _combs():
    """(pixel count, pixelation, H) of K=3 combs of 50 to 400 teeth."""
    out = []
    for t in (50, 100, 200, 400):
        px = build_pixelation(gen_ktin_polygon(3, t, 32))
        out.append((px.pixel_count, px, _aux(px, GuardTask.make())))
    return out


def test_dominance_scales_linearly():
    combs = _combs()
    times = best_times([lambda H=H: dominated(H) for _n, _px, H in combs])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def test_reduction_scales_linearly():
    """reduce(H) removes each guard from its rectangles' kept guards once,
    tests the targets of a rectangle only when it is left with one kept
    guard or none, and drops the targets of each covered rectangle once,
    whatever the number of rounds.  So on the combs, where a rectangle
    across the comb has thousands of targets and guards and every guard is
    forced, it grows linearly with the pixels."""
    combs = _combs()
    assert all(len(reduce(H).guards) == len(H.guards) for _n, _px, H in combs)
    times = best_times([lambda H=H: reduce(H) for _n, _px, H in combs])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def test_reduction_scales_linearly_on_trees(thin_trees):
    """On thin trees of 1k to 64k pixels, where every guard of the answer
    is forced over several rounds, reduce(H) grows linearly with the
    pixels: a round re-reads only what the last one changed.  Each H is built
    once, and each size is timed as the best of 3 runs with the collector
    paused, as solve_task runs it: at 64k pixels the collections it would
    make re-walk every live object of H and bend the slope."""
    trees = [(px.pixel_count, _aux(px, GuardTask.make())) for px in thin_trees]
    with gc_paused():
        times = best_times([lambda H=H: reduce(H) for _n, H in trees], rounds=3)
    pixels = [n for n, _H in trees]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def test_dp_scales_linearly():
    """On the combs a rectangle across the comb has thousands of targets and
    guards, but a bag holds at most width + 1 of them; the DP reads only
    the bag, so its time grows linearly with the pixels.  reduce(H) leaves
    the DP nothing of a comb, so the bags leave out dominated(H) alone."""
    combs = _combs()
    lifts = [(H, lift_to_H(decompose_dual(px.dual), H, dominated_only(H)))
             for _n, px, H in combs]
    times = best_times([lambda H=H, T=T: solve_r2ds(H, T) for H, T in lifts])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def test_lift_scales_linearly():
    """The lift builds and merges the bags in one pass over them, so on the
    combs it grows linearly with the pixels.  The bags leave out
    dominated(H) alone, so that they are not empty."""
    combs = _combs()
    duals = [(H, decompose_dual(px.dual), dominated_only(H))
             for _n, px, H in combs]
    times = best_times([lambda H=H, T=T, red=red: lift_to_H(T, H, red)
                        for H, T, red in duals])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def _reference_join(H, left, right, present, slot):
    """_join checked slot by slot: pairs with equal guard bits, each
    rectangle slot tested for compatibility and merged in turn; the merged
    entry selects the guards of both, and of two entries at one key the one
    selecting fewer guards is kept."""
    def state(key, u):
        return (key >> (2 * slot[u])) & 3

    kinds = [(_nice_kind(H, u)[0], u) for u in present]
    guards = [u for k, u in kinds if k == "guard"]
    rects = [u for k, u in kinds if k == "rect"]
    targets = [u for k, u in kinds if k == "target"]
    gmask = 0
    for u in guards:
        gmask |= 3 << (2 * slot[u])
    by_guard = {}
    for key, m in right.items():
        by_guard.setdefault(key & gmask, []).append((key, m))
    out = {}
    for ka, ma in left.items():
        for kb, mb in by_guard.get(ka & gmask, ()):
            nk = ka & gmask
            ok = True
            for u in rects:
                x, y = state(ka, u), state(kb, u)
                if x == DARK and y == DARK:
                    s = DARK
                elif x != DARK and y != DARK:
                    s = LIT if LIT in (x, y) else PROMISED
                else:
                    ok = False
                    break
                nk |= s << (2 * slot[u])
            if not ok:
                continue
            for u in targets:
                s = DOMINATED if (state(ka, u) | state(kb, u)) else PENDING
                nk |= s << (2 * slot[u])
            m = ma | mb
            cur = out.get(nk)
            if cur is None or m.bit_count() < cur.bit_count():
                out[nk] = m
    return out


def _random_table(rng, H, present, slot, gbit, n):
    """Up to n random states over the vertices present, each at its slot:
    guards unselected/selected, rectangles dark/promised/lit, targets
    pending/dominated; each with a random mask over the mask bits gbit of
    the guards present."""
    states = {"guard": 2, "rect": 3, "target": 2}
    kinds = [(_nice_kind(H, u)[0], u) for u in present]
    bits = [gbit[u] for k, u in kinds if k == "guard"]
    table = {}
    for _ in range(n):
        key = 0
        for k, u in kinds:
            key |= rng.randrange(states[k]) << (2 * slot[u])
        table.setdefault(key, sum(b for b in bits if rng.randrange(2)))
    return table


def _bag_maps(H, bag):
    """A slot map and mask bits for a sorted bag: each vertex's position,
    and the guards' bits in bag order."""
    guards = [u for u in bag if u >= H.gid(0)]
    return ({u: p for p, u in enumerate(bag)},
            {u: 1 << k for k, u in enumerate(guards)})


def _bag_cases():
    """(H, bag) pairs: up to 3 vertices of each kind from every fully lifted
    bag of the holed shapes and a small holed tree that holds all three
    kinds, and a hand-built bag of a bare H."""
    cases = []
    holed = [OrthoPolygon(o, h) for o, h in HOLED_SHAPES.values()]
    holed.append(gen_holed_variant(scale_polygon(gen_tree_polygon(6, 2), 3),
                                   1, 2))
    for poly in holed:
        ctx = solve(poly)
        for bag in full_lift(ctx.T_dual, ctx.H).bags:
            by_kind = {}
            for u in bag:
                by_kind.setdefault(_nice_kind(ctx.H, u)[0], []).append(u)
            if len(by_kind) == 3:  # up to 3 of each kind keep tables dense
                cases.append((ctx.H, tuple(sorted(
                    u for us in by_kind.values() for u in us[:3]))))
    # targets 0-1, rects 2-4, guards 5-6 of a bare H
    H = _graph(ur=[[0, 1], [2]], gr=[[0, 2], [1, 2]], n_rects=3)
    cases.append((H, (0, 1, 2, 3, 4, 5, 6)))
    assert len(cases) >= 10
    return cases


def _assert_same_table(got, want, info):
    assert list(got) == list(want), info
    assert list(got.values()) == list(want.values()), info


def test_join_matches_reference():
    """The bucketed join gives the same keys in the same order and the same
    guard masks as the slot-by-slot join, on seeded random child tables over
    bags of holed instances and a hand-built bag.  The positions of a sorted
    bag are one valid slot map."""
    rng = random.Random(6)
    pairs = 0
    for H, bag in _bag_cases():
        slot, gbit = _bag_maps(H, bag)
        for n in (4, 40, 300):
            left = _random_table(rng, H, bag, slot, gbit, n)
            right = _random_table(rng, H, bag, slot, gbit, n)
            want = _reference_join(H, left, right, bag, slot)
            _assert_same_table(_join(H, left, right, list(bag), slot), want,
                               bag)
            pairs += len(want)
    assert pairs > 1000


def _reference_introduce(H, child, present, v, slot, gbit):
    """_introduce with its masks built by walking the introduced vertex's
    whole neighbour list through the slot map, restricted to the vertices
    present."""
    kind, i = _nice_kind(H, v)
    rbase, gbase = H.rid(0), H.gid(0)
    posmap = {u: slot[u] for u in present}
    out = {}
    shift = 2 * slot[v]

    def put(nk, m):
        cur = out.get(nk)
        if cur is None or m.bit_count() < cur.bit_count():
            out[nk] = m

    if kind == "guard":
        L = 0
        for ri in H.gr[i]:
            if rbase + ri in posmap:
                L |= 1 << (2 * posmap[rbase + ri])
        for nk, m in child.items():
            put(nk, m)
            if (nk | nk >> 1) & L == L:
                p = nk & L & ~(nk >> 1)
                put(nk ^ (p | p << 1 | 1 << shift), m | gbit[v])
    elif kind == "rect":
        G = target_bits = 0
        for gi in H.rg[i]:
            if gbase + gi in posmap:
                G |= 1 << (2 * posmap[gbase + gi])
        for t in H.ru[i]:
            if t in posmap:
                target_bits |= 1 << (2 * posmap[t])
        for base, m in child.items():
            if base & G:
                put(base | (LIT << shift) | target_bits, m)
            else:
                put(base, m)
                put(base | (PROMISED << shift) | target_bits, m)
    else:
        M = 0
        for ri in H.ur[i]:
            if rbase + ri in posmap:
                M |= 3 << (2 * posmap[rbase + ri])
        for nk, m in child.items():
            put(nk | (DOMINATED << shift) if nk & M else nk, m)
    return out


def test_introduce_matches_reference():
    """_introduce, which reads its masks off the vertices present, gives the
    same keys in the same order and the same guard masks as the
    neighbour-list walk, on seeded random child tables over the bags of
    test_join_matches_reference with each bag vertex introduced in turn into
    its slot, the vertex's position in the sorted bag."""
    rng = random.Random(7)
    states = 0
    for H, bag in _bag_cases():
        slot, gbit = _bag_maps(H, bag)
        for pos, v in enumerate(bag):
            present = list(bag[:pos] + bag[pos + 1:])
            for n in (4, 40, 300):
                child = _random_table(rng, H, present, slot, gbit, n)
                want = _reference_introduce(H, child, present, v, slot, gbit)
                _assert_same_table(
                    _introduce(H, child, present, v, slot, gbit), want,
                    (bag, v))
                states += len(want)
    assert states > 1000


def test_forced_guard_selected_in_a_bag_raises():
    """The value is the popcount of the selected guards plus the forced
    ones, so it disagrees with the chosen set only when a forced guard is
    also selected in a bag.  Here the one bag holds the target, the
    rectangle and guard 0, which covers the target and is forced too."""
    H = _graph(ur=[[0]], gr=[[0]], n_rects=1)
    T = TreeDecomposition([(H.tid(0), H.rid(0), H.gid(0))], [-1], "aux")
    assert solve_r2ds(H, T).size == 1
    with pytest.raises(SolverError, match="forced guard was also selected"):
        solve_r2ds(H, T, forced=[0])


def test_small_notched_squares_match_oracle():
    """The notched squares of 2 and 3 teeth (24 and 48 pixels), which are
    not thin, solve to the oracle's sizes, 2 and 3."""
    for n in (2, 3):
        poly = notched_square(n)
        ctx = solve(poly)
        ref = oracle_min_guards(ctx.px, GuardTask.make(), max_pixels=64)
        assert ctx.solution.size == ref.size == n
        assert verify_solution(ctx.H, ctx.solution)


def test_notched_squares_solve_to_their_teeth():
    """The notched squares of 4 and 5 teeth, past the oracle's reach, solve
    to 4 and 5 guards with certificates that verify."""
    for n in (4, 5):
        ctx = solve(notched_square(n))
        assert ctx.solution.size == n
        assert verify_solution(ctx.H, ctx.solution)


def test_dp_memory_per_table_entry(monkeypatch):
    """A DP entry is one int, its guard mask: on the 5-tooth notched square
    the DP's traced peak is at most 260 bytes per entry of its largest
    table, counted on the tables that _join and _introduce return."""
    ctx = solve(notched_square(5))
    largest = 0

    def counted(f):
        def run(*args):
            nonlocal largest
            out = f(*args)
            largest = max(largest, len(out))
            return out
        return run

    monkeypatch.setattr(dp_solver, "_join", counted(dp_solver._join))
    monkeypatch.setattr(dp_solver, "_introduce", counted(dp_solver._introduce))
    tracemalloc.start()
    try:
        sol = solve_r2ds(ctx.H, ctx.T_aux, ctx.reduction.forced)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.size == 5
    assert peak <= 260 * largest, (peak, largest, peak / largest)
