import itertools
import random
import time

from helpers import (HOLED_SHAPES, SHAPES, fixture_polygons, full_lift,
                     validate_reduced_lift)
from test_acceptance import GUARD_MODES, TARGET_MODES, _corpus, _explicit_targets
from rguard.aux_graph import AuxGraph, build_aux_graph, dominated
from rguard.cli_io import loglog_slope
from rguard.dp_solver import (DARK, DOMINATED, LIT, PENDING, PROMISED,
                              _cons_to_set, _introduce, _join, _kind,
                              _merge_sel, solve_r2ds, verify_solution)
from rguard.guard_model import (Guard, GuardTask, TargetPoint, simplify_guards,
                                simplify_targets)
from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.max_rectangles import MaxRect, enumerate_max_rects
from rguard.oracle import oracle_min_guards
from rguard.pipeline import solve_task
from rguard.pixelation import build_pixelation
from rguard.polygon_core import OrthoPolygon, Rect, scale_polygon
from rguard.tree_decomposition import decompose_dual, lift_to_H


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
    return AuxGraph(
        [TargetPoint(i, (0, 0), "interior", ()) for i in range(len(ur))],
        [MaxRect(i, Rect(0, 0, 1, 1), False, ()) for i in range(n_rects)],
        [Guard(i, "point", (0, 0), None, ()) for i in range(len(gr))],
        [sorted(rs) for rs in ur], ru, [sorted(rs) for rs in gr], rg)


def test_dominance_equal_guards_keep_lowest_id():
    H = _graph(ur=[[0]], gr=[[2], [0, 1], [0, 1], [0, 1]], n_rects=3)
    _targets, guards = dominated(H)
    assert guards == {2, 3}


def test_dominance_strict_subset_guard_dropped():
    H = _graph(ur=[[0], [2]], gr=[[0, 1, 2], [0, 1], [2], [3]], n_rects=4)
    _targets, guards = dominated(H)
    assert guards == {1, 2}


def test_dominance_strict_superset_target_dropped():
    H = _graph(ur=[[0, 1], [1], [1, 2], [1], [3]], gr=[[0, 1, 2, 3]],
               n_rects=4)
    targets, _guards = dominated(H)
    # 0 and 2 contain {1}; 3 equals 1 and has the higher id; 4 is alone
    assert targets == {0, 2, 3}


def test_dominance_filtered_bags_stay_valid():
    polys = [gen_holed_variant(scale_polygon(gen_tree_polygon(6, 2), 3), 1, 2),
             gen_tree_polygon(30, 5)] + fixture_polygons()
    removed = 0
    for poly in polys:
        for gm in GUARD_MODES:
            ctx = solve(poly, guard_modes=gm)
            targets, guards = dominated(ctx.H)
            removed += len(targets) + len(guards)
            rep = validate_reduced_lift(ctx.H, ctx.T_aux)
            assert rep.ok, rep.problems
            assert ctx.T_aux.width <= full_lift(ctx.T_dual, ctx.H).width
    assert removed


def test_dominance_infeasible_witness_unchanged():
    cases = [(OrthoPolygon(SHAPES["L"]), dict(guard_modes=("pixels",),
                                              guard_pixels=())),
             (OrthoPolygon(SHAPES["U"]), dict(guard_modes=("pixels",),
                                              guard_pixels=(0,))),
             (OrthoPolygon(SHAPES["U"]), dict(guard_modes=("points",),
                                              guard_points=((0, 0),)))]
    for poly, kw in cases:
        ctx = solve(poly, **kw)
        H = ctx.H
        first_unseen = min(ti for ti in range(len(H.targets))
                           if not any(H.rg[ri] for ri in H.ur[ti]))
        full = solve_r2ds(H, full_lift(ctx.T_dual, H))
        assert ctx.solution.status == full.status == "infeasible"
        assert ctx.solution.witness_target == full.witness_target == first_unseen
        assert solve_r2ds(H, ctx.T_aux).witness_target == first_unseen


def test_dominance_reduction_matches_full_dp():
    """Differential check of the reduced DP against the DP over the full
    lifted bags on a slice of the acceptance corpus: trees, holed variants
    and the fixtures, across every target mode, guard mode and the
    degenerate flag."""
    corpus = _corpus()
    polys = corpus[0:435:29] + corpus[435:485:25] + corpus[485:]
    runs = 0
    for poly in polys:
        px = build_pixelation(poly)
        for tm in TARGET_MODES:
            tpts = _explicit_targets(px) if tm == "points" else ()
            for gm in GUARD_MODES:
                for deg in (False, True):
                    task = GuardTask.make(target_mode=tm, target_points=tpts,
                                          guard_modes=gm, allow_degenerate=deg,
                                          doubled=False)
                    ctx = solve_task(px, task)
                    red = ctx.solution
                    full = solve_r2ds(ctx.H, full_lift(ctx.T_dual, ctx.H))
                    key = (poly.to_json(), tm, gm, deg)
                    assert red.status == full.status, key
                    assert red.size == full.size, key
                    if red.status == "optimal":
                        assert verify_solution(ctx.H, red), key
                        assert verify_solution(ctx.H, full), key
                    runs += 1
    assert runs == 24 * len(polys)


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
    return targets, guards


def test_dominance_grouping_matches_reference():
    """Grouping equal sets first drops exactly the vertices that pairwise
    containment over all vertices drops, on the corpus slice of
    test_dominance_reduction_matches_full_dp and on K=2 and K=3 combs."""
    corpus = _corpus()
    polys = corpus[0:435:29] + corpus[435:485:25] + corpus[485:]
    polys += [gen_ktin_polygon(k, teeth, 31 + k) for k in (2, 3)
              for teeth in (6, 40)]
    checked = dropped = 0
    for poly in polys:
        px = build_pixelation(poly)
        for tm in TARGET_MODES:
            tpts = _explicit_targets(px) if tm == "points" else ()
            for gm in GUARD_MODES:
                for deg in (False, True):
                    task = GuardTask.make(target_mode=tm, target_points=tpts,
                                          guard_modes=gm, allow_degenerate=deg,
                                          doubled=False)
                    H = _aux(px, task)
                    got = dominated(H)
                    assert got == _reference_dominated(H), \
                        (poly.to_json(), tm, gm, deg)
                    checked += 1
                    dropped += len(got[0]) + len(got[1])
    assert checked == 24 * len(polys) and dropped


def _best_times(calls):
    """The least time of each call over 5 rounds.  The calls take
    milliseconds, so a burst of other load can hit one size only; running
    every call once per round spreads it over all."""
    times = [float("inf")] * len(calls)
    for _ in range(5):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            times[i] = min(times[i], time.perf_counter() - t0)
    return times


def _combs():
    """(pixel count, pixelation, H) of K=3 combs of 50 to 400 teeth."""
    out = []
    for t in (50, 100, 200, 400):
        px = build_pixelation(gen_ktin_polygon(3, t, 32))
        out.append((px.pixel_count, px, _aux(px, GuardTask.make())))
    return out


def test_dominance_scales_linearly():
    combs = _combs()
    times = _best_times([lambda H=H: dominated(H) for _n, _px, H in combs])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def test_dp_scales_linearly():
    """On the combs a rectangle across the comb has thousands of targets and
    guards, but a bag holds at most width + 1 of them; the DP reads only
    the bag, so its time grows linearly with the pixels."""
    combs = _combs()
    lifts = [(H, lift_to_H(decompose_dual(px.dual), H)) for _n, px, H in combs]
    times = _best_times([lambda H=H, T=T: solve_r2ds(H, T) for H, T in lifts])
    pixels = [n for n, _px, _H in combs]
    assert loglog_slope(pixels, times) <= 1.3, (pixels, times)


def _reference_join(H, left, right, bag):
    """_join checked slot by slot: pairs with equal guard bits, each
    rectangle slot tested for compatibility and merged in turn."""
    def slot(key, pos):
        return (key >> (2 * pos)) & 3

    kinds = [_kind(H, u)[0] for u in bag]
    guard_pos = [i for i, k in enumerate(kinds) if k == "guard"]
    rect_pos = [i for i, k in enumerate(kinds) if k == "rect"]
    target_pos = [i for i, k in enumerate(kinds) if k == "target"]
    gmask = selmask = 0
    for p in guard_pos:
        gmask |= 3 << (2 * p)
        selmask |= 1 << (2 * p)
    by_guard = {}
    for key, ent in right.items():
        by_guard.setdefault(key & gmask, []).append((key, ent))
    out = {}
    for ka, (va, sa) in left.items():
        shared = (ka & selmask).bit_count()
        for kb, (vb, sb) in by_guard.get(ka & gmask, ()):
            nk = ka & gmask
            ok = True
            for p in rect_pos:
                x, y = slot(ka, p), slot(kb, p)
                if x == DARK and y == DARK:
                    s = DARK
                elif x != DARK and y != DARK:
                    s = LIT if LIT in (x, y) else PROMISED
                else:
                    ok = False
                    break
                nk |= s << (2 * p)
            if not ok:
                continue
            for p in target_pos:
                s = DOMINATED if (slot(ka, p) | slot(kb, p)) else PENDING
                nk |= s << (2 * p)
            val = va + vb - shared
            cur = out.get(nk)
            if cur is None or val < cur[0]:
                out[nk] = (val, _merge_sel(sa, sb))
    return out


def _random_table(rng, H, bag, n):
    """Up to n random states over bag: guards unselected/selected,
    rectangles dark/promised/lit, targets pending/dominated; each with a
    small value and a selection of one or two guards or none."""
    states = {"guard": 2, "rect": 3, "target": 2}
    kinds = [_kind(H, u) for u in bag]
    guards = [i for k, i in kinds if k == "guard"] or [0]
    table = {}
    for _ in range(n):
        key = 0
        for p, (k, _i) in enumerate(kinds):
            key |= rng.randrange(states[k]) << (2 * p)
        sel = None
        for _ in range(rng.randrange(3)):
            sel = (1, rng.choice(guards), sel)
        table.setdefault(key, (rng.randrange(6), sel))
    return table


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
                by_kind.setdefault(_kind(ctx.H, u)[0], []).append(u)
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
    for key, (val, sel) in want.items():
        assert got[key][0] == val, info
        assert _cons_to_set(got[key][1]) == _cons_to_set(sel), info


def test_join_matches_reference():
    """The bucketed join gives the same keys in the same order, the same
    values and the same selected guards as the slot-by-slot join, on seeded
    random child tables over bags of holed instances and a hand-built bag."""
    rng = random.Random(6)
    pairs = 0
    for H, bag in _bag_cases():
        for n in (4, 40, 300):
            left = _random_table(rng, H, bag, n)
            right = _random_table(rng, H, bag, n)
            want = _reference_join(H, left, right, bag)
            _assert_same_table(_join(H, left, right, bag), want, bag)
            pairs += len(want)
    assert pairs > 1000


def _reference_introduce(H, child, bag, v, pos):
    """_introduce with its masks built by walking the introduced vertex's
    whole neighbour list through a map from bag vertex to position."""
    kind, i = _kind(H, v)
    rbase, gbase = H.rid(0), H.gid(0)
    posmap = {u: i for i, u in enumerate(bag)}
    out = {}
    shift = 2 * pos
    lowmask = (1 << shift) - 1

    def put(nk, val, sel):
        cur = out.get(nk)
        if cur is None or val < cur[0]:
            out[nk] = (val, sel)

    if kind == "guard":
        L = 0
        for ri in H.gr[i]:
            if rbase + ri in posmap:
                L |= 1 << (2 * posmap[rbase + ri])
        for key, (val, sel) in child.items():
            nk = (key & lowmask) | ((key >> shift) << (shift + 2))
            put(nk, val, sel)
            if (nk | nk >> 1) & L == L:
                p = nk & L & ~(nk >> 1)
                put(nk ^ (p | p << 1 | 1 << shift), val + 1, (1, i, sel))
    elif kind == "rect":
        G = target_bits = 0
        for gi in H.rg[i]:
            if gbase + gi in posmap:
                G |= 1 << (2 * posmap[gbase + gi])
        for t in H.ru[i]:
            if t in posmap:
                target_bits |= 1 << (2 * posmap[t])
        for key, (val, sel) in child.items():
            base = (key & lowmask) | ((key >> shift) << (shift + 2))
            if base & G:
                put(base | (LIT << shift) | target_bits, val, sel)
            else:
                put(base, val, sel)
                put(base | (PROMISED << shift) | target_bits, val, sel)
    else:
        M = 0
        for ri in H.ur[i]:
            if rbase + ri in posmap:
                M |= 3 << (2 * posmap[rbase + ri])
        for key, (val, sel) in child.items():
            nk = (key & lowmask) | ((key >> shift) << (shift + 2))
            put(nk | (DOMINATED << shift) if nk & M else nk, val, sel)
    return out


def test_introduce_matches_reference():
    """_introduce, which reads its masks off the bag, gives the same keys in
    the same order, the same values and the same selected guards as the
    neighbour-list walk, on seeded random child tables over the bags of
    test_join_matches_reference with each bag vertex introduced in turn."""
    rng = random.Random(7)
    states = 0
    for H, bag in _bag_cases():
        for pos, v in enumerate(bag):
            child_bag = bag[:pos] + bag[pos + 1:]
            for n in (4, 40, 300):
                child = _random_table(rng, H, child_bag, n)
                want = _reference_introduce(H, child, bag, v, pos)
                _assert_same_table(_introduce(H, child, bag, v, pos), want,
                                   (bag, v))
                states += len(want)
    assert states > 1000
