"""Tripartite auxiliary graph over targets, maximal rectangles and guards.

Edges are containment/intersection relations; guarding is equivalent to a
length-2 path through a shared rectangle.  Adjacency is assembled from the
precomputed per-pixel incidence lists, never from all-pairs geometry.
`reduce` names the vertices the DP need not see and the guards every
optimal solution takes.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from rguard.guard_model import GuardTable, TargetTable
from rguard.max_rectangles import MaxRect
from rguard.pixelation import Pixelation
from rguard.polygon_core import Pt


@dataclass(slots=True)
class AuxGraph:
    targets: TargetTable
    rects: list[MaxRect]
    guards: GuardTable
    ur: list[list[int]]    # target  -> rect ids
    ru: list[list[int]]    # rect    -> target ids
    gr: list[list[int]]    # guard   -> rect ids
    rg: list[list[int]]    # rect    -> guard ids

    @property
    def n_vertices(self) -> int:
        return len(self.targets) + len(self.rects) + len(self.guards)

    # H-vertex id spaces: targets, then rects, then guards
    def tid(self, i: int) -> int:
        return i

    def rid(self, i: int) -> int:
        return len(self.targets) + i

    def gid(self, i: int) -> int:
        return len(self.targets) + len(self.rects) + i


def build_aux_graph(px: Pixelation, rects: list[MaxRect],
                    targets: TargetTable, guards: GuardTable) -> AuxGraph:
    """H from the rectangles of each home pixel.  A point's rectangles are
    those of its home pixel that hold it: a rectangle that holds it meets
    every pixel whose closure holds it.  A pixel guard's are all those of
    its pixel, which are the rectangles meeting it.  Each pixel's list is in
    rectangle-id order, so every adjacency list is built sorted.  The
    points are read from the tables' columns, the rectangles' bounds from
    four flat lists."""
    by_pixel_rects: list[list[int]] = [[] for _ in px.x0]
    for mr in rects:
        for pid in mr.pixel_ids:
            by_pixel_rects[pid].append(mr.id)
    xmin = [mr.rect.xmin for mr in rects]
    ymin = [mr.rect.ymin for mr in rects]
    xmax = [mr.rect.xmax for mr in rects]
    ymax = [mr.rect.ymax for mr in rects]

    def holding(q: Pt | None, pid: int) -> list[int]:
        if q is None:   # a pixel guard
            return by_pixel_rects[pid]
        x, y = q
        return [r for r in by_pixel_rects[pid]
                if xmin[r] <= x <= xmax[r] and ymin[r] <= y <= ymax[r]]

    ur = list(map(holding, targets.location, targets.pixel))
    gr = list(map(holding, guards.location, guards.pixel))
    ru: list[list[int]] = [[] for _ in rects]
    rg: list[list[int]] = [[] for _ in rects]
    for ti, rs in enumerate(ur):
        for ri in rs:
            ru[ri].append(ti)
    for gi, rs in enumerate(gr):
        for ri in rs:
            rg[ri].append(gi)
    return AuxGraph(targets, rects, guards, ur, ru, gr, rg)


def dominated(H: AuxGraph) -> tuple[set[int], set[int], set[int]]:
    """Ids of the targets, rectangles and guards of H that an optimal guard
    set can do without.

    A guard goes if its rectangle set is contained in another guard's: any
    selection of it can be swapped for the larger one.  A target goes if its
    rectangle set contains another target's: covering the smaller one covers
    it too.  Vertices with equal sets are grouped first: every member but the
    lowest id goes, and containment is then tested between the groups'
    lowest ids only, whose sets are distinct.  Containment is transitive, so
    every dropped vertex has a kept one that stands in for it, and the
    optimal size over the kept vertices is that of H.  A rectangle goes if
    none of its targets is kept: no kept target is covered through it.
    """
    return _dominated(H)[:3]


def _dominated(H: AuxGraph):
    """dominated(H), and the number of kept targets of each rectangle."""
    targets, pairs = _contained_pairs(H.ur, H.ru)
    targets.update(big for _small, big in pairs)
    guards, pairs = _contained_pairs(H.gr, H.rg)
    guards.update(small for small, _big in pairs)
    left = [len(ts) - len(targets.intersection(ts)) for ts in H.ru]
    rects = {r for r, n in enumerate(left) if not n}
    return targets, rects, guards, left


@dataclass(slots=True)
class Reduction:
    """Ids of the targets, rectangles and guards of H that the DP need not
    see, and the forced guards, in the order they were found.  The forced
    guards are among the left-out guards: the answer takes them all."""
    targets: set[int]
    rects: set[int]
    guards: set[int]
    forced: list[int]


def reduce(H: AuxGraph) -> Reduction:
    """dominated(H), then forced guards and guard containment, repeated
    until a round forces no guard and has no guard left to test.

    A kept target that exactly one kept guard sees forces that guard: every
    solution over the kept guards contains it.  A round takes every forced
    guard, drops every target that one of its rectangles covers and every
    rectangle left with no kept target, then drops each kept guard whose
    set of kept rectangles is empty or contained in another kept guard's,
    grouped as in dominated(H).  The optimal size of H is the number of
    forced guards plus that of the kept rest.  A kept target keeps all its
    rectangles and dominated(H) left no two kept targets comparable, so
    target containment finds nothing more.

    A round re-reads only what the last one changed.  The kept guards of
    each rectangle, and the number of kept rectangles of each guard, are
    updated as vertices drop.  A target can be forced only when each of its
    rectangles has at most one kept guard: the first round tests every kept
    target, and a later round only the kept targets of the rectangles whose
    kept guards fell to one or to none in the round before.  A guard whose
    set did not shrink since its last containment test was comparable with
    no kept guard then, and is not now, since sets only shrink.  So a round
    tests only the guards whose set shrank; the first round, those that
    dominated(H) dropped a rectangle of and those with none.  In all,
    whatever the number of rounds, a target is tested at most once plus
    twice per rectangle, a guard at most once plus once per rectangle, and
    the rest reads each edge of H at most twice."""
    targets, rects, guards, left = _dominated(H)
    forced: list[int] = []
    seen_by = [set() if r in rects else {g for g in gs if g not in guards}
               for r, gs in enumerate(H.rg)]
    count = list(map(len, H.gr))
    shrunk = {g for g, rs in enumerate(H.gr) if not rs}
    for r in rects:
        for g in H.rg[r]:
            count[g] -= 1
            if g not in guards:
                shrunk.add(g)
    check = [t for t in range(len(H.targets)) if t not in targets]
    lone: set[int] = set()   # rectangles left with at most one kept guard

    def drop_guard(g: int) -> None:
        guards.add(g)
        for r in H.gr[g]:
            gs = seen_by[r]
            gs.discard(g)
            if len(gs) < 2:
                lone.add(r)

    while True:
        new = _forced(check, H.ur, seen_by)
        if not new and not shrunk:
            return Reduction(targets, rects, guards, forced)
        forced += sorted(new)
        lone.clear()
        covered = {r for g in new for r in H.gr[g] if r not in rects}
        for g in new:
            drop_guard(g)
        for r in covered:
            for t in H.ru[r]:
                if t not in targets:
                    targets.add(t)
                    for r2 in H.ur[t]:
                        left[r2] -= 1
                        if not left[r2]:
                            rects.add(r2)
                            for g in seen_by[r2]:
                                count[g] -= 1
                                shrunk.add(g)
                            seen_by[r2] = set()
        for a in shrunk:
            if a not in guards and _contained(a, H.gr[a], count, seen_by):
                drop_guard(a)
        shrunk.clear()
        check = {t for r in lone if r not in rects
                 for t in H.ru[r] if t not in targets}


def _forced(check: Iterable[int], ur: list[list[int]],
            seen_by: list[set[int]]) -> set[int]:
    """The guards that some target in check sees alone: the one guard in
    seen_by[r] over all its rectangles r, when there is exactly one."""
    out = set()
    for t in check:
        only = -1
        for r in ur[t]:
            gs = seen_by[r]
            if not gs:
                continue
            if len(gs) > 1:
                break
            (g,) = gs
            if only not in (-1, g):
                break
            only = g
        else:
            if only >= 0:
                out.add(only)
    return out


def _contained(a: int, rs: list[int], count: list[int],
               seen_by: list[set[int]]) -> bool:
    """Is the set of kept rectangles of guard a empty, contained in that of
    another kept guard, or equal to that of a lower id?  rs are a's
    rectangles, the kept ones those whose seen_by holds a, and count[b] is
    the number of b's.  Only the guards of a's kept rectangle with the
    fewest are tried."""
    n = count[a]
    if not n:
        return True
    s = [r for r in rs if a in seen_by[r]]
    for b in seen_by[min(s, key=lambda r: len(seen_by[r]))]:
        m = count[b]
        if (m > n or m == n and b < a) and all(b in seen_by[r] for r in s):
            return True
    return False


def _contained_pairs(sets: list[list[int]], members: list[list[int]]):
    """(dups, pairs): dups are the vertices whose set equals that of a lower
    id; pairs are (a, b) among the others with sets[a] ⊊ sets[b], i.e. b is in
    members[r] for every r in sets[a].  The sets are sorted lists, as AuxGraph
    keeps them, so equal ones have equal tuples.  The b of a are the larger
    sets in the intersection of the members of a's rectangles, taken from
    the least rectangle up, so that it costs the size of the least one for
    each rectangle.  Vertices with an empty set are skipped."""
    # the lowest id of each set: the last one written, in reverse id order
    first = dict(zip(map(tuple, reversed(sets)), range(len(sets) - 1, -1, -1)))
    first.pop((), None)
    reps = set(first.values())
    dups = {a for a, s in enumerate(sets) if s and a not in reps}
    member_sets = [{b for b in m if b not in dups} for m in members]
    size = [len(s) for s in sets]
    least = [len(m) for m in member_sets].__getitem__
    pairs = []
    for s, a in first.items():
        if len(s) > 2:     # x & y iterates the smaller of the two alone
            s = sorted(s, key=least)
        common = member_sets[s[0]]
        for r in s[1:]:
            common = common & member_sets[r]
        if len(common) > 1:
            n = len(s)
            pairs += [(a, b) for b in common if size[b] > n]
    return dups, pairs
