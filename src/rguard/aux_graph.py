"""Tripartite auxiliary graph over targets, maximal rectangles and guards.

Edges are containment/intersection relations; guarding is equivalent to a
length-2 path through a shared rectangle.  Adjacency is assembled from the
precomputed per-pixel incidence lists, never from all-pairs geometry.
`reduce` names the vertices the DP need not see and the guards every
optimal solution takes.
"""
from __future__ import annotations

from dataclasses import dataclass

from rguard.guard_model import Guard, TargetPoint
from rguard.max_rectangles import MaxRect
from rguard.pixelation import Pixelation


@dataclass(slots=True)
class AuxGraph:
    targets: list[TargetPoint]
    rects: list[MaxRect]
    guards: list[Guard]
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
                    targets: list[TargetPoint], guards: list[Guard]) -> AuxGraph:
    by_pixel_rects: list[list[int]] = [[] for _ in px.pixels]
    for mr in rects:
        for pid in mr.pixel_ids:
            by_pixel_rects[pid].append(mr.id)

    ur: list[set[int]] = [set() for _ in targets]
    for t in targets:
        for pid in t.home_pixels:
            for ri in by_pixel_rects[pid]:
                if rects[ri].rect.contains_point(t.location):
                    ur[t.id].add(ri)

    gr: list[set[int]] = [set() for _ in guards]
    for g in guards:
        if g.kind == "point":
            for pid in g.home_pixels:
                for ri in by_pixel_rects[pid]:
                    if rects[ri].rect.contains_point(g.location):
                        gr[g.id].add(ri)
        else:
            grect = px.pixels[g.pixel]
            for pid in g.home_pixels:
                for ri in by_pixel_rects[pid]:
                    if rects[ri].rect.intersects(grect):
                        gr[g.id].add(ri)

    ru: list[list[int]] = [[] for _ in rects]
    rg: list[list[int]] = [[] for _ in rects]
    for ti, rs in enumerate(ur):
        for ri in rs:
            ru[ri].append(ti)
    for gi, rs in enumerate(gr):
        for ri in rs:
            rg[ri].append(gi)
    return AuxGraph(targets, rects, guards,
                    [sorted(s) for s in ur], [sorted(s) for s in ru],
                    [sorted(s) for s in gr], [sorted(s) for s in rg])


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
    targets, pairs = _contained_pairs(H.ur, H.ru)
    targets.update(big for _small, big in pairs)
    guards, pairs = _contained_pairs(H.gr, H.rg)
    guards.update(small for small, _big in pairs)
    rects = {r for r, ts in enumerate(H.ru)
             if all(t in targets for t in ts)}
    return targets, rects, guards


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
    until a round forces no guard.

    A kept target that exactly one kept guard sees forces that guard: every
    solution over the kept guards contains it.  A round takes every forced
    guard, drops every target that one of its rectangles covers and every
    rectangle left with no kept target, then drops each kept guard whose
    set of kept rectangles is empty or contained in another kept guard's,
    grouped as in dominated(H).  The optimal size of H is the number of
    forced guards plus that of the kept rest.  A kept target keeps all its
    rectangles and dominated(H) left no two kept targets comparable, so
    target containment finds nothing more.

    A round takes time linear in the edges of H: the rectangles' guard lists
    are filtered to the kept guards once, so the scan for forced guards
    reads each rectangle of a kept target once, and the targets of the
    rectangles that the forced guards light are dropped once per
    rectangle."""
    targets, rects, guards = dominated(H)
    forced: list[int] = []
    # kept targets of each rectangle
    left = [sum(t not in targets for t in ts) for ts in H.ru]
    while True:
        new = _forced(H.ur, targets, _kept(H.rg, rects, guards))
        if not new:
            return Reduction(targets, rects, guards, forced)
        forced += sorted(new)
        guards |= new
        for r in {r for g in new for r in H.gr[g]}:
            for t in H.ru[r]:
                if t not in targets:
                    targets.add(t)
                    for r2 in H.ur[t]:
                        left[r2] -= 1
                        if not left[r2]:
                            rects.add(r2)
        sets = _kept(H.gr, guards, rects)
        guards.update(g for g, s in enumerate(sets) if not s)
        dups, pairs = _contained_pairs(sets, _kept(H.rg, rects, guards))
        guards |= dups
        guards.update(small for small, _big in pairs)


def _forced(ur: list[list[int]], targets: set[int],
            seen_by: list[list[int]]) -> set[int]:
    """The guards that some target not in targets sees alone: the one guard
    in seen_by[r] over all its rectangles r, when there is exactly one."""
    out = set()
    for t, rs in enumerate(ur):
        if t in targets:
            continue
        only = -1
        for r in rs:
            gs = seen_by[r]
            if not gs:
                continue
            if len(gs) > 1 or only not in (-1, gs[0]):
                break
            only = gs[0]
        else:
            if only >= 0:
                out.add(only)
    return out


def _kept(lists: list[list[int]], gone_rows: set[int],
          gone: set[int]) -> list[list[int]]:
    """lists without the ids in gone, and with an empty list for each row
    in gone_rows."""
    return [[] if i in gone_rows else [x for x in xs if x not in gone]
            for i, xs in enumerate(lists)]


def _contained_pairs(sets: list[list[int]], members: list[list[int]]):
    """(dups, pairs): dups are the vertices whose set equals that of a lower
    id; pairs are (a, b) among the others with sets[a] ⊊ sets[b], i.e. b is in
    members[r] for every r in sets[a].  The sets are sorted lists, as AuxGraph
    keeps them, so a stable sort by set puts equal ones next to each other,
    lowest id first.  Only the members of a's least shared rectangle are
    tried; vertices with an empty set are skipped."""
    order = sorted((a for a, s in enumerate(sets) if s), key=sets.__getitem__)
    dups = {b for a, b in zip(order, order[1:]) if sets[a] == sets[b]}
    members = [[b for b in m if b not in dups] for m in members]
    member_sets = [set(m) for m in members]
    pairs = []
    for a in order:
        if a in dups:
            continue
        s = sets[a]
        r0 = min(s, key=lambda r: len(members[r]))
        for b in members[r0]:
            if b == a:
                continue
            for r in s:
                if b not in member_sets[r]:
                    break
            else:
                pairs.append((a, b))
    return dups, pairs

