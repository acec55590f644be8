"""Tree decompositions: min-degree elimination of the dual graph, trees
included, a validating checker, and the lift from the dual graph to the
auxiliary graph.

The elimination runs in two phases.  The pendant phase takes the vertices
of degree at most 1 from a heap of ids, with a degree array and no sets:
eliminating one adds no edge and lowers only its neighbour's degree.  On a
connected graph min-degree takes every such vertex, lowest id first, before
any vertex of degree 2 or more, so this order is min-degree's; on a tree it
is the whole elimination, and the width is 1.  The core phase runs on the
vertices left: it keeps the degrees in a heap and, after each elimination,
pushes again only the neighbours of the eliminated vertex, the only
vertices whose degree it changes, so at bounded width it takes O(n log n)
time for n pixels (Bodlaender & Koster, "Treewidth computations I. Upper
bounds", 2010).  Ties go to the lowest vertex id, so the bags depend on the
pixel numbering.

Every construction is followed by validate_decomposition in the test suite;
reported widths are upper bounds on the true treewidth by construction.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from rguard.aux_graph import AuxGraph, Reduction
from rguard.pixelation import DualGraph


class DecompositionError(ValueError):
    pass


@dataclass(slots=True)
class TreeDecomposition:
    bags: list[tuple[int, ...]]
    parent: list[int]  # a later bag, or -1 at the root, which is the last
    universe: str  # 'dual' or 'aux'

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(slots=True)
class DecompositionReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def decompose_dual(D: DualGraph) -> TreeDecomposition:
    """Min-degree elimination of D, for trees and every other dual alike.
    Disconnected duals are rejected; solve components independently
    upstream.

    Min-degree eliminates, at each step, the vertex with the fewest
    neighbours left, the lowest id on a tie, and joins its neighbours into a
    clique.  The pendant phase takes the vertices of degree at most 1,
    lowest id first, which on a connected graph is min-degree's own order;
    the core phase eliminates the rest from a heap of (degree, vertex)
    entries.  Each elimination emits one bag, v with its neighbours at that
    moment, whose parent is the bag of the first of those neighbours
    eliminated later.  Each connected component leaves one root, a bag
    with no later neighbour, so a disconnected dual leaves more than one."""
    n = D.n
    if n == 0:
        raise DecompositionError("empty dual graph")
    T = _min_degree_decomposition(n, D.adj)
    if T.parent.count(-1) > 1:
        raise DecompositionError("dual graph is disconnected")
    return T


def _min_degree_decomposition(n: int, adj: list[list[int]]) -> TreeDecomposition:
    """The min-degree elimination of decompose_dual and its bags: the
    pendant phase, then the core phase on the vertices left."""
    deg = [len(a) for a in adj]
    alive = [True] * n
    pos = [0] * n
    bags: list[tuple[int, ...]] = []
    up: list[int] = []  # per pendant bag, its one live neighbour or -1
    pendant = [v for v in range(n) if deg[v] <= 1]
    while pendant:
        v = heapq.heappop(pendant)
        alive[v] = False
        pos[v] = len(bags)
        for u in adj[v]:
            if alive[u]:
                bags.append((v, u) if v < u else (u, v))
                up.append(u)
                deg[u] -= 1
                if deg[u] == 1:
                    heapq.heappush(pendant, u)
                break
        else:
            bags.append((v,))
            up.append(-1)
    nb = {v: {u for u in adj[v] if alive[u]} for v in range(n) if alive[v]}
    heap = [(len(s), v) for v, s in nb.items()]
    heapq.heapify(heap)
    later_nb: list[list[int]] = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != len(nb[v]):
            continue
        alive[v] = False
        pos[v] = len(bags)
        ns = sorted(nb[v])
        bags.append(tuple(sorted([v, *ns])))
        later_nb.append(ns)
        for i, a in enumerate(ns):
            nb[a].discard(v)
            for b in ns[i + 1:]:
                nb[a].add(b)
                nb[b].add(a)
        for a in ns:
            heapq.heappush(heap, (len(nb[a]), a))
    parent = [pos[u] if u >= 0 else -1 for u in up]
    parent += [min(pos[a] for a in ns) if ns else -1 for ns in later_nb]
    return TreeDecomposition(bags, parent, "dual")


def validate_decomposition(n_vertices: int, edges: list[tuple[int, int]],
                           T: TreeDecomposition) -> DecompositionReport:
    """Check that every parent is a later bag and that the last bag is the
    only root, which makes the bags a tree; then vertex coverage, edge
    coverage and occurrence-subtree connectivity.  Every violation is
    reported with a witness.  The bags holding a vertex form a subtree iff
    exactly one of them has a parent that does not hold it (the root has
    none), so the whole check is linear in the bag sizes."""
    rep = DecompositionReport()
    nb = len(T.bags)
    if len(T.parent) != nb:
        rep.problems.append(f"{len(T.parent)} parents for {nb} bags")
        return rep
    for b, p in enumerate(T.parent):
        if p == -1 and b < nb - 1:
            rep.problems.append(f"bag {b} is a root but not the last bag")
        elif p != -1 and not b < p < nb:
            rep.problems.append(f"bag {b} has parent {p}, not a later bag")

    sets = [set(bag) for bag in T.bags]
    occurrences: dict[int, set[int]] = {}
    tops: dict[int, int] = {}  # bags holding v whose parent does not
    for b, (bag, p) in enumerate(zip(sets, T.parent)):
        up = sets[p] if 0 <= p < nb else ()
        for v in bag:
            occurrences.setdefault(v, set()).add(b)
            if v not in up:
                tops[v] = tops.get(v, 0) + 1
    for v in range(n_vertices):
        if v not in occurrences:
            rep.problems.append(f"vertex {v} appears in no bag")
    for u, v in edges:
        if occurrences.get(u, set()).isdisjoint(occurrences.get(v, ())):
            rep.problems.append(f"edge ({u},{v}) covered by no bag")
    for v, k in tops.items():
        if k > 1:
            rep.problems.append(f"bags containing vertex {v} are not connected")
    return rep


def lift_to_H(T: TreeDecomposition, H: AuxGraph,
              red: Reduction) -> TreeDecomposition:
    """Replace each pixel of every bag by the targets and guards whose home
    it is and the rectangles meeting it; pixels themselves are dropped.

    This is a tree decomposition of H: for an edge (q, r) of H, home(q) is
    in `r.pixel_ids`, so a bag holding that pixel holds both ends; and the
    bags holding one pixel form a subtree, so those holding q do.

    The vertices that `red` leaves out are left out of every bag, so the
    result is a decomposition of H minus those vertices: leaving vertices
    out of every bag keeps a decomposition valid for the rest of the graph.
    For `aux_graph.reduce(H)` these are the dominated vertices, the forced
    guards, the targets they cover and the rectangles left with no target;
    with the default task, on thin trees and combs that is every vertex,
    and the result is one empty bag (width -1).

    The walk that lifts the bags, from the root down, also contracts every
    tree edge one of whose sides is a subset of the other.  It puts
    each bag in a group of merged bags and keeps only the lifted content of
    the group's top, which contains all its members.  A bag that is a subset
    of its parent's group's top joins that group; one that strictly contains
    it joins the group and becomes its top.  Running intersection keeps this
    complete: if a neighbour group's top were a subset of the new top, it
    would already be a subset of the old one.  So no bag of the result is a
    subset of a neighbour's, and the width is unchanged.  Each group is met
    after its parent group, so numbering the groups backwards puts every
    parent after its children; the root's group is the last bag."""
    if T.universe != "dual":
        raise DecompositionError("lift expects a decomposition of the dual graph")
    gone_targets, gone_rects, gone_guards = red.targets, red.rects, red.guards
    n_pix = 1 + max((v for bag in T.bags for v in bag), default=0)
    per_pixel: list[list[int]] = [[] for _ in range(n_pix)]
    for t in H.targets:
        if t.id not in gone_targets:
            per_pixel[t.pixel].append(H.tid(t.id))
    for mr in H.rects:
        if mr.id not in gone_rects:
            for pid in mr.pixel_ids:
                per_pixel[pid].append(H.rid(mr.id))
    for g in H.guards:
        if g.id not in gone_guards:
            per_pixel[g.pixel].append(H.gid(g.id))

    def lifted(bag: tuple[int, ...]) -> set[int]:
        content: set[int] = set()
        for pid in bag:
            content.update(per_pixel[pid])
        return content

    n = len(T.bags)
    group = [0] * n
    top = [lifted(T.bags[-1])]
    above = [-1]  # the parent group of each group
    for b in range(n - 2, -1, -1):
        g = group[T.parent[b]]
        content = lifted(T.bags[b])
        if content <= top[g]:
            group[b] = g
        elif top[g] < content:
            group[b] = g
            top[g] = content
        else:
            group[b] = len(top)
            top.append(content)
            above.append(g)
    last = len(top) - 1
    return TreeDecomposition([tuple(sorted(c)) for c in reversed(top)],
                             [last - g if g >= 0 else -1 for g in reversed(above)],
                             "aux")
