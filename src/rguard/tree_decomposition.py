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
from collections import deque
from dataclasses import dataclass, field

from rguard.aux_graph import AuxGraph, Reduction
from rguard.pixelation import DualGraph


class DecompositionError(ValueError):
    pass


@dataclass(slots=True)
class TreeDecomposition:
    bags: list[tuple[int, ...]]
    tree_edges: list[tuple[int, int]]
    universe: str  # 'dual' or 'aux'

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def rooted(self) -> tuple[list[int], list[int]]:
        """Bags in depth-first pre-order from bag 0, each subtree contiguous,
        and the parent of each bag (-1 at the root)."""
        adj = self.neighbors()
        parent = [-1] * len(self.bags)
        seen = [False] * len(self.bags)
        seen[0] = True
        order = []
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    stack.append(v)
        return order, parent


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
    moment, which hangs below the bag of the first of those neighbours
    eliminated later.  Each connected component leaves one bag with no
    later neighbour, so a disconnected dual leaves more than one."""
    n = D.n
    if n == 0:
        raise DecompositionError("empty dual graph")
    T = _min_degree_decomposition(n, D.adj)
    if len(T.tree_edges) != len(T.bags) - 1:
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
    # the pendant bags come first, so the edges come out sorted by child
    edges = [(i, pos[u]) for i, u in enumerate(up) if u >= 0]
    edges += [(len(up) + i, min(pos[a] for a in ns))
              for i, ns in enumerate(later_nb) if ns]
    return TreeDecomposition(bags, edges, "dual")


def validate_decomposition(n_vertices: int, edges: list[tuple[int, int]],
                           T: TreeDecomposition) -> DecompositionReport:
    """Check vertex coverage, edge coverage and occurrence-subtree
    connectivity; every violation is reported with a witness."""
    rep = DecompositionReport()
    nb = len(T.bags)
    if len(T.tree_edges) != nb - 1:
        rep.problems.append(
            f"decomposition tree has {len(T.tree_edges)} edges for {nb} bags")
    if len(T.rooted()[0]) != nb:
        rep.problems.append("decomposition tree is disconnected")

    occurrences: dict[int, list[int]] = {}
    for bi, bag in enumerate(T.bags):
        for v in bag:
            occurrences.setdefault(v, []).append(bi)
    for v in range(n_vertices):
        if v not in occurrences:
            rep.problems.append(f"vertex {v} appears in no bag")
    occ_sets = {v: set(occ) for v, occ in occurrences.items()}
    for u, v in edges:
        if occ_sets.get(u, set()).isdisjoint(occ_sets.get(v, ())):
            rep.problems.append(f"edge ({u},{v}) covered by no bag")
    adj = T.neighbors()
    for v, occ in occurrences.items():
        if len(occ) <= 1:
            continue
        members = set(occ)
        seen = {occ[0]}
        dq = deque([occ[0]])
        while dq:
            b = dq.popleft()
            for nb2 in adj[b]:
                if nb2 in members and nb2 not in seen:
                    seen.add(nb2)
                    dq.append(nb2)
        if len(seen) != len(members):
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

    The walk that lifts the bags, in pre-order from bag 0, also contracts
    every tree edge one of whose sides is a subset of the other.  It puts
    each bag in a group of merged bags and keeps only the lifted content of
    the group's top, which contains all its members.  A bag that is a subset
    of its parent's group's top joins that group; one that strictly contains
    it joins the group and becomes its top.  Running intersection keeps this
    complete: if a neighbour group's top were a subset of the new top, it
    would already be a subset of the old one.  So no bag of the result is a
    subset of a neighbour's, and the width is unchanged.  The group of bag 0
    is bag 0 of the result."""
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

    order, parent = T.rooted()
    group = [0] * len(T.bags)
    top = [lifted(T.bags[0])]
    for b in order[1:]:
        g = group[parent[b]]
        content = lifted(T.bags[b])
        if content <= top[g]:
            group[b] = g
        elif top[g] < content:
            group[b] = g
            top[g] = content
        else:
            group[b] = len(top)
            top.append(content)
    edges = sorted((min(ga, gb), max(ga, gb)) for ga, gb in
                   ((group[a], group[b]) for a, b in T.tree_edges) if ga != gb)
    return TreeDecomposition([tuple(sorted(c)) for c in top], edges, "aux")
