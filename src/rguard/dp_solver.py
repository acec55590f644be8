"""Exact restricted distance-2 dominating set on the auxiliary graph, by
dynamic programming over the lifted tree decomposition itself, whose bags
may leave out the vertices of `aux_graph.reduce(H)`: the dominated
vertices, the forced guards, the targets those guards cover and the
rectangles left with no target.  The DP chooses guards for the rest only;
with the default task, on thin trees and combs the rest is empty.

Per-bag states use two bits per vertex: guards are selected/unselected,
rectangles are dark (never adjacent to a selected guard), promised (will be)
or lit (already are), targets are pending/dominated.  Every lifted vertex
owns one fixed 2-bit slot of the packed integer keys: walking the tree down
from bag 0, a vertex takes the lowest slot left free in its topmost bag and
keeps it in every bag below, so the slots within a bag are distinct and no
transition ever shifts a key.

The tables are built in one post-order walk.  A bag's table is made from
its children's: each child first forgets, in one filter-and-mask pass, what
it does not share with the bag (a key with a pending target or a promised
rectangle among those is dropped, then their slots are cleared); each child
then introduces the vertices of the bag that another child kept and it did
not, so that all children cover the same vertices; the children are joined;
and only then are the bag's own remaining vertices introduced, once.

Introducing a guard lights its promised rectangles in the table (a
selection that meets a dark one is discarded); introducing a rectangle
lights it if a selected guard in the table sees it, and otherwise branches
dark or promised.  A target is dominated once a non-dark rectangle next to
it is in the table.  A join buckets the right table on the guard bits plus
which rectangles are non-dark,
`(key & guards) | ((key | key >> 1) & rect_low_bits)`, so every pair in the
bucket of a left key is compatible.  The merged key is the OR of the two,
with promised|lit (11) turned into lit (10); a guard selected on both sides
is counted once.  Each table entry carries its selected-guard set as a
shared cons list, so a child table can be dropped as soon as it has been
joined.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from rguard.aux_graph import AuxGraph, guards_via_path2
from rguard.guard_model import Guard
from rguard.polygon_core import half
from rguard.tree_decomposition import TreeDecomposition, DecompositionError

DARK, PROMISED, LIT = 0, 1, 2
PENDING, DOMINATED = 0, 1


@dataclass(slots=True)
class Certificate:
    target_id: int
    rect_id: int
    guard_index: int  # index into Solution.guards


@dataclass(slots=True)
class Solution:
    status: str                    # 'optimal' | 'infeasible'
    size: int
    guards: list[Guard]
    certificates: list[Certificate]
    witness_target: int | None = None

    def to_json_obj(self, H: AuxGraph) -> dict:
        obj = {
            "status": self.status,
            "size": self.size,
            "guards": [g.json_obj() for g in self.guards],
            "certificates": [],
        }
        for c in self.certificates:
            t = H.targets[c.target_id]
            obj["certificates"].append({
                "target": [half(t.location[0]), half(t.location[1])],
                "rect": c.rect_id,
                "guard": c.guard_index,
            })
        if self.witness_target is not None:
            t = H.targets[self.witness_target]
            obj["witness"] = [half(t.location[0]), half(t.location[1])]
        return obj


class SolverError(RuntimeError):
    pass


def solve_r2ds(H: AuxGraph, T: TreeDecomposition,
               forced: Sequence[int] = ()) -> Solution:
    """Minimum S ⊆ Γ' such that every target has a 2-path to S, or an
    infeasibility witness.  T must be a lifted decomposition of H.  It may
    leave out of its bags the vertices that `aux_graph.reduce(H)` leaves
    out, as `lift_to_H` does, and then `forced` must be that reduction's
    forced guards: the DP chooses guards for what the reduction left, and S
    is its choice plus the forced guards.  The optimal size is that of the
    full bags, though the chosen guards may differ.  The witness and the
    certificates are computed on the whole of H.

    The tables are built bottom-up from bag 0 as the root; the root's
    table, once it has forgotten its bag, holds the single empty state."""
    if T.universe != "aux":
        raise DecompositionError("solver expects a lifted decomposition")
    nu = len(H.targets)

    for ti in range(nu):
        if not any(H.rg[ri] for ri in H.ur[ti]):
            return Solution("infeasible", 0, [], [], witness_target=ti)
    if nu == 0:
        return Solution("optimal", 0, [], [])

    order, parent = T.rooted()
    slot = _slots(T, order)
    # (table, vertices it covers) of each child, once it has forgotten what
    # it does not share with its parent
    entered: list[list] = [[] for _ in T.bags]
    final: dict = {}
    for b in reversed(order):
        bag = T.bags[b]
        table, present = _join_children(H, entered[b], slot)
        entered[b] = None
        inside = set(present)
        for v in bag:
            if v not in inside:
                table = _introduce(H, table, present, v, slot)
                present.append(v)
        up = set(T.bags[parent[b]]) if b else set()
        gone = [u for u in bag if u not in up]
        if gone:
            table = _forget(H, table, gone, slot)
        if not table:
            raise SolverError("dead end in DP despite feasible instance")
        if b:
            entered[parent[b]].append((table, [u for u in bag if u in up]))
        else:
            final = table

    if list(final.keys()) != [0]:
        raise SolverError("root table is not a single empty-bag state")
    value, sel = final[0]
    value += len(forced)
    chosen = sorted(_cons_to_set(sel).union(forced))
    solution_guards = [H.guards[gi] for gi in chosen]
    index_of = {gi: k for k, gi in enumerate(chosen)}
    chosen_set = set(chosen)
    certs = []
    for ti in range(nu):
        got = None
        for ri in H.ur[ti]:
            for gi in H.rg[ri]:
                if gi in chosen_set:
                    got = Certificate(ti, ri, index_of[gi])
                    break
            if got:
                break
        if got is None:
            raise SolverError(f"target {ti} uncovered by the DP solution")
        certs.append(got)
    if value != len(chosen):
        raise SolverError("DP value disagrees with the selected guard set")
    return Solution("optimal", value, solution_guards, certs)


def verify_solution(H: AuxGraph, sol: Solution) -> bool:
    """Certificate check: both edges present, guard actually selected, and
    every target certified.  Infeasible solutions never verify."""
    if sol.status != "optimal":
        return False
    if len(sol.certificates) != len(H.targets):
        return False
    guard_ids = [g.id for g in sol.guards]
    for c in sol.certificates:
        if not 0 <= c.guard_index < len(guard_ids):
            return False
        gi = guard_ids[c.guard_index]
        if c.rect_id not in H.ur[c.target_id]:
            return False
        if c.rect_id not in H.gr[gi]:
            return False
        if not guards_via_path2(H, c.target_id, gi):
            return False
    return True


# -- the walk over the decomposition -------------------------------------------


def _slots(T: TreeDecomposition, order: list[int]) -> dict[int, int]:
    """Slot of every lifted vertex: in the pre-order `order`, the vertices of
    a bag that no earlier bag holds take, in bag order, the lowest slots not
    held by the rest of the bag.  The bags holding a vertex form a subtree,
    so a vertex is first met in its topmost bag and the rest of that bag
    lies in the parent bag, whose slots are distinct."""
    slot: dict[int, int] = {}
    for b in order:
        bag = T.bags[b]
        taken = {slot[u] for u in bag if u in slot}
        s = 0
        for u in bag:
            if u not in slot:
                while s in taken:
                    s += 1
                slot[u] = s
                s += 1
    return slot


def _join_children(H: AuxGraph, entered: list, slot: dict) -> tuple[dict, list]:
    """(table, covered vertices) joined from the children's (table, kept
    vertices) pairs: each child introduces the vertices another child kept
    and it did not, then the tables are joined.  A leaf gives the one empty
    state."""
    if not entered:
        return {0: (0, None)}, []
    shared = sorted(set().union(*(kept for _t, kept in entered)))
    table = None
    for child, kept in entered:
        present = list(kept)
        have = set(kept)
        for v in shared:
            if v not in have:
                child = _introduce(H, child, present, v, slot)
                present.append(v)
        table = child if table is None else _join(H, table, child, shared, slot)
    return table, shared


def _kind(H: AuxGraph, v: int) -> tuple[str, int]:
    """Kind ('target', 'rect' or 'guard') of lifted id v and its index in H:
    the inverse of AuxGraph.tid/rid/gid."""
    nu, nr = len(H.targets), len(H.rects)
    if v < nu:
        return "target", v
    if v < nu + nr:
        return "rect", v - nu
    return "guard", v - nu - nr


def _introduce(H: AuxGraph, child: dict, present: list, v: int,
               slot: dict) -> dict:
    """The table of child, whose keys cover the vertices `present`, with v
    introduced into v's free slot."""
    kind, i = _kind(H, v)
    rbase, gbase = H.rid(0), H.gid(0)
    bit = 1 << (2 * slot[v])
    out: dict = {}
    get = out.get
    if kind == "guard":
        L = _bits(present, slot, rbase, gbase, H.gr[i])  # rectangles it sees
        for key, ent in child.items():
            out[key] = ent
            if (key | key >> 1) & L == L:  # no dark rectangle in sight
                p = key & L & ~(key >> 1)  # promised (01) -> lit (10)
                nk = key ^ (p | p << 1 | bit)
                val = ent[0] + 1
                cur = get(nk)
                if cur is None or val < cur[0]:
                    out[nk] = (val, (1, i, ent[1]))
    elif kind == "rect":
        G = _bits(present, slot, gbase, H.n_vertices, H.rg[i])  # who sees it
        target_bits = _bits(present, slot, 0, rbase, H.ru[i])
        lit = (LIT * bit) | target_bits
        promised = (PROMISED * bit) | target_bits
        for key, ent in child.items():
            if key & G:
                nk = key | lit
                cur = get(nk)
                if cur is None or ent[0] < cur[0]:
                    out[nk] = ent
            else:
                out[key] = ent
                nk = key | promised
                cur = get(nk)
                if cur is None or ent[0] < cur[0]:
                    out[nk] = ent
    else:  # target
        # both bits of each rectangle slot next to the target
        M = 3 * _bits(present, slot, rbase, gbase, H.ur[i])
        dominated = DOMINATED * bit
        out = {key | dominated if key & M else key: ent
               for key, ent in child.items()}
    return out


def _bits(present: list, slot: dict, lo: int, hi: int, ids: list[int]) -> int:
    """The low bit of the slot of each vertex u of present with lo <= u < hi
    and u - lo in the sorted list ids: the neighbours of one kind that a
    vertex with neighbour list ids has in present, found in
    O(len(present) log len(ids)) time."""
    out = 0
    for u in present:
        if lo <= u < hi:
            j = bisect_left(ids, u - lo)
            if j < len(ids) and ids[j] == u - lo:
                out |= 1 << (2 * slot[u])
    return out


def _forget(H: AuxGraph, child: dict, gone: list, slot: dict) -> dict:
    """The table of child with the vertices `gone` forgotten in one pass: a
    key in which one of them is a pending target or a promised rectangle is
    dropped, and their slots are cleared."""
    rbase, gbase = H.rid(0), H.gid(0)
    targets = promised = clear = 0
    for u in gone:
        bit = 1 << (2 * slot[u])
        clear |= 3 * bit
        if u < rbase:
            targets |= bit
        elif u < gbase:
            promised |= bit
    keep = ~clear
    out: dict = {}
    get = out.get
    for key, ent in child.items():
        if key & targets != targets or key & ~(key >> 1) & promised:
            continue
        nk = key & keep
        cur = get(nk)
        if cur is None or ent[0] < cur[0]:
            out[nk] = ent
    return out


def _join(H: AuxGraph, left: dict, right: dict, present: list,
          slot: dict) -> dict:
    """Join of two tables whose keys cover the same vertices `present`."""
    rbase, gbase = H.rid(0), H.gid(0)
    gmask = rlo = 0  # selection bits of the guards, low bits of the rects
    for u in present:
        if u >= gbase:
            gmask |= 1 << (2 * slot[u])
        elif u >= rbase:
            rlo |= 1 << (2 * slot[u])

    # Two states combine iff they agree on the guards and on which
    # rectangles are dark, so buckets of the right table hold exactly the
    # partners of a left key, in the right table's order.
    buckets: dict[int, list] = {}
    for kb, ent in right.items():
        bk = (kb & gmask) | ((kb | kb >> 1) & rlo)
        buckets.setdefault(bk, []).append((kb, ent))

    out: dict = {}
    get = out.get
    for ka, (va, sa) in left.items():
        bucket = buckets.get((ka & gmask) | ((ka | ka >> 1) & rlo))
        if not bucket:
            continue
        va -= (ka & gmask).bit_count()  # a guard selected on both sides
        for kb, (vb, sb) in bucket:
            o = ka | kb
            nk = o & ~((o >> 1) & rlo)  # promised | lit (11) -> lit (10)
            val = va + vb
            cur = get(nk)
            if cur is None or val < cur[0]:
                out[nk] = (val, _merge_sel(sa, sb))
    return out


def _cons_to_set(sel) -> set[int]:
    """Flatten a selection DAG of cons nodes (1, guard, rest) and lazy union
    nodes (2, left, right); shared subtrees are visited once."""
    out: set[int] = set()
    seen: set[int] = set()
    stack = [sel]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        if node[0] == 1:
            out.add(node[1])
            stack.append(node[2])
        else:
            stack.append(node[1])
            stack.append(node[2])
    return out


def _merge_sel(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (2, a, b)
