"""Exact restricted distance-2 dominating set on the auxiliary graph, by
dynamic programming over the lifted tree decomposition itself, whose bags
may leave out the vertices of `aux_graph.reduce(H)`: the dominated
vertices, the forced guards, the targets those guards cover and the
rectangles left with no target.  The DP chooses guards for the rest only;
with the default task, on thin trees and combs the rest is empty, and the
pipeline hands the DP one empty bag without decomposing the dual.

Per-bag states use two bits per vertex: guards are selected/unselected,
rectangles are dark (never adjacent to a selected guard), promised (will be)
or lit (already are), targets are pending/dominated.  Every lifted vertex
owns one fixed 2-bit slot of the packed integer keys: walking the tree down
from the root, the last bag, a vertex takes the lowest slot left free in
its topmost bag and keeps it in every bag below, so the slots within a bag
are distinct and no transition ever shifts a key.

The tables are built in one walk over the bags in order, every child before
its parent.  A bag's table is made from its children's: each child first
forgets, in one filter-and-mask pass, what it does not share with the bag (a
key with a pending target or a promised rectangle among those is dropped,
then their slots are cleared); each child then introduces the vertices of
the bag that another child kept and it did not, so that all children cover
the same vertices; the children are joined; and only then are the bag's own
remaining vertices introduced, once.

Introducing a guard lights its promised rectangles in the table (a
selection that meets a dark one is discarded); introducing a rectangle
lights it if a selected guard in the table sees it, and otherwise branches
dark or promised.  A target is dominated once a non-dark rectangle next to
it is in the table.  A join buckets the right table on the guard bits plus
which rectangles are non-dark,
`(key & guards) | ((key | key >> 1) & rect_low_bits)`, so every pair in the
bucket of a left key is compatible.  The merged key is the OR of the two,
with promised|lit (11) turned into lit (10).

A table maps each key to one int, the mask of the selected guards: every
guard that some bag holds has a compact bit, numbered in the same walk down
from the root as the slots, and an entry's value is the mask's popcount.
Introducing a guard ORs in its bit; a join ORs the two masks, so a guard
selected on both sides is one bit; where two entries meet at one key, the
one with the smaller popcount is kept.  At the root the bits map back to
guard ids.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from rguard.aux_graph import AuxGraph
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
        location = H.targets.location
        for c in self.certificates:
            x, y = location[c.target_id]
            obj["certificates"].append({
                "target": [half(x), half(y)],
                "rect": c.rect_id,
                "guard": c.guard_index,
            })
        if self.witness_target is not None:
            x, y = location[self.witness_target]
            obj["witness"] = [half(x), half(y)]
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
    certificates are computed on the whole of H: the witness is the first
    target with no rectangle that a guard sees, and a target's certificate
    names its first rectangle that a chosen guard sees, and the first such
    guard.  Only the chosen guards are built as `Guard`s.

    The tables are built bottom-up, in bag order; the root's table, once it
    has forgotten its bag, holds the single empty state."""
    if T.universe != "aux":
        raise DecompositionError("solver expects a lifted decomposition")
    nu = len(H.targets)

    seen = [bool(gs) for gs in H.rg]
    for ti, rs in enumerate(H.ur):
        if not any(map(seen.__getitem__, rs)):
            return Solution("infeasible", 0, [], [], witness_target=ti)
    if nu == 0:
        return Solution("optimal", 0, [], [])

    gbase = H.gid(0)
    slot, gbit = _slots(T, range(len(T.bags) - 1, -1, -1), gbase)
    # (table, vertices it covers) of each child, once it has forgotten what
    # it does not share with its parent
    entered: list[list] = [[] for _ in T.bags]
    for b, bag in enumerate(T.bags):
        table, present = _join_children(H, entered[b], slot, gbit)
        entered[b] = None
        inside = set(present)
        for v in bag:
            if v not in inside:
                table = _introduce(H, table, present, v, slot, gbit)
                present.append(v)
        p = T.parent[b]
        up = set(T.bags[p]) if p >= 0 else set()
        gone = [u for u in bag if u not in up]
        if gone:
            table = _forget(H, table, gone, slot)
        if not table:
            raise SolverError("dead end in DP despite feasible instance")
        if p >= 0:
            entered[p].append((table, [u for u in bag if u in up]))

    # the last table is the root's
    if list(table.keys()) != [0]:
        raise SolverError("root table is not a single empty-bag state")
    mask = table[0]
    value = mask.bit_count() + len(forced)
    chosen = sorted({u - gbase for u, bit in gbit.items() if mask & bit}
                    .union(forced))
    kind, location, pixel = H.guards.kind, H.guards.location, H.guards.pixel
    solution_guards = [Guard(gi, kind[gi], location[gi], pixel[gi])
                       for gi in chosen]
    # the index of the first chosen guard of each rectangle one sees: the
    # guards are chosen in id order, and H.rg lists them so
    first: dict[int, int] = {}
    for k, gi in enumerate(chosen):
        for ri in H.gr[gi]:
            if ri not in first:
                first[ri] = k
    certs = []
    for ti, rs in enumerate(H.ur):
        for ri in rs:
            if ri in first:
                certs.append(Certificate(ti, ri, first[ri]))
                break
        else:
            raise SolverError(f"target {ti} uncovered by the DP solution")
    if value != len(chosen):
        raise SolverError("a forced guard was also selected by the DP in a "
                          "bag; the bags must leave out the forced guards")
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
    return True


# -- the walk over the decomposition -------------------------------------------


def _slots(T: TreeDecomposition, order: Iterable[int],
           gbase: int) -> tuple[dict[int, int], dict[int, int]]:
    """Slot of every lifted vertex, and the mask bit of every guard (lifted
    ids from gbase on): in `order`, which lists every parent before its
    children, the vertices of a bag that no earlier bag holds take, in bag
    order, the lowest slots not held by the rest of the bag, and each guard
    among them the next bit.  The bags holding a vertex form a subtree, so a
    vertex is first met in its topmost bag and the rest of that bag lies in
    the parent bag, whose slots are distinct."""
    slot: dict[int, int] = {}
    gbit: dict[int, int] = {}
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
                if u >= gbase:
                    gbit[u] = 1 << len(gbit)
    return slot, gbit


def _join_children(H: AuxGraph, entered: list, slot: dict,
                   gbit: dict) -> tuple[dict, list]:
    """(table, covered vertices) joined from the children's (table, kept
    vertices) pairs: each child introduces the vertices another child kept
    and it did not, then the tables are joined.  A leaf gives the one empty
    state, with no guard selected."""
    if not entered:
        return {0: 0}, []
    shared = sorted(set().union(*(kept for _t, kept in entered)))
    table = None
    for child, kept in entered:
        present = list(kept)
        have = set(kept)
        for v in shared:
            if v not in have:
                child = _introduce(H, child, present, v, slot, gbit)
                present.append(v)
        table = child if table is None else _join(H, table, child, shared, slot)
    return table, shared


def _introduce(H: AuxGraph, child: dict, present: list, v: int,
               slot: dict, gbit: dict) -> dict:
    """The table of child, whose keys cover the vertices `present`, with v
    introduced into v's free slot; a guard's mask bit is gbit[v]."""
    rbase, gbase = H.rid(0), H.gid(0)
    bit = 1 << (2 * slot[v])
    out: dict = {}
    get = out.get
    if v >= gbase:  # guard, and the rectangles it sees
        L = _bits(present, slot, rbase, gbase, H.gr[v - gbase])
        g = gbit[v]
        for key, m in child.items():
            out[key] = m
            if (key | key >> 1) & L == L:  # no dark rectangle in sight
                p = key & L & ~(key >> 1)  # promised (01) -> lit (10)
                nk = key ^ (p | p << 1 | bit)
                m |= g
                cur = get(nk)
                if cur is None or m.bit_count() < cur.bit_count():
                    out[nk] = m
    elif v >= rbase:  # rectangle
        i = v - rbase
        G = _bits(present, slot, gbase, H.n_vertices, H.rg[i])  # who sees it
        target_bits = _bits(present, slot, 0, rbase, H.ru[i])
        lit = (LIT * bit) | target_bits
        promised = (PROMISED * bit) | target_bits
        for key, m in child.items():
            if key & G:
                nk = key | lit
                cur = get(nk)
                if cur is None or m.bit_count() < cur.bit_count():
                    out[nk] = m
            else:
                out[key] = m
                nk = key | promised
                cur = get(nk)
                if cur is None or m.bit_count() < cur.bit_count():
                    out[nk] = m
    else:  # target
        # both bits of each rectangle slot next to the target
        M = 3 * _bits(present, slot, rbase, gbase, H.ur[v])
        dominated = DOMINATED * bit
        out = {key | dominated if key & M else key: m
               for key, m in child.items()}
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
    for key, m in child.items():
        if key & targets != targets or key & ~(key >> 1) & promised:
            continue
        nk = key & keep
        cur = get(nk)
        if cur is None or m.bit_count() < cur.bit_count():
            out[nk] = m
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
    for kb, mb in right.items():
        bk = (kb & gmask) | ((kb | kb >> 1) & rlo)
        buckets.setdefault(bk, []).append((kb, mb))

    out: dict = {}
    get = out.get
    for ka, ma in left.items():
        bucket = buckets.get((ka & gmask) | ((ka | ka >> 1) & rlo))
        if not bucket:
            continue
        for kb, mb in bucket:
            o = ka | kb
            nk = o & ~((o >> 1) & rlo)  # promised | lit (11) -> lit (10)
            m = ma | mb  # a guard selected on both sides is one bit
            cur = get(nk)
            if cur is None or m.bit_count() < cur.bit_count():
                out[nk] = m
    return out

