"""Exact restricted distance-2 dominating set on the auxiliary graph, by
dynamic programming over a nice form of the lifted tree decomposition.

Per-bag states use two bits per vertex: guards are selected/unselected,
rectangles are dark (never adjacent to a selected guard), promised (will be)
or lit (already are), targets are pending/dominated.  Introducing a guard
lights its promised rectangles in the bag (a selection that meets a dark one
is discarded); introducing a rectangle lights it if a selected guard in the
bag sees it, and otherwise branches dark or promised.  A target is dominated
once a non-dark rectangle next to it is in the bag.  A target may be
forgotten only when dominated, a promised rectangle only once lit; a guard's
bit stays in the key until the guard itself is forgotten.  A join buckets
the right table on the guard bits plus which rectangles are non-dark,
`(key & guards) | ((key | key >> 1) & rect_low_bits)`, so every pair in the
bucket of a left key is compatible.  The merged key is the OR of the two,
with promised|lit (11) turned into lit (10); a guard selected on both sides
is counted once.  Keys are packed integers; each table entry carries its
selected-guard set as a shared cons list, so child tables can be discarded
as soon as a parent is done.
"""
from __future__ import annotations

from bisect import bisect_left
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

    def to_json_obj(self, H: AuxGraph | None = None) -> dict:
        obj = {
            "status": self.status,
            "size": self.size,
            "guards": [g.json_obj() for g in self.guards],
            "certificates": [],
        }
        if H is not None:
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


def solve_r2ds(H: AuxGraph, T: TreeDecomposition) -> Solution:
    """Minimum S ⊆ Γ' such that every target has a 2-path to S, or an
    infeasibility witness.  T must be a lifted decomposition of H.  It may
    leave the targets and guards of `aux_graph.dominated(H)` out of its bags,
    as `lift_to_H` does: the optimal size is that of the full bags, though
    the chosen guards may differ.  The witness and the certificates are
    computed on the whole of H.

    Builds one table per nice-tree node, bottom-up, and drops each child's
    table once its parent's is built; the root table holds the single
    empty-bag state."""
    if T.universe != "aux":
        raise DecompositionError("solver expects a lifted decomposition")
    nu = len(H.targets)

    for ti in range(nu):
        if not any(H.rg[ri] for ri in H.ur[ti]):
            return Solution("infeasible", 0, [], [], witness_target=ti)
    if nu == 0:
        return Solution("optimal", 0, [], [])

    nodes = _nice_tree(T)

    tables: dict[int, dict] = {}
    for idx, node in enumerate(nodes):
        kind = node[0]
        if kind == "leaf":
            tables[idx] = {0: (0, None)}
        elif kind == "intro":
            _, child, bag, v, pos = node
            tables[idx] = _introduce(H, tables.pop(child), bag, v, pos)
        elif kind == "forget":
            _, child, bag, v, pos = node
            tables[idx] = _forget(H, tables.pop(child), v, pos)
        else:  # join
            _, left, right, bag = node
            tables[idx] = _join(H, tables.pop(left), tables.pop(right), bag)
        if not tables[idx]:
            raise SolverError("dead end in DP despite feasible instance")

    final = tables[len(nodes) - 1]
    if list(final.keys()) != [0]:
        raise SolverError("root table is not a single empty-bag state")
    value, sel = final[0]
    chosen = sorted(_cons_to_set(sel))
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


# -- nice tree -----------------------------------------------------------------


def _nice_tree(T: TreeDecomposition):
    """Flatten the decomposition into leaf/intro/forget/join nodes, ending in
    an empty root bag.  Children always appear before their parents."""
    nb = len(T.bags)
    adj = T.neighbors()
    parent = [-1] * nb
    order = [0]
    seen = [False] * nb
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
                stack.append(v)
    children: list[list[int]] = [[] for _ in range(nb)]
    for v in order[1:]:
        children[parent[v]].append(v)

    nodes = []

    def chain(cur_idx: int | None, cur_bag: tuple, target_bag: tuple) -> tuple:
        """Forget/introduce from cur_bag to target_bag; returns (idx, bag)."""
        idx = cur_idx
        bag = list(cur_bag)
        for v in sorted(set(cur_bag) - set(target_bag)):
            pos = bag.index(v)
            bag.pop(pos)
            nodes.append(("forget", idx, tuple(bag), v, pos))
            idx = len(nodes) - 1
        for v in sorted(set(target_bag) - set(cur_bag)):
            pos = 0
            while pos < len(bag) and bag[pos] < v:
                pos += 1
            bag.insert(pos, v)
            nodes.append(("intro", idx, tuple(bag), v, pos))
            idx = len(nodes) - 1
        return idx, tuple(bag)

    # iterative post-order over the decomposition tree
    done: dict[int, tuple] = {}
    stack = [(0, False)]
    while stack:
        b, processed = stack.pop()
        if not processed:
            stack.append((b, True))
            for c in children[b]:
                stack.append((c, False))
            continue
        kid_tops = []
        for c in children[b]:
            cidx, cbag = done.pop(c)
            cidx, _cbag = chain(cidx, cbag, T.bags[b])
            kid_tops.append(cidx)
        if not kid_tops:
            nodes.append(("leaf",))
            done[b] = chain(len(nodes) - 1, (), T.bags[b])
        else:
            idx = kid_tops[0]
            for other in kid_tops[1:]:
                nodes.append(("join", idx, other, T.bags[b]))
                idx = len(nodes) - 1
            done[b] = (idx, T.bags[b])

    ridx, rbag = chain(*done[0], ())
    if rbag != () or ridx != len(nodes) - 1:
        raise SolverError("root bag not emptied")
    return nodes


def _kind(H: AuxGraph, v: int) -> tuple[str, int]:
    """Kind ('target', 'rect' or 'guard') of lifted id v and its index in H:
    the inverse of AuxGraph.tid/rid/gid."""
    nu, nr = len(H.targets), len(H.rects)
    if v < nu:
        return "target", v
    if v < nu + nr:
        return "rect", v - nu
    return "guard", v - nu - nr


def _introduce(H: AuxGraph, child: dict, bag: tuple, v: int, pos: int) -> dict:
    kind, i = _kind(H, v)
    rbase, gbase = H.rid(0), H.gid(0)
    out: dict = {}
    shift = 2 * pos
    lowmask = (1 << shift) - 1
    get = out.get
    if kind == "guard":
        L = _bits(bag, rbase, gbase, H.gr[i])  # the bag rectangles it sees
        selbit = 1 << shift
        for key, ent in child.items():
            nk = (key & lowmask) | ((key >> shift) << (shift + 2))
            cur = get(nk)
            if cur is None or ent[0] < cur[0]:
                out[nk] = ent
            if (nk | nk >> 1) & L == L:  # no dark rectangle in sight
                p = nk & L & ~(nk >> 1)  # promised (01) -> lit (10)
                nk ^= p | p << 1 | selbit
                val = ent[0] + 1
                cur = get(nk)
                if cur is None or val < cur[0]:
                    out[nk] = (val, (1, i, ent[1]))
    elif kind == "rect":
        G = _bits(bag, gbase, H.n_vertices, H.rg[i])  # guards that see it
        target_bits = _bits(bag, 0, rbase, H.ru[i])
        lit = (LIT << shift) | target_bits
        promised = (PROMISED << shift) | target_bits
        for key, ent in child.items():
            base = (key & lowmask) | ((key >> shift) << (shift + 2))
            if base & G:
                nk = base | lit
                cur = get(nk)
                if cur is None or ent[0] < cur[0]:
                    out[nk] = ent
            else:
                cur = get(base)
                if cur is None or ent[0] < cur[0]:
                    out[base] = ent
                nk = base | promised
                cur = get(nk)
                if cur is None or ent[0] < cur[0]:
                    out[nk] = ent
    else:  # target
        # both bits of each bag rectangle that contains the target
        M = 3 * _bits(bag, rbase, gbase, H.ur[i])
        dominated = DOMINATED << shift
        for key, ent in child.items():
            nk = (key & lowmask) | ((key >> shift) << (shift + 2))
            if nk & M:
                nk |= dominated
            cur = get(nk)
            if cur is None or ent[0] < cur[0]:
                out[nk] = ent
    return out


def _bits(bag: tuple, lo: int, hi: int, ids: list[int]) -> int:
    """The low bit of each position of bag whose lifted id u has
    lo <= u < hi and u - lo in the sorted list ids: the neighbours of one
    kind that a vertex with neighbour list ids has in the bag, found in
    O(len(bag) log len(ids)) time."""
    out = 0
    for p, u in enumerate(bag):
        if lo <= u < hi:
            j = bisect_left(ids, u - lo)
            if j < len(ids) and ids[j] == u - lo:
                out |= 1 << (2 * p)
    return out


def _forget(H: AuxGraph, child: dict, v: int, pos: int) -> dict:
    kind, _ = _kind(H, v)
    out: dict = {}
    shift = 2 * pos
    lowmask = (1 << shift) - 1
    get = out.get
    drop = PROMISED if kind == "rect" else (PENDING if kind == "target" else -1)
    check = kind != "guard"
    for key, ent in child.items():
        if check and (key >> shift) & 3 == drop:
            continue
        nk = (key & lowmask) | ((key >> (shift + 2)) << shift)
        cur = get(nk)
        if cur is None or ent[0] < cur[0]:
            out[nk] = ent
    return out


def _join(H: AuxGraph, left: dict, right: dict, bag: tuple) -> dict:
    gmask = rlo = 0  # selection bits of the guards, low bits of the rects
    for p, u in enumerate(bag):
        kind = _kind(H, u)[0]
        if kind == "guard":
            gmask |= 1 << (2 * p)
        elif kind == "rect":
            rlo |= 1 << (2 * p)

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
