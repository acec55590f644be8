"""Checks of the solver's answers, made outside the timed loop.

Each check returns a list of problems; an empty list means the answer
passed.  None of them compares with a stored copy of earlier output:
`check_oracle` compares with the brute-force oracle, and the others test
properties every correct answer has.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rguard.dp_solver import verify_solution
from rguard.guard_model import Guard, GuardTask, simplify_targets
from rguard.oracle import (_cover_flat, coverage_matrix, oracle_min_guards,
                           sample_targets)
from rguard.pixelation import Pixelation
from rguard.polygon_core import Pt, Rect

# Criterion 1 raises the oracle's size guard to this for its holed variants.
ORACLE_MAX_PIXELS = 64


@dataclass(frozen=True, slots=True)
class Answer:
    """What a solve returned, detached from the solver's objects."""
    status: str
    size: int
    guards: tuple[Guard, ...]
    certificates: tuple[tuple[Pt, Rect, int], ...]  # target, rect, guard index
    verified: bool                                  # verify_solution on H


def answer_of(ctx) -> Answer:
    sol, H = ctx.solution, ctx.H
    certs = tuple((H.targets[c.target_id].location, H.rects[c.rect_id].rect,
                   c.guard_index) for c in sol.certificates)
    return Answer(sol.status, sol.size, tuple(sol.guards), certs,
                  verify_solution(H, sol))


def check_oracle(poly, task: GuardTask, ans: Answer) -> list[str]:
    """Status and size equal the brute-force minimum; an optimal answer
    passes verify_solution and names as many guards as its size."""
    ref = oracle_min_guards(poly, task, max_pixels=ORACLE_MAX_PIXELS)
    got = (ans.status, ans.size if ans.status == "optimal" else None)
    out = []
    if got != (ref.status, ref.size):
        out.append(f"solver {got} != oracle {(ref.status, ref.size)}")
    if ans.status == "optimal":
        if not ans.verified:
            out.append("verify_solution rejects the certificates")
        if len(ans.guards) != ans.size:
            out.append(f"size {ans.size} but {len(ans.guards)} guards")
    return out


def check_certificates(px: Pixelation, task: GuardTask, ans: Answer) -> list[str]:
    """Every reduced target has a certificate whose rectangle lies inside the
    polygon and contains the target and the guard (meets it, for a pixel
    guard), and the guard r-guards the target.

    The r-guard test is the oracle's vectorized form of the predicate of
    `guard_model.r_guards` and `guard_covers_point`; called once per
    certificate, the scalar form costs twice the solve.
    """
    if ans.status != "optimal":
        return [f"status {ans.status}"]
    out = []
    if len(ans.guards) != ans.size or len(set(ans.guards)) != ans.size:
        out.append(f"size {ans.size} but {len(set(ans.guards))} distinct guards")
    want = sorted(t.location for t in simplify_targets(px, task))
    got = sorted(c[0] for c in ans.certificates)
    if got != want:
        out.append(f"certificates name {len(got)} targets, the reduced target "
                   f"set has {len(want)}")
    certs = [c for c in ans.certificates if 0 <= c[2] < len(ans.guards)]
    if len(certs) != len(ans.certificates):
        out.append(f"{len(ans.certificates) - len(certs)} certificates name "
                   "no guard of the answer")
    inside = px.cover.rects_inside(*np.array(
        [c[1].as_tuple() for c in certs], dtype=np.int64).reshape(-1, 4).T)
    by_guard: dict[int, list[Pt]] = {}
    for (t, r, gi), ok in zip(certs, inside):
        g = ans.guards[gi]
        if not ok:
            out.append(f"target {t}: rectangle {r.as_tuple()} leaves the polygon")
        elif not r.contains_point(t):
            out.append(f"target {t}: rectangle {r.as_tuple()} misses it")
        elif not (r.contains_point(g.location) if g.kind == "point"
                  else r.intersects(px.pixels[g.pixel])):
            out.append(f"target {t}: rectangle {r.as_tuple()} misses its guard")
        else:
            by_guard.setdefault(gi, []).append(t)
    for gi, pts in by_guard.items():
        mat = coverage_matrix(px, [ans.guards[gi]], pts, task.allow_degenerate)
        out += [f"target {t}: guard {ans.guards[gi].json_obj()} does not "
                "r-guard it" for t, ok in zip(pts, mat[0]) if not ok]
    return out


def check_coverage(px: Pixelation, task: GuardTask, ans: Answer) -> list[str]:
    """Every point of the oracle's finite target set (`sample_targets`; for
    all-point targets, every half-unit point of the polygon) is covered by
    some chosen guard, by the oracle's coverage predicate.  This check does
    not use H, the target reduction or the DP.

    A point guard covers a point only if the box they span lies in the
    polygon, so only if the point lies in the guard's reach box: the longest
    horizontal and vertical segments of the polygon through the guard.  The
    reach box only prunes pairs; `_cover_flat`, the pairwise form of
    `coverage_matrix`, decides every pair in it.
    """
    if ans.status != "optimal":
        return [f"status {ans.status}"]
    if any(g.kind != "point" for g in ans.guards):
        raise ValueError("check_coverage prunes by the reach of point guards")
    pts = sample_targets(px, task)
    if not ans.guards:
        return [f"no guards for {len(pts)} target points"] if pts else []
    tx, ty = np.array(pts, dtype=np.int64).reshape(-1, 2).T
    gx, gy = np.array([g.location for g in ans.guards], dtype=np.int64).T
    x0, x1 = _reach(px, gx, gy, -1, 0), _reach(px, gx, gy, 1, 0)
    y0, y1 = _reach(px, gx, gy, 0, -1), _reach(px, gx, gy, 0, 1)
    # points sorted by x, so each guard's reach box is one slice in x
    order = np.argsort(tx, kind="stable")
    sx, sy = tx[order], ty[order]
    lo = np.searchsorted(sx, gx - x0, side="left")
    hi = np.searchsorted(sx, gx + x1, side="right")
    gi, ti = [], []
    for k in range(len(gx)):
        i = lo[k] + np.flatnonzero((sy[lo[k]:hi[k]] >= gy[k] - y0[k])
                                   & (sy[lo[k]:hi[k]] <= gy[k] + y1[k]))
        gi.append(np.full(len(i), k))
        ti.append(order[i])
    gi, ti = np.concatenate(gi), np.concatenate(ti)
    ok = _cover_flat(px, gx[gi], gy[gi], tx[ti], ty[ti], task.allow_degenerate)
    covered = np.zeros(len(pts), dtype=bool)
    covered[ti[ok]] = True
    bad = [pts[i] for i in np.flatnonzero(~covered)]
    return [f"{len(bad)} of {len(pts)} target points uncovered, "
            f"e.g. {bad[0]}"] if bad else []


def _reach(px: Pixelation, gx, gy, dx: int, dy: int) -> np.ndarray:
    """Per point (gx, gy) of the polygon, the largest d such that the segment
    from it to (gx + d dx, gy + d dy) lies in the polygon.  Such segments
    shrink into each other, so a binary search over d finds it."""
    b = px.poly.bbox()
    lo = np.zeros(len(gx), dtype=np.int64)              # always inside
    hi = np.full(len(gx), max(b.xmax - b.xmin, b.ymax - b.ymin), np.int64)
    while (lo < hi).any():
        mid = (lo + hi + 1) // 2
        ex, ey = gx + mid * dx, gy + mid * dy
        ok = px.cover.rects_inside(np.minimum(gx, ex), np.minimum(gy, ey),
                                   np.maximum(gx, ex), np.maximum(gy, ey))
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1)
    return lo


def check_invariance(sizes: dict[str, int]) -> list[str]:
    """One polygon's optimal size in each orientation must be the same."""
    return [] if len(set(sizes.values())) <= 1 else [f"sizes differ: {sizes}"]
