"""Command-line front end: solve, diag, oracle, gen and bench.

Exit codes: 0 success/optimal, 2 infeasible, 1 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from rguard.dp_solver import SolverError
from rguard.guard_model import GuardTask, TaskError
from rguard.instance_gen import (DrawnGraph, FIXTURE_NAMES, GenError,
                                 fixture_graph, gen_hardness_instance,
                                 gen_holed_variant, gen_ktin_polygon,
                                 gen_tree_polygon)
from rguard.max_rectangles import enumerate_max_rects
from rguard.oracle import OracleSizeError, oracle_min_guards
from rguard.pipeline import solve_task
from rguard.pixelation import (build_pixelation, dump_pixelation,
                               estimate_thinness_K)
from rguard.polygon_core import OrthoPolygon, PolygonError, scale_polygon
from rguard.svg_render import render_svg
from rguard.tree_decomposition import DecompositionError, decompose_dual


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class InputError(ValueError):
    pass


def _load_polygon(path: str) -> OrthoPolygon:
    try:
        with open(path, encoding="utf-8") as f:
            return OrthoPolygon.from_json(f.read())
    except OSError as exc:
        raise InputError(f"polygon file: {exc}") from exc
    except (PolygonError, json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"polygon_core: {exc}") from exc


def _load_task(path: str) -> GuardTask:
    try:
        with open(path, encoding="utf-8") as f:
            return GuardTask.from_json_obj(json.load(f))
    except OSError as exc:
        raise InputError(f"task file: {exc}") from exc
    except (TaskError, json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"guard_model: {exc}") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def cmd_solve(args) -> int:
    poly = _load_polygon(args.polygon)
    task = _load_task(args.task)
    try:
        ctx = solve_task(poly, task)
    except TaskError as exc:
        raise InputError(f"guard_model: {exc}") from exc
    obj = ctx.solution.to_json_obj(ctx.H)
    _write(args.out, json.dumps(obj, indent=2) + "\n")
    if args.svg:
        _write(args.svg, render_svg(ctx))
    return 0 if ctx.solution.status == "optimal" else 2


def cmd_diag(args) -> int:
    poly = _load_polygon(args.polygon)
    px = build_pixelation(poly)
    rects = enumerate_max_rects(px, True)
    incidence = [0] * px.pixel_count
    for mr in rects:
        if mr.degenerate:
            continue
        for pid in mr.pixel_ids:
            incidence[pid] += 1
    T = decompose_dual(px.dual)
    print(f"pixels: {px.pixel_count}")
    print(f"thin: {'true' if px.is_thin else 'false'}")
    print(f"K: {estimate_thinness_K(px)}")
    print(f"holes: {len(poly.holes)}")
    print(f"width: {T.width}")
    print(f"maxrect-incidence: {max(incidence)}")
    if args.dump:
        sys.stdout.write(dump_pixelation(px))
    return 0


def cmd_oracle(args) -> int:
    poly = _load_polygon(args.polygon)
    task = _load_task(args.task)
    try:
        res = oracle_min_guards(poly, task, max_pixels=args.max_pixels)
    except OracleSizeError as exc:
        raise InputError(f"oracle: {exc}") from exc
    obj = {"status": res.status,
           "size": res.size if res.size is not None else 0,
           "guards": [g.json_obj() for g in res.guards]}
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if res.status == "optimal" else 2


def cmd_gen(args) -> int:
    if args.family == "tree":
        poly = gen_tree_polygon(args.pixels, args.seed)
    elif args.family == "ktin":
        poly = gen_ktin_polygon(args.k, args.teeth, args.seed)
    elif args.family == "holed":
        base = scale_polygon(gen_tree_polygon(args.pixels, args.seed), args.scale)
        poly = gen_holed_variant(base, args.holes, args.seed)
    else:  # hardness
        if args.graph_file:
            with open(args.graph_file, encoding="utf-8") as f:
                g = DrawnGraph.from_json_obj(json.load(f))
        else:
            g = fixture_graph(args.graph)
        poly, meta = gen_hardness_instance(g)
        if args.meta:
            obj = {
                "s_v": {k: list(r.as_tuple()) for k, r in sorted(meta.s_v.items())},
                "edge_rects": {f"{u}--{v}": list(r.as_tuple())
                               for (u, v), r in sorted(meta.edge_rects.items())},
                "subdivided_vertices": meta.subdivided_vertices,
            }
            _write(args.meta, json.dumps(obj, indent=2) + "\n")
    text = poly.to_json() + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size): the exponent k
    of a fit time ~ c * size**k.  Needs two distinct sizes and positive
    times."""
    xs = [math.log2(s) for s in sizes]
    ys = [math.log2(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    task = GuardTask.make()
    k = args.k if args.family == "ktin" else 1
    rows = []
    totals: dict[int, list[float]] = {}
    for size in sizes:
        for seed in seeds:
            if args.family == "tree":
                poly = gen_tree_polygon(size, seed)
            else:
                teeth = max(1, size // (2 * (args.k + 1)))
                poly = gen_ktin_polygon(args.k, teeth, seed)
            ctx = solve_task(poly, task)
            totals.setdefault(size, []).append(ctx.timings["total"])
            for phase, seconds in ctx.timings.items():
                rows.append({"family": args.family, "k": k,
                             "size": size, "seed": seed,
                             "pixels": ctx.px.pixel_count,
                             "vertices": poly.n, "phase": phase,
                             "seconds": f"{seconds:.6f}"})
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            w = csv.DictWriter(f, fieldnames=["family", "k", "size", "seed",
                                              "pixels", "vertices", "phase",
                                              "seconds"])
            w.writeheader()
            w.writerows(rows)

    meds = {s: sorted(v)[len(v) // 2] for s, v in totals.items()}
    for s in sizes:
        print(f"size {s}: median total {meds[s]:.3f}s")
    if len(sizes) >= 2:
        slope = loglog_slope(sizes, [max(meds[s], 1e-9) for s in sizes])
        print(f"log-log slope: {slope:.3f}")
        a, b = sorted(sizes)[-2:]
        ratio = (meds[b] / b) / (meds[a] / a)
        print(f"per-unit ratio {a}->{b}: {ratio:.3f} (max {args.max_ratio})")
        if ratio > args.max_ratio:
            print("error: bench: per-unit time ratio outside the configured band",
                  file=sys.stderr)
            return 1
    return 0


def make_parser() -> _Parser:
    p = _Parser(prog="rguard",
                description="Exact r-visibility guarding of orthogonal polygons")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="solve a guarding task exactly")
    s.add_argument("--polygon", required=True)
    s.add_argument("--task", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--svg")
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("diag", help="pixelation diagnostics")
    s.add_argument("--polygon", required=True)
    s.add_argument("--dump", action="store_true",
                   help="also print the pixel/dual debug dump")
    s.set_defaults(fn=cmd_diag)

    s = sub.add_parser("oracle", help="brute-force reference solver")
    s.add_argument("--polygon", required=True)
    s.add_argument("--task", required=True)
    s.add_argument("--out")
    s.add_argument("--max-pixels", type=int, default=40)
    s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("gen", help="instance generators")
    fam = s.add_subparsers(dest="family", required=True)
    t = fam.add_parser("tree")
    t.add_argument("--pixels", type=int, required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_gen)
    t = fam.add_parser("ktin")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--teeth", type=int, required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_gen)
    t = fam.add_parser("holed")
    t.add_argument("--pixels", type=int, required=True)
    t.add_argument("--holes", type=int, default=1)
    t.add_argument("--scale", type=int, default=3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_gen)
    t = fam.add_parser("hardness")
    t.add_argument("--graph", choices=FIXTURE_NAMES, default="k3")
    t.add_argument("--graph-file")
    t.add_argument("--meta")
    t.add_argument("--out")
    t.set_defaults(fn=cmd_gen)

    s = sub.add_parser("bench", help="scaling benchmark")
    s.add_argument("--family", choices=("tree", "ktin"), default="tree")
    s.add_argument("--sizes", required=True, help="comma-separated sizes")
    s.add_argument("--seeds", default="0")
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--csv")
    s.add_argument("--max-ratio", type=float, default=2.0)
    s.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GenError, PolygonError, TaskError, SolverError,
            DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
