"""Benchmark of the exact solver, one workload per process.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; it imports `rguard` from that checkout's
`src`.  With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
the per-layer ones.  Times are in reference seconds (see REF_S below); the
wall-clock medians go to standard error.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exit code 0 means every solve succeeded and every answer passed its checks.
See README.md.
"""
from __future__ import annotations

import os

# one thread per process, set before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-ups per run, setup_s is their median: at least SETUPS[0], more until
# SETUP_SECONDS have passed, at most SETUPS[1]
SETUPS = (5, 100)
SETUP_SECONDS = 2.0

# The speed of the 2-core machine this was built on drifts by up to 1.6x
# over minutes, and a fixed pure-Python loop drifts with it (README.md).
# The loop is timed every REF_EVERY seconds between solves, and times are
# reported in reference seconds: wall seconds x REF_S / the loop's median
# time in the same round (for a set-up, three timings right after it).
REF_ITERS = 100_000
REF_S = 0.0096      # the loop's median time over 10 minutes on that machine
REF_EVERY = 0.25

WIDTHS = ("tree_decomposition.dual_width", "tree_decomposition.lifted_width")

# In a traced run the layer self times must add up to the solve time measured
# around each traced call to within this share.  The rest is the tracer's own
# bookkeeping outside the root span: 0.09% on mixed_small, whose
# pipeline.self_s is 0.8%.
SELF_SUM_TOLERANCE = 0.005


def _import_rguard():
    """Import rguard from this checkout's src and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rguard
    except ImportError as exc:
        raise SystemExit(f"cannot import rguard from {SRC}: {exc}")
    if not Path(rguard.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"rguard imported from {rguard.__file__}, not {SRC}")


def ref_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def counts_of(ctx) -> dict[str, int]:
    rects = ctx.rects
    return {
        "pixelation.pixels": ctx.px.pixel_count,
        "pixelation.dual_edges": len(ctx.px.dual.edges),
        "guard_model.targets": len(ctx.targets),
        "guard_model.guards": len(ctx.guards),
        "max_rectangles.rects": len(rects),
        "max_rectangles.degenerate_rects": sum(m.degenerate for m in rects),
        "max_rectangles.pixel_incidences": sum(len(m.pixel_ids) for m in rects),
        "aux_graph.edges": sum(map(len, ctx.H.ur)) + sum(map(len, ctx.H.gr)),
        "tree_decomposition.dual_width": ctx.T_dual.width,
        "tree_decomposition.lifted_width": ctx.T_aux.width,
        "tree_decomposition.lifted_bag_volume": sum(map(len, ctx.T_aux.bags)),
        "dp_solver.guards_chosen": ctx.solution.size,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_rguard()
    import rguard.pipeline as pipeline
    import checks
    import workloads
    from rguard.pixelation import build_pixelation
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    solve_task = pipeline.solve_task
    # the interpreter, NumPy and rguard alone, before any input or solve
    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # set-up: load the inputs and make one warm-up solve, several times
    setups: list[tuple[float, float]] = []      # (wall seconds, scale)
    first = time.perf_counter()
    while len(setups) < SETUPS[0] or (
            time.perf_counter() - first < SETUP_SECONDS
            and len(setups) < SETUPS[1]):
        t0 = time.perf_counter()
        cases = workloads.load(args.workload)
        solve_task(cases[0].poly, cases[0].task)
        wall = time.perf_counter() - t0
        setups.append((wall, REF_S / statistics.median(
            ref_time() for _ in range(3))))
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)

    tracer = Tracer(pipeline) if args.trace else None
    counts: dict[str, int] = {}                 # summed, widths maxed
    answers: list[dict] = [{} for _ in cases]   # answer -> times returned
    times: list[tuple[int, float]] = []         # (round, wall seconds)
    scales: list[float] = []                    # per round
    attempted = failed = 0
    gc.collect()
    if tracer:
        tracer.install()
    start = last_ref = time.perf_counter()
    # whole rounds, each solving every case once, until --seconds are used
    while not scales or time.perf_counter() - start < args.seconds:
        refs = []
        for i in order:
            case = cases[i]
            attempted += 1
            try:
                t0 = time.perf_counter()
                if tracer:
                    ctx = tracer.solve(solve_task, case.poly, case.task)
                else:
                    ctx = solve_task(case.poly, case.task)
                times.append((len(scales), time.perf_counter() - t0))
            except Exception:
                failed += 1
                print(f"{case.name}: solve failed", file=sys.stderr)
                traceback.print_exc()
                continue
            ans = checks.answer_of(ctx)
            answers[i][ans] = answers[i].get(ans, 0) + 1
            if tracer:
                for k, v in counts_of(ctx).items():
                    old = counts.get(k, 0)
                    counts[k] = max(old, v) if k in WIDTHS else old + v
            del ctx
            if time.perf_counter() - last_ref >= REF_EVERY:
                refs.append(ref_time())
                last_ref = time.perf_counter()
        scales.append(REF_S / statistics.median(refs or [ref_time()]))
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(scales)

    # checks, outside the timed loop: each distinct answer once
    problems = []
    sizes: dict[int, dict[str, int]] = {}
    for case, seen in zip(cases, answers):
        if len(seen) > 1:
            problems.append(f"{case.name}: {len(seen)} different answers")
        if args.workload == "mixed_small":
            found = [p for a in seen for p in checks.check_oracle(
                case.poly, case.task, a)]
        else:
            px = build_pixelation(case.poly)
            found = [p for a in seen for p in
                     checks.check_certificates(px, case.task, a)
                     + checks.check_coverage(px, case.task, a)]
            for a in seen:
                sizes.setdefault(case.base, {})[case.name] = a.size
        problems += [f"{case.name} {case.task.to_json_obj()}: {p}"
                     for p in found]
    for by_name in sizes.values():
        problems += checks.check_invariance(by_name)

    if tracer:
        problems += tracer.problems()
        span_sum = sum(tracer.self_times().values())
        measured = sum(t for _r, t in times)
        if abs(span_sum - measured) > SELF_SUM_TOLERANCE * measured:
            problems.append(f"layer self times add up to {span_sum:.4f} s, "
                            f"the traced solves took {measured:.4f} s")
        selfs = tracer.self_times(lambda sid: scales[sid // len(cases)])
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": v / rounds, "unit": "s"}
                   for k, v in selfs.items()}
        metrics.update({k: {"value": v if k in WIDTHS else v / rounds,
                            "unit": "count"} for k, v in counts.items()})
    else:
        ref_times = [t * scales[r] for r, t in times]
        metrics = {
            "setup_s": {"value": statistics.median(t * k for t, k in setups),
                        "unit": "s"},
            "solve_s": {"value": statistics.median(ref_times), "unit": "s"},
            "solves_per_s": {"value": len(ref_times) / sum(ref_times),
                             "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"wall seconds: set-up {statistics.median(t for t, _ in setups):.4f}"
              f", solve {statistics.median(t for _r, t in times):.4f}; "
              f"reference scale {min(scales):.3f}..{max(scales):.3f}; "
              f"peak RSS {peak_rss_mb:.2f} MB, {import_rss_mb:.2f} MB of it "
              "after the imports", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds of {len(cases)} solves, "
          f"{len(problems)} check failures", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
