"""Run the whole benchmark and print its reference figures.

    python3 perfbench/record.py              # seeds 1-10, traced runs too
    python3 perfbench/record.py --no-trace   # seeds 1-10, untraced only

Each run is its own `run.py` process, one after another, with the settings
of BENCHMARK.json.  Prints, per workload, the median and quartiles of every
end-to-end metric and their spread (quartile distance over median), then
the per-layer medians of three traced runs, each made right after the
untraced run of its seed, and the tracing overhead of those pairs.  Every
run's JSON goes to perfbench/out/record.json.  Exits 1 if a run failed or
reported an incorrect answer, if a spread exceeds its bound, or if a
per-layer count differs between the traced runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2, 3)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced runs")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record: dict = {"spec": spec, "untraced": {}, "traced": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        # each traced run follows the untraced run of its seed, so the pair
        # sees nearly the same machine and their difference is the overhead
        results, traced = [], []
        for seed in SEEDS:
            results.append(run(spec, w, seed, 0))
            if seed in TRACED_SEEDS and not args.no_trace:
                traced.append(run(spec, w, seed, 1))
        record["untraced"][w] = results
        record["traced"][w] = traced
        print(f"\n{w}: {len(SEEDS)} runs, failed/attempted "
              f"{sorted({(r['failed'], r['attempted']) for r in results})}")
        print("| metric | q1 | median | q3 | spread | bound |")
        print("| --- | --- | --- | --- | --- | --- |")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if spread > m["bound"]:
                ok = False
            print(f"| {m['name']} ({m['unit']}) | {q1:.4g} | {med:.4g} | "
                  f"{q3:.4g} | {spread:.3f} | {m['bound']} |")
        ok &= all(r["correct"] and not r["failed"] for r in results)
        if args.no_trace:
            continue
        ok &= all(r["correct"] and not r["failed"] for r in traced)
        layer = {m["name"]: [r["metrics"][m["name"]]["value"] for r in traced]
                 for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        repeat = all(len(set(v)) == 1 for k, v in layer.items()
                     if units[k] == "count")
        ok &= repeat
        per_round = len(workloads.load(w))
        traced_rounds = [sum(v["value"] for v in r["metrics"].values()
                             if v["unit"] == "s") for r in traced]
        untraced_rounds = [
            per_round / results[seed - 1]["metrics"]["solves_per_s"]["value"]
            for seed in TRACED_SEEDS[:len(traced)]]
        traced_round = statistics.median(traced_rounds)
        overhead = statistics.median(
            t / u - 1 for t, u in zip(traced_rounds, untraced_rounds))
        print(f"\n{w}, traced runs (seeds {TRACED_SEEDS}), medians per round "
              f"of {per_round} solves; counts repeat exactly: {repeat}")
        print("| metric | value | share |")
        print("| --- | --- | --- |")
        for name, vals in layer.items():
            v = statistics.median(vals)
            share = f"{v / traced_round:.1%}" if units[name] == "s" else ""
            print(f"| {name} ({units[name]}) | {v:.6g} | {share} |")
        print("tracing overhead, traced over untraced solve time per round of "
              f"the same seed: {overhead:+.1%} (median of {len(traced)} pairs;"
              f" traced rounds {', '.join(f'{t:.3f}' for t in traced_rounds)} s,"
              f" untraced {', '.join(f'{u:.3f}' for u in untraced_rounds)} s)")
    out = HERE / "out" / "record.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}; {'all within bounds' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
