"""Self-tests of the benchmark: each answer check rejects a corrupted answer,
and a tiny run of every workload prints exactly the metrics that
BENCHMARK.json names.

    python3 perfbench/selftest.py          # about a minute and a half
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from rguard.guard_model import GuardTask  # noqa: E402
from rguard.pipeline import solve_task  # noqa: E402
from rguard.pixelation import build_pixelation  # noqa: E402
from rguard.polygon_core import validate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def drop_guard(ans: checks.Answer, k: int) -> checks.Answer:
    """The answer without guard k and the certificates that name it."""
    certs = tuple((t, r, gi - (gi > k)) for t, r, gi in ans.certificates
                  if gi != k)
    guards = ans.guards[:k] + ans.guards[k + 1:]
    return dataclasses.replace(ans, size=len(guards), guards=guards,
                               certificates=certs)


def size_off(ans: checks.Answer) -> checks.Answer:
    return dataclasses.replace(ans, size=ans.size + 1)


def rect_misses_target(ans: checks.Answer) -> checks.Answer:
    """Certificate 0 with the rectangle of a certificate that misses its
    target."""
    (t, _r, gi), rest = ans.certificates[0], ans.certificates[1:]
    far = next(r for _t, r, _g in rest if not r.contains_point(t))
    return dataclasses.replace(ans, certificates=((t, far, gi),) + rest)


class AnswerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # a 23-pixel tree with the large workloads' default task
        cls.case = next(c for c in workloads.load("mixed_small")
                        if c.name == "tree23_s15")
        cls.task = GuardTask.make()
        cls.px = build_pixelation(cls.case.poly)
        cls.ans = checks.answer_of(solve_task(cls.case.poly, cls.task))

    def test_true_answer_passes(self):
        self.assertGreater(self.ans.size, 1)
        self.assertEqual(checks.check_certificates(self.px, self.task,
                                                   self.ans), [])
        self.assertEqual(checks.check_coverage(self.px, self.task, self.ans),
                         [])
        self.assertEqual(checks.check_oracle(self.case.poly, self.task,
                                             self.ans), [])
        self.assertEqual(checks.check_invariance(
            {"id": self.ans.size, "mirror": self.ans.size}), [])

    def test_certificates_reject_each_corruption(self):
        for bad in (drop_guard(self.ans, 0), size_off(self.ans),
                    rect_misses_target(self.ans)):
            self.assertNotEqual(
                checks.check_certificates(self.px, self.task, bad), [])

    def test_coverage_rejects_every_dropped_guard(self):
        for k in range(self.ans.size):
            self.assertNotEqual(checks.check_coverage(
                self.px, self.task, drop_guard(self.ans, k)), [])

    def test_invariance_rejects_size_off_by_one(self):
        bad = size_off(self.ans)
        self.assertNotEqual(checks.check_invariance(
            {"id": self.ans.size, "mirror": bad.size}), [])

    def test_oracle_rejects_size_and_dropped_guard(self):
        for bad in (size_off(self.ans), drop_guard(self.ans, 0)):
            self.assertNotEqual(
                checks.check_oracle(self.case.poly, self.task, bad), [])

    def test_oracle_rejects_certificates_verify_solution_rejects(self):
        ctx = solve_task(self.case.poly, self.task)
        ctx.solution.certificates[0].rect_id = next(
            r for r in range(len(ctx.H.rects))
            if r not in ctx.H.ur[ctx.solution.certificates[0].target_id])
        bad = checks.answer_of(ctx)
        self.assertFalse(bad.verified)
        self.assertNotEqual(checks.check_oracle(self.case.poly, self.task,
                                                bad), [])


class Orientations(unittest.TestCase):
    def test_orientations_are_valid_congruent_polygons(self):
        poly = workloads.load("holed")[0].poly
        for how in workloads.ORIENTATIONS:
            q = workloads.orient(poly, how)
            self.assertTrue(validate(q).ok, how)
            self.assertEqual(q.area2(), poly.area2())
            self.assertEqual(len(q.holes), len(poly.holes))
            self.assertEqual(build_pixelation(q).pixel_count,
                             build_pixelation(poly).pixel_count)
        self.assertNotEqual(workloads.orient(poly, "mirror"), poly)


class TinyRuns(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))

    def test_tiny_run_prints_exactly_the_named_metrics(self):
        for w in workloads.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    proc = subprocess.run(
                        SPEC["command"] + ["--workload", w, "--seed", "3",
                                           "--seconds", "0",
                                           "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=180)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(res), ["attempted", "correct",
                                                   "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
