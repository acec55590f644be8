"""Spans around the layer calls that `solve_task` makes.

`solve_task` looks its layers up in the `rguard.pipeline` namespace, so
replacing those names with wrappers times each layer from outside the
program.  Spans stay in memory as [name, start, end, parent, solve id]
until `write` is called at the end of a run.
"""
from __future__ import annotations

import json
import time

# pipeline name -> per-layer metric of its self time
LAYERS = {
    "build_pixelation": "pixelation.build_s",
    "simplify_targets": "guard_model.simplify_targets_s",
    "simplify_guards": "guard_model.simplify_guards_s",
    "enumerate_max_rects": "max_rectangles.enumerate_s",
    "build_aux_graph": "aux_graph.build_s",
    "decompose_dual": "tree_decomposition.decompose_s",
    "lift_to_H": "tree_decomposition.lift_s",
    "solve_r2ds": "dp_solver.solve_s",
}
ROOT = "solve_task"
ROOT_METRIC = "pipeline.self_s"


class Tracer:
    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: dict = {}
        self.solve_id = -1

    def install(self) -> None:
        for name in LAYERS:
            fn = getattr(self.pipeline, name)
            self._saved[name] = fn
            setattr(self.pipeline, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.pipeline, name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def span(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.solve_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def solve(self, solve_task, poly, task):
        """One traced solve: the root span and the layer spans under it."""
        self.solve_id += 1
        return self.span(ROOT, solve_task, poly, task)

    def self_times(self, scale=lambda solve_id: 1.0) -> dict[str, float]:
        """Self time per metric, summed over all spans: a span's duration
        minus the durations of its children, times scale(its solve id)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out = dict.fromkeys([*LAYERS.values(), ROOT_METRIC], 0.0)
        for s, t in zip(self.spans, own):
            out[LAYERS.get(s[0], ROOT_METRIC)] += t * scale(s[4])
        return out

    def problems(self) -> list[str]:
        """Spans that do not nest: a root with a parent, a layer span
        without one, or a child outside its parent's interval."""
        out = []
        for i, (name, start, end, parent, _sid) in enumerate(self.spans):
            if (parent < 0) != (name == ROOT):
                out.append(f"span {i}: {name} has parent {parent}")
            elif parent >= 0:
                p = self.spans[parent]
                if not p[1] <= start <= end <= p[2]:
                    out.append(f"span {i}: {name} outside its parent")
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, sid in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "solve": sid}) + "\n")
