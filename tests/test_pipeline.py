import importlib.util
from collections import Counter
from pathlib import Path

from helpers import SHAPES
from rguard import pipeline
from rguard.guard_model import GuardTask
from rguard.polygon_core import OrthoPolygon

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_names() -> list[str]:
    """The layer names the benchmark wraps to time a solve layer by layer."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return list(mod.LAYERS)


def test_solve_calls_each_layer_by_its_pipeline_name(monkeypatch):
    names = _layer_names()
    assert len(names) == 8
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    ctx = pipeline.solve_task(OrthoPolygon(SHAPES["U"]), GuardTask.make())
    assert calls == dict.fromkeys(names, 1)
    # a second task on the same pixelation reuses its memoized decomposition
    pipeline.solve_task(ctx.px, GuardTask.make(allow_degenerate=True))
    assert calls == {name: 1 if name in ("build_pixelation", "decompose_dual")
                     else 2 for name in names}
