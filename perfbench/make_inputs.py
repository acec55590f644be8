"""Regenerate the frozen workload inputs from their instance_gen seeds.

    python3 perfbench/make_inputs.py      # rewrite perfbench/inputs/*.json

The benchmark never calls a generator: it reads these files, so a later
change to `rguard.instance_gen` cannot silently change a workload.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from rguard.instance_gen import (gen_holed_variant, gen_ktin_polygon,  # noqa: E402
                                 gen_tree_polygon)
from rguard.pixelation import build_pixelation  # noqa: E402
from rguard.polygon_core import OrthoPolygon, half, scale_polygon  # noqa: E402

INPUTS = HERE / "inputs"

# (pixel count, seed) of each base tree polygon
TREE = [(3000, 11), (3000, 12)]
# (base tree pixels, base seed, holes, hole seed); each base is scaled x3
HOLED = [(300, 21, 6, 21), (250, 22, 5, 22)]
# (K, teeth, seed)
KTHIN = [(2, 60, 31), (3, 50, 32)]
# mixed_small: trees of 5..40 pixels, holed variants as in criterion 1
MIXED_TREES = 30
MIXED_HOLED = 4


def _center(r) -> list:
    return [half((r.xmin + r.xmax) // 2), half((r.ymin + r.ymax) // 2)]


def _entry(name: str, poly: OrthoPolygon, points: bool = False) -> dict:
    out = {"name": name, "polygon": poly.to_json_obj()}
    if points:
        # criterion-1 style explicit points: two pixel centers and a vertex
        px = build_pixelation(poly)
        first, last = px.pixels[0], px.pixels[-1]
        mid = px.pixels[px.pixel_count // 2]
        vertex = [half(v) for v in poly.outer[0]]
        out["target_points"] = [_center(first), _center(last), vertex]
        out["guard_points"] = [_center(mid), vertex]
    return out


def build() -> dict[str, dict]:
    from helpers import HOLED_SHAPES, SHAPES

    tree = [_entry(f"tree{n}_s{s}", gen_tree_polygon(n, s)) for n, s in TREE]
    holed = [_entry(f"holed{n}x3_h{h}_s{s}",
                    gen_holed_variant(scale_polygon(gen_tree_polygon(n, s), 3),
                                      h, hs))
             for n, s, h, hs in HOLED]
    kthin = [_entry(f"kthin_K{k}_t{t}_s{s}", gen_ktin_polygon(k, t, s))
             for k, t, s in KTHIN]
    mixed = []
    for seed in range(MIXED_TREES):
        n = 5 + 35 * seed // (MIXED_TREES - 1)
        mixed.append(_entry(f"tree{n}_s{seed}", gen_tree_polygon(n, seed), True))
    for seed in range(MIXED_HOLED):
        base = scale_polygon(gen_tree_polygon(5 + seed % 8, 1000 + seed), 3)
        mixed.append(_entry(f"holed_s{seed}",
                            gen_holed_variant(base, 1 + seed % 2, seed), True))
    for name, ring in SHAPES.items():
        mixed.append(_entry(f"shape_{name}", OrthoPolygon(ring), True))
    for name, (outer, holes) in HOLED_SHAPES.items():
        mixed.append(_entry(f"shape_{name}", OrthoPolygon(outer, holes), True))

    def doc(generator: str, instances: list) -> dict:
        return {"generator": generator, "instances": instances}

    return {
        "tree": doc(f"gen_tree_polygon(pixels, seed) for {TREE}", tree),
        "holed": doc("gen_holed_variant(scale_polygon(gen_tree_polygon(pixels,"
                     f" seed), 3), holes, hole_seed) for {HOLED}", holed),
        "kthin": doc(f"gen_ktin_polygon(K, teeth, seed) for {KTHIN}", kthin),
        "mixed_small": doc(
            f"gen_tree_polygon(5 + 35 * i // {MIXED_TREES - 1}, i) for i < "
            f"{MIXED_TREES}; "
            "gen_holed_variant(scale_polygon(gen_tree_polygon(5 + i % 8, "
            f"1000 + i), 3), 1 + i % 2, i) for i < {MIXED_HOLED}; "
            "tests/helpers.py SHAPES and HOLED_SHAPES", mixed),
    }


def main() -> int:
    for name, doc in build().items():
        path = INPUTS / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: "
              f"{len(doc['instances'])} polygons")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
