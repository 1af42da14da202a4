"""Write BENCHMARK.json at the repository root from perfbench/spec.json.

Usage: python3 perfbench/benchmark_json.py

spec.json is the single source: it also carries each workload's generator
parameters, smoke sizes and the layers it stresses or bypasses, and for each
per-layer metric the end-to-end metric it should move.  BENCHMARK.json keeps
only the keys the benchmark contract allows, and only the gated workloads:
those whose run-to-run spread stays within the bounds.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def benchmark_json(spec: dict) -> dict:
    return {
        "command": spec["command"],
        "paths": spec["paths"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in spec["workloads"] if w["gated"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in spec["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in spec["per_layer"]],
    }


def render(spec: dict) -> str:
    return json.dumps(benchmark_json(spec), indent=2) + "\n"


if __name__ == "__main__":
    BENCHMARK_JSON.write_text(render(load_spec()))
