"""Workload and metric names with their units, read from BENCHMARK.json.

BENCHMARK.json at the repository root is the one place that names the
workloads and the metrics; every script of the benchmark takes them from here.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
# every per-layer metric with its unit, in report order
LAYER_METRICS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# metrics that must repeat exactly between two traced passes of one seed
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "bits", "bytes")
)
