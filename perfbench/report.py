"""Traced-run report: per workload and layer, self time, calls and counts.

    python3 perfbench/report.py

Runs ``run.py --trace 1`` on every workload with seed 1 for ``run_seconds``
of BENCHMARK.json, one workload after another, then reads the summaries it
leaves in ``perfbench/out/`` and writes ``perfbench/REPORT.md``:
every per-layer metric side by side for the three workloads, and for each
workload the functions ranked by self time. The program is single-threaded,
so every span lies on the blocking path and the ranking is the blocking path
broken down; a change to one function can save at most its self time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT  # noqa: E402
from spec import LAYER_METRICS, SPEC, WORKLOADS  # noqa: E402

SEED = 1
RANKED = 10


def _fmt(value: float, unit: str) -> str:
    if unit in ("count", "bits", "bytes"):
        return str(int(value))
    return f"{value:.4g}"


def main() -> int:
    seconds = SPEC["run_seconds"]
    summaries = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        summaries[workload] = json.loads(
            (OUT / f"trace-{workload}-seed{SEED}.json").read_text())

    lines = [
        "# Traced-run report",
        "",
        f"Seed {SEED}, {seconds:g} s per workload; written by "
        "`python3 perfbench/report.py`.",
        "Per-layer times are medians over the traced passes and include the",
        "tracer's own cost (`trace_overhead_s`). Counts repeat exactly for a seed.",
        "README.md defines every metric.",
        "",
        "| workload | untraced wall_s | traced wall_s | trace_overhead_s | passes |",
        "| --- | --- | --- | --- | --- |",
    ]
    for workload, s in summaries.items():
        lines.append(f"| `{workload}` | {s['untraced_wall_s']:.3f} | {s['traced_wall_s']:.3f} "
                     f"| {s['layers']['trace_overhead_s']:.3f} | {s['passes']} |")
    lines += ["", "## Per-layer metrics", "",
              "| metric | unit | " + " | ".join(f"`{w}`" for w in summaries) + " |",
              "| --- | --- |" + " --- |" * len(summaries)]
    for name, unit in LAYER_METRICS.items():
        cells = " | ".join(_fmt(s["layers"][name], unit) for s in summaries.values())
        lines.append(f"| `{name}` | {unit} | {cells} |")

    for workload, s in summaries.items():
        # the ranking comes from one traced pass, so shares are of that pass
        functions, wall = s["functions"], s["functions_wall_s"]
        outside = wall - sum(f["self_s"] for f in functions.values())
        ranked = sorted(functions.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
        lines += ["", f"## Self time along the blocking path: `{workload}`", "",
                  "| rank | function | calls | self_s | share of the traced pass |",
                  "| --- | --- | --- | --- | --- |"]
        for rank, (name, row) in enumerate(ranked[:RANKED], 1):
            lines.append(f"| {rank} | `{name}` | {row['calls']} | {row['self_s']:.3f} "
                         f"| {row['self_s'] / wall:.1%} |")
        lines.append(f"| - | benchmark code outside traced functions | - | {outside:.3f} "
                     f"| {outside / wall:.1%} |")
    (HERE / "REPORT.md").write_text("\n".join(lines) + "\n")
    print(f"wrote {HERE / 'REPORT.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
