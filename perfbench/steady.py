"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 10 --baseline perfbench/BASELINE.json --commit <sha>

Runs ``run.py`` once per seed (``--first-seed`` onwards) on each workload,
one run at a time and seed by seed, with the ``run_seconds`` of
BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median, and
marks a spread that reaches a third of the metric's bound. ``--baseline``
merges the figures into the given JSON file as the set of these seeds, next
to the Python version, ``nproc`` and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from spec import BOUNDS, ROOT, SPEC, WORKLOADS  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args()

    workloads = args.workload or WORKLOADS
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs: dict[str, list[dict]] = {workload: [] for workload in workloads}
    # seed by seed, every workload in turn: the runs of one workload spread
    # over the whole session instead of a few minutes of it
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs[workload].append(result["metrics"])
            print(workload, seed, json.dumps(result["metrics"]), flush=True)

    figures: dict[str, dict] = {}
    steady = True
    for workload in workloads:
        figures[workload] = {}
        for metric, bound in BOUNDS.items():
            fig = summarize([r[metric]["value"] for r in runs[workload]])
            fig["unit"] = runs[workload][0][metric]["unit"]
            figures[workload][metric] = fig
            flag = "ok" if fig["spread"] < bound / 3 else "SPREAD >= bound/3"
            steady = steady and flag == "ok"
            print(f"{workload:15s} {metric:12s} median {fig['median']:.5g} {fig['unit']:5s} "
                  f"q1 {fig['q1']:.5g} q3 {fig['q3']:.5g} spread {fig['spread']:.4f} "
                  f"(bound {bound}) {flag}", flush=True)

    if args.baseline:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        baseline.update({
            "commit": args.commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": SPEC["run_seconds"],
        })
        key = f"seeds {seeds[0]}-{seeds[-1]}"
        baseline.setdefault("sets", {}).setdefault(key, {}).update(figures)
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
