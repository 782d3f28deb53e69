"""One benchmark process: set up, run one pass of a workload, report as JSON.

``run.py`` starts this script once per pass (and a few times with
``--mode setup``), one process at a time, so every timed pass starts with
ppsign's ``lru_cache``s empty, as every ``ppsign`` invocation does.

The last line of stdout is a JSON object. ``ready`` is the monotonic clock
(CLOCK_MONOTONIC on Linux, shared by every process) just before the first
timed call; the parent subtracts the time it started the process to get the
set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_ppsign():
    """Import ppsign from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ppsign" / "__init__.py").is_file():
        sys.exit(f"no ppsign sources under {src}")
    sys.path.insert(0, str(src))
    import ppsign

    if Path(ppsign.__file__).resolve().parent != src / "ppsign":
        sys.exit(f"imported ppsign from {ppsign.__file__}, not from {src}")


def _cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--spans", help="traced pass: write the spans to this file")
    args = parser.parse_args()

    _import_ppsign()
    import workloads

    ops = workloads.build(args.workload, args.seed, args.scale)
    ready = perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    results = []
    stdout_bytes = 0
    cpu0 = _cpu_seconds()
    start = perf_counter()
    for op in ops:
        op_start = perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed operation is counted, never fatal
            results.append({"name": op.name, "seeded": op.seeded, "digest": None,
                            "ok": False, "error": f"{type(exc).__name__}: {exc}",
                            "seconds": perf_counter() - op_start})
            continue
        stdout_bytes += outcome.stdout_bytes
        results.append({
            "name": op.name,
            "seeded": op.seeded,
            "digest": hashlib.sha256(outcome.text.encode()).hexdigest(),
            "ok": outcome.ok,
            "error": None,
            "seconds": perf_counter() - op_start,
        })
    wall = perf_counter() - start
    cpu = _cpu_seconds() - cpu0

    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(stdout_bytes)
        report["functions"] = tracer.by_function()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
