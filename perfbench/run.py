"""Benchmark for ppsign: run one workload, check every result, print metrics.

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # all three, one after another

Run from anywhere; the package is imported from ``src/`` next to this
directory. Each pass is a fresh single-threaded Python process
(``child.py``), started one at a time while another fits in ``--seconds``
(by default ``run_seconds`` of BENCHMARK.json), so every timed pass begins
with ppsign's caches empty. ``wall_s`` and ``cpu_s`` are means over the
passes of the run, ``setup_s`` is a median over its set-ups.

``--trace 0`` prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_frac). ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics; it also writes the spans of the last traced
pass and a summary to ``perfbench/out/``. Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

An operation fails if it raises, if its run-time check fails, if the sha256
of its result differs from ``expected.json`` (results that do not depend on
the seed) or if it differs between two passes of the run. A failure is
counted, never fatal. ``--record`` rewrites ``expected.json`` from the code as
it stands; do that only in a change that means to change results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
from spec import END_TO_END, LAYER_METRICS, SPEC, WORKLOADS  # noqa: E402
from tracing import merge_passes  # noqa: E402

CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run: no result may be printed."""


def spawn(workload: str, seed: int, scale: str, mode: str, spans: Path | None = None) -> dict:
    """Run one child process to completion and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} {mode} process printed no report")
    report["setup_s"] = report["ready"] - started
    return report


class Checker:
    """Counts operations and failures over every pass of one run."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.first: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, ops: list[dict]) -> None:
        for op in ops:
            self.attempted += 1
            name, digest = op["name"], op["digest"]
            self.first.setdefault(name, digest)
            if op["error"]:
                self.fail(f"{name}: raised {op['error']}")
            elif not op["ok"]:
                self.fail(f"{name}: run-time check failed")
            elif not op["seeded"] and self.expected.get(name) != digest:
                self.fail(f"{name}: result differs from the recorded one")
            elif self.first[name] != digest:
                self.fail(f"{name}: result differs between passes")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cycles(seconds: float, cycle):
    """Call ``cycle()`` at least once, and again while another fits in ``seconds``.

    A cycle is expected to take as long as the median of those before it, so
    a run ends close to ``seconds`` instead of one pass after it.
    """
    start = perf_counter()
    durations: list[float] = []
    while not durations or perf_counter() - start + median(durations) <= seconds:
        began = perf_counter()
        cycle()
        durations.append(perf_counter() - began)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str, expected: dict[str, str]) -> dict:
    checker = Checker(expected)
    if not trace:
        passes, setups = [], []

        def cycle() -> None:
            # a set-up-only process after every pass, so that the set-ups
            # sample the whole run, as the passes do
            passes.append(spawn(workload, seed, scale, "pass"))
            checker.check(passes[-1]["ops"])
            setups.append(passes[-1]["setup_s"])
            setups.append(spawn(workload, seed, scale, "setup")["setup_s"])

        _cycles(seconds, cycle)
        # Pass times within one run mix the speed regimes of a shared
        # machine; the mean weighs them by time where the median snaps to
        # one of them, and so varies less from run to run (README.md).
        values = {
            "wall_s": fmean(p["wall_s"] for p in passes),
            "cpu_s": fmean(p["cpu_s"] for p in passes),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            "ok_frac": 1 - checker.failed / checker.attempted,
        }
        print(f"{workload} (seed {seed}, {scale}): {len(passes)} passes, "
              f"{len(setups)} set-ups")
        for name, value in values.items():
            print(f"  {name:12s} {value:.6g} {END_TO_END[name]}")
        print(f"  {'failed_frac':12s} {checker.failed / checker.attempted:.6g} frac "
              f"({checker.failed} of {checker.attempted} operations)")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    else:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        untraced, traced = [], []

        def cycle() -> None:
            untraced.append(spawn(workload, seed, scale, "pass"))
            checker.check(untraced[-1]["ops"])
            traced.append(spawn(workload, seed, scale, "trace", spans))
            checker.check(traced[-1]["ops"])

        _cycles(seconds, cycle)
        layers, repeat = merge_passes([t["layers"] for t in traced])
        checker.attempted += 1
        if not repeat:
            checker.fail("per-layer counts differ between traced passes")
        traced_wall = median(t["wall_s"] for t in traced)
        untraced_wall = median(u["wall_s"] for u in untraced)
        layers["trace_overhead_s"] = traced_wall - untraced_wall
        summary = {
            "workload": workload, "seed": seed, "scale": scale,
            "passes": len(traced), "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall, "layers": layers,
            "functions": traced[-1]["functions"],
            "functions_wall_s": traced[-1]["wall_s"],
            "ops": {op["name"]: op["seconds"] for op in untraced[-1]["ops"]},
            "spans": spans.name,
        }
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(summary, indent=1))
        print(f"{workload} (seed {seed}, {scale}): {len(traced)} traced and "
              f"{len(untraced)} untraced passes; spans in {spans}")
        metrics = {name: _metric(layers[name], unit) for name, unit in LAYER_METRICS.items()}
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def record() -> None:
    """Write the digest of every seed-independent result at every scale."""
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for scale in ("full", "tiny"):
        for workload in WORKLOADS:
            ops = spawn(workload, 0, scale, "pass")["ops"]
            bad = [op["name"] for op in ops if op["error"] or not op["ok"]]
            if bad:
                raise BenchError(f"refusing to record: {workload} {scale} failed {bad}")
            recorded.setdefault(scale, {})[workload] = {
                op["name"]: op["digest"] for op in ops if not op["seeded"]
            }
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {EXPECTED}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded digests and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "ppsign" / "__init__.py").is_file():
        print(f"error: no ppsign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        expected = json.loads(EXPECTED.read_text())[args.scale]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.scale, expected.get(name, {}))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
