"""Self-test of the benchmark, on the tiny scale (about 10 s in all).

    python3 perfbench/selftest.py

Checks that:
- a tiny run of each workload prints every end-to-end metric with its unit,
  and failed_frac, and passes every correctness check;
- a wrong recorded digest makes the run report failures (failed_frac > 0);
- two traced runs give identical per-layer counts, and a traced pass gives
  the same result digests as an untraced one, so tracing changes no value;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Scratch files go to perfbench/out/. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT, ROOT, spawn  # noqa: E402
from spec import COUNT_METRICS, END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402

SEED = 7
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--scale", "tiny",
         "--seconds", "0", "--seed", str(SEED), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check_metrics_printed(workload: str) -> None:
    code, lines = bench("--workload", workload, "--trace", "0")
    out = result(lines)
    metrics = out["metrics"]
    check(code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
          f"{workload}: tiny run passes every check")
    check(all(metrics.get(name, {}).get("unit") == unit for name, unit in END_TO_END.items())
          and all(metrics[name]["value"] > 0 for name in END_TO_END),
          f"{workload}: every end-to-end metric printed with its unit, none 0")
    check(any(line.split()[:1] == ["failed_frac"] for line in lines),
          f"{workload}: failed_frac printed")


def copy_benchmark(name: str, with_sources: bool) -> Path:
    """A fresh copy of BENCHMARK.json and perfbench/, and of src/ if asked, in out/."""
    copy = OUT / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, copy / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
    return copy


def check_wrong_digest_fails() -> None:
    copy = copy_benchmark("wrong-digest", with_sources=True)
    expected = copy / "perfbench" / "expected.json"
    wrong = json.loads(expected.read_text())
    for ops in wrong["tiny"].values():
        name = sorted(ops)[0]
        ops[name] = "0" * 64
    expected.write_text(json.dumps(wrong))
    for workload in WORKLOADS:
        code, lines = bench("--workload", workload, root=copy)
        out = result(lines)
        check(code == 0 and not out["correct"] and out["failed"] > 0
              and out["metrics"]["ok_frac"]["value"] < 1,
              f"{workload}: a wrong recorded digest raises failed_frac above 0")
    shutil.rmtree(copy)


def check_tracing_changes_nothing(workload: str) -> None:
    runs = [result(bench("--workload", workload, "--trace", "1")[1]) for _ in range(2)]
    check(all(r["correct"] for r in runs), f"{workload}: traced runs pass every check")
    check(all(set(r["metrics"]) == set(LAYER_METRICS) for r in runs),
          f"{workload}: traced run prints every per-layer metric")
    counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in runs]
    check(counts[0] == counts[1], f"{workload}: per-layer counts repeat exactly")
    digests = [
        {op["name"]: op["digest"] for op in spawn(workload, SEED, "tiny", mode)["ops"]}
        for mode in ("pass", "trace")
    ]
    check(digests[0] == digests[1], f"{workload}: traced and untraced digests agree")


def check_bare_directory_fails() -> None:
    bare = copy_benchmark("bare", with_sources=False)
    code, lines = bench("--workload", WORKLOADS[0], root=bare)
    printed = bool(lines) and lines[-1].startswith("{")
    check(code != 0 and not printed, "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    for workload in WORKLOADS:
        check_metrics_printed(workload)
    check_wrong_digest_fails()
    for workload in WORKLOADS:
        check_tracing_changes_nothing(workload)
    check_bare_directory_fails()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
