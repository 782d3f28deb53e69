"""Golden corpus of CLI runs: the sha256 of (exit code, stdout, stderr) of
every argv below must match the digest recorded in cli_golden.json.

The corpus covers every class under its short and long name, every
method, boxes with each side 0..4, the verify grids of every class and
alias in every format, budget-stopped rows, every identity, and the usage
errors.  Runs go in-process through ``cli.main``.  ``--timing`` and
``--out`` are left out (timings vary, files are checked in test_cli.py),
and so are argparse's own errors, whose usage text lists every flag.

Rewrite the digests with ``python tests/test_cli_golden.py`` (from the
repository root, with ``src`` on ``PYTHONPATH``) only in a change that
means to change CLI output, and name every digest it changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import product
from pathlib import Path

from ppsign import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
ENV_BUDGETS = ("PPSIGN_NODE_BUDGET", "PPSIGN_SUBSET_BUDGET")
METHODS = ("oracle", "lgv", "formula", "all")
VERIFY_CLASSES = ("tc", "stc", "stc-odd", "cstc", "tssc", "sc", "sc-odd", "cssc")


def _enumerate_corpus():
    for name, a, b, method in product(
        ("tc", "tcpp", "stc", "stcpp"), range(5), range(3), METHODS
    ):
        yield ["enumerate", "--class", name, "--a", str(a), "--b", str(b), "--method", method]
    for name, alpha, method in product(
        ("cstc", "cstcpp", "tssc", "tsscpp", "cssc", "csscpp"), range(3), METHODS
    ):
        yield ["enumerate", "--class", name, "--alpha", str(alpha), "--method", method]
    for a, b, c in product(range(5), repeat=3):
        sides = ["--a", str(a), "--b", str(b), "--c", str(c)]
        for method in METHODS:
            yield ["enumerate", "--class", "sc", *sides, "--method", method]
        yield ["enumerate", "--class", "scpp", *sides]
    for fmt in ("tsv", "human"):
        yield ["enumerate", "--class", "tc", "--a", "3", "--b", "1", "--format", fmt]
        yield ["enumerate", "--class", "sc", "--a", "2", "--b", "3", "--c", "3", "--format", fmt]
    # budget-stopped methods: a SKIPPED record, and exit 3 only under
    # --strict; 10 nodes stop the CSTC 4^3 oracle, and the other two agree
    for strict in ((), ("--strict",)):
        yield ["enumerate", "--class", "tc", "--a", "33", "--b", "1", "--method", "oracle",
               "--node-budget", "100000", *strict]
    yield ["enumerate", "--class", "cstc", "--alpha", "2", "--node-budget", "10"]


def _verify_corpus():
    long_names = [n.replace("-", "pp-") if "-" in n else n + "pp" for n in VERIFY_CLASSES]
    for name in (*VERIFY_CLASSES, *long_names, "all"):
        yield ["verify", "--class", name, "--smoke"]
        yield ["verify", "--class", name]
    for fmt in ("tsv", "human"):
        yield ["verify", "--class", "all", "--format", fmt]
        yield ["verify", "--class", "all", "--smoke", "--format", fmt]
    yield ["verify", "--class", "stc", "--max-alpha", "3", "--max-b", "4"]
    yield ["verify", "--class", "sc-odd", "--max-a", "4", "--max-b", "5", "--max-c", "5"]
    # budget-stopped rows: SKIPPED, and exit 3 only under --strict; 1000
    # nodes stop CSSC 4^3 after its signed count, in the cyclic orbit weight
    for strict in ((), ("--strict",)):
        yield ["verify", "--class", "all", "--node-budget", "40", *strict]
        yield ["verify", "--class", "all", "--node-budget", "40", "--format", "tsv", *strict]
        yield ["verify", "--class", "cssc", "--node-budget", "1000", *strict]


def _identity_corpus():
    for name in (
        "detl", "2ji", "m1", "mrr", "pfaff-saalschutz", "minor-summation", "recurrence-s4"
    ):
        yield ["identity", "--name", name]
        for seed in ("1", "2"):
            yield ["identity", "--name", name, "--fuzz", "4", "--seed", seed]
    # a budget-stopped instance: SKIPPED, and the run goes on
    for strict in ((), ("--strict",)):
        yield ["identity", "--name", "minor-summation", "--fuzz", "3", "--seed", "1",
               "--subset-budget", "1", *strict]


def _usage_corpus():
    # unknown class
    yield ["enumerate", "--class", "nope", "--a", "1", "--b", "1"]
    yield ["enumerate", "--class", "stc-odd", "--a", "3", "--b", "1"]
    yield ["verify", "--class", "bogus"]
    # missing box flags
    for name in ("tc", "tcpp", "stc", "cstc", "tssc", "tsscpp", "cssc", "sc", "scpp"):
        yield ["enumerate", "--class", name]
    yield ["enumerate", "--class", "tc", "--a", "2"]
    yield ["enumerate", "--class", "stc", "--b", "1"]
    yield ["enumerate", "--class", "cstc", "--a", "2", "--b", "1"]
    yield ["enumerate", "--class", "sc", "--a", "2", "--b", "2"]
    # negative side
    yield ["enumerate", "--class", "tc", "--a", "-1", "--b", "1"]
    yield ["enumerate", "--class", "stc", "--a", "2", "--b", "-1"]
    yield ["enumerate", "--class", "sc", "--a", "2", "--b", "-2", "--c", "2"]
    for name in ("cstc", "tssc", "cssc"):
        yield ["enumerate", "--class", name, "--alpha", "-1"]
    # negative or zero count or budget
    yield ["identity", "--name", "detl", "--fuzz", "-5"]
    for flag in ("--max-a", "--max-b", "--max-c", "--max-alpha"):
        yield ["verify", "--class", "all", flag, "-1"]
    yield ["enumerate", "--class", "tc", "--a", "2", "--b", "1", "--node-budget", "0"]
    yield ["verify", "--class", "tc", "--node-budget", "-1"]
    yield ["identity", "--name", "mrr", "--n", "0"]
    yield ["identity", "--name", "2ji", "--alpha", "-3"]
    yield ["identity", "--name", "m1", "--alpha", "3"]
    # a route the box has not got
    yield ["enumerate", "--class", "stc", "--a", "3", "--b", "1", "--method", "formula"]
    yield ["enumerate", "--class", "sc", "--a", "3", "--b", "2", "--c", "2", "--method", "lgv"]
    yield ["enumerate", "--class", "cssc", "--alpha", "1", "--method", "lgv"]


CORPORA = {
    "enumerate": _enumerate_corpus,
    "verify": _verify_corpus,
    "identity": _identity_corpus,
    "usage": _usage_corpus,
}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _record() -> dict[str, dict[str, str]]:
    return {
        corpus: {" ".join(argv): digest(argv) for argv in build()}
        for corpus, build in CORPORA.items()
    }


def _check(corpus: str, monkeypatch) -> None:
    for name in ENV_BUDGETS:
        monkeypatch.delenv(name, raising=False)
    expected = json.loads(GOLDEN.read_text())[corpus]
    argvs = [" ".join(argv) for argv in CORPORA[corpus]()]
    assert sorted(argvs) == sorted(expected)
    changed = [argv for argv in argvs if digest(argv.split(" ")) != expected[argv]]
    assert changed == []


def test_golden_enumerate(monkeypatch):
    _check("enumerate", monkeypatch)


def test_golden_verify(monkeypatch):
    _check("verify", monkeypatch)


def test_golden_identity(monkeypatch):
    _check("identity", monkeypatch)


def test_golden_usage(monkeypatch):
    _check("usage", monkeypatch)


if __name__ == "__main__":
    if any(name in os.environ for name in ENV_BUDGETS):
        sys.exit(f"unset {' and '.join(ENV_BUDGETS)} before recording")
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
