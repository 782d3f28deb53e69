"""The benchmark's workloads: the operations one pass runs.

Each workload exists at two scales. ``full`` is what the benchmark measures;
``tiny`` runs the same code paths on small inputs in well under a second and
serves the self-test. README.md says why each workload exists and which layer
metrics should move which end-to-end metric.

An operation returns the canonical text of its result, whether its run-time
check passed, and the bytes of CLI stdout it captured. The benchmark digests
the text and compares it with the digest recorded in ``expected.json``;
operations whose result depends on the seed carry no recorded digest and rest
on their run-time check instead.

Every ppsign function is looked up on its module at call time, so the tracer's
wrappers, installed after the operations are built, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ppsign import cli, exactalg, formulas, oracle, paths
from ppsign.core import BoxDims, SymmetryClass
from ppsign.oracle import WeightKind, WeightTag

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Outcome:
    text: str
    ok: bool
    stdout_bytes: int = 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Outcome]
    seeded: bool = False


def build(workload: str, seed: int, scale: str) -> list[Op]:
    """The operations of one pass, with every input generated from ``seed``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    builders = {
        "oracle-boxes": _oracle_boxes,
        "pipeline-large": _pipeline_large,
        "cli-sweep": _cli_sweep,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](seed, scale == "tiny")


# ---------------------------------------------------------------------------
# oracle-boxes: brute-force orbit-sign counts; the box list is fixed


_ORACLE_BOXES = {
    # (class, box) pairs; SC 4x5x5 has odd sides, so its sign reference is
    # the lexicographically first member found by the walk
    False: [
        (SymmetryClass.TC, (6, 6, 4)),
        (SymmetryClass.STC, (7, 7, 4)),
        (SymmetryClass.SC, (6, 4, 4)),
        (SymmetryClass.SC, (4, 5, 5)),
        (SymmetryClass.CSTC, (6, 6, 6)),
        (SymmetryClass.CSSC, (6, 6, 6)),
        (SymmetryClass.TSSC, (6, 6, 6)),
    ],
    True: [
        (SymmetryClass.TC, (2, 2, 2)),
        (SymmetryClass.STC, (3, 3, 2)),
        (SymmetryClass.SC, (2, 2, 2)),
        (SymmetryClass.SC, (2, 3, 3)),
        (SymmetryClass.CSTC, (2, 2, 2)),
        (SymmetryClass.CSSC, (2, 2, 2)),
        (SymmetryClass.TSSC, (2, 2, 2)),
    ],
}


def _oracle_boxes(seed: int, tiny: bool) -> list[Op]:
    # No random input: the boxes stay fixed so that cost is comparable
    # across seeds.
    ops = [
        Op(f"signed_count {cls.value} {a}x{b}x{c}", _signed_count(cls, BoxDims(a, b, c)))
        for cls, (a, b, c) in _ORACLE_BOXES[tiny]
    ]
    # the CSSC 4^3 companion; the 6^3 one alone would take about 4 s, too
    # long a pass for the median of a run to settle
    side = 2 if tiny else 4
    ops.append(
        Op(f"weighted_count cyclic {side}^3 q-orbits -1",
           _cyclic_orbit_weight(BoxDims(side, side, side)))
    )
    n = 3 if tiny else 7
    ops.append(Op(f"count_vsasm {n}", lambda: Outcome(str(oracle.count_vsasm(n)), True)))
    return ops


def _signed_count(cls: SymmetryClass, box: BoxDims) -> Callable[[], Outcome]:
    def run() -> Outcome:
        sc = oracle.signed_count(box, cls)
        return Outcome(f"{sc.value} {sc.sign_convention}", True)

    return run


def _cyclic_orbit_weight(box: BoxDims) -> Callable[[], Outcome]:
    weight = WeightKind(WeightTag.QORBITS, Fraction(-1))

    def run() -> Outcome:
        return Outcome(str(oracle.weighted_count(box, SymmetryClass.CYCLIC, weight)), True)

    return run


# ---------------------------------------------------------------------------
# pipeline-large: big determinants and Pfaffians, each against a closed form


def _pipeline_large(seed: int, tiny: bool) -> list[Op]:
    tc, stc, sc, sc_mixed, tssc, cstc, odd, thm3, skew = (
        ((4, 4), (2, 2), (4, 4, 4), (2, 4, 6), 3, 5, (2, 2), 2, 8)
        if tiny
        else ((60, 60), (20, 20), (40, 40, 40), (30, 40, 50), 15, 41, (20, 20), 6, 60)
    )
    return [
        Op(f"tcpp_enum {tc}",
           _against_closed_form(lambda: paths.tcpp_enum(*tc).value,
                                lambda: formulas.thm1_tcpp(*tc))),
        Op(f"stcpp_enum {stc}",
           _against_closed_form(lambda: paths.stcpp_enum(*stc).value,
                                lambda: formulas.thm2_stcpp(*stc))),
        Op(f"scpp_enum {sc}",
           _against_closed_form(lambda: paths.scpp_enum(*sc).value,
                                lambda: formulas.thm6_scpp(*sc))),
        Op(f"scpp_enum {sc_mixed}",
           _against_closed_form(lambda: paths.scpp_enum(*sc_mixed).value,
                                lambda: formulas.thm6_scpp(*sc_mixed))),
        Op(f"tsscpp_pfaffian_value {tssc}",
           _against_closed_form(lambda: paths.tsscpp_pfaffian_value(tssc),
                                lambda: formulas.thm5_tsscpp(tssc))),
        Op(f"cstcpp_full_det {cstc}",
           _against_closed_form(lambda: paths.cstcpp_full_det(cstc),
                                lambda: formulas.thm4_cstcpp(cstc))),
        # no closed form for odd sides: the recorded digest is the check
        Op(f"stcpp_odd_enum {odd}",
           lambda: Outcome(str(paths.stcpp_odd_enum(*odd).value), True)),
        Op(f"thm3_structure_check {thm3}", _structure_check(thm3)),
        Op(f"random skew {skew}x{skew} pfaffian", _random_skew(seed, skew), seeded=True),
    ]


def _against_closed_form(lgv: Callable[[], int], closed: Callable[[], int]):
    def run() -> Outcome:
        value = lgv()
        return Outcome(str(value), value == closed())

    return run


def _structure_check(alpha: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        cases = formulas.thm3_structure_check(alpha)
        return Outcome(repr(cases), all(case.ok for case in cases))

    return run


def _random_skew(seed: int, n: int) -> Callable[[], Outcome]:
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-9, 9)
            m[j][i] = -m[i][j]

    # swapping rows and columns 0 and 1 is an odd permutation P, so
    # Pf(P M P^T) = -Pf(M): a check that Pf^2 = det alone cannot make
    swapped = [row[:] for row in m]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for row in swapped:
        row[0], row[1] = row[1], row[0]

    def run() -> Outcome:
        pf = exactalg.pfaffian(m)
        ok = pf * pf == exactalg.det(m) and exactalg.pfaffian(swapped) == -pf
        return Outcome(str(pf), ok)

    return run


# ---------------------------------------------------------------------------
# cli-sweep: the CLI in-process on hundreds of small instances


_VERIFY_GRIDS = {
    False: [
        ["--class", "all"],
        ["--class", "tc", "--max-a", "6", "--max-b", "2"],
        ["--class", "sc", "--max-a", "6", "--max-b", "4", "--max-c", "4"],
        ["--class", "sc-odd", "--max-a", "4", "--max-b", "5", "--max-c", "5"],
        ["--class", "stc", "--max-alpha", "3", "--max-b", "4"],
        ["--class", "stc-odd", "--max-alpha", "3", "--max-b", "3"],
    ],
    True: [
        ["--class", "all", "--smoke"],
        ["--class", "tc", "--max-a", "2", "--max-b", "1"],
    ],
}

# fuzzed instances per identity, sized so no single identity dominates
_IDENTITY_FUZZ = {
    "detl": 200,
    "2ji": 200,
    "m1": 60,
    "mrr": 200,
    "pfaff-saalschutz": 300,
    "minor-summation": 150,
    "recurrence-s4": 12,
}


def _cli_sweep(seed: int, tiny: bool) -> list[Op]:
    ops = [
        Op("ppsign verify " + " ".join(grid), _cli_call(["verify", *grid]))
        for grid in _VERIFY_GRIDS[tiny]
    ]
    for name, fuzz in _IDENTITY_FUZZ.items():
        fuzz = 2 if tiny else fuzz
        argv = ["identity", "--name", name, "--fuzz", str(fuzz), "--seed", str(seed)]
        ops.append(Op(f"ppsign identity {name} --fuzz {fuzz}",
                      _cli_call(argv, fuzz), seeded=True))
    return ops


def _cli_call(argv: list[str], fuzz: int | None = None) -> Callable[[], Outcome]:
    """``ppsign <argv>`` in-process; the text is the exit code plus stdout.

    A fuzzed identity run must also list ``fuzz`` instances, all PASS.
    """

    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        stdout = out.getvalue()
        ok = code == cli.EXIT_OK
        if ok and fuzz is not None:
            records = json.loads(stdout)
            ok = len(records) == fuzz and all(r["result"] == "PASS" for r in records)
        return Outcome(f"exit {code}\n{stdout}", ok, len(stdout.encode()))

    return run
