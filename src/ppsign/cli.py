"""Command-line front end: enumerate, verify sweeps, identity checks.

Data goes to stdout (JSON by default; TSV and a human table available),
diagnostics to stderr.  Big integers are serialized as decimal strings
because they overflow native JSON numbers.  Output is byte-deterministic
for fixed inputs and seed; wall-clock timings are only included when
explicitly requested with --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import random
import sys
import time
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

from . import exactalg, formulas, oracle, paths, qseries
from .core import HALF_FULL_REFERENCE, MAJORITY_REFERENCE, BoxDims, SignedCount, SymmetryClass
from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    InvalidInputError,
    PPSignError,
    ResourceLimitError,
    UnsupportedClassError,
)
from .oracle import WeightKind, WeightTag

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# (flag attribute, environment variable, default) of each budget; a command
# has the flag of the budget it spends: enumerate and verify the node
# budget, identity the subset budget
_BUDGETS = (
    ("node_budget", "PPSIGN_NODE_BUDGET", oracle.DEFAULT_NODE_BUDGET),
    ("subset_budget", "PPSIGN_SUBSET_BUDGET", 10**6),
)


def _check_args(args: argparse.Namespace) -> None:
    """Fill the command's budget from its flag, else its environment
    variable, else its default, and raise SystemExit on a budget or count
    out of range.  A command reads no budget variable it does not spend."""
    for flag, name, default in _BUDGETS:
        if not hasattr(args, flag):
            continue
        raw = os.environ.get(name)
        if raw is not None:
            try:
                default = int(raw)
            except ValueError:
                raise SystemExit(f"environment variable {name} must be an integer")
            if default <= 0:
                raise SystemExit(f"environment variable {name} must be positive")
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        if getattr(args, flag) <= 0:
            raise SystemExit("budgets must be positive")
    for flag in ("fuzz", "max_a", "max_b", "max_c", "max_alpha"):
        if getattr(args, flag, 0) < 0:
            raise SystemExit(f"--{flag.replace('_', '-')} must be nonnegative")


def _finish(records: list[dict], args) -> int:
    """Print the records (or write them to --out); exit 2 if --out cannot be
    written, else 1 on any MISMATCH or FAIL, else 3 under --strict if a
    budget skipped anything, else 0."""
    if args.format == "json":
        text = json.dumps(records, sort_keys=True, indent=2)
    elif args.format == "tsv":
        keys = sorted({k for r in records for k in r})
        rows = ["\t".join(str(r.get(k, "")) for k in keys) for r in records]
        text = "\n".join(["\t".join(keys), *rows])
    else:
        text = "\n".join("  ".join(f"{k}={v}" for k, v in sorted(r.items())) for r in records)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text)
    outcomes = {r.get(key) for r in records for key in ("status", "verdict", "result")}
    if outcomes & {"MISMATCH", "FAIL"}:
        return EXIT_MISMATCH
    if args.strict and "SKIPPED" in outcomes:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# the symmetry classes

SIGNED, ABSOLUTE, CONJECTURE = "signed", "absolute", "conjecture"
ORBIT_WEIGHT = "cyclic-orbit-weight"
_ORBIT_WEIGHT_KIND = WeightKind(WeightTag.QORBITS, Fraction(-1))


@dataclass(frozen=True)
class ClassSpec:
    """A symmetry class on one lattice of boxes, with the routes that count it.

    ``sweep`` holds the parameters as (name, first, step); verify runs each
    from ``first`` in steps of ``step`` up to its ``--max-<name>`` flag.
    ``box`` and ``params`` map parameters to their box and back.  ``lgv``
    and ``formula`` take the parameters; ``convention`` labels the formula's
    sign.  ``compare`` is SIGNED, ABSOLUTE (the cyclic orbit weight is then
    the square of the signed count) or CONJECTURE (absolute values, and a
    mismatch is a FINDING).  ``routes`` orders a verify row's values, and
    verify runs the oracle on at most ``oracle_max_volume`` cells.
    """

    cls: SymmetryClass
    sweep: tuple[tuple[str, int, int], ...]
    box: Callable[..., BoxDims]
    params: Callable[[BoxDims], tuple[int, ...]]
    routes: tuple[str, ...]
    lgv: Callable[..., SignedCount] | None = None
    formula: Callable[..., int] | None = None
    convention: str = ""
    compare: str = SIGNED
    oracle_max_volume: float = math.inf

    def fits(self, box: BoxDims) -> bool:
        """Whether the box lies on this entry's parameter lattice."""
        params = self.params(box)
        return self.box(*params) == box and all(
            (p - first) % step == 0 for p, (_, first, step) in zip(params, self.sweep)
        )


def _cube(alpha: int) -> BoxDims:
    return BoxDims(2 * alpha, 2 * alpha, 2 * alpha)


# the lattices shared by several entries, as (sweep, box, params)
_CUBES = (("alpha", 1, 1),), _cube, lambda box: (box.a // 2,)
_STC_SWEEP, _STC_PARAMS = (("alpha", 1, 1), ("b", 0, 1)), lambda box: (box.a // 2, box.c // 2)
_ALL_ROUTES = ("oracle", "lgv", "formula")

# Each route looks its function up on the module when it runs, so that a
# wrapper set on the module after import (the bench tracer, a test double)
# sees the call.  Verify sweeps the entries in this order.
_SPECS = {
    "tc": ClassSpec(
        SymmetryClass.TC, (("a", 1, 1), ("b", 0, 1)),
        lambda a, b: BoxDims(a, a, 2 * b), lambda box: (box.a, box.c // 2), _ALL_ROUTES,
        lgv=lambda *p: paths.tcpp_enum(*p),
        formula=lambda *p: formulas.thm1_tcpp(*p), convention=HALF_FULL_REFERENCE,
    ),
    "stc": ClassSpec(
        SymmetryClass.STC, _STC_SWEEP, lambda alpha, b: BoxDims(2 * alpha, 2 * alpha, 2 * b),
        _STC_PARAMS, ("lgv", "formula", "oracle"),
        lgv=lambda *p: paths.stcpp_enum(*p),
        formula=lambda *p: formulas.thm2_stcpp(*p), convention=HALF_FULL_REFERENCE,
        oracle_max_volume=1000,
    ),
    "stc-odd": ClassSpec(
        SymmetryClass.STC, _STC_SWEEP,
        lambda alpha, b: BoxDims(2 * alpha + 1, 2 * alpha + 1, 2 * b), _STC_PARAMS,
        ("lgv", "oracle"), lgv=lambda *p: paths.stcpp_odd_enum(*p),
    ),
    "cstc": ClassSpec(
        SymmetryClass.CSTC, *_CUBES, _ALL_ROUTES,
        lgv=lambda *p: paths.cstcpp_enum(*p),
        formula=lambda *p: formulas.thm4_cstcpp(*p), convention=MAJORITY_REFERENCE,
    ),
    "tssc": ClassSpec(
        SymmetryClass.TSSC, *_CUBES, _ALL_ROUTES,
        lgv=lambda *p: paths.tsscpp_enum(*p),
        formula=lambda *p: formulas.thm5_tsscpp(*p), convention="absolute (sign conventional)",
    ),
    "sc": ClassSpec(
        SymmetryClass.SC, (("a", 2, 2), ("b", 2, 2), ("c", 2, 2)), BoxDims, astuple, _ALL_ROUTES,
        lgv=lambda *p: paths.scpp_enum(*p),
        formula=lambda *p: formulas.thm6_scpp(*p), convention=HALF_FULL_REFERENCE,
    ),
    "sc-odd": ClassSpec(
        SymmetryClass.SC, (("a", 2, 2), ("b", 1, 2), ("c", 1, 2)), BoxDims, astuple,
        ("oracle", "formula"), formula=lambda *p: formulas.conj_scpp_odd(*p),
        convention="absolute (conjecture)", compare=CONJECTURE,
    ),
    "cssc": ClassSpec(
        SymmetryClass.CSSC, *_CUBES, ("oracle", ORBIT_WEIGHT, "formula"),
        formula=lambda *p: formulas.thm7_csscpp(*p),
        convention="absolute (sign conjectured +1)", compare=ABSOLUTE,
    ),
}
_CLASSES = {spec.cls.value: spec.cls for spec in _SPECS.values()}


def _short_name(name: str) -> str:
    """A long class name drops its "pp": tcpp -> tc, scpp-odd -> sc-odd."""
    base, dash, rest = name.partition("-")
    return base.removesuffix("pp") + dash + rest


def _route(route: str, cls: SymmetryClass, spec: ClassSpec | None, box: BoxDims,
           node_budget: int) -> tuple[int, str]:
    """The value one route gives on the box, with its sign-convention label."""
    if route == "oracle":
        sc = oracle.signed_count(box, cls, node_budget)
        return sc.value, sc.sign_convention
    if route == ORBIT_WEIGHT:
        return oracle.weighted_count(
            box, SymmetryClass.CYCLIC, _ORBIT_WEIGHT_KIND, node_budget
        ), ""
    if route == "lgv":
        sc = spec.lgv(*spec.params(box))
        return sc.value, sc.sign_convention
    return spec.formula(*spec.params(box)), spec.convention


def _agree(values: dict[str, int], compare: str) -> bool:
    norm = abs if compare != SIGNED else (lambda v: v)
    agree = len({norm(v) for route, v in values.items() if route != ORBIT_WEIGHT}) <= 1
    if ORBIT_WEIGHT in values:
        agree = agree and values["oracle"] ** 2 == abs(values[ORBIT_WEIGHT])
    return agree


# ---------------------------------------------------------------------------
# enumerate


def _box_for(cls: SymmetryClass, args) -> BoxDims:
    """The box the class's flags give; SystemExit for a missing flag, then
    for a box flag the class does not read."""
    if cls is SymmetryClass.TC or cls is SymmetryClass.STC:
        if args.a is None or args.b is None:
            raise SystemExit("tc/stc need --a and --b (box a x a x 2b)")
        reads, box = ("a", "b"), BoxDims(args.a, args.a, 2 * args.b)
    elif cls is SymmetryClass.SC:
        if args.a is None or args.b is None or args.c is None:
            raise SystemExit("sc needs --a, --b and --c")
        reads, box = ("a", "b", "c"), BoxDims(args.a, args.b, args.c)
    else:
        if args.alpha is None:
            raise SystemExit(f"{cls.value} needs --alpha (box (2a)^3)")
        reads, box = ("alpha",), _cube(args.alpha)
    stray = [f"--{flag}" for flag in ("a", "b", "c", "alpha")
             if flag not in reads and getattr(args, flag) is not None]
    if stray:
        raise SystemExit(f"error: enumerate --class {cls.value} reads no {' '.join(stray)}")
    return box


def cmd_enumerate(args) -> int:
    cls = _CLASSES.get(_short_name(args.cls))
    if cls is None:
        print(f"unknown class {args.cls!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        box = _box_for(cls, args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an SC box whose sides fit neither parity pattern has the oracle alone
    spec = next((s for s in _SPECS.values() if s.cls is cls and s.fits(box)), None)

    methods = ["oracle", "lgv", "formula"] if args.method == "all" else [args.method]
    records = []
    values = {}
    for method in methods:
        if method != "oracle" and (spec is None or method not in spec.routes):
            if args.method != "all":
                what = "path pipeline" if method == "lgv" else "closed form"
                print(f"no {what} for {cls.value} on {box}", file=sys.stderr)
                return EXIT_USAGE
            continue
        started = time.monotonic()
        record = {"class": cls.value, "box": [box.a, box.b, box.c], "method": method}
        try:
            value, convention = _route(method, cls, spec, box, args.node_budget)
        except ResourceLimitError as exc:
            print(f"budget: {exc}", file=sys.stderr)
            record["status"] = "SKIPPED"
        except InternalConsistencyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISMATCH
        except PPSignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        else:
            record.update(value=str(value), sign_convention=convention)
            values[method] = value
        if args.timing:
            record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        records.append(record)

    # the verdict is over the methods that finished
    if args.method == "all" and len(values) > 1:
        records.append({"verdict": "OK" if _agree(values, spec.compare) else "MISMATCH"})
    return _finish(records, args)


# ---------------------------------------------------------------------------
# verification sweeps


def _verify_row(name: str, params: tuple[int, ...], args) -> dict:
    spec = _SPECS[name]
    box = spec.box(*params)
    values: dict[str, int] = {}
    started = time.monotonic()
    try:
        for route in spec.routes:
            if route == "oracle" and box.volume() > spec.oracle_max_volume:
                continue
            value = _route(route, spec.cls, spec, box, args.node_budget)[0]
            # a conjecture fixes only the absolute value, so that is reported
            values[route] = abs(value) if spec.compare == CONJECTURE else value
        match = _agree(values, spec.compare)
        status = "OK" if match else "FINDING" if spec.compare == CONJECTURE else "MISMATCH"
    except ResourceLimitError:
        match, status = True, "SKIPPED"
    except InternalConsistencyError as exc:
        print(f"error: {name} {params}: {exc}", file=sys.stderr)
        match, status = False, "MISMATCH"
    record = {
        "class": name,
        "params": {p: v for (p, _, _), v in zip(spec.sweep, params)},
        "values": {k: str(v) for k, v in values.items()},
        "match": match,
        "status": status,
    }
    if args.timing:
        record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return record


_SMOKE_LIMITS = dict(max_a=3, max_b=2, max_c=3, max_alpha=2)


def cmd_verify(args) -> int:
    if args.smoke:
        for key, value in _SMOKE_LIMITS.items():
            setattr(args, key, min(getattr(args, key), value))
    name = _short_name(args.cls)
    if name != "all" and name not in _SPECS:
        print(f"unknown verify class {args.cls!r}", file=sys.stderr)
        return EXIT_USAGE
    records = [
        _verify_row(row_name, params, args)
        for row_name in (_SPECS if name == "all" else (name,))
        for params in product(*(
            range(first, getattr(args, f"max_{p}") + 1, step)
            for p, first, step in _SPECS[row_name].sweep
        ))
    ]
    return _finish(records, args)


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class IdentitySpec:
    """An identity: ``check(subset_budget, *instance)`` says whether it holds.

    An instance is the values of ``params``, which its label shows, then any
    drawn data the label leaves out; such data puts the instance's index in
    the label.  Without ``--fuzz`` the instance is ``defaults`` under the
    ``--<param>`` flags given, or one ``draw`` when there are no defaults;
    ``--fuzz N`` takes N draws from the seeded generator.
    """

    params: tuple[str, ...]
    defaults: tuple[int, ...]
    draw: Callable[[random.Random], tuple]
    check: Callable[..., bool]

    @property
    def flags(self) -> tuple[str, ...]:
        """The parameter flags the default instance reads."""
        return self.params if self.defaults else ()


def _rationals(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(count)]


def _draw_detl(rng: random.Random) -> tuple:
    n = rng.randint(1, 5)
    while len(set(x := _rationals(rng, n))) < n:
        pass
    return n, x, _rationals(rng, n - 1), _rationals(rng, n - 1)


def _draw_saalschutz(rng: random.Random) -> tuple:
    """n and both sides at random rational a, b, c, drawn again while a side
    is singular."""
    while True:
        n = rng.randint(0, 8)
        a, b, c = _rationals(rng, 3)
        try:
            rhs = qseries.pfaff_saalschutz_rhs(a, b, c, n)
            upper, lower = (a, b, -n), (c, 1 + a + b - c - n)
            return n, qseries.hyper_terminating(qseries.HyperParams(upper, lower)), rhs
        except PPSignError:
            continue


def _draw_minor_summation(rng: random.Random) -> tuple:
    p = rng.choice([2, 4, 6, 8])
    n = rng.choice([m for m in (2, 4) if m <= p])
    tmat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
    amat = [[0] * p for _ in range(p)]
    for i, j in combinations(range(p), 2):
        amat[i][j] = rng.randint(-5, 5)
        amat[j][i] = -amat[i][j]
    return p, n, tmat, amat


def _detl(_, n: int, *xab) -> bool:
    """The lemma at drawn points, else at x_i = i + 1, a_i = i, b_i = 2i + 1."""
    x, a, b = xab or (
        [Fraction(i + 1) for i in range(n)],
        [Fraction(i) for i in range(n - 1)],
        [Fraction(2 * i + 1) for i in range(n - 1)],
    )
    return formulas.lemma_detl_check(x, a, b)


def _recurrence_s4(_, alpha: int) -> bool:
    return not any(
        formulas.mtilde_recurrence_residual(alpha, b, i, j)
        for b in range(0, 9, 2) for i in range(1, 4) for j in range(1, 4)
    ) and all(
        formulas.mtilde_divisibility_holds(alpha, t, j) for t in range(1, 4) for j in range(1, 3)
    )


# Each check looks its functions up on the module when it runs, as the class
# routes do.  The parser offers the names in this order.
_IDENTITIES = {
    "detl": IdentitySpec(("n",), (1,), _draw_detl, _detl),
    "2ji": IdentitySpec(
        ("alpha", "beta", "gamma"), (2, 2, 0),
        lambda rng: (rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 1)),
        lambda _, alpha, beta, gamma: operator.eq(*formulas.lemma_2ji(alpha, beta, gamma)),
    ),
    "m1": IdentitySpec(
        ("alpha", "b"), (2, 2), lambda rng: (2 * rng.randint(1, 3), rng.randint(0, 6)),
        lambda _, alpha, b: formulas.lemma_M1(alpha, b)
        == exactalg.det(paths.stcpp_matrix(alpha, b).rows),
    ),
    "mrr": IdentitySpec(
        ("n", "mu"), (4, 2), lambda rng: (rng.randint(1, 6), rng.randint(0, 6)),
        lambda _, n, mu: operator.eq(*formulas.mrr_det(mu, n)),
    ),
    "pfaff-saalschutz": IdentitySpec(
        ("n",), (), _draw_saalschutz, lambda _, n, lhs, rhs: lhs == rhs
    ),
    "minor-summation": IdentitySpec(
        ("p", "n"), (), _draw_minor_summation,
        lambda budget, p, n, tmat, amat: operator.eq(*paths.minor_summation(tmat, amat, budget)),
    ),
    "recurrence-s4": IdentitySpec(
        ("alpha",), (4,), lambda rng: (2 * rng.randint(1, 3),), _recurrence_s4
    ),
}
_IDENTITY_FLAGS = tuple(dict.fromkeys(f for spec in _IDENTITIES.values() for f in spec.flags))


def cmd_identity(args) -> int:
    spec = _IDENTITIES[args.name]
    given = {f: getattr(args, f) for f in _IDENTITY_FLAGS if getattr(args, f) is not None}
    stray = [f"--{f}" for f in given if args.fuzz or f not in spec.flags]
    if stray:
        fuzz = " --fuzz" if args.fuzz else ""
        print(f"error: identity {args.name}{fuzz} reads no {' '.join(stray)}", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    instances = (
        (spec.draw(rng) for _ in range(args.fuzz or 1)) if args.fuzz or not spec.defaults
        else [tuple(given.get(f, d) for f, d in zip(spec.flags, spec.defaults))]
    )
    records = []
    for t, instance in enumerate(instances):
        label = args.name + (f"[{t}]" if len(instance) > len(spec.params) else "")
        label += "".join(f" {p}={v}" for p, v in zip(spec.params, instance))
        try:
            result = "PASS" if spec.check(args.subset_budget, *instance) else "FAIL"
        except (DimensionError, DomainError, UnsupportedClassError) as exc:
            print(f"error: {label}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ResourceLimitError as exc:
            print(f"budget: {label}: {exc}", file=sys.stderr)
            result = "SKIPPED"
        except InternalConsistencyError as exc:
            # a kernel failed its own cross-check inside the identity
            print(f"error: {label}: {exc}", file=sys.stderr)
            result = "FAIL"
        records.append({"identity": label, "result": result})
    return _finish(records, args)


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each subcommand's func is bound on
    the first call, and every parse makes a new namespace."""
    parser = argparse.ArgumentParser(
        prog="ppsign",
        description="Exact signed enumeration of plane partition symmetry classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget):
        p.add_argument("--format", choices=("json", "tsv", "human"), default="json")
        p.add_argument("--timing", action="store_true", help="include elapsed_ms")
        p.add_argument("--strict", action="store_true")
        p.add_argument(budget, type=int, default=None)
        p.add_argument("--out", default=None, help="write output to a file")

    p_enum = sub.add_parser("enumerate", help="signed count of one box")
    p_enum.add_argument("--class", dest="cls", required=True)
    p_enum.add_argument("--a", type=int)
    p_enum.add_argument("--b", type=int)
    p_enum.add_argument("--c", type=int)
    p_enum.add_argument("--alpha", type=int)
    p_enum.add_argument("--method", choices=("oracle", "lgv", "formula", "all"), default="all")
    common(p_enum, "--node-budget")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="cross-verification sweep")
    p_verify.add_argument("--class", dest="cls", default="all")
    p_verify.add_argument("--max-a", type=int, default=4)
    p_verify.add_argument("--max-b", type=int, default=3)
    p_verify.add_argument("--max-c", type=int, default=4)
    p_verify.add_argument("--max-alpha", type=int, default=2)
    p_verify.add_argument("--smoke", action="store_true", help="minimal grid")
    common(p_verify, "--node-budget")
    p_verify.set_defaults(func=cmd_verify)

    p_ident = sub.add_parser("identity", help="run a named identity check")
    p_ident.add_argument("--name", required=True, choices=tuple(_IDENTITIES))
    p_ident.add_argument("--fuzz", type=int, default=0)
    p_ident.add_argument("--seed", type=int, default=0)
    for flag in _IDENTITY_FLAGS:
        p_ident.add_argument(f"--{flag}", type=int)
    common(p_ident, "--subset-budget")
    p_ident.set_defaults(func=cmd_identity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_args(args)
        return args.func(args)
    except SystemExit as exc:  # usage errors found after parsing
        print(exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
