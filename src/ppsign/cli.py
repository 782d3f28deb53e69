"""Command-line front end: enumerate, verify sweeps, identity checks.

Data goes to stdout (JSON by default; TSV and a human table available),
diagnostics to stderr.  Big integers are serialized as decimal strings
because they overflow native JSON numbers.  Output is byte-deterministic
for fixed inputs and seed; wall-clock timings are only included when
explicitly requested with --timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from . import exactalg, formulas, oracle, paths, qseries
from .core import BoxDims, SymmetryClass
from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    InvalidInputError,
    PPSignError,
    ResourceLimitError,
    UnsupportedClassError,
)
from .oracle import SignedCount, WeightKind, WeightTag

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    node_budget: int = oracle.DEFAULT_NODE_BUDGET
    subset_budget: int = exactalg.DEFAULT_SUBSET_BUDGET
    output_format: str = "json"
    timing: bool = False
    strict: bool = False
    seed: int = 0
    out: str | None = None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"environment variable {name} must be an integer")
    if value <= 0:
        raise SystemExit(f"environment variable {name} must be positive")
    return value


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        node_budget=_env_int("PPSIGN_NODE_BUDGET", oracle.DEFAULT_NODE_BUDGET),
        subset_budget=_env_int("PPSIGN_SUBSET_BUDGET", exactalg.DEFAULT_SUBSET_BUDGET),
    )
    if getattr(args, "node_budget", None) is not None:
        cfg.node_budget = args.node_budget
    if getattr(args, "subset_budget", None) is not None:
        cfg.subset_budget = args.subset_budget
    cfg.output_format = getattr(args, "format", "json")
    cfg.timing = bool(getattr(args, "timing", False))
    cfg.strict = bool(getattr(args, "strict", False))
    cfg.seed = getattr(args, "seed", 0) or 0
    cfg.out = getattr(args, "out", None)
    if cfg.node_budget <= 0 or cfg.subset_budget <= 0:
        raise SystemExit("budgets must be positive")
    for flag in ("fuzz", "max_a", "max_b", "max_c", "max_alpha"):
        if getattr(args, flag, 0) < 0:
            raise SystemExit(f"--{flag.replace('_', '-')} must be nonnegative")
    return cfg


def _emit(records: list[dict], cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        text = json.dumps(records, sort_keys=True, indent=2)
    elif cfg.output_format == "tsv":
        keys = sorted({k for r in records for k in r})
        rows = ["\t".join(str(r.get(k, "")) for k in keys) for r in records]
        text = "\n".join(["\t".join(keys), *rows])
    else:
        text = "\n".join("  ".join(f"{k}={v}" for k, v in sorted(r.items())) for r in records)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
_HALF_FULL = "reference: half-full partition"
_ALL_ROUTES = ("oracle", "lgv", "formula")

# Each route looks its function up on the module when it runs, so that a
# wrapper set on the module after import (the bench tracer, a test double)
# sees the call.  Verify sweeps the entries in this order.
_SPECS = {
    "tc": ClassSpec(
        SymmetryClass.TC, (("a", 1, 1), ("b", 0, 1)),
        lambda a, b: BoxDims(a, a, 2 * b), lambda box: (box.a, box.c // 2), _ALL_ROUTES,
        lgv=lambda *p: paths.tcpp_enum(*p),
        formula=lambda *p: formulas.thm1_tcpp(*p), convention=_HALF_FULL,
    ),
    "stc": ClassSpec(
        SymmetryClass.STC, _STC_SWEEP, lambda alpha, b: BoxDims(2 * alpha, 2 * alpha, 2 * b),
        _STC_PARAMS, ("lgv", "formula", "oracle"),
        lgv=lambda *p: paths.stcpp_enum(*p),
        formula=lambda *p: formulas.thm2_stcpp(*p), convention=_HALF_FULL,
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
        formula=lambda *p: formulas.thm4_cstcpp(*p), convention="reference: majority partition",
    ),
    "tssc": ClassSpec(
        SymmetryClass.TSSC, *_CUBES, _ALL_ROUTES,
        lgv=lambda *p: paths.tsscpp_enum(*p),
        formula=lambda *p: formulas.thm5_tsscpp(*p), convention="absolute (sign conventional)",
    ),
    "sc": ClassSpec(
        SymmetryClass.SC, (("a", 2, 2), ("b", 2, 2), ("c", 2, 2)), BoxDims, astuple, _ALL_ROUTES,
        lgv=lambda *p: paths.scpp_enum(*p),
        formula=lambda *p: formulas.thm6_scpp(*p), convention=_HALF_FULL,
    ),
    "sc-odd": ClassSpec(
        SymmetryClass.SC, (("a", 2, 2), ("b", 1, 2), ("c", 1, 2)), BoxDims, astuple,
        ("oracle", "formula"), formula=lambda *p: formulas.conj_scpp_odd(*p),
        convention="absolute (conjecture)", compare=CONJECTURE,
    ),
    "cssc": ClassSpec(
        SymmetryClass.CSSC, *_CUBES, ("oracle", ORBIT_WEIGHT, "formula"),
        formula=lambda *p: formulas.thm7_csscpp(*p)[0],
        convention="absolute (sign conjectured +1)", compare=ABSOLUTE,
    ),
}
_CLASSES = {spec.cls.value: spec.cls for spec in _SPECS.values()}


def _short_name(name: str) -> str:
    """A long class name drops its "pp": tcpp -> tc, scpp-odd -> sc-odd."""
    base, dash, rest = name.partition("-")
    return base.removesuffix("pp") + dash + rest


def _route(route: str, cls: SymmetryClass, spec: ClassSpec | None, box: BoxDims,
           cfg: RunConfig) -> tuple[int, str]:
    """The value one route gives on the box, with its sign-convention label."""
    if route == "oracle":
        sc = oracle.signed_count(box, cls, cfg.node_budget)
        return sc.value, sc.sign_convention
    if route == ORBIT_WEIGHT:
        return oracle.weighted_count(
            box, SymmetryClass.CYCLIC, _ORBIT_WEIGHT_KIND, cfg.node_budget
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
    if cls is SymmetryClass.TC or cls is SymmetryClass.STC:
        if args.a is None or args.b is None:
            raise SystemExit("tc/stc need --a and --b (box a x a x 2b)")
        return BoxDims(args.a, args.a, 2 * args.b)
    if cls is SymmetryClass.SC:
        if args.a is None or args.b is None or args.c is None:
            raise SystemExit("sc needs --a, --b and --c")
        return BoxDims(args.a, args.b, args.c)
    if args.alpha is None:
        raise SystemExit(f"{cls.value} needs --alpha (box (2a)^3)")
    return _cube(args.alpha)


def cmd_enumerate(args) -> int:
    cfg = _config_from_args(args)
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
        try:
            value, convention = _route(method, cls, spec, box, cfg)
        except ResourceLimitError as exc:
            print(f"budget: {exc}", file=sys.stderr)
            return EXIT_BUDGET if cfg.strict else EXIT_OK
        except InternalConsistencyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISMATCH
        except PPSignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        record = {
            "class": cls.value,
            "box": [box.a, box.b, box.c],
            "method": method,
            "value": str(value),
            "sign_convention": convention,
        }
        if cfg.timing:
            record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        records.append(record)
        values[method] = value

    exit_code = EXIT_OK
    if args.method == "all" and len(values) > 1:
        agree = _agree(values, spec.compare)
        records.append({"verdict": "OK" if agree else "MISMATCH"})
        if not agree:
            exit_code = EXIT_MISMATCH
    _emit(records, cfg)
    return exit_code


# ---------------------------------------------------------------------------
# verification sweeps


def _verify_row(name: str, params: tuple[int, ...], cfg: RunConfig) -> dict:
    spec = _SPECS[name]
    box = spec.box(*params)
    values: dict[str, int] = {}
    started = time.monotonic()
    try:
        for route in spec.routes:
            if route == "oracle" and box.volume() > spec.oracle_max_volume:
                continue
            value = _route(route, spec.cls, spec, box, cfg)[0]
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
    if cfg.timing:
        record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return record


_SMOKE_LIMITS = dict(max_a=3, max_b=2, max_c=3, max_alpha=2)


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.smoke:
        for key, value in _SMOKE_LIMITS.items():
            setattr(args, key, min(getattr(args, key), value))
    name = _short_name(args.cls)
    if name != "all" and name not in _SPECS:
        print(f"unknown verify class {args.cls!r}", file=sys.stderr)
        return EXIT_USAGE
    records = [
        _verify_row(row_name, params, cfg)
        for row_name in (_SPECS if name == "all" else (name,))
        for params in product(*(
            range(first, getattr(args, f"max_{p}") + 1, step)
            for p, first, step in _SPECS[row_name].sweep
        ))
    ]
    _emit(records, cfg)
    if any(r["status"] == "MISMATCH" for r in records):
        return EXIT_MISMATCH
    if cfg.strict and any(r["status"] == "SKIPPED" for r in records):
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# identity checks


def _fuzz_rationals(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(count)]


def _given(value, default):
    """The flag's value, or the default when the flag was not given; 0 is a
    value, not a missing flag."""
    return default if value is None else value


def _identity_instances(name: str, args, cfg: RunConfig, rng: random.Random):
    """Yield (label, callable) pairs; the callable returns True on success."""
    fuzz = args.fuzz
    if name == "detl":
        if fuzz:
            for t in range(fuzz):
                n = rng.randint(1, 5)
                while True:
                    x = _fuzz_rationals(rng, n)
                    if len(set(x)) == n:
                        break
                a = _fuzz_rationals(rng, n - 1)
                b = _fuzz_rationals(rng, n - 1)
                yield f"detl[{t}] n={n}", (
                    lambda x=x, a=a, b=b: formulas.lemma_detl_check(x, a, b)
                )
        else:
            n = _given(args.n, 1)
            x = [Fraction(i + 1) for i in range(n)]
            a = [Fraction(i) for i in range(n - 1)]
            b = [Fraction(2 * i + 1) for i in range(n - 1)]
            yield f"detl n={n}", lambda: formulas.lemma_detl_check(x, a, b)
    elif name == "2ji":
        sweep = (
            [(rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 1)) for _ in range(fuzz)]
            if fuzz
            else [(_given(args.alpha, 2), _given(args.beta, 2), _given(args.gamma, 0))]
        )
        for alpha, beta, gamma in sweep:
            yield (
                f"2ji alpha={alpha} beta={beta} gamma={gamma}",
                lambda a=alpha, b=beta, g=gamma: formulas.lemma_2ji(a, b, g) is not None,
            )
    elif name == "m1":
        cases = (
            [(2 * rng.randint(1, 3), rng.randint(0, 6)) for _ in range(fuzz)]
            if fuzz
            else [(_given(args.alpha, 2), _given(args.b, 2))]
        )
        for alpha, b in cases:
            def check(alpha=alpha, b=b):
                closed = formulas.lemma_M1(alpha, b)
                direct = exactalg.det(paths.stcpp_matrix(alpha, b).rows)
                return closed == direct
            yield f"m1 alpha={alpha} b={b}", check
    elif name == "mrr":
        cases = (
            [(rng.randint(1, 6), Fraction(rng.randint(0, 6))) for _ in range(fuzz)]
            if fuzz
            else [(_given(args.n, 4), Fraction(_given(args.mu, 2)))]
        )
        for n, mu in cases:
            yield f"mrr n={n} mu={mu}", (
                lambda n=n, mu=mu: formulas.mrr_det(mu, n) is not None
            )
    elif name == "pfaff-saalschutz":
        for t in range(fuzz or 1):
            while True:
                n = rng.randint(0, 8)
                a, b, c = _fuzz_rationals(rng, 3)
                lower2 = 1 + a + b - c - n
                try:
                    rhs = qseries.pfaff_saalschutz_rhs(a, b, c, n)
                    lhs = qseries.hyper_terminating(
                        qseries.HyperParams((a, b, -n), (c, lower2), Fraction(1))
                    )
                except PPSignError:
                    continue
                break
            yield f"pfaff-saalschutz[{t}] n={n}", (
                lambda lhs=lhs, rhs=rhs: lhs == rhs
            )
    elif name == "minor-summation":
        for t in range(fuzz or 1):
            p = rng.choice([2, 4, 6, 8])
            n = rng.choice([m for m in (2, 4) if m <= p])
            tmat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
            amat = [[0] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    v = rng.randint(-5, 5)
                    amat[i][j] = v
                    amat[j][i] = -v
            yield f"minor-summation[{t}] p={p} n={n}", (
                lambda tm=tmat, am=amat: (lambda pair: pair[0] == pair[1])(
                    paths.minor_summation(tm, am, cfg.subset_budget)
                )
            )
    elif name == "recurrence-s4":
        alphas = [2 * rng.randint(1, 3) for _ in range(fuzz)] if fuzz else [_given(args.alpha, 4)]
        for alpha in alphas:
            def check(alpha=alpha):
                return not any(
                    formulas.mtilde_recurrence_residual(alpha, b, i, j)
                    for b in range(0, 9, 2)
                    for i in range(1, 4)
                    for j in range(1, 4)
                ) and all(
                    formulas.mtilde_divisibility_holds(alpha, t, j)
                    for t in range(1, 4)
                    for j in range(1, 3)
                )
            yield f"recurrence-s4 alpha={alpha}", check


def cmd_identity(args) -> int:
    cfg = _config_from_args(args)
    rng = random.Random(cfg.seed)
    records = []
    failures = 0
    for label, check in _identity_instances(args.name, args, cfg, rng):
        try:
            ok = bool(check())
        except (DimensionError, DomainError, UnsupportedClassError) as exc:
            print(f"error: {label}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ResourceLimitError as exc:
            print(f"budget: {label}: {exc}", file=sys.stderr)
            return EXIT_BUDGET if cfg.strict else EXIT_OK
        except InternalConsistencyError as exc:
            # the identity's two sides disagreed inside the check
            print(f"error: {label}: {exc}", file=sys.stderr)
            ok = False
        failures += 0 if ok else 1
        records.append({"identity": label, "result": "PASS" if ok else "FAIL"})
    _emit(records, cfg)
    return EXIT_MISMATCH if failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppsign",
        description="Exact signed enumeration of plane partition symmetry classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv", "human"), default="json")
        p.add_argument("--timing", action="store_true", help="include elapsed_ms")
        p.add_argument("--strict", action="store_true")
        p.add_argument("--node-budget", type=int, default=None)
        p.add_argument("--subset-budget", type=int, default=None)
        p.add_argument("--out", default=None, help="write output to a file")

    p_enum = sub.add_parser("enumerate", help="signed count of one box")
    p_enum.add_argument("--class", dest="cls", required=True)
    p_enum.add_argument("--a", type=int)
    p_enum.add_argument("--b", type=int)
    p_enum.add_argument("--c", type=int)
    p_enum.add_argument("--alpha", type=int)
    p_enum.add_argument("--method", choices=("oracle", "lgv", "formula", "all"), default="all")
    common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="cross-verification sweep")
    p_verify.add_argument("--class", dest="cls", default="all")
    p_verify.add_argument("--max-a", type=int, default=4)
    p_verify.add_argument("--max-b", type=int, default=3)
    p_verify.add_argument("--max-c", type=int, default=4)
    p_verify.add_argument("--max-alpha", type=int, default=2)
    p_verify.add_argument("--smoke", action="store_true", help="minimal grid")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ident = sub.add_parser("identity", help="run a named identity check")
    p_ident.add_argument(
        "--name",
        required=True,
        choices=(
            "detl", "2ji", "m1", "mrr",
            "pfaff-saalschutz", "minor-summation", "recurrence-s4",
        ),
    )
    p_ident.add_argument("--fuzz", type=int, default=0)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--n", type=int)
    p_ident.add_argument("--mu", type=int)
    p_ident.add_argument("--alpha", type=int)
    p_ident.add_argument("--beta", type=int)
    p_ident.add_argument("--gamma", type=int)
    p_ident.add_argument("--b", type=int)
    common(p_ident)
    p_ident.set_defaults(func=cmd_identity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:  # usage errors found after parsing
        print(exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
