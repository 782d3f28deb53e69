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
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import exactalg, formulas, oracle, paths, qseries
from .core import BoxDims, SymmetryClass
from .errors import (
    DimensionError,
    DomainError,
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


@dataclass
class RunConfig:
    node_budget: int = oracle.DEFAULT_NODE_BUDGET
    subset_budget: int = exactalg.DEFAULT_SUBSET_BUDGET
    output_format: str = "json"
    timing: bool = False
    strict: bool = False
    seed: int = 0
    out: str | None = None
    sign_overrides: dict[str, str] | None = None


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
    overrides = {}
    for item in getattr(args, "sign_convention", None) or []:
        if "=" not in item:
            raise SystemExit("--sign-convention expects class=label")
        key, label = item.split("=", 1)
        overrides[key] = label
    cfg.sign_overrides = overrides or None
    return cfg


def _emit(records: list[dict], cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        text = json.dumps(records, sort_keys=True, indent=2)
    elif cfg.output_format == "tsv":
        keys = sorted({k for r in records for k in r})
        lines = ["\t".join(keys)]
        for r in records:
            lines.append("\t".join(str(r.get(k, "")) for k in keys))
        text = "\n".join(lines)
    else:
        lines = []
        for r in records:
            lines.append("  ".join(f"{k}={v}" for k, v in sorted(r.items())))
        text = "\n".join(lines)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _value_str(v) -> str:
    return str(v)


# ---------------------------------------------------------------------------
# method dispatch


def _box_for(cls: SymmetryClass, args) -> BoxDims:
    if cls is SymmetryClass.TC or cls is SymmetryClass.STC:
        if args.a is None or args.b is None:
            raise SystemExit("tc/stc need --a and --b (box a x a x 2b)")
        return BoxDims(args.a, args.a, 2 * args.b)
    if cls in (SymmetryClass.CSTC, SymmetryClass.TSSC, SymmetryClass.CSSC):
        if args.alpha is None:
            raise SystemExit(f"{cls.value} needs --alpha (box (2a)^3)")
        side = 2 * args.alpha
        return BoxDims(side, side, side)
    if cls is SymmetryClass.SC:
        if args.a is None or args.b is None or args.c is None:
            raise SystemExit("sc needs --a, --b and --c")
        return BoxDims(args.a, args.b, args.c)
    raise SystemExit(f"enumerate does not support class {cls.value}")


def _lgv_value(cls: SymmetryClass, box: BoxDims):
    if cls is SymmetryClass.TC:
        return paths.tcpp_enum(box.a, box.c // 2)
    if cls is SymmetryClass.STC:
        if box.a % 2 == 0:
            return paths.stcpp_enum(box.a // 2, box.c // 2)
        return paths.stcpp_odd_enum((box.a - 1) // 2, box.c // 2)
    if cls is SymmetryClass.CSTC:
        return paths.cstcpp_enum(box.a // 2)
    if cls is SymmetryClass.TSSC:
        return paths.tsscpp_enum(box.a // 2)
    if cls is SymmetryClass.SC:
        if box.a % 2 == 0 and box.b % 2 == 0 and box.c % 2 == 0:
            return paths.scpp_enum(box.a, box.b, box.c)
        return None
    return None


def _formula_value(cls: SymmetryClass, box: BoxDims):
    if cls is SymmetryClass.TC:
        return formulas.thm1_tcpp(box.a, box.c // 2), "reference: half-full partition"
    if cls is SymmetryClass.STC:
        if box.a % 2 == 0:
            return (
                formulas.thm2_stcpp(box.a // 2, box.c // 2),
                "reference: half-full partition",
            )
        return None
    if cls is SymmetryClass.CSTC:
        return formulas.thm4_cstcpp(box.a // 2), "reference: majority partition"
    if cls is SymmetryClass.TSSC:
        return formulas.thm5_tsscpp(box.a // 2), "absolute (sign conventional)"
    if cls is SymmetryClass.SC:
        if box.a % 2 == 0 and box.b % 2 == 0 and box.c % 2 == 0:
            return formulas.thm6_scpp(box.a, box.b, box.c), "reference: half-full partition"
        if box.a % 2 == 0 and box.b % 2 == 1 and box.c % 2 == 1:
            return formulas.conj_scpp_odd(box.a, box.b, box.c), "absolute (conjecture)"
        return None
    if cls is SymmetryClass.CSSC:
        value, tag = formulas.thm7_csscpp(box.a // 2)
        return value, f"absolute ({tag})"
    return None


_CLASS_NAMES = {
    "tc": SymmetryClass.TC,
    "stc": SymmetryClass.STC,
    "cstc": SymmetryClass.CSTC,
    "tssc": SymmetryClass.TSSC,
    "sc": SymmetryClass.SC,
    "cssc": SymmetryClass.CSSC,
    # long aliases
    "tcpp": SymmetryClass.TC,
    "stcpp": SymmetryClass.STC,
    "cstcpp": SymmetryClass.CSTC,
    "tsscpp": SymmetryClass.TSSC,
    "scpp": SymmetryClass.SC,
    "csscpp": SymmetryClass.CSSC,
}


def cmd_enumerate(args) -> int:
    cfg = _config_from_args(args)
    cls = _CLASS_NAMES.get(args.cls)
    if cls is None:
        print(f"unknown class {args.cls!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        box = _box_for(cls, args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    methods = ["oracle", "lgv", "formula"] if args.method == "all" else [args.method]
    records = []
    absolute_only = False
    values = {}
    for method in methods:
        started = time.monotonic()
        try:
            if method == "oracle":
                sc = oracle.signed_count(box, cls, cfg.node_budget)
                value, convention = sc.value, sc.sign_convention
            elif method == "lgv":
                sc = _lgv_value(cls, box)
                if sc is None:
                    if args.method != "all":
                        print(f"no path pipeline for {cls.value} on {box}", file=sys.stderr)
                        return EXIT_USAGE
                    continue
                value, convention = sc.value, sc.sign_convention
            else:
                pair = _formula_value(cls, box)
                if pair is None:
                    if args.method != "all":
                        print(f"no closed form for {cls.value} on {box}", file=sys.stderr)
                        return EXIT_USAGE
                    continue
                value, convention = pair
        except ResourceLimitError as exc:
            print(f"budget: {exc}", file=sys.stderr)
            return EXIT_BUDGET if cfg.strict else EXIT_OK
        except PPSignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if cfg.sign_overrides and cls.value in cfg.sign_overrides:
            convention = cfg.sign_overrides[cls.value]
        record = {
            "class": cls.value,
            "box": [box.a, box.b, box.c],
            "method": method,
            "value": _value_str(value),
            "sign_convention": convention,
        }
        if cfg.timing:
            record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        records.append(record)
        values[method] = value
        if "absolute" in convention:
            absolute_only = True

    exit_code = EXIT_OK
    if args.method == "all" and len(values) > 1:
        norm = (abs if absolute_only else (lambda v: v))
        reference = norm(next(iter(values.values())))
        agree = all(norm(v) == reference for v in values.values())
        records.append({"verdict": "OK" if agree else "MISMATCH"})
        if not agree:
            exit_code = EXIT_MISMATCH
    _emit(records, cfg)
    return exit_code


# ---------------------------------------------------------------------------
# verification sweeps


def _sweep_rows(cls_name: str, args, cfg: RunConfig):
    max_a = args.max_a
    max_b = args.max_b
    max_c = args.max_c
    max_alpha = args.max_alpha

    if cls_name == "tc":
        for a in range(1, max_a + 1):
            for b in range(0, max_b + 1):
                yield {"class": "tc", "params": {"a": a, "b": b}}
    elif cls_name == "stc":
        for alpha in range(1, max_alpha + 1):
            for b in range(0, max_b + 1):
                yield {"class": "stc", "params": {"alpha": alpha, "b": b}}
    elif cls_name == "stc-odd":
        for alpha in range(1, max_alpha + 1):
            for b in range(0, max_b + 1):
                yield {"class": "stc-odd", "params": {"alpha": alpha, "b": b}}
    elif cls_name in ("cstc", "tssc", "cssc"):
        for alpha in range(1, max_alpha + 1):
            yield {"class": cls_name, "params": {"alpha": alpha}}
    elif cls_name == "sc":
        for a in range(2, max_a + 1, 2):
            for b in range(2, max_b + 1, 2):
                for c in range(2, max_c + 1, 2):
                    yield {"class": "sc", "params": {"a": a, "b": b, "c": c}}
    elif cls_name == "sc-odd":
        for a in range(2, max_a + 1, 2):
            for b in range(1, max_b + 1, 2):
                for c in range(1, max_c + 1, 2):
                    yield {"class": "sc-odd", "params": {"a": a, "b": b, "c": c}}
    else:
        raise SystemExit(f"unknown verify class {cls_name!r}")


def _verify_row(row: dict, cfg: RunConfig) -> dict:
    cls_name = row["class"]
    p = row["params"]
    values: dict[str, object] = {}
    status = "OK"
    started = time.monotonic()
    try:
        if cls_name == "tc":
            box = BoxDims(p["a"], p["a"], 2 * p["b"])
            values["oracle"] = oracle.signed_count(box, SymmetryClass.TC, cfg.node_budget).value
            values["lgv"] = paths.tcpp_enum(p["a"], p["b"]).value
            values["formula"] = formulas.thm1_tcpp(p["a"], p["b"])
            match = values["oracle"] == values["lgv"] == values["formula"]
        elif cls_name == "stc":
            side = 2 * p["alpha"]
            box = BoxDims(side, side, 2 * p["b"])
            values["lgv"] = paths.stcpp_enum(p["alpha"], p["b"]).value
            values["formula"] = formulas.thm2_stcpp(p["alpha"], p["b"])
            match = values["lgv"] == values["formula"]
            if box.volume() <= 1000:
                values["oracle"] = oracle.signed_count(box, SymmetryClass.STC, cfg.node_budget).value
                match = match and values["oracle"] == values["lgv"]
        elif cls_name == "stc-odd":
            side = 2 * p["alpha"] + 1
            box = BoxDims(side, side, 2 * p["b"])
            values["lgv"] = paths.stcpp_odd_enum(p["alpha"], p["b"]).value
            values["oracle"] = oracle.signed_count(box, SymmetryClass.STC, cfg.node_budget).value
            match = values["oracle"] == values["lgv"]
        elif cls_name == "cstc":
            side = 2 * p["alpha"]
            box = BoxDims(side, side, side)
            values["oracle"] = oracle.signed_count(box, SymmetryClass.CSTC, cfg.node_budget).value
            values["lgv"] = paths.cstcpp_enum(p["alpha"]).value
            values["formula"] = formulas.thm4_cstcpp(p["alpha"])
            match = values["oracle"] == values["lgv"] == values["formula"]
        elif cls_name == "tssc":
            side = 2 * p["alpha"]
            box = BoxDims(side, side, side)
            values["oracle"] = oracle.signed_count(box, SymmetryClass.TSSC, cfg.node_budget).value
            values["lgv"] = paths.tsscpp_enum(p["alpha"]).value
            values["formula"] = formulas.thm5_tsscpp(p["alpha"])
            match = abs(values["oracle"]) == abs(values["lgv"]) == values["formula"]
        elif cls_name == "cssc":
            side = 2 * p["alpha"]
            box = BoxDims(side, side, side)
            signed = oracle.signed_count(box, SymmetryClass.CSSC, cfg.node_budget).value
            orbit_weighted = oracle.weighted_count(
                box, SymmetryClass.CYCLIC,
                WeightKind(WeightTag.QORBITS, Fraction(-1)), cfg.node_budget,
            )
            values["oracle"] = signed
            values["cyclic-orbit-weight"] = orbit_weighted
            values["formula"] = formulas.thm7_csscpp(p["alpha"])[0]
            match = signed * signed == abs(orbit_weighted) and abs(signed) == values["formula"]
        elif cls_name == "sc":
            box = BoxDims(p["a"], p["b"], p["c"])
            values["oracle"] = oracle.signed_count(box, SymmetryClass.SC, cfg.node_budget).value
            values["lgv"] = paths.scpp_enum(p["a"], p["b"], p["c"]).value
            values["formula"] = formulas.thm6_scpp(p["a"], p["b"], p["c"])
            match = values["oracle"] == values["lgv"] == values["formula"]
        else:  # sc-odd: conjecture comparison, mismatches are findings
            box = BoxDims(p["a"], p["b"], p["c"])
            values["oracle"] = abs(oracle.signed_count(box, SymmetryClass.SC, cfg.node_budget).value)
            values["formula"] = formulas.conj_scpp_odd(p["a"], p["b"], p["c"])
            match = values["oracle"] == values["formula"]
            if not match:
                status = "FINDING"
    except ResourceLimitError:
        status = "SKIPPED"
        match = True
    if status == "OK" and not match:
        status = "MISMATCH"
    record = {
        "class": cls_name,
        "params": p,
        "values": {k: _value_str(v) for k, v in values.items()},
        "match": bool(match),
        "status": status,
    }
    if cfg.timing:
        record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return record


_SMOKE_LIMITS = dict(max_a=3, max_b=2, max_c=3, max_alpha=2)
_VERIFY_CLASSES = ("tc", "stc", "stc-odd", "cstc", "tssc", "sc", "sc-odd", "cssc")
_VERIFY_ALIASES = {
    "tcpp": "tc",
    "stcpp": "stc",
    "stcpp-odd": "stc-odd",
    "cstcpp": "cstc",
    "tsscpp": "tssc",
    "scpp": "sc",
    "scpp-odd": "sc-odd",
    "csscpp": "cssc",
}


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.smoke:
        for key, value in _SMOKE_LIMITS.items():
            setattr(args, key, min(getattr(args, key), value))
    cls_name = _VERIFY_ALIASES.get(args.cls, args.cls)
    if cls_name != "all" and cls_name not in _VERIFY_CLASSES:
        print(f"unknown verify class {args.cls!r}", file=sys.stderr)
        return EXIT_USAGE
    names = _VERIFY_CLASSES if cls_name == "all" else (cls_name,)
    records = []
    for name in names:
        for row in _sweep_rows(name, args, cfg):
            records.append(_verify_row(row, cfg))
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


def _identity_instances(name: str, args, rng: random.Random):
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
        count = fuzz or 1
        for t in range(count):
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
        count = fuzz or 1
        for t in range(count):
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
                    paths.minor_summation(tm, am)
                )
            )
    elif name == "recurrence-s4":
        alphas = [2 * rng.randint(1, 3) for _ in range(fuzz)] if fuzz else [_given(args.alpha, 4)]
        for alpha in alphas:
            def check(alpha=alpha):
                for b in range(0, 9, 2):
                    for i in range(1, 4):
                        for j in range(1, 4):
                            if formulas.mtilde_recurrence_residual(alpha, b, i, j) != 0:
                                return False
                return all(
                    formulas.mtilde_divisibility_holds(alpha, t, j)
                    for t in range(1, 4)
                    for j in range(1, 3)
                )
            yield f"recurrence-s4 alpha={alpha}", check
    else:
        raise SystemExit(f"unknown identity {name!r}")


def cmd_identity(args) -> int:
    cfg = _config_from_args(args)
    rng = random.Random(cfg.seed)
    records = []
    failures = 0
    for label, check in _identity_instances(args.name, args, rng):
        try:
            ok = bool(check())
        except (DimensionError, DomainError, UnsupportedClassError) as exc:
            print(f"error: {label}: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
        p.add_argument(
            "--sign-convention",
            action="append",
            metavar="CLASS=LABEL",
            help="override the reported sign convention for a class",
        )

    p_enum = sub.add_parser("enumerate", help="signed count of one box")
    p_enum.add_argument("--class", dest="cls", required=True)
    p_enum.add_argument("--a", type=int)
    p_enum.add_argument("--b", type=int)
    p_enum.add_argument("--c", type=int)
    p_enum.add_argument("--alpha", type=int)
    p_enum.add_argument(
        "--method", choices=("oracle", "lgv", "formula", "all"), default="all"
    )
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
