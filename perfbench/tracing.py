"""Spans around the public functions of ppsign's layers, for the traced run.

``Tracer.install`` replaces every public module-level function of the layer
modules (plus ``paths._skew_double_sum``) with a wrapper that records a span:
name, start, end and the span that was open when it started. A name bound
with ``from ... import`` is replaced in every ppsign module that holds it, so
``paths.qbinom_minus1`` and ``formulas.binom`` are traced too. A generator
function (``oracle.enumerate_class``) gets one span per ``next()``.

Counts the layers do not expose are computed from the arguments at the call
boundary; that inspection runs in a ``harness.inspect`` span of its own, so
no layer is charged for it. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from statistics import median
from time import perf_counter

from spec import COUNT_METRICS, LAYER_METRICS

LAYER_MODULES = ("cli", "oracle", "core", "paths", "formulas", "exactalg", "qseries")
EXTRA_FUNCTIONS = {"paths": ("_skew_double_sum",)}

CLOSED_FORMS = (
    "thm1_tcpp", "thm2_stcpp", "thm4_cstcpp", "thm5_tsscpp",
    "thm6_scpp", "thm7_csscpp", "conj_scpp_odd",
)


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


class Tracer:
    """Spans and boundary counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self._lru: dict[str, object] = {}
        # matrices up to this dimension get the perfect-matching cross-check
        self._pfaffian_checked_dim = getattr(
            sys.modules["ppsign.exactalg"], "_PFAFFIAN_CHECK_DIM")
        self._inspect_id = self._name_id("harness.inspect")
        self._inspectors = {
            "exactalg.det": self._inspect_det,
            "exactalg.pfaffian": self._inspect_pfaffian,
            "exactalg.sum_of_minors": self._inspect_sum_of_minors,
            "exactalg.interpolate": self._inspect_interpolate,
            "paths._skew_double_sum": self._inspect_skew_double_sum,
        }

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    def _inspect(self, inspector, args, kwargs) -> None:
        index = self._open(self._inspect_id)
        try:
            inspector(*args, **kwargs)
        finally:
            self._close(index)

    def _raise_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def _inspect_det(self, m, *_args, **_kwargs) -> None:
        self._raise_max("exactalg.det.max_dim", len(m))
        self._raise_max("exactalg.det.max_entry_bits",
                        max((_entry_bits(x) for r in m for x in r), default=0))

    def _inspect_pfaffian(self, m, *_args, **_kwargs) -> None:
        n = len(m)
        self._raise_max("exactalg.pfaffian.max_dim", n)
        if n <= self._pfaffian_checked_dim:
            self.counts["exactalg.pfaffian.checked_calls"] += 1

    def _inspect_sum_of_minors(self, t, n, *_args, **_kwargs) -> None:
        rows = len(t)
        self.counts["exactalg.sum_of_minors.subsets"] += math.comb(rows, n) if n <= rows else 0

    def _inspect_interpolate(self, points, *_args, **_kwargs) -> None:
        self.counts["exactalg.interpolate.points"] += len(points)

    def _inspect_skew_double_sum(self, g, *_args, **_kwargs) -> None:
        # the literal sum does p - 1 products for every i < j and every
        # row l with g[l][i] != 0
        p = len(g)
        n = len(g[0]) if p else 0
        ops = sum(
            sum(1 for row in g if row[i] != 0) * (n - 1 - i) for i in range(n)
        )
        self.counts["paths._skew_double_sum.inner_ops"] += ops * max(p - 1, 0)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        inspector = self._inspectors.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            members = f"{name}.members"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(tracer, name_id, members, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inspector is not None:
                tracer._inspect(inspector, args, kwargs)
            index = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every ppsign module that binds them."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ppsign"]
        for layer in LAYER_MODULES:
            module = sys.modules[f"ppsign.{layer}"]
            for attr, fn in list(vars(module).items()):
                own = getattr(fn, "__module__", None) == module.__name__
                traced_kind = inspect.isfunction(fn) or hasattr(fn, "cache_info")
                public = not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(layer, ())
                if not (own and traced_kind and public):
                    continue
                if hasattr(fn, "cache_info"):
                    self._lru[f"{layer}.{attr}"] = fn
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapper)

    # -- results -----------------------------------------------------------

    def by_function(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per traced function."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = table.setdefault(
                self.names[self.span_name[i]], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["incl_s"] += duration[i]
            row["self_s"] += duration[i] - child_time[i]
        return table

    def _nested_calls(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that ran inside a span of ``ancestor``."""
        target, outer = self._ids.get(name), self._ids.get(ancestor)
        if target is None or outer is None:
            return 0
        found = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != target:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] != outer:
                parent = self.span_parent[parent]
            found += parent >= 0
        return found

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_s``."""
        table = self.by_function()

        def field(name: str, key: str):
            return table.get(name, {}).get(key, 0)

        def layer_self(names) -> float:
            return sum(field(name, "self_s") for name in names)

        metrics: dict[str, float] = {}
        for name in LAYER_METRICS:
            base, _, key = name.rpartition(".")
            if key in ("calls", "self_s"):
                metrics[name] = field(base, key)
        metrics.update({key: self.counts[key] for key in (
            "exactalg.pfaffian.checked_calls", "exactalg.sum_of_minors.subsets",
            "exactalg.interpolate.points", "paths._skew_double_sum.inner_ops",
        )})
        metrics.update({key: self.maxima[key] for key in (
            "exactalg.pfaffian.max_dim", "exactalg.det.max_dim", "exactalg.det.max_entry_bits",
        )})
        metrics["formulas.thm3_structure_check.samples"] = self._nested_calls(
            "paths.stcpp_odd_enum", "formulas.thm3_structure_check"
        )
        metrics["formulas.closed_forms.self_s"] = layer_self(
            f"formulas.{name}" for name in CLOSED_FORMS
        )
        metrics["formulas.identities.self_s"] = layer_self(
            name for name in table
            if name.startswith(("formulas.lemma_", "formulas.mtilde_"))
            or name == "formulas.mrr_det"
        )
        metrics["qseries.self_s"] = layer_self(n for n in table if n.startswith("qseries."))
        members = self.counts["oracle.enumerate_class.members"]
        walk_s = field("oracle.enumerate_class", "incl_s")
        metrics["oracle.enumerate_class.members"] = members
        metrics["oracle.enumerate_class.members_per_s"] = members / walk_s if walk_s else 0.0
        orbit = self._lru.get("core.orbit_decomposition")
        metrics["core.orbit_decomposition.misses"] = orbit.cache_info().misses if orbit else 0
        # the whole cli layer: argument parsing, dispatch and output
        metrics["cli.main.self_s"] = layer_self(n for n in table if n.startswith("cli."))
        metrics["cli.stdout_bytes"] = stdout_bytes
        return metrics

    def write_spans(self, path) -> None:
        """Every span as [name, start, end, parent index], parent -1 at the root."""
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


class _TracedIterator:
    """One span per ``next()`` on a wrapped generator; yields are counted."""

    __slots__ = ("_tracer", "_name_id", "_members", "_inner")

    def __init__(self, tracer: Tracer, name_id: int, members: str, inner) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._members = members
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        index = self._tracer._open(self._name_id)
        try:
            item = next(self._inner)
        finally:
            self._tracer._close(index)
        self._tracer.counts[self._members] += 1
        return item


def merge_passes(passes: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Counts from the first traced pass, times as medians over all of them.

    The flag is False when any count differs between passes.
    """
    merged = {}
    repeat = True
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in COUNT_METRICS:
            merged[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
        else:
            merged[name] = median(values)
    return merged, repeat
