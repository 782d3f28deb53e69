"""Brute-force generation of symmetry-class plane partitions and exact
signed/weighted summation.

This is the ground truth the determinant/Pfaffian pipelines and the
closed-form evaluators are tested against, so it stays deliberately
simple: backtracking over height-matrix entries in row-major order with
monotonicity bounds, symmetry constraints applied as forced values on
not-yet-assigned entries, and a full predicate check on every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from . import core
from .core import BoxDims, PlanePartition, SymmetryClass
from .errors import (
    InvalidInputError,
    ResourceLimitError,
    UnsupportedClassError,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_VSASM_LIMIT = 7


class WeightTag(Enum):
    SIGNED_ORBITS = "signed-orbits"
    QCUBES = "q-cubes"
    QORBITS = "q-orbits"
    PLAIN = "plain"


@dataclass(frozen=True)
class WeightKind:
    tag: WeightTag
    q: Fraction = Fraction(1)


@dataclass(frozen=True)
class SignedCount:
    """An exact enumeration result plus how it was obtained."""

    value: int | Fraction
    method: str
    cls: SymmetryClass | None
    box: BoxDims | None
    sign_convention: str = "absolute"


def enumerate_class(
    box: BoxDims,
    cls: SymmetryClass,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[PlanePartition]:
    """Yield every plane partition of the class in the box exactly once,
    in lexicographic order of the height matrix."""
    core.check_box_shape(box, cls)
    a, b, c = box.a, box.b, box.c
    if a == 0 or b == 0:
        empty = PlanePartition(box, tuple(tuple() for _ in range(a)))
        if core.satisfies(empty, cls):
            yield empty
        return

    rules = _cell_rules(box, cls)
    if rules is None:
        return  # class empty for parity reasons (self-paired cell, odd height)

    heights = [[0] * b for _ in range(a)]
    total = a * b

    def candidates(idx: int) -> Iterator[int]:
        """The values cell idx may take, in increasing order."""
        i, j = divmod(idx, b)
        hi = c
        if i > 0:
            hi = min(hi, heights[i - 1][j])
        if j > 0:
            hi = min(hi, heights[i][j - 1])
        lo, forced = _apply_rules(rules[idx], heights, c, i, j)
        if forced is _FREE:
            return iter(range(lo, hi + 1))
        return iter((forced,) if forced is not None and lo <= forced <= hi else ())

    # Depth-first, with the candidates of cell idx at stack[idx], so a deep
    # box needs no recursion.  Descending breaks out of the for loop; coming
    # back up resumes the same iterator.
    cells = [(heights[k // b], k % b) for k in range(total)]  # (row, column) of cell k
    nodes = 0
    stack = [candidates(0)]
    idx = 0
    while idx >= 0:
        row, col = cells[idx]
        for v in stack[idx]:
            nodes += 1
            if nodes > node_budget:
                raise ResourceLimitError(
                    f"node budget {node_budget} exceeded enumerating {cls.value} in {box}"
                )
            row[col] = v
            if idx + 1 < total:
                idx += 1
                stack.append(candidates(idx))
                break
            pp = PlanePartition(box, tuple(tuple(r) for r in heights))
            if core.satisfies(pp, cls):
                yield pp
        else:
            stack.pop()
            idx -= 1


_FREE = object()


def _cell_rules(box: BoxDims, cls: SymmetryClass):
    """Per-cell forcing rules, row-major; None if the class is empty.

    Each cell gets a list of rule tags; every rule either forces the value
    or bounds it, and all forced values must agree (dead branch otherwise).
    """
    a, b, c = box.a, box.b, box.c
    rules: list[list[tuple[str, object]]] = [[] for _ in range(a * b)]

    for i in range(a):
        for j in range(b):
            cell_rules = rules[i * b + j]
            if cls.is_symmetric and i > j:
                cell_rules.append(("eq", (j, i)))
            if cls.is_cyclic and i > 0:
                cell_rules.append(("cyc", None))
            if cls in core._POINT_COMPLEMENT:
                partner = (a - 1 - i, b - 1 - j)
            elif cls in core._TRANSPOSE_COMPLEMENT:
                partner = (a - 1 - j, a - 1 - i)
            else:
                partner = None
            if partner is not None:
                if partner == (i, j):
                    if c % 2 != 0:
                        return None
                    cell_rules.append(("fixed", c // 2))
                elif partner < (i, j):
                    cell_rules.append(("comp", partner))
    return rules


def _apply_rules(cell_rules, heights, c, i, j):
    """Evaluate the rules at cell (i, j): returns (lower bound, forced).

    forced is _FREE when no rule pins the value and None on contradiction.
    """
    lo = 0
    value = _FREE
    for kind, payload in cell_rules:
        if kind == "eq":
            pi, pj = payload
            v = heights[pi][pj]
        elif kind == "comp":
            pi, pj = payload
            v = c - heights[pi][pj]
        elif kind == "fixed":
            v = payload
        else:
            # cyclic relation h[i][j] >= r+1  iff  h[r][i] >= j+1, applied
            # against every already-assigned partner cell
            if j < i:
                # row j is complete: value fully determined
                v = sum(1 for x in heights[j] if x >= i + 1)
            else:
                # column-i clamp; for j > i the diagonal (i, i) is assigned too
                rmax = i if j > i else i - 1
                m = 0
                threshold = j + 1
                for r in range(rmax + 1):
                    if heights[r][i] >= threshold:
                        m += 1
                    else:
                        break
                if m > rmax:
                    lo = max(lo, rmax + 1)
                    v = _FREE
                else:
                    v = m
                if j == i:
                    # own-row clamp: h[i][i] >= k+1  iff  h[i][k] >= i+1
                    m2 = 0
                    for k in range(i):
                        if heights[i][k] >= i + 1:
                            m2 += 1
                        else:
                            break
                    if m2 == i:
                        lo = max(lo, i)
                    elif v is _FREE:
                        v = m2
                    elif v != m2:
                        return lo, None
                if v is _FREE:
                    continue
        if value is _FREE:
            value = v
        elif value != v:
            return lo, None
    if value is not _FREE and value < lo:
        return lo, None
    return lo, value


def _reference_and_convention(
    box: BoxDims, cls: SymmetryClass, node_budget: int
) -> tuple[PlanePartition | None, str]:
    try:
        return core.reference_partition(box, cls), "reference: canonical (+1) partition"
    except UnsupportedClassError:
        first = next(enumerate_class(box, cls, node_budget), None)
        return first, "reference: lexicographically first member (global sign arbitrary)"


def signed_count(
    box: BoxDims,
    cls: SymmetryClass,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SignedCount:
    """Sum of sign_weight over every class member in the box."""
    if not cls.has_complementation:
        raise UnsupportedClassError(
            f"signed counting needs a complementation class, not {cls.value}"
        )
    reference, convention = _reference_and_convention(box, cls, node_budget)
    if reference is None:
        return SignedCount(0, "oracle-bruteforce", cls, box, "empty class")
    decomposition = core.orbit_decomposition(box, cls)
    reps = [next(iter(orbit.half_a)) for orbit in decomposition.orbits]
    ref_bits = [reference.contains(rep) for rep in reps]
    total = 0
    for pp in enumerate_class(box, cls, node_budget):
        d = sum(1 for rep, bit in zip(reps, ref_bits) if pp.contains(rep) != bit)
        total += -1 if d % 2 else 1
    return SignedCount(total, "oracle-bruteforce", cls, box, convention)


def weighted_count(
    box: BoxDims,
    cls: SymmetryClass,
    w: WeightKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int | Fraction:
    """Sum of q^statistic over the class members in the box."""
    if w.tag is WeightTag.SIGNED_ORBITS:
        return signed_count(box, cls, node_budget).value
    if w.tag is WeightTag.PLAIN:
        return sum(1 for _ in enumerate_class(box, cls, node_budget))
    if w.tag is WeightTag.QCUBES:
        total = Fraction(0)
        for pp in enumerate_class(box, cls, node_budget):
            total += w.q ** pp.size()
        return int(total) if total.denominator == 1 else total
    if w.tag is WeightTag.QORBITS:
        if not (cls.is_symmetric or cls.is_cyclic):
            raise UnsupportedClassError(
                "q^orbits needs a class with a nontrivial symmetry group"
            )
        reps = core.symmetry_orbit_reps(box, cls)
        total = Fraction(0)
        for pp in enumerate_class(box, cls, node_budget):
            orbits_in = sum(1 for rep in reps if pp.contains(rep))
            total += w.q ** orbits_in
        return int(total) if total.denominator == 1 else total
    raise InvalidInputError(f"unknown weight kind {w.tag}")


# ---------------------------------------------------------------------------
# vertically symmetric alternating sign matrices


def count_vsasm(n: int, limit: int = DEFAULT_VSASM_LIMIT) -> int:
    """Number of n x n alternating sign matrices invariant under
    left-right reflection, counted over monotone triangles.

    ASMs of order n correspond one to one to monotone triangles with
    bottom row 1..n: row k of the triangle, counted from the top, is the
    set of columns whose partial column sum over the top k matrix rows is
    1, and matrix row k is the indicator of triangle row k minus that of
    row k - 1.  So every matrix row is symmetric under j -> n+1-j exactly
    when every triangle row is.  The count therefore runs over symmetric
    rows only, memoised per row, and builds no matrices.
    """
    if n < 1:
        raise InvalidInputError(f"matrix size must be positive, got {n}")
    if n % 2 == 0:
        return 0  # parity obstruction: middle column argument
    if n > limit:
        raise ResourceLimitError(f"vsasm size {n} exceeds configured limit {limit}")

    @lru_cache(maxsize=None)
    def count(row: tuple[int, ...]) -> int:
        if len(row) == 1:
            return 1
        # rows above: weakly interlacing with row, strictly increasing
        candidates = product(*(range(lo, hi + 1) for lo, hi in zip(row, row[1:])))
        return sum(
            count(above)
            for above in candidates
            if all(x < y for x, y in zip(above, above[1:]))
            and all(x + y == n + 1 for x, y in zip(above, reversed(above)))
        )

    return count(tuple(range(1, n + 1)))
