"""Brute-force generation of symmetry-class plane partitions and exact
signed/weighted summation.

This is the ground truth the determinant/Pfaffian pipelines and the
closed-form evaluators are tested against: backtracking over height-matrix
entries in row-major order with monotonicity bounds, symmetry constraints
applied as forced values or lower bounds on not-yet-assigned entries, and
the full class predicate on every leaf.  The rules are compiled once per
walk into flat-list indices; tests/oracles.py keeps the walk that reads
them off a matrix of rows at every node as the reference.
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
    a, b = box.a, box.b
    for h in _walk(box, cls, node_budget):
        yield PlanePartition(box, tuple(tuple(h[i * b:(i + 1) * b]) for i in range(a)))


def _walk(box: BoxDims, cls: SymmetryClass, node_budget: int) -> Iterator[list[int]]:
    """Yield every member as one reused row-major height list, lexicographically.

    A node is one value tried at one cell; every cell's candidates form an
    interval [lo, hi].  A choice cell keeps its hi on the explicit stack
    while h holds its current value.  A forced cell (at most one candidate)
    is settled inline on the way down, and an exhausted cell backs up
    straight to back[idx], the last earlier choice cell, since every forced
    cell in between has no second value.  Each leaf gets the full class
    predicate.
    """
    core.check_box_shape(box, cls)
    n = box.a * box.b
    h = [0] * n + [box.c]  # h[n] is the sentinel c: the bound above row 0 and left of column 0
    if n == 0:
        if core.satisfies_flat(h, box, cls):
            yield h
        return
    plan = _compile(box, cls)
    if plan is None:
        return  # class empty for parity reasons (self-paired cell, odd height)

    back = []
    choice = -1
    for idx, (_, _, _, _, _, forced) in enumerate(plan):
        back.append(choice)
        if not forced:
            choice = idx
    last = n - 1
    top = [0] * n  # top[idx]: the largest candidate of choice cell idx
    nodes = 0
    idx = 0
    while True:
        up, left, sources, counts, single, forced = plan[idx]
        hi = h[up]
        if h[left] < hi:
            hi = h[left]
        if single:
            offset, factor, index = single
            lo = offset + factor * h[index]  # h[index], c - h[index] or c // 2: never below 0
        else:
            lo = 0
            for offset, factor, index in sources:
                v = offset + factor * h[index]
                if v > lo:
                    lo = v
                if v < hi:
                    hi = v
            for start, stop, step, t, free_size in counts:
                m = sum(map(t.__le__, h[start:stop:step]))
                if m > lo:
                    lo = m
                if m != free_size and m < hi:
                    hi = m
        if forced:
            if lo <= hi:  # the one candidate
                h[idx] = lo
                nodes += 1
                if nodes > node_budget:
                    raise _budget_error(node_budget, cls, box)
                if idx < last:
                    idx += 1
                    continue
                if core.satisfies_flat(h, box, cls):
                    yield h
            idx = back[idx]
            if idx < 0:
                return
            h[idx] += 1
        else:
            h[idx] = lo
            top[idx] = hi
        while True:  # choice cell idx at value h[idx]
            if h[idx] > top[idx]:  # exhausted: back up to the last choice
                idx = back[idx]
                if idx < 0:
                    return
                h[idx] += 1
                continue
            nodes += 1
            if nodes > node_budget:
                raise _budget_error(node_budget, cls, box)
            if idx < last:
                break
            if core.satisfies_flat(h, box, cls):
                yield h
            h[idx] += 1
        idx += 1


def _budget_error(node_budget: int, cls: SymmetryClass, box: BoxDims) -> ResourceLimitError:
    return ResourceLimitError(
        f"node budget {node_budget} exceeded enumerating {cls.value} in {box}"
    )


def _compile(box: BoxDims, cls: SymmetryClass):
    """Per cell (up, left, sources, counts, single, forced), row-major; None
    if the class is empty.

    up and left are the flat indices of the neighbours, or n (the sentinel)
    at an edge.  A source (offset, factor, index) forces the cell to
    offset + factor * h[index].  A count (start, stop, step, t, free_size)
    is the cyclic rule h[i][j] >= r+1 iff h[r][i] >= j+1 against the
    assigned partner cells h[start:stop:step]: m of them are >= t, and the
    cell equals m unless m == free_size, which only bounds it below by m.
    A cell with a source, or with a count over a complete row (free_size
    -1), is forced: it has at most one candidate.  single is the source of
    a cell whose one rule is that source, else None.
    """
    a, b, c = box.a, box.b, box.c
    n = a * b
    plan = []
    for i in range(a):
        for j in range(b):
            sources = []
            if cls.is_symmetric and i > j:
                sources.append((0, 1, j * b + i))
            if cls in core._POINT_COMPLEMENT:
                partner = (a - 1 - i, b - 1 - j)
            elif cls in core._TRANSPOSE_COMPLEMENT:
                partner = (a - 1 - j, a - 1 - i)
            else:
                partner = None
            if partner == (i, j):
                if c % 2 != 0:
                    return None
                sources.append((c // 2, 0, n))
            elif partner is not None and partner < (i, j):
                sources.append((c, -1, partner[0] * b + partner[1]))
            counts = []
            if cls.is_cyclic and i > 0:
                if j < i:
                    # row j is complete: it fixes the value
                    counts.append((j * b, j * b + b, 1, i + 1, -1))
                else:
                    # column i down to row i - 1, or to the diagonal when j > i
                    rows = i + 1 if j > i else i
                    counts.append((i, i + rows * b, b, j + 1, rows))
                    if j == i:
                        # own row: h[i][i] >= k+1 iff h[i][k] >= i+1
                        counts.append((i * b, i * b + i, 1, i + 1, i))
            up = (i - 1) * b + j if i else n
            left = i * b + j - 1 if j else n
            single = sources[0] if len(sources) == 1 and not counts else None
            forced = bool(sources) or any(count[4] == -1 for count in counts)
            plan.append((up, left, tuple(sources), tuple(counts), single, forced))
    return plan


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
    try:
        rows = core.reference_partition(box, cls).heights
        reference = [v for row in rows for v in row]
        convention = "reference: canonical (+1) partition"
    except UnsupportedClassError:
        reference = next(_walk(box, cls, node_budget), None)
        convention = "reference: lexicographically first member (global sign arbitrary)"
    if reference is None:
        return SignedCount(0, "oracle-bruteforce", cls, box, "empty class")
    # one cell (i, j, k) per orbit: a member holds it iff h at (i, j) >= k
    b = box.b
    reps = []
    for orbit in core.orbit_decomposition(box, cls).orbits:
        i, j, k = next(iter(orbit.half_a))
        index = (i - 1) * b + j - 1
        reps.append((index, k, reference[index] >= k))
    flips = _cell_table(box, reps)  # flips[idx][v]: reps at idx where v differs from the reference
    total = 0
    for h in _walk(box, cls, node_budget):
        total += -1 if sum(map(list.__getitem__, flips, h)) & 1 else 1
    return SignedCount(total, "oracle-bruteforce", cls, box, convention)


def _cell_table(box: BoxDims, reps: list[tuple[int, int, bool]]) -> list[list[int]]:
    """table[idx][v]: how many (idx, k, bit) in reps have (v >= k) != bit.

    Summed over a member's cells, sum(map(list.__getitem__, table, h)),
    that counts the reps whose cell (i, j, k) the member holds against bit;
    the sentinel h[n] has no row, so map leaves it out.
    """
    table = [[0] * (box.c + 1) for _ in range(box.a * box.b)]
    for index, k, bit in reps:
        row = table[index]
        for v in range(box.c + 1):
            row[v] += (v >= k) != bit
    return table


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
        return sum(1 for _ in _walk(box, cls, node_budget))
    if w.tag is WeightTag.QCUBES:
        total = Fraction(0)
        for h in _walk(box, cls, node_budget):
            total += w.q ** (sum(h) - box.c)  # less the sentinel
        return int(total) if total.denominator == 1 else total
    if w.tag is WeightTag.QORBITS:
        if not (cls.is_symmetric or cls.is_cyclic):
            raise UnsupportedClassError(
                "q^orbits needs a class with a nontrivial symmetry group"
            )
        reps = [((i - 1) * box.b + j - 1, k, False)
                for i, j, k in core.symmetry_orbit_reps(box, cls)]
        orbits = _cell_table(box, reps)  # orbits[idx][v]: reps at idx that height v holds
        total = Fraction(0)
        for h in _walk(box, cls, node_budget):
            total += w.q ** sum(map(list.__getitem__, orbits, h))
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
