"""Brute-force generation of symmetry-class plane partitions and exact
signed/weighted summation.

This is the ground truth the determinant/Pfaffian pipelines and the
closed-form evaluators are tested against: backtracking over height-matrix
entries in row-major order.  Bounds keep every entry in [0, c] and
falling along rows and columns, symmetry constraints act as forced values
or bounds on not-yet-assigned entries, and every leaf gets the class
conditions (symmetry, rotation, complementation) once more; those do not
test that a leaf is a plane partition, so the bounds alone keep
non-partitions out.  The rules are compiled once per walk into flat-list
indices, and each is decided at the choice cell that fixes its last
unknown rather than at the forced cell it constrains (forward checking);
a value that counts over complete rows fix is written at the start of
the next row, where it is checked and bounds the cells in between.
tests/oracles.py keeps the unpruned walk that reads the rules off a matrix
of rows at every node as the reference: the same members in the same
order, in no more nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from . import core
from .core import BoxDims, PlanePartition, SignedCount, SymmetryClass
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedClassError,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_VSASM_LIMIT = 7


class WeightTag(Enum):
    QCUBES = "q-cubes"
    QORBITS = "q-orbits"
    PLAIN = "plain"


@dataclass(frozen=True)
class WeightKind:
    tag: WeightTag
    q: Fraction = Fraction(1)


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
    interval [lo, hi] cut from [0, c] by its bounds and counts (see
    _compile).  A choice cell keeps its hi on the explicit stack while h
    holds its current value.  A forced cell (at most one candidate) is
    settled inline on the way down.  A run of cells whose every rule was
    moved to a root is one step: each cell of it copies offset + factor *
    h[root], all in one pass, since no root lies inside the run, and the
    step counts one node per cell against the budget.  A forced cell
    whose plan carries writes also sets h[r] for later cells r whose
    counts are complete (_write_ahead), and is a dead end if one of them
    breaks a rule decided by then; the cells before r read h[r] as a
    bound, and r still checks every rule on its own visit.  An exhausted
    cell backs up straight to back[idx], the last earlier choice cell,
    since every forced cell in between has no second value.  Each leaf
    gets every class condition through core.class_predicate, fetched once
    before the walk starts.
    """
    accept = core.class_predicate(box, cls)  # checks the box shape
    n = box.a * box.b
    c = box.c
    h = [0] * n + [c]  # h[n] is the sentinel c
    if n == 0:
        if accept(h):
            yield h
        return
    plan = _compile(box, cls)
    if plan is None:
        return  # class empty: a self-paired cell at odd height, or a contradiction

    back = []
    choice = -1
    for idx, step in enumerate(plan):
        back.append(choice)
        if step is not None and not step[4]:
            choice = idx
    last = n - 1
    top = [0] * n  # top[idx]: the largest candidate of choice cell idx
    nodes = 0
    idx = 0
    while True:
        lows, highs, counts, copies, forced = plan[idx]
        if copies:  # the rules on their roots keep them in range
            stop = idx + len(copies)
            h[idx:stop] = [offset + factor * h[index] for offset, factor, index in copies]
            nodes += stop - idx
            if nodes > node_budget:
                raise _budget_error(node_budget, cls, box)
            if stop <= last:
                idx = stop
                continue
            if accept(h):
                yield h
            idx = back[idx]
            if idx < 0:
                return
            h[idx] += 1
        else:
            lo = 0
            hi = c
            for offset, factor, index in lows:
                v = offset + factor * h[index]
                if v > lo:
                    lo = v
            for offset, factor, index in highs:
                v = offset + factor * h[index]
                if v < hi:
                    hi = v
            for start, stop, step, t, free_size, offset, factor in counts:
                m = sum(map(t.__le__, h[start:stop:step]))
                v = offset + factor * m
                if v > lo and (factor > 0 or m != free_size):
                    lo = v
                if v < hi and (factor < 0 or m != free_size):
                    hi = v
            if not forced:
                h[idx] = lo
                top[idx] = hi
            else:
                if lo <= hi:  # the one candidate
                    h[idx] = lo
                    if forced is True or _write_ahead(h, c, forced):
                        nodes += 1
                        if nodes > node_budget:
                            raise _budget_error(node_budget, cls, box)
                        if idx < last:
                            idx += 1
                            continue
                        if accept(h):
                            yield h
                idx = back[idx]
                if idx < 0:
                    return
                h[idx] += 1
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
            if accept(h):
                yield h
            h[idx] += 1
        idx += 1


def _budget_error(node_budget: int, cls: SymmetryClass, box: BoxDims) -> ResourceLimitError:
    return ResourceLimitError(
        f"node budget {node_budget} exceeded enumerating {cls.value} in {box}"
    )


def _compile(box: BoxDims, cls: SymmetryClass):
    """Per cell (lows, highs, counts, copies, forced), row-major; None if
    the class is empty.  forced is False for a choice cell and otherwise
    True, or the writes below.

    A cell's rules: it is at most the cell above and the cell to its left
    (the sentinel h[n] = c at an edge); a source forces it to equal its
    earlier mirror cell under symmetry, or c minus its earlier partner
    under complementation (c // 2 if it is its own partner); and the
    cyclic rule h[i][j] >= r+1 iff h[r][i] >= j+1 gives a count (start,
    stop, step, t, free_size) over the assigned partner cells
    h[start:stop:step]: m of them are >= t, and the cell equals m unless
    m == free_size, which only bounds it below by m.

    Through its first source every cell is offset + factor * h[root], for a
    root that is an unsourced cell or the sentinel (factor 0).  Each rule
    moves onto the later root it involves, the first cell where it can be
    decided (forward checking: Haralick and Elliott, Artificial
    Intelligence 14, 1980).  The up and left rules and every further source
    become bounds (offset, factor, index) in lows or highs, capping the
    root's interval at offset + factor * h[index] from below or above.  A
    count whose cells all come before the cell's root becomes (start, stop,
    step, t, free_size, offset, factor): the bound offset + factor * m from
    below if factor > 0, from above if factor < 0, and on both sides unless
    m == free_size.  A count past the root stays on its cell, next to the
    cell's own value as a bound on both sides.  A cell that is not a root,
    or a root with a count over a complete row (free_size -1), is forced:
    it has at most one candidate.  A forced cell left with no rule is a
    copy of its own value (offset, factor, root), and is not checked.  A
    maximal run of consecutive copies is one entry at its first cell, with
    copies the tuple of their values; the cells after it in the run get
    None, since the walk steps over the whole run.  A root is never a copy,
    so no copy in a run reads another.

    A forced cell r whose counts over complete rows end at cell e, with
    e + 1 < r, is also written ahead.  Cell e + 1 starts a row below row 0
    of a cyclic class, which a count over row 0 fixes, so it is forced; its
    forced field becomes the tuple of writes (r, lows, highs, counts): r's
    rules decided once cells 0..e + 1 are set.  Entering it, the walk
    sets h[r] from them, or finds a dead end (a copy cell there is
    checked against its own value rather than copied).  By monotonicity
    every cell x with e < x < r that lies left of r in its row or above it
    in its column is at least h[r]: that bound joins the write's highs
    when x's root is set by then, and goes to x's root, which reads h[r],
    otherwise.  r keeps all its rules.  The writes go to every cyclic
    class but CYCLIC, where each such value is the conjugate of a row:
    there they pruned no node (1,999, 28,340 and 653,708 nodes at 4^3, 5^3
    and 6^3 either way) and only took time.
    """
    a, b, c = box.a, box.b, box.c
    n = a * b
    exprs = []  # exprs[idx] = (offset, factor, root): h[idx] == offset + factor * h[root]
    lows = [{} for _ in range(n)]  # lows[root][(factor, index)]: the largest offset
    highs = [{} for _ in range(n)]  # highs[root][(factor, index)]: the smallest offset
    counts = [[] for _ in range(n)]

    def expr(index):
        return exprs[index] if index < n else (c, 0, n)

    def require(low, high):
        """Bound the later root so that low <= high; False if that never holds."""
        const = high[0] - low[0]  # need const + sum(terms[r] * h[r]) >= 0
        terms = {}
        for sign, (_, factor, root) in ((-1, low), (1, high)):
            terms[root] = terms.get(root, 0) + sign * factor
        terms = {root: f for root, f in terms.items() if f}
        if not terms:
            return const >= 0
        root = max(terms)
        f = terms.pop(root)  # +-1, or +-2 when both sides share the root
        index, e = terms.popitem() if terms else (n, 0)
        if f > 0:  # h[root] >= -(const + e * h[index]) / f
            bounds, key, offset = lows[root], (-e, index), -(const // f)
            bounds[key] = max(bounds.get(key, offset), offset)
        else:  # h[root] <= (const + e * h[index]) / -f
            bounds, key, offset = highs[root], (e, index), const // -f
            bounds[key] = min(bounds.get(key, offset), offset)
        return True

    for i in range(a):
        for j in range(b):
            idx = i * b + j
            values = []  # what each source makes the cell, through the source's root
            if cls.is_symmetric and i > j:
                values.append(expr(j * b + i))
            if cls.complement == "point":
                partner = (a - 1 - i, b - 1 - j)
            elif cls.complement == "transpose":
                partner = (a - 1 - j, a - 1 - i)
            else:
                partner = None
            if partner == (i, j):
                if c % 2 != 0:
                    return None
                values.append((c // 2, 0, n))
            elif partner is not None and partner < (i, j):
                o, f, root = expr(partner[0] * b + partner[1])
                values.append((c - o, -f, root))
            cell_counts = []
            if cls.is_cyclic and i > 0:
                if j < i:
                    # row j is complete: it fixes the value
                    cell_counts.append((j * b, j * b + b, 1, i + 1, -1))
                else:
                    # column i down to row i - 1, or to the diagonal when j > i
                    rows = i + 1 if j > i else i
                    cell_counts.append((i, i + rows * b, b, j + 1, rows))
                    if j == i:
                        # own row: h[i][i] >= k+1 iff h[i][k] >= i+1
                        cell_counts.append((i * b, i * b + i, 1, i + 1, i))
            own = values[0] if values else (0, 1, idx)
            exprs.append(own)
            up = (i - 1) * b + j if i else n
            left = i * b + j - 1 if j else n
            rules = [(own, expr(up)), (own, expr(left))]
            rules += [pair for value in values[1:] for pair in ((own, value), (value, own))]
            if not all(require(low, high) for low, high in rules):
                return None
            offset, factor, root = own
            for start, stop, step, t, free_size in cell_counts:
                if factor and stop - step < root:  # stop - step: the last cell counted
                    # h[root] = factor * (value - offset): m bounds it at factor * (m - offset)
                    counts[root].append((start, stop, step, t, free_size, -factor * offset, factor))
                else:
                    counts[idx].append((start, stop, step, t, free_size, 0, 1))

    ahead = [[] for _ in range(n)]  # ahead[e + 1]: the writes made on entering cell e + 1
    for r in range(n) if cls.is_symmetric or cls.has_complementation else ():
        ends = [count[1] - count[2] for count in counts[r] if count[4] == -1]  # complete rows
        if not ends or max(ends) + 1 >= r:
            continue
        known = max(ends) + 1  # e + 1: the writes run once cells 0..known are set

        def decided(index):
            return index <= known or index == n

        own = exprs[r]
        if own[2] == r:
            low = [(o, f, k) for (f, k), o in lows[r].items() if decided(k)]
            high = [(o, f, k) for (f, k), o in highs[r].items() if decided(k)]
        else:
            low = [own] if decided(own[2]) else []
            high = low[:]
        for x in (*range(r - r % b, r), *range(r % b, r, b)):  # left of r, above r
            if x < known:
                continue
            o, f, root = exprs[x]  # o + f * h[root] == h[x] >= h[r]
            if decided(root):
                high.append((o, f, root))
            elif f > 0:  # h[root] >= h[r] - o
                lows[root][(1, r)] = max(lows[root].get((1, r), -o), -o)
            else:  # h[root] <= o - h[r]
                highs[root][(-1, r)] = min(highs[root].get((-1, r), o), o)
        decided_counts = tuple(count for count in counts[r] if decided(count[1] - count[2]))
        ahead[known].append((r, tuple(low), tuple(high), decided_counts))

    plan = []
    for idx, own in enumerate(exprs):
        if own[2] == idx:  # a root: the moved rules, its own among them
            low = tuple((o, f, k) for (f, k), o in lows[idx].items() if f or o > 0)
            high = tuple((o, f, k) for (f, k), o in highs[idx].items() if f or o < c)
            forced = any(count[4] == -1 for count in counts[idx])
            entry = (low, high, tuple(counts[idx]), None, forced)
        elif counts[idx]:  # a count past the root stays, next to the cell's own value
            entry = ((own,), (own,), tuple(counts[idx]), None, True)
        else:
            entry = ((), (), (), (own,), True)
        if ahead[idx]:
            low, high, cell_counts, copies, forced = entry
            if not forced:
                raise InternalConsistencyError(f"writes ahead on choice cell {idx}")
            if copies:  # checked here, where it writes ahead, rather than copied
                low = high = copies
            entry = (low, high, cell_counts, None, tuple(ahead[idx]))
        plan.append(entry)
    for idx in range(n - 2, -1, -1):  # each run of copies onto its first cell
        following = plan[idx + 1]
        if plan[idx][3] and following[3]:
            plan[idx] = ((), (), (), plan[idx][3] + following[3], True)
            plan[idx + 1] = None
    return plan


def _write_ahead(h: list[int], c: int, writes) -> bool:
    """Set h[r] for each (r, lows, highs, counts) in writes to the least
    value its decided rules allow, as _walk does at r; False, writing no
    further, if they allow none."""
    for r, lows, highs, counts in writes:
        lo = 0
        hi = c
        for offset, factor, index in lows:
            v = offset + factor * h[index]
            if v > lo:
                lo = v
        for offset, factor, index in highs:
            v = offset + factor * h[index]
            if v < hi:
                hi = v
        for start, stop, step, t, free_size, offset, factor in counts:
            m = sum(map(t.__le__, h[start:stop:step]))
            v = offset + factor * m
            if v > lo and (factor > 0 or m != free_size):
                lo = v
            if v < hi and (factor < 0 or m != free_size):
                hi = v
        if lo > hi:
            return False
        h[r] = lo
    return True


def signed_count(
    box: BoxDims,
    cls: SymmetryClass,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SignedCount:
    """Sum of the orbit sign (-1)^d over every class member in the box, d the
    number of orbits on which the member and the sign reference differ."""
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
        return SignedCount(0, "empty class")
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
    return SignedCount(total, convention)


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
