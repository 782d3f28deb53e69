"""Brute-force generation of symmetry-class plane partitions and exact
signed/weighted summation.

This is the ground truth the determinant/Pfaffian pipelines and the
closed-form evaluators are tested against: backtracking over height-matrix
entries in row-major order.  Bounds keep every entry in [0, c] and falling
along rows and columns, and the pairs of core.equal_pairs (transposition,
complementation) act as forced values or bounds on not-yet-assigned
entries.  The compiled plan of a class without cyclic counts proves every
pair, so its leaves are members; a leaf of a cyclic class gets the class
conditions once more, which do not test that it is a plane partition: the
bounds alone keep non-partitions out.  The rules are compiled into
flat-list indices, one plan entry per cell, once per box and class (the
plan is cached), and each is decided at the choice cell that fixes its
last unknown rather than at the forced cell it constrains (forward
checking).  Each root's bounds are also projected onto the earlier roots,
so a class without cyclic counts (TC, STC, SC, PLAIN, SYMMETRIC) meets no
dead end: every node lies on the path to a member; the cyclic counts,
which the projection does not read, leave the cyclic classes some.  In a
cyclic class a value that counts over complete rows fix is written at the
start of the next row, where it is checked and bounds the cells in
between.  The walk steps on node cells only, the roots and the forced
cells with checks: each runs a tuple of interval evaluations, its own and
the values it writes ahead, through one evaluator, and every value tried
goes down one path for the node count, the budget, the leaf and the
back-up.  A copy, a cell whose rules all moved to its root, is written
each time its root takes a value, and its node is charged to the node cell
before it.  A member's statistic, a sum over a per-cell table, is read off
the path as it grows rather than over every cell at the leaf.
tests/oracles.py keeps the unpruned walk that reads the rules off a matrix
of rows at every node as the reference: the same members in the same
order, in no more nodes; and the per-leaf sum as the statistic's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from operator import itemgetter
from typing import Iterator

from . import core
from .core import BoxDims, PlanePartition, SignedCount, SymmetryClass
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedClassError,
    require_int,
)

DEFAULT_NODE_BUDGET = 10**8
# count_vsasm's largest odd order: 15 takes about 0.3 s, 17 about 1.8 s
_VSASM_MAX_ORDER = 15


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
    in lexicographic order of the height matrix; the walk's statistic, over
    an all-zero table, is not read."""
    a, b = box.a, box.b
    table = [[0] * (box.c + 1)] * (a * b)
    for h, _ in _walk(box, cls, table, node_budget):
        yield PlanePartition(box, tuple(tuple(h[i * b:(i + 1) * b]) for i in range(a)))


def _walk(
    box: BoxDims, cls: SymmetryClass, table: list[list[int]], node_budget: int
) -> Iterator[tuple[list[int], int]]:
    """Yield every member, lexicographically, as one reused row-major
    height list h with its statistic sum(table[idx][h[idx]] for idx < n).

    The walk steps from node cell to node cell, nxt[idx] after idx and
    nxt[n] first; a node is one value tried at one of them.  A node cell
    runs its evaluations (see _compile) in one loop: each cuts [0, c] to an
    interval [lo, hi] by its bounds and counts and sets h[cell] = lo, and an
    empty one makes the cell a dead end, which backs up with no node; only
    the cyclic classes meet one, since _compile projects every bound but a
    cyclic count onto the earlier roots.  The cell keeps its own interval's
    top in top[idx]; a forced cell's interval holds at most one value.
    Every value then goes down one path that charges its nodes, checks the
    budget, writes the cell's copies and its share of the statistic, yields
    at the last node cell and, once the cell is exhausted, backs up straight
    to back[idx], the last earlier choice cell, since every forced cell in
    between has no second value.

    A copy is offset + factor * h[root] for an earlier root.  A constant
    copy (factor 0) is written once, before the walk starts; every other one
    is a dependent of its root, written each time the root takes a value.
    The walk never visits a copy but charges it one node with the node cell
    before it: charge[idx] is 1 plus the copies up to the next node cell,
    and charge[n], the copies before the first node cell, is charged before
    the walk starts, so no member is yielded between a node and its copies'
    charge.  A plan without node cells, the empty box's included, is one
    candidate.  The statistic is read off the path the same way: rows[r][v]
    is table[r][v] plus the table row of each dependent of r at its value
    when h[r] = v, and acc[idx] is acc[prev[idx]] + rows[idx][h[idx]],
    prev[idx] the last node cell before idx (n, whose acc holds the constant
    copies' share, before the first).  A leaf's statistic is the acc of its
    last node cell.  A leaf of a cyclic class gets every class condition
    through core.class_predicate, fetched once before the walk starts; the
    plan of any other class proves them, so each of its leaves is yielded.
    """
    plan = _compile(box, cls)  # checks the box shape
    if plan is None:
        return  # class empty: a self-paired cell at odd height, or a contradiction
    accept = core.class_predicate(box, cls) if cls.is_cyclic else None
    n = box.a * box.b
    c = box.c
    h = [0] * n + [c]  # h[n] is the sentinel c

    back = []
    prev = []
    nxt = [n] * (n + 1)  # nxt[n]: the first node cell
    charge = [1] * n + [0]  # charge[n]: the copies before the first node cell
    deps = [[] for _ in range(n)]  # deps[root]: (cell, offset, factor) of each copy of root
    rows = list(table)  # each fold below builds a new row
    acc = [0] * (n + 1)
    choice = -1
    node = n
    for idx, (_, copy, is_choice) in enumerate(plan):
        back.append(choice)
        prev.append(node)
        if copy is None:
            if is_choice:
                choice = idx
            nxt[node] = idx
            node = idx
            continue
        charge[node] += 1
        offset, factor, root = copy
        values = table[idx]
        if not factor:
            h[idx] = offset
            acc[n] += values[offset]
            continue
        deps[root].append((idx, offset, factor))  # h[idx] is h[root] or c - h[root]
        rows[root] = [s + values[offset + factor * v] for v, s in enumerate(rows[root])]
    last = node
    nodes = charge[n]
    if nodes > node_budget:
        raise _budget_error(node_budget, cls, box)
    if last == n:  # no node cell: h, all copies, is the one candidate
        if accept is None or accept(h):
            yield h, acc[n]
        return
    top = [0] * n  # top[idx]: the last candidate of cell idx
    idx = nxt[n]
    while True:
        for cell, lows, highs, counts in plan[idx][0]:
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
            if lo > hi:  # a dead end: h[idx] >= 0 > top[idx] backs up with no node
                top[idx] = -1
                break
            h[cell] = lo
            top[cell] = hi  # a later cell r sets its own again on its visit
        while True:  # cell idx at value h[idx]
            v = h[idx]
            if v > top[idx]:  # exhausted: back up to the last choice
                idx = back[idx]
                if idx < 0:
                    return
                h[idx] += 1
                continue
            nodes += charge[idx]
            if nodes > node_budget:
                raise _budget_error(node_budget, cls, box)
            for cell, offset, factor in deps[idx]:
                h[cell] = offset + factor * v
            acc[idx] = acc[prev[idx]] + rows[idx][v]
            if idx < last:
                break
            if accept is None or accept(h):
                yield h, acc[idx]
            h[idx] += 1
        idx = nxt[idx]


def _budget_error(node_budget: int, cls: SymmetryClass, box: BoxDims) -> ResourceLimitError:
    return ResourceLimitError(
        f"node budget {node_budget} exceeded enumerating {cls.value} in {box}"
    )


@lru_cache(maxsize=None)
def _compile(box: BoxDims, cls: SymmetryClass):
    """The walk's plan: a tuple with one entry per cell, row-major, or None
    if the class is empty; cached per box and class, so that every walk of
    one box and class shares it.  A node cell's entry is (evals, None,
    choice): evals a tuple of evaluations (cell, lows, highs, counts), its
    own first and then the writes below, and choice tells a choice cell from
    a forced one.  A copy's entry is ((), (offset, factor, root), False).

    A cell's rules: it is at most the cell above and the cell to its left
    (the sentinel h[n] = c at an edge); a source, a pair (x, y, sign, const)
    of core.equal_pairs at x = the cell, forces it to equal const + sign *
    h[y], its earlier mirror cell or c minus its earlier partner (c // 2 if
    it is its own partner; at odd c the class is empty); and the cyclic
    rule h[i][j] >= r+1 iff h[r][i] >= j+1 gives a count (start, stop,
    step, t, free_size) over the assigned partner cells h[start:stop:step]:
    m of them are >= t, and the cell equals m unless m == free_size, which
    only bounds it below by m.

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
    cell's own value as a bound on both sides.

    Every class then eliminates its roots from last to first (directional
    consistency: Dechter, Meiri and Pearl, Artificial Intelligence 49,
    1991).  Root r has a value once every bound on it from below, low, is at
    most every bound from above, high, the domain [0, c] included; require
    turns each such low <= high into a bound on the later root of the two,
    2 * h <= k into h <= k // 2 and 2 * h >= k into h >= the ceiling of
    k / 2, and keeps the tightest offset per (factor, index).  Each added
    bound follows from the rules over the integers, so no member is cut and
    no rule is dropped; and since the bounds are added before r's earlier
    roots are themselves eliminated, a class without cyclic counts finds a
    nonempty interval at every root.  The counts, which this step does not
    read, leave the cyclic classes dead ends it cannot remove, but it
    removes others (CSSC 6^3: 3,228 nodes with it, 4,662 without).

    A class without cyclic counts then proves each pair, so that its leaves
    need no check: with o, f, root = exprs[y], exprs[x] must be (const +
    sign * o, sign * f, root), or InternalConsistencyError is raised before
    any walk starts.  TSSC holds some pairs by bounds only (30 at sides up
    to 8), so the cyclic classes keep the leaf check.

    A cell that is not a root, or a root with a count over a complete row
    (free_size -1), is forced: it has at most one candidate.  A forced cell
    left with no rule is a copy of its own value (offset, factor, root),
    and is not checked.  A root is never a copy, so no copy reads another.

    A forced cell r whose counts over complete rows end at cell e, with
    e + 1 < r, is also written ahead.  Cell e + 1 starts a row below row 0
    of a cyclic class, which a count over row 0 fixes, so it is forced; its
    evals go on with (r, lows, highs, counts): r's counts decided once cells
    0..e + 1 are set and, when r copies a root set by then, its own value
    on both sides.  Entering it, the walk sets h[r] from them, or finds a
    dead end; a copy cell there is checked, its own value bounding it on
    both sides, so that it can carry the writes.  By monotonicity every
    cell x left of r in its row or above it in its column is at least
    h[r]: when x's root is not set by then, that bound goes to the root,
    which reads h[r] (CSSC 6^3 takes 3,339 nodes without it, 3,228 with).
    r keeps all its rules.  The write carries no more: r's other rules, and
    h[x] >= h[r] for an x whose root is set, prune no node of CSTC, CSSC or
    TSSC at 4^3, 6^3 and 8^3 once the projection has run.  The writes go to
    every cyclic class but CYCLIC, where each such value is the conjugate
    of a row: there they prune no node (1,999, 28,340 and 653,708 nodes at
    4^3, 5^3 and 6^3 either way) and cost 3 to 50 % more time.
    """
    a, b, c = box.a, box.b, box.c
    n = a * b
    exprs = []  # exprs[idx] = (offset, factor, root): h[idx] == offset + factor * h[root]
    lows = [{} for _ in range(n)]  # lows[root][(factor, index)]: the largest offset
    highs = [{} for _ in range(n)]  # highs[root][(factor, index)]: the smallest offset
    counts = [[] for _ in range(n)]
    pairs = core.equal_pairs(box, cls)  # checks the box shape
    sources = {x: list(group) for x, group in groupby(pairs, itemgetter(0))}
    if any(x == y and const % 2 for x, y, _, const in pairs):
        return None  # h = const - h at an odd const

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
            for _, y, sign, const in sources.get(idx, ()):
                o, f, root = exprs[y] if y < idx else (const // 2, 0, n)  # own partner: const / 2
                values.append((const + sign * o, sign * f, root))
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
            up = exprs[idx - b] if i else (c, 0, n)  # the sentinel h[n] = c at an edge
            left = exprs[idx - 1] if j else (c, 0, n)
            rules = [(own, up), (own, left)]
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

    for r in range(n - 1, -1, -1):
        # h[r] has a value, and each one extends to a member, once every
        # low <= high on it holds on the earlier roots, [0, c] included (a
        # cell that is not a root has no bounds)
        low = [(o, f, k) for (f, k), o in lows[r].items()] + [(0, 0, n)]
        high = [(o, f, k) for (f, k), o in highs[r].items()] + [(c, 0, n)]
        if not all(require(x, y) for x in low for y in high):
            return None

    for x, y, sign, const in () if cls.is_cyclic else pairs:
        o, f, root = exprs[y]
        if exprs[x] != (const + sign * o, sign * f, root):
            raise InternalConsistencyError(f"cells {x} and {y} of {cls.value} in {box} not tied")

    ahead = [[] for _ in range(n)]  # ahead[e + 1]: the writes made on entering cell e + 1
    for r in range(n) if cls.is_symmetric or cls.has_complementation else ():
        ends = [count[1] - count[2] for count in counts[r] if count[4] == -1]  # complete rows
        if not ends or max(ends) + 1 >= r:
            continue
        known = max(ends) + 1  # e + 1: the writes run once cells 0..known are set

        def decided(index):
            return index <= known or index == n

        own = exprs[r]
        value = (own,) if decided(own[2]) else ()  # r itself, a root, is not decided
        for x in (*range(r - r % b, r), *range(r % b, r, b)):  # left of r, above r
            o, f, root = exprs[x]  # o + f * h[root] == h[x] >= h[r]
            if decided(root):
                continue
            if f > 0:  # h[root] >= h[r] - o
                lows[root][(1, r)] = max(lows[root].get((1, r), -o), -o)
            else:  # h[root] <= o - h[r]
                highs[root][(-1, r)] = min(highs[root].get((-1, r), o), o)
        decided_counts = tuple(count for count in counts[r] if decided(count[1] - count[2]))
        ahead[known].append((r, value, value, decided_counts))

    plan = []
    for idx, own in enumerate(exprs):
        choice = False
        if own[2] == idx:  # a root: the moved rules, its own among them
            low = tuple((o, f, k) for (f, k), o in lows[idx].items() if f or o > 0)
            high = tuple((o, f, k) for (f, k), o in highs[idx].items() if f or o < c)
            choice = all(count[4] != -1 for count in counts[idx])
        elif counts[idx] or ahead[idx]:  # checked: its own value bounds it on both sides
            low = high = (own,)
        else:
            plan.append(((), own, False))
            continue
        if choice and ahead[idx]:
            raise InternalConsistencyError(f"writes ahead on choice cell {idx}")
        plan.append((((idx, low, high, tuple(counts[idx])), *ahead[idx]), None, choice))
    return tuple(plan)


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
        table = [[0] * (box.c + 1)] * (box.a * box.b)  # no statistic: the first member only
        reference = next((h for h, _ in _walk(box, cls, table, node_budget)), None)
        convention = "reference: lexicographically first member (global sign arbitrary)"
    if reference is None:
        return SignedCount(0, "empty class")
    # one cell (i, j, k) per orbit; the statistic counts those the member
    # holds against the reference: the orbits where the two differ
    b = box.b
    reps = []
    for orbit in core.orbit_decomposition(box, cls).orbits:
        i, j, k = next(iter(orbit.half_a))
        index = (i - 1) * b + j - 1
        reps.append((index, k, reference[index] >= k))
    hist = _tally(box, cls, reps, node_budget)
    return SignedCount(sum((-1) ** s * m for s, m in hist.items()), convention)


def _tally(
    box: BoxDims, cls: SymmetryClass, reps: list[tuple[int, int, bool]], node_budget: int
) -> Counter[int]:
    """hist[s]: how many members hold s of the cells (idx, k, bit) of reps
    against their bit, (h[idx] >= k) != bit, counted in one walk.

    table[idx][v] counts the reps at idx that height v holds against their
    bit, so a member's statistic is sum(table[idx][h[idx]] for idx < n),
    which _walk reads off its path.
    """
    table = [[0] * (box.c + 1) for _ in range(box.a * box.b)]
    for index, k, bit in reps:
        row = table[index]
        for v in range(box.c + 1):
            row[v] += (v >= k) != bit
    return Counter(map(itemgetter(1), _walk(box, cls, table, node_budget)))


def weighted_count(
    box: BoxDims,
    cls: SymmetryClass,
    w: WeightKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int | Fraction:
    """Sum of q^statistic over the class members in the box; the statistic
    counts the member's cubes (QCUBES), its orbits under the class's
    symmetry group (QORBITS), or nothing (PLAIN: the plain count)."""
    if w.tag is WeightTag.QCUBES:
        cells = box.cells()
    elif w.tag is WeightTag.QORBITS:
        if not (cls.is_symmetric or cls.is_cyclic):
            raise UnsupportedClassError(
                "q^orbits needs a class with a nontrivial symmetry group"
            )
        cells = core.symmetry_orbit_reps(box, cls)
    elif w.tag is WeightTag.PLAIN:
        cells = ()
    else:
        raise InvalidInputError(f"unknown weight kind {w.tag}")
    reps = [((i - 1) * box.b + j - 1, k, False) for i, j, k in cells]
    hist = _tally(box, cls, reps, node_budget)
    total = sum((w.q ** s * m for s, m in hist.items()), Fraction(0))
    return int(total) if total.denominator == 1 else total


# ---------------------------------------------------------------------------
# vertically symmetric alternating sign matrices


def count_vsasm(n: int) -> int:
    """Number of n x n alternating sign matrices invariant under
    left-right reflection, counted over monotone triangles.

    ASMs of order n correspond one to one to monotone triangles with
    bottom row 1..n: row k of the triangle, counted from the top, is the
    set of columns whose partial column sum over the top k matrix rows is
    1, and matrix row k is the indicator of triangle row k minus that of
    row k - 1.  So every matrix row is symmetric under j -> n+1-j exactly
    when every triangle row is.  The count therefore runs over symmetric
    rows only, memoised per row, and builds no matrices.  An odd n above
    15, the largest order counted in under 1 s, raises ResourceLimitError;
    an even n is 0 at any size.
    """
    require_int((n,), "the matrix size")
    if n < 1:
        raise InvalidInputError(f"matrix size must be positive, got {n}")
    if n % 2 == 0:
        return 0  # parity obstruction: middle column argument
    if n > _VSASM_MAX_ORDER:
        raise ResourceLimitError(f"vsasm size {n} exceeds the largest order {_VSASM_MAX_ORDER}")

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
