"""Independent reference implementations used only by the tests.

Everything here recomputes quantities from first principles (literal cell
sets, explicit path enumeration, permutation expansions) so the package
code is checked against a second route, not against itself.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from operator import itemgetter, le, ne
from typing import Sequence

from ppsign import core, exactalg, oracle, paths
from ppsign.core import BoxDims, PlanePartition, SymmetryClass
from ppsign.errors import (
    DimensionError,
    InvalidInputError,
    NeedsMoreSamplesError,
    SingularParameterError,
    UnsupportedClassError,
)
from ppsign.exactalg import Poly
from ppsign.qseries import binom, qbinom_minus1

Cell = tuple[int, int, int]
Point = tuple[int, int]


# ---------------------------------------------------------------------------
# polynomial q-binomials


def gaussian_binomial_coeffs(n: int, k: int) -> list[int]:
    """Coefficient list of the Gaussian binomial [n k]_q via q-Pascal."""
    if k < 0 or k > n:
        return [0]
    table: dict[tuple[int, int], list[int]] = {}

    def poly_add(p, q, shift=0):
        out = [0] * max(len(p), len(q) + shift)
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i + shift] += c
        return out

    def build(nn, kk):
        if kk == 0 or kk == nn:
            return [1]
        if (nn, kk) in table:
            return table[(nn, kk)]
        # [n k] = [n-1 k-1] + q^k [n-1 k]
        value = poly_add(build(nn - 1, kk - 1), build(nn - 1, kk), shift=kk)
        table[(nn, kk)] = value
        return value

    return build(n, k)


def gaussian_binomial_at(n: int, k: int, q: int) -> int:
    return sum(c * q**i for i, c in enumerate(gaussian_binomial_coeffs(n, k)))


# ---------------------------------------------------------------------------
# literal cell-set predicates


def cells_of(pp: PlanePartition) -> frozenset[Cell]:
    """The cells (i, j, k), 1-based, under each column of pp."""
    return frozenset(
        (i, j, k)
        for i, row in enumerate(pp.heights, start=1)
        for j, h in enumerate(row, start=1)
        for k in range(1, h + 1)
    )


def pp_size(pp: PlanePartition) -> int:
    """The number of cells of pp."""
    return sum(map(sum, pp.heights))


def orbit_cells(orbit: core.Orbit) -> frozenset[Cell]:
    """Both halves of a combined-group orbit."""
    return orbit.half_a | orbit.half_b


def contains(pp: PlanePartition, cell: Cell) -> bool:
    i, j, k = cell
    return 1 <= k <= pp.heights[i - 1][j - 1]


def cell_indicator(pp: PlanePartition) -> bytes:
    """The cell set of pp as one byte per box cell in box.cells() order, 1
    where pp holds the cell, then one 0 byte that stands for every cell
    outside the box.  pp must be a plane partition in its box."""
    return b"".join(map(_columns(pp.box.c).__getitem__, chain.from_iterable(pp.heights))) + b"\0"


@lru_cache(maxsize=None)
def _columns(c: int) -> tuple[bytes, ...]:
    """_columns(c)[h]: the cells (i, j, 1..c) of one column of height h."""
    return tuple(b"\1" * h + b"\0" * (c - h) for h in range(c + 1))


def _transpose(box: BoxDims, x: Cell) -> Cell:
    return (x[1], x[0], x[2])


def _rotate(box: BoxDims, x: Cell) -> Cell:
    return (x[1], x[2], x[0])


def _point_complement(box: BoxDims, x: Cell) -> Cell:
    return (box.a + 1 - x[0], box.b + 1 - x[1], box.c + 1 - x[2])


def _transpose_complement(box: BoxDims, x: Cell) -> Cell:
    return (box.a + 1 - x[1], box.a + 1 - x[0], box.c + 1 - x[2])


_MAPS = (_transpose, _rotate, _point_complement, _transpose_complement)


@lru_cache(maxsize=None)
def _pullbacks(box: BoxDims) -> tuple:
    """Per map f of _MAPS, a function taking a cell indicator to the tuple
    whose entry for box cell x says whether the set holds f(x) (never,
    when f(x) leaves the box)."""
    index = {x: n for n, x in enumerate(box.cells())}
    outside = box.volume()
    getters = []
    for f in _MAPS:
        images = [index.get(f(box, x), outside) for x in box.cells()]
        if len(images) < 2:  # itemgetter returns a tuple from two indices on
            getters.append(lambda indicator, images=images: tuple(indicator[n] for n in images))
        else:
            getters.append(itemgetter(*images))
    return tuple(getters)


def cellset_satisfies(
    pp: PlanePartition, cls: SymmetryClass, indicator: bytes | None = None
) -> bool:
    """Class membership straight from the cell-set definitions; indicator,
    when given, must be cell_indicator(pp).

    Invariance under f: every cell x of the set has f(x) in the set.
    Complementation by f: for every box cell x, f(x) is outside the set
    exactly when x is inside.
    """
    if indicator is None:
        indicator = cell_indicator(pp)
    transpose, rotate, point, transpose_point = _pullbacks(pp.box)
    ok = True
    if cls in (SymmetryClass.SYMMETRIC, SymmetryClass.TOTALLY_SYMMETRIC,
               SymmetryClass.STC, SymmetryClass.TSSC):
        ok = ok and all(map(le, indicator, transpose(indicator)))
    if cls in (SymmetryClass.CYCLIC, SymmetryClass.TOTALLY_SYMMETRIC,
               SymmetryClass.CSTC, SymmetryClass.CSSC, SymmetryClass.TSSC):
        ok = ok and all(map(le, indicator, rotate(indicator)))
    if cls in (SymmetryClass.SC, SymmetryClass.CSSC, SymmetryClass.TSSC):
        ok = ok and all(map(ne, indicator, point(indicator)))
    if cls in (SymmetryClass.TC, SymmetryClass.STC, SymmetryClass.CSTC):
        ok = ok and all(map(ne, indicator, transpose_point(indicator)))
    return ok


def cellset_to_pp(cells: frozenset[Cell], box: BoxDims) -> PlanePartition | None:
    """Rebuild a plane partition from a cell set; None if it is not one."""
    heights = []
    for i in range(1, box.a + 1):
        row = []
        for j in range(1, box.b + 1):
            column = {k for (x, y, k) in cells if x == i and y == j}
            h = len(column)
            if column != set(range(1, h + 1)):
                return None
            row.append(h)
        heights.append(tuple(row))
    rows = tuple(heights)
    for i in range(box.a):
        for j in range(box.b):
            if j + 1 < box.b and rows[i][j] < rows[i][j + 1]:
                return None
            if i + 1 < box.a and rows[i][j] < rows[i + 1][j]:
                return None
    return PlanePartition(box, rows)


# ---------------------------------------------------------------------------
# one member at a time: validity and the orbit sign


def is_valid_pp(heights: Sequence[Sequence[int]], box: BoxDims) -> bool:
    """True iff the matrix is a x b, weakly decreasing both ways, entries in [0, c]."""
    rows = [tuple(r) for r in heights]
    if len(rows) != box.a or any(len(r) != box.b for r in rows):
        raise DimensionError(
            f"height matrix must be {box.a} x {box.b}, got {len(rows)} rows"
        )
    for i, row in enumerate(rows):
        for j, h in enumerate(row):
            if not 0 <= h <= box.c:
                return False
            if j + 1 < box.b and h < row[j + 1]:
                return False
            if i + 1 < box.a and h < rows[i + 1][j]:
                return False
    return True


def orbit_difference(
    pp: PlanePartition, cls: SymmetryClass, reference: PlanePartition | None = None
) -> int:
    """Number of orbits whose half chosen by pp differs from the reference."""
    if reference is None:
        reference = core.reference_partition(pp.box, cls)
    differing = 0
    for orbit in core.orbit_decomposition(pp.box, cls).orbits:
        rep = next(iter(orbit.half_a))
        if contains(pp, rep) != contains(reference, rep):
            differing += 1
    return differing


def sign_weight(
    pp: PlanePartition, cls: SymmetryClass, reference: PlanePartition | None = None
) -> int:
    """(-1)^d with d the orbit difference from the reference partition."""
    if not core.satisfies(pp, cls):
        raise InvalidInputError("plane partition does not satisfy the class predicate")
    return -1 if orbit_difference(pp, cls, reference) % 2 else 1


def region_count(pp: PlanePartition, cls: SymmetryClass) -> int:
    """Cubes of pp in the class's sign-carrying region.

    TC counts the upper half (k > c/2), STC the upper right quarter
    (k > c/2 and i <= j), CSTC one of the mixed octants
    (i <= a/2 < j, k).  Each differing orbit meets the region exactly once,
    so (-1)^region_count reproduces the orbit sign.
    """
    a, c = pp.box.a, pp.box.c
    h = pp.heights
    half = c // 2
    if cls is SymmetryClass.TC:
        return sum(max(v - half, 0) for row in h for v in row)
    if cls is SymmetryClass.STC:
        return sum(
            max(h[i][j] - half, 0) for i in range(a) for j in range(i, a)
        )
    if cls is SymmetryClass.CSTC:
        alpha = a // 2
        return sum(
            max(h[i][j] - alpha, 0) for i in range(alpha) for j in range(alpha, a)
        )
    raise UnsupportedClassError(f"region count is defined for TC/STC/CSTC, not {cls.value}")


# ---------------------------------------------------------------------------
# the oracle walk over a matrix of rows, rule tags read at every node


def enumerate_class_rows(box: BoxDims, cls: SymmetryClass) -> tuple[list, int]:
    """(every member's height matrix in lexicographic order, nodes visited).

    Backtracking over the entries in row-major order; a node is one value
    tried at one cell.  Symmetry constraints act as forced values or lower
    bounds on not-yet-assigned entries, and every leaf gets the full class
    predicate.
    """
    core.check_box_shape(box, cls)
    a, b, c = box.a, box.b, box.c
    if a == 0 or b == 0:
        empty = PlanePartition(box, tuple(tuple() for _ in range(a)))
        return ([empty.heights] if core.satisfies(empty, cls) else []), 0

    rules = _cell_rules(box, cls)
    if rules is None:
        return [], 0  # class empty for parity reasons (self-paired cell, odd height)

    heights = [[0] * b for _ in range(a)]
    total = a * b
    members = []

    def candidates(idx: int):
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

    nodes = 0
    stack = [candidates(0)]
    idx = 0
    while idx >= 0:
        i, j = divmod(idx, b)
        for v in stack[idx]:
            nodes += 1
            heights[i][j] = v
            if idx + 1 < total:
                idx += 1
                stack.append(candidates(idx))
                break
            pp = PlanePartition(box, tuple(tuple(r) for r in heights))
            if core.satisfies(pp, cls):
                members.append(pp.heights)
        else:
            stack.pop()
            idx -= 1
    return members, nodes


_FREE = object()
_POINT_COMPLEMENT = (SymmetryClass.SC, SymmetryClass.CSSC, SymmetryClass.TSSC)
_TRANSPOSE_COMPLEMENT = (SymmetryClass.TC, SymmetryClass.STC, SymmetryClass.CSTC)


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
            if cls in _POINT_COMPLEMENT:
                partner = (a - 1 - i, b - 1 - j)
            elif cls in _TRANSPOSE_COMPLEMENT:
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


def tally_by_leaf(
    box: BoxDims, cls: SymmetryClass, reps: list[tuple[int, int, bool]], node_budget: int
) -> Counter[int]:
    """hist[s] as oracle._tally defines it, with each member's statistic s
    summed over all its cells at the leaf: table[idx][v] counts the reps
    (idx, k, bit) at idx that height v holds against their bit."""
    table = [[0] * (box.c + 1) for _ in range(box.a * box.b)]
    for index, k, bit in reps:
        row = table[index]
        for v in range(box.c + 1):
            row[v] += (v >= k) != bit
    return Counter(
        sum(map(list.__getitem__, table, chain.from_iterable(pp.heights)))
        for pp in oracle.enumerate_class(box, cls, node_budget)
    )


# ---------------------------------------------------------------------------
# signed lattice paths, the slow way


def all_paths(start: Point, end: Point):
    """Every south/east path from start to end as a tuple of points."""
    (x1, y1), (x2, y2) = start, end
    if x2 < x1 or y2 > y1:
        return
    if (x1, y1) == (x2, y2):
        yield ((x1, y1),)
        return
    if x1 < x2:
        for rest in all_paths((x1 + 1, y1), end):
            yield ((x1, y1),) + rest
    if y1 > y2:
        for rest in all_paths((x1, y1 - 1), end):
            yield ((x1, y1),) + rest


def area2_sign(path) -> int:
    """(-1)^(area between the path and the x-axis)."""
    area = 0
    for (x1, y1), (x2, _) in zip(path, path[1:]):
        if x2 == x1 + 1:
            area += y1
    return -1 if area % 2 else 1


def dp_signed_path_count(start: Point, end: Point) -> int:
    return sum(area2_sign(p) for p in all_paths(start, end))


def path_count_signed(start: Point, end: Point) -> int:
    """Signed count of south/east paths, weight (-1)^(area below path).

    The area-below-baseline count is the q-binomial at q = -1; moving the
    baseline from the endpoint height to the x-axis contributes
    (-1)^(width * end height).
    """
    x1, y1 = start
    x2, y2 = end
    width, drop = x2 - x1, y1 - y2
    if width < 0 or drop < 0:
        return 0
    return (-1) ** (width * y2 % 2) * qbinom_minus1(width + drop, width)


def sgn_matrix(p: int) -> list[list[int]]:
    """The skew weight matrix sgn(l - k) of the minor-summation formula."""
    return [[(l > k) - (l < k) for l in range(p)] for k in range(p)]


def nonintersecting_family_sum(starts, ends, weight=None) -> int:
    """Sum over vertex-disjoint path families (i-th path: starts[i] ->
    ends[i]) of the product of per-path signs; weight(path, index) may
    replace the default area2 sign."""
    weight = weight or (lambda path, index: area2_sign(path))
    n = len(starts)

    def rec(i, used):
        if i == n:
            return 1
        total = 0
        for path in all_paths(starts[i], ends[i]):
            vertices = set(path)
            if vertices & used:
                continue
            total += weight(path, i) * rec(i + 1, used | vertices)
        return total

    return rec(0, frozenset())


def skew_double_sum_literal(g) -> list[list[int]]:
    """M[i][j] = sum_{l,r} G[l][i] G[r][j] sgn(r - l), by the literal sums."""
    p = len(g)
    n = len(g[0]) if p else 0
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            total = 0
            for l in range(p):
                gli = g[l][i]
                if gli == 0:
                    continue
                for r in range(p):
                    if r == l:
                        continue
                    total += gli * g[r][j] * (1 if r > l else -1)
            m[i][j] = total
            m[j][i] = -total
    return m


# ---------------------------------------------------------------------------
# the matrices the derivations reduce the path matrices to


def stcpp_mtilde(alpha: int, b: int) -> tuple[tuple[int, ...], ...]:
    """The (alpha/2) x (alpha/2) reduced matrix; det M = (det M-tilde)^2."""
    if alpha % 2 or b % 2:
        raise UnsupportedClassError("reduced matrix needs alpha and b even")
    half = alpha // 2
    return tuple(
        tuple(paths.mtilde_entry(alpha, b, i, j) for j in range(1, half + 1))
        for i in range(1, half + 1)
    )


def stc_pool(offset: int, alpha: int, b: int) -> list[list[int]]:
    """Start-pool matrix G of the STC box of side 2*alpha + offset, built
    directly for one b, with a dummy start/end appended for odd alpha."""
    g = [
        [
            (-1) ** (i % 2) * qbinom_minus1(i + j - 2 + offset, 2 * j - 2 + offset)
            for j in range(1, alpha + 1)
        ]
        for i in range(1, alpha + b + 1)
    ]
    if alpha % 2 == 1:
        for row in g:
            row.append(0)
        g.append([0] * alpha + [1])
    return g


def stcpp_odd_matrix(alpha: int, b: int) -> list[list[int]]:
    """The skew matrix of the odd-side STC pool, whose Pfaffian
    stcpp_odd_enum takes, from the direct build."""
    return paths._skew_double_sum(stc_pool(1, alpha, b))


def stcpp_odd_closed_ee(alpha: int, b: int, i: int, j: int) -> Fraction:
    """Closed form of the (2i, 2j) entry in the alpha even, b odd case."""
    s = (alpha + b - 1) // 2
    return Fraction(
        binom(s + j, 2 * j) * binom(s + i, 2 * i) * (j - i), j + i
    )


def stcpp_odd_closed_oo(alpha: int, b: int, i: int, j: int) -> Fraction:
    """Closed form of the (2i-1, 2j-1) entry of the dummy-augmented matrix
    in the alpha odd, b even case."""
    s = (alpha + b - 1) // 2
    return Fraction(
        binom(s + j, 2 * j - 1) * binom(s + i, 2 * i - 1) * (j - i), i + j - 1
    )


def half_binomial_det(alpha: int) -> int:
    """det binom(i+j-1, 2j-i) of size alpha // 2: 0 for even alpha > 0,
    and 1 (the empty determinant) for the empty box at alpha = 0.

    The reduction of both cyclic classes: CSTC is its square (Kuperberg's
    CSTC = TSSC^2), TSSC is it as is, and for odd alpha it is Mills,
    Robbins and Rumsey's determinant mrr_det(1, alpha // 2).  TSSC's own
    matrix, binom(i+j-1, 2j-i-1), is the transpose of this one by
    binom(n, k) = binom(n, n-k).
    """
    if alpha % 2 == 0 and alpha > 0:
        return 0
    n = alpha // 2
    return exactalg.det([
        [binom(i + j - 1, 2 * j - i) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ])


def sc_product_literal(rows) -> list[list[int]]:
    """S*·J·S*^T for the SC path matrix S*, with the block matrix
    J = [[0, I], [-I, 0]] written out and both products taken entry by
    entry."""
    if not rows:
        return []
    n = len(rows[0]) // 2
    j_block = [[0] * n + [int(i == k) for k in range(n)] for i in range(n)]
    j_block += [[-int(i == k) for k in range(n)] + [0] * n for i in range(n)]

    def product(a, b):
        return [
            [sum(a[i][t] * b[t][k] for t in range(len(b))) for k in range(len(b[0]))]
            for i in range(len(a))
        ]

    rows_t = [list(col) for col in zip(*rows)]
    return product(product(rows, j_block), rows_t)


def det_permutation_expansion(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def det_fraction_elimination(m) -> Fraction:
    """Determinant by plain Gaussian elimination over the rationals, with
    the first nonzero entry of each column as pivot.  Slow, but it uses no
    fraction-free division and no zero pattern."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            result = -result
        p = rows[k][k]
        result *= p
        for i in range(k + 1, n):
            factor = rows[i][k] / p
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return result


def pfaffian_fraction_elimination(m) -> Fraction:
    """Pfaffian by skew Gaussian elimination over the rationals; row/column
    pair swaps carry the sign.  Slow, but it computes the sign directly."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    result = Fraction(1)
    for k in range(0, n, 2):
        pivot = next((j for j in range(k + 1, n) if rows[k][j] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k + 1:
            rows[k + 1], rows[pivot] = rows[pivot], rows[k + 1]
            for row in rows:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
            result = -result
        p = rows[k][k + 1]
        result *= p
        for j in range(k + 2, n):
            # congruence update decoupling rows/cols k, k+1 from row/col j
            c = -rows[k][j] / p
            d = rows[k + 1][j] / p
            if c == 0 and d == 0:
                continue
            row_j = rows[j]
            row_k = rows[k]
            row_k1 = rows[k + 1]
            for t in range(n):
                row_j[t] += c * row_k1[t] + d * row_k[t]
            for t in range(n):
                rows[t][j] += c * rows[t][k + 1] + d * rows[t][k]
    return result


def interpolate_divided_differences(points: Sequence[tuple]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points,
    at any distinct abscissae, by Newton divided differences in Fraction."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise InvalidInputError("interpolation abscissae must be distinct")
    if not points:
        raise NeedsMoreSamplesError("need at least one point")
    # Newton divided differences
    coeffs = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = Poly([coeffs[-1]])
    for i in range(len(points) - 2, -1, -1):
        poly = poly * Poly([-xs[i], 1]) + Poly([coeffs[i]])
    return poly


def compose(outer: Poly, inner: Poly) -> Poly:
    """outer(inner(x)), by Horner's rule on the coefficients of outer."""
    acc = Poly()
    for c in reversed(outer.coeffs):
        acc = acc * inner + Poly([c])
    return acc


# ---------------------------------------------------------------------------
# the exact rational kernels, one Fraction operation per factor


def shifted_factorial_literal(a, n: int):
    """a(a+1)...(a+n-1), multiplied up one factor at a time from the int 1."""
    result = 1
    for t in range(n):
        result *= a + t
    return result


def binom_literal(n: Fraction, k: int) -> Fraction:
    """n(n-1)...(n-k+1)/k! for a non-integral n, k >= 0."""
    return Fraction(math.prod(n - t for t in range(k)), math.factorial(k))


def hyper_terminating_literal(p) -> Fraction:
    """The terminating sum rFs(p.upper; p.lower; 1), the term extended by
    one Fraction operation per parameter; a lower factor 0 raises
    SingularParameterError."""
    total = Fraction(0)
    term = Fraction(1)
    n = p.terminal_index
    for k in range(n + 1):
        total += term
        if k == n:
            break
        for a in p.upper:
            term *= a + k
        for idx, b in enumerate(p.lower):
            factor = b + k
            if factor == 0:
                raise SingularParameterError(
                    f"lower parameter {idx} hits zero factor at term {k + 1}"
                )
            term /= factor
        term /= k + 1
    return total


def detl_sides_literal(x, a, b) -> tuple[list[list[Fraction]], Fraction]:
    """The matrix of the detl lemma, entry (i, j) the product of x_j + a_m
    over m = i+1..n and of x_j + b_m over m = 2..i, and its double product
    of (x_i - x_j), i < j, and (b_i - a_j), 2 <= i <= j <= n."""
    n = len(x)
    aa = {i: a[i - 2] for i in range(2, n + 1)}
    bb = {i: b[i - 2] for i in range(2, n + 1)}

    def entry(i: int, j: int) -> Fraction:
        value = Fraction(1)
        for m in range(i + 1, n + 1):
            value *= x[j - 1] + aa[m]
        for m in range(2, i + 1):
            value *= x[j - 1] + bb[m]
        return value

    matrix = [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    product = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            product *= x[i - 1] - x[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            product *= bb[i] - aa[j]
    return matrix, product


def sum_of_minors_per_minor(t, n: int, weight):
    """Sum of weight(K)·det(T_K) over the n-subsets K of rows, each minor
    scaled to integers on its own by exactalg.det."""
    rows = [list(r) for r in t]
    return sum(
        exactalg.det([rows[i] for i in subset]) * weight(subset)
        for subset in combinations(range(len(rows)), n)
    )


def skew_matrix(n: int, entry):
    """An n x n skew matrix with a fresh entry() above the diagonal."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = entry()
            m[j][i] = -m[i][j]
    return m


def principal_pfaffians(a):
    """The weight K -> Pf(A_K) of the minor-summation formula, each
    principal submatrix through exactalg.pfaffian."""
    return lambda subset: exactalg.pfaffian([[a[i][j] for j in subset] for i in subset])


# ---------------------------------------------------------------------------
# alternating sign matrices, built one by one


def alternating_sign_matrices(n: int):
    """All ASMs of order n via monotone triangles with bottom row 1..n."""

    def rows_above(row: tuple[int, ...]):
        # strictly increasing rows, weakly interlacing with the row below
        size = len(row) - 1

        def pick(idx: int, minimum: int, chosen: tuple[int, ...]):
            if idx == size:
                yield chosen
                return
            for v in range(max(row[idx], minimum), row[idx + 1] + 1):
                yield from pick(idx + 1, v + 1, chosen + (v,))

        yield from pick(0, 1, ())

    def build(triangle: list[tuple[int, ...]]):
        if len(triangle[-1]) == 1:
            yield triangle
            return
        for above in rows_above(triangle[-1]):
            triangle.append(above)
            yield from build(triangle)
            triangle.pop()

    bottom = tuple(range(1, n + 1))
    for triangle in build([bottom]):
        rows = list(reversed(triangle))  # top row first
        matrix = []
        previous: set[int] = set()
        for row in rows:
            current = set(row)
            matrix.append(
                tuple(
                    (1 if j in current else 0) - (1 if j in previous else 0)
                    for j in range(1, n + 1)
                )
            )
            previous = current
        yield tuple(matrix)


def vsasm_count_by_filter(n: int) -> int:
    """ASMs of order n equal to their left-right mirror image, by building
    every ASM and keeping the symmetric ones."""
    return sum(
        1
        for matrix in alternating_sign_matrices(n)
        if all(row == row[::-1] for row in matrix)
    )
