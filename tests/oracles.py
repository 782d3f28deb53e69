"""Independent reference implementations used only by the tests.

Everything here recomputes quantities from first principles (literal cell
sets, explicit path enumeration, permutation expansions) so the package
code is checked against a second route, not against itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from ppsign.core import BoxDims, PlanePartition, SymmetryClass

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
    return frozenset(pp.cells())


def cellset_satisfies(
    pp: PlanePartition, cls: SymmetryClass, cells: frozenset[Cell] | None = None
) -> bool:
    """Class membership straight from the cell-set definitions; cells, when
    given, must be cells_of(pp)."""
    box = pp.box
    a, b, c = box.a, box.b, box.c
    if cells is None:
        cells = cells_of(pp)

    def sym(f):
        return all(f(x) in cells for x in cells)

    def anti(f):
        return all((f((i, j, k)) not in cells) == ((i, j, k) in cells)
                   for i in range(1, a + 1)
                   for j in range(1, b + 1)
                   for k in range(1, c + 1))

    ok = True
    if cls in (SymmetryClass.SYMMETRIC, SymmetryClass.TOTALLY_SYMMETRIC,
               SymmetryClass.STC, SymmetryClass.TSSC):
        ok = ok and sym(lambda x: (x[1], x[0], x[2]))
    if cls in (SymmetryClass.CYCLIC, SymmetryClass.TOTALLY_SYMMETRIC,
               SymmetryClass.CSTC, SymmetryClass.CSSC, SymmetryClass.TSSC):
        ok = ok and sym(lambda x: (x[1], x[2], x[0]))
    if cls in (SymmetryClass.SC, SymmetryClass.CSSC, SymmetryClass.TSSC):
        ok = ok and anti(lambda x: (a + 1 - x[0], b + 1 - x[1], c + 1 - x[2]))
    if cls in (SymmetryClass.TC, SymmetryClass.STC, SymmetryClass.CSTC):
        ok = ok and anti(lambda x: (a + 1 - x[1], a + 1 - x[0], c + 1 - x[2]))
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
