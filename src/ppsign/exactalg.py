"""Exact dense linear algebra over big integers and rationals.

Matrices are plain sequences of row sequences; results come back as int
when the input was integral, Fraction otherwise.  Entries, coefficients
and samples must be int or Fraction; anything else (a float, a string)
raises InvalidInputError.  Polynomials keep each coefficient as an int
where it is integral, and interpolation runs in integers over one common
denominator.  Determinants use
fraction-free Bareiss elimination (from dimension 12, once per diagonal
block of the block-triangular form); Pfaffians use its skew analogue,
whose exact divisions rest on Knuth's overlapping-Pfaffian identity, with
an independent perfect-matching cross-check at small sizes.  The
minor-summation left side takes no elimination: it walks the row subsets
once as bitmasks, by Laplace expansion for the minors and the same
perfect-matching expansion for the Pfaffians.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInputError,
    NeedsMoreSamplesError,
    ResourceLimitError,
    require_rational,
)

Rational = int | Fraction
MatrixLike = Sequence[Sequence[Rational]]

# dimension up to which pfaffian() re-derives its result from the
# definition sum over perfect matchings, and the widest minor that
# sum_of_minors, whose Pfaffians are definition sums, takes
_PFAFFIAN_CHECK_DIM = 8

# dimension from which det() eliminates each diagonal block of the
# block-triangular form on its own; below it the search costs more than
# it saves
_BLOCK_SPLIT_DIM = 12


def _as_rows(m: MatrixLike) -> list[list[Rational]]:
    rows = [list(row) for row in m]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("matrix rows have unequal lengths")
    return rows


def dims(m: MatrixLike) -> tuple[int, int]:
    rows = list(m)
    return len(rows), len(rows[0]) if rows else 0


def transpose(m: MatrixLike) -> list[list[Rational]]:
    return [list(col) for col in zip(*_as_rows(m))]


def matmul(a: MatrixLike, b: MatrixLike) -> list[list[Rational]]:
    """The product a·b.  Ragged rows or unequal inner dimensions raise
    DimensionError; a left factor with no rows has no column count to
    check and gives the empty product."""
    a_rows, b_rows = _as_rows(a), _as_rows(b)
    if a_rows and len(a_rows[0]) != len(b_rows):
        raise DimensionError(
            f"cannot multiply {len(a_rows)}x{len(a_rows[0])} by "
            f"{len(b_rows)}x{len(b_rows[0]) if b_rows else 0}"
        )
    cols = list(zip(*b_rows))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a_rows]


def is_skew(m: MatrixLike) -> bool:
    rows = _as_rows(m)
    n = len(rows)
    return all(len(r) == n for r in rows) and _is_skew_square(rows)


def _is_skew_square(rows: list[list[Rational]]) -> bool:
    n = len(rows)
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


def _integer_rows(rows: list[Sequence[Rational]]) -> tuple[list[Sequence[int]], int]:
    """(d * rows, d), with d the lcm of every denominator in rows.

    All-int rows come back as they are, with d = 1, after one pass that
    neither copies nor checks further; anything but an int or a Fraction
    raises InvalidInputError.
    """
    if all(isinstance(x, int) for row in rows for x in row):
        return rows, 1
    for row in rows:
        require_rational(row)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def det(m: MatrixLike) -> Rational:
    """Exact determinant via fraction-free Bareiss elimination.

    Integer input yields an integer; a matrix with a Fraction in it is
    scaled to integers first by one common denominator L (det(L M) =
    L^n det(M)), so every intermediate pivot step stays integral; a step
    that leaves the integers raises InternalConsistencyError.  From
    dimension _BLOCK_SPLIT_DIM on, the zero pattern is used first: the
    determinant is the product of the diagonal blocks of the matrix's
    block-triangular form, each found by Bareiss, times the sign of the
    column permutation that puts nonzeros on the diagonal.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant needs a square matrix")
    rows, scale = _integer_rows(rows)
    value = _integer_det(rows)
    return value if scale == 1 else Fraction(value, scale ** n)


def _integer_det(work: list[list[int]]) -> int:
    """det of a square integer matrix, in place: 1 for the empty matrix,
    Bareiss below dimension _BLOCK_SPLIT_DIM, the block-triangular form
    from it."""
    n = len(work)
    if n == 0:
        return 1
    return _bareiss(work) if n < _BLOCK_SPLIT_DIM else _block_triangular_det(work)


def _bareiss(work: list[list[int]]) -> int:
    """det of a nonempty square integer matrix by fraction-free Bareiss
    elimination, in place."""
    n = len(work)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if pivot is None:
                return 0
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        pkk = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            row_k = work[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * pkk - mik * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise InternalConsistencyError("Bareiss pivot step left the integers")
                row_i[j] = q
            row_i[k] = 0
        prev = pkk
    return sign * work[n - 1][n - 1]


def _block_triangular_det(work: list[list[int]]) -> int:
    """det of a square integer matrix from the diagonal blocks of its
    block-triangular form (Tarjan 1972; Duff and Reid 1978).

    A perfect matching of rows to nonzero columns (augmenting paths) gives
    a column permutation col with a nonzero diagonal; without one, every
    term of the Leibniz sum has a zero factor and det = 0.  The diagonal
    blocks are the strongly connected components of the graph with an
    edge from row i to row k whenever work[i][col[k]] != 0, read off a
    bit-mask transitive closure.  Their order does not change the product.
    """
    n = len(work)
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in work]
    col = _perfect_matching(masks)
    if col is None:
        return 0
    row_of = [0] * n
    for i, j in enumerate(col):
        row_of[j] = i
    # reach[i]: the rows reachable from row i, itself included by col[i]
    reach = [sum(1 << row_of[j] for j, x in enumerate(row) if x) for row in work]
    for k in range(n):
        through_k = 1 << k
        reach_k = reach[k]
        for i in range(n):
            if reach[i] & through_k:
                reach[i] |= reach_k
    blocks = []
    placed = 0
    for i in range(n):
        if not placed >> i & 1:
            block = [k for k in range(n) if reach[i] >> k & 1 and reach[k] >> i & 1]
            placed |= sum(1 << k for k in block)
            blocks.append(block)
    if len(blocks) == 1:
        return _bareiss(work)

    # sgn(col): a cycle of length L is L - 1 transpositions
    sign = 1
    seen = 0
    for start in range(n):
        j = start
        while not seen >> j & 1:
            seen |= 1 << j
            j = col[j]
            if j != start:
                sign = -sign
    value = sign
    for block in blocks:
        value *= _bareiss([[work[i][col[k]] for k in block] for i in block])
    return value


def _perfect_matching(masks: list[int]) -> list[int] | None:
    """A column for each row, distinct, with row i's column a bit of
    masks[i], found by breadth-first augmenting paths; None if there is no
    such matching."""
    n = len(masks)
    col = [-1] * n
    row_of = [-1] * n
    for root in range(n):
        came_from: dict[int, int] = {}
        unseen = (1 << n) - 1
        frontier = [root]
        free = -1
        while frontier and free < 0:
            grown = []
            for i in frontier:
                new = masks[i] & unseen
                unseen ^= new
                while new:
                    low = new & -new
                    j = low.bit_length() - 1
                    new ^= low
                    came_from[j] = i
                    if row_of[j] < 0:
                        free = j
                        break
                    grown.append(row_of[j])
                if free >= 0:
                    break
            frontier = grown
        if free < 0:
            return None
        j = free
        while j >= 0:
            i = came_from[j]
            row_of[j] = i
            col[i], j = j, col[i]
    return col


def _pfaffian_matching_sum(rows: list[list[Rational]]) -> Rational:
    """Definition sum over perfect matchings, by _pfaffian_expansion at the
    full index set."""
    return _pfaffian_expansion(rows, (1 << len(rows)) - 1, {0: 1})


def _pfaffian_expansion(
    a: Sequence[Sequence[Rational]], mask: int, memo: dict[int, Rational]
) -> Rational:
    """Pf of the principal submatrix of the skew matrix a on the indices in
    the bitmask mask, by expansion along its first row:

        Pf(A_K) = sum_t (-1)^t A[k][j_t] Pf(A_{K - {k, j_t}}),

    with k the lowest index of K and j_0 < j_1 < ... the others.  Only the
    entries above the diagonal are read.  memo holds the Pfaffians found so
    far by mask, {0: 1} at the start, and is shared by every call on the
    same matrix; each index set of even size is expanded at most once."""
    value = memo.get(mask)
    if value is None:
        low = mask & -mask
        row = a[low.bit_length() - 1]
        rest = mask ^ low
        value = 0
        negate = False
        bits = rest
        while bits:
            bit = bits & -bits
            bits ^= bit
            entry = row[bit.bit_length() - 1]
            if entry:
                term = entry * _pfaffian_expansion(a, rest ^ bit, memo)
                value = value - term if negate else value + term
            negate = not negate
        memo[mask] = value
    return value


def _skew_eliminate(a: list[list[int]]) -> int:
    """Pf of an integer skew matrix by fraction-free skew elimination, in
    place; only entries above the diagonal are kept up to date."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        if a[k][k + 1] == 0:
            swap = next((j for j in range(k + 2, n) if a[k][j]), None)
            if swap is None:
                return 0
            for i in range(k, n):  # restore the lower triangle, then move
                for j in range(i + 1, n):
                    a[j][i] = -a[i][j]
            a[k + 1], a[swap] = a[swap], a[k + 1]
            for row in a[k:]:
                row[k + 1], row[swap] = row[swap], row[k + 1]
            sign = -sign
        row_k, row_k1 = a[k], a[k + 1]
        pivot = row_k[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            u, w = row_k[i], row_k1[i]
            for j in range(i + 1, n):
                q, r = divmod(pivot * row_i[j] - u * row_k1[j] + row_k[j] * w, prev)
                if r:
                    raise InternalConsistencyError("Pfaffian pivot step left the integers")
                row_i[j] = q
        prev = pivot
    return sign * prev


def pfaffian(m: MatrixLike) -> Rational:
    """Pfaffian of a skew-symmetric matrix of even dimension.

    A matrix with a Fraction in it is first scaled by one common
    denominator L (Pf(L M) = L^(n/2) Pf(M); a row-wise scaling would break
    skewness); an all-int one is eliminated as it is.  Then a
    fraction-free skew elimination pivots on a[k][k+1] for k = 0, 2, 4, ...
    and replaces every a[i][j] past the pivot pair by
    (p a[i][j] - a[k][i] a[k+1][j] + a[k][j] a[k+1][i]) / p_prev, with p the
    pivot and p_prev the one before it.  By Knuth's overlapping-Pfaffian
    identity the new a[i][j] is the Pfaffian of the principal submatrix on
    {0, ..., k+1, i, j}, so every division is exact and the last pivot is
    Pf itself, sign included; a remainder raises InternalConsistencyError.
    A zero pivot is replaced by swapping index k+1 with a later one, which
    negates Pf; when row k has no nonzero entry left, Pf = 0.
    For dimensions up to 8 the result is cross-checked against the direct
    perfect-matching sum of the scaled matrix, taken before the elimination
    overwrites the rows, and a disagreement raises InternalConsistencyError.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("pfaffian needs a square matrix")
    if n % 2 != 0:
        raise DimensionError(f"pfaffian needs even dimension, got {n}")
    rows, scale = _integer_rows(rows)
    if not _is_skew_square(rows):
        raise InvalidInputError("matrix is not skew-symmetric")
    if n == 0:
        return 1

    expected = _pfaffian_matching_sum(rows) if n <= _PFAFFIAN_CHECK_DIM else None
    value = _skew_eliminate(rows)
    if expected is not None and value != expected:
        raise InternalConsistencyError("pfaffian disagrees with definition sum")
    return value if scale == 1 else Fraction(value, scale ** (n // 2))


def sum_of_minors(t: MatrixLike, n: int, a: MatrixLike, budget: int) -> Rational:
    """The left side of the minor-summation formula for T p x n and A
    p x p skew: the sum of Pf(A_K)·det(T_K) over the n-element row subsets
    K.  n must be even and at most _PFAFFIAN_CHECK_DIM, as the Pfaffians
    are definition sums; more than budget subsets raise ResourceLimitError.
    Both are checked before any entry is read.

    T and A are scaled to integers once, by the lcms L_T and L_A of their
    denominators.  The subsets are bitmasks, and no minor is eliminated:
    layer m holds det(T_{S,[0,m)}) for every m-row mask S with a nonzero
    minor, each found from layer m - 1 by Laplace expansion along column
    m - 1.  Pf(A_K) comes from one memoised first-row expansion
    (_pfaffian_expansion) shared by every K.  The work is
    sum_{m<=n} C(p, m) masks, each pushed to at most p - m rows, and as
    many memoised Pfaffians: at most 9·C(p, n) when p >= 16, at most 2^15
    masks below.  The sum over the last layer is divided once by
    L_T^n·L_A^(n/2); all-int T and A give an int, a non-integral entry
    (of T, or of A when n >= 2) a Fraction."""
    rows, a_rows = _as_rows(t), _as_rows(a)
    p = len(rows)
    if n % 2 or n > _PFAFFIAN_CHECK_DIM:
        raise DimensionError(
            f"minor width must be even and at most {_PFAFFIAN_CHECK_DIM}, got {n}"
        )
    if n > p:
        raise DimensionError(f"subset size {n} exceeds row count {p}")
    if rows and len(rows[0]) != n:
        raise DimensionError("minor width must match column count")
    if len(a_rows) != p or any(len(r) != p for r in a_rows):
        raise DimensionError(f"weight matrix must be {p}x{p}")
    count = math.comb(p, n)
    if count > budget:
        raise ResourceLimitError(f"binomial({p},{n}) = {count} exceeds budget {budget}")
    rows, t_scale = _integer_rows(rows)
    a_rows, a_scale = _integer_rows(a_rows)
    if not _is_skew_square(a_rows):
        raise InvalidInputError("weight matrix is not skew-symmetric")

    # Laplace along column m: row i enters mask S with sign (-1) to the
    # number of rows of S below it
    layer: dict[int, int] = {0: 1}
    for m in range(n):
        column = [(1 << i, i, row[m]) for i, row in enumerate(rows) if row[m]]
        grown: dict[int, int] = {}
        for mask, minor in layer.items():
            for bit, i, x in column:
                if not mask & bit:
                    term = x * minor
                    if (mask >> i).bit_count() & 1:
                        term = -term
                    grown[mask | bit] = grown.get(mask | bit, 0) + term
        for mask in [mask for mask, minor in grown.items() if not minor]:
            del grown[mask]
        layer = grown
    memo: dict[int, Rational] = {0: 1}
    total = sum(minor * _pfaffian_expansion(a_rows, mask, memo) for mask, minor in layer.items())
    scale = t_scale**n * a_scale ** (n // 2)
    return total if scale == 1 else Fraction(total, scale)


def _exact_quotient(a: Rational, b: Rational) -> Rational:
    """a / b, an int when both are ints and b divides a, else a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _as_coefficient(c: Rational) -> Rational:
    """c as a Poly stores it: an int where integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    return int(c)


class Poly:
    """Dense univariate polynomial with exact rational coefficients, each
    kept as an int where it is integral and as a Fraction otherwise.

    A Fraction with denominator 1 is stored as its int, so int-built and
    Fraction-built polynomials compare, hash and print alike
    (hash(3) == hash(Fraction(3)), str(Fraction(3)) == "3").  A coefficient
    that is neither an int nor a Fraction raises InvalidInputError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational] = ()):
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            require_rational(cs)
            cs = [_as_coefficient(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rational, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly | Rational") -> "Poly":
        other = other if isinstance(other, Poly) else Poly([other])
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        b = list(other.coeffs) + [0] * (size - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        other = other if isinstance(other, Poly) else Poly([other])
        return self + (-other)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        other = other if isinstance(other, Poly) else Poly([other])
        out: list[Rational] = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs) - 1
        lead = dcs[-1]
        quot: list[Rational] = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            factor = _exact_quotient(rem[i + dn], lead)
            if factor:
                quot[i] = factor
                for j, c in enumerate(dcs):
                    rem[i + j] -= factor * c
        return Poly(quot), Poly(rem)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])


def interpolate(points: Sequence[tuple[Rational, Rational]]) -> Poly:
    """Unique polynomial p of degree < len(points) through points whose
    abscissae are equally spaced, x_i = x0 + i*h.

    With n = len(points) - 1, d the lcm of the denominators of the y_i and
    D_k the k-th forward difference of d*y_0, ..., d*y_n, Newton's forward
    form gives

        M p(x) = sum_k D_k (n!/k!) h^(n-k) (x - x_0)...(x - x_(k-1)),
        M = n! h^n d,

    which one Horner pass expands; every step is an int when x0 and h are.
    Each coefficient is then one Fraction over M.  A repeated abscissa, or
    distinct abscissae that are not equally spaced, raise InvalidInputError.
    """
    if not points:
        raise NeedsMoreSamplesError("need at least one point")
    xs = [x for x, _ in points]
    require_rational(xs)
    (ys,), d = _integer_rows([[y for _, y in points]])
    n = len(points) - 1
    x0 = xs[0]
    h = xs[1] - x0 if n else 1
    if h == 0 or any(x != x0 + i * h for i, x in enumerate(xs)):
        if len(set(xs)) != len(xs):
            raise InvalidInputError("interpolation abscissae must be distinct")
        raise InvalidInputError("interpolation abscissae must be equally spaced")

    diffs = [ys[0]]
    row = ys
    for _ in range(n):
        row = [b - a for a, b in zip(row, row[1:])]
        diffs.append(row[0])
    acc = [diffs[n]]
    scale = 1  # (n!/k!) h^(n-k) for the current k, n! h^n at the end
    for k in range(n - 1, -1, -1):
        scale *= (k + 1) * h
        xk = xs[k]
        acc = [
            diffs[k] * scale - xk * acc[0],
            *(a - xk * b for a, b in zip(acc, acc[1:])),
            acc[-1],
        ]
    m = scale * d
    return Poly([Fraction(a, m) for a in acc])


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g exactly over the rationals."""
    if not f:
        raise InvalidInputError("divisor polynomial must be nonzero")
    _, rem = g.divmod(f)
    return not rem
