"""Exact dense linear algebra over big integers and rationals.

Matrices are plain sequences of row sequences; results come back as int
when the input was integral, Fraction otherwise.  Determinants use
fraction-free Bareiss elimination.  A Pfaffian is the integer square root of
that determinant, signed by one skew elimination modulo a prime, with an
independent perfect-matching cross-check at small sizes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInputError,
    NeedsMoreSamplesError,
    ResourceLimitError,
)

Rational = int | Fraction
MatrixLike = Sequence[Sequence[Rational]]

DEFAULT_SUBSET_BUDGET = 10**6

# dimension up to which pfaffian() re-derives its result from the
# definition sum over perfect matchings
_PFAFFIAN_CHECK_DIM = 8


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
    if any(len(r) != n for r in rows):
        return False
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


def det(m: MatrixLike) -> Rational:
    """Exact determinant via fraction-free Bareiss elimination.

    Integer input yields an integer; rational input is row-scaled to
    integers first so every intermediate pivot step stays integral; a step
    that leaves the integers raises InternalConsistencyError.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant needs a square matrix")
    if n == 0:
        return 1

    scale = 1
    work: list[list[int]] = []
    integral = True
    for row in rows:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                integral = False
                lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        scale *= lcm
        work.append([int(x * lcm) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if pivot is None:
                return 0 if integral else Fraction(0)
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
    value = sign * work[n - 1][n - 1]
    return value if integral else Fraction(value, scale)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _pfaffian_matching_sum(rows: list[list[Rational]]) -> Rational:
    """Definition sum over perfect matchings; O(n!!) but unimpeachable."""

    def rec(indices: tuple[int, ...]) -> Rational:
        if not indices:
            return 1
        first, rest = indices[0], indices[1:]
        total: Rational = 0
        for t, j in enumerate(rest):
            entry = rows[first][j]
            if entry == 0:
                continue
            sub = rest[:t] + rest[t + 1 :]
            term = entry * rec(sub)
            total += term if t % 2 == 0 else -term
        return total

    return rec(tuple(range(len(rows))))


def _sign_primes() -> Iterator[int]:
    """The odd primes in increasing order, by trial division.

    The sequence is infinite and |Pf| has finitely many prime factors, so a
    search for one that does not divide |Pf| always ends.
    """
    q = 3
    while True:
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q
        q += 2


def _pfaffian_mod(rows: list[list[int]], p: int) -> int:
    """Pf mod p by skew elimination over GF(p); row/column pair swaps carry
    the sign.  Returns 0 if the matrix is singular mod p."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    value = 1
    for k in range(0, n, 2):
        pivot = next((j for j in range(k + 1, n) if a[k][j]), None)
        if pivot is None:
            return 0
        if pivot != k + 1:
            a[k + 1], a[pivot] = a[pivot], a[k + 1]
            for row in a:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
            value = -value
        row_k, row_k1 = a[k], a[k + 1]
        value = value * row_k[k + 1] % p
        inv = pow(row_k[k + 1], -1, p)
        tail_k, tail_k1 = row_k[k + 2 :], row_k1[k + 2 :]
        # Schur complement: C[i][j] += (M[k+1][i] M[k][j] - M[k][i] M[k+1][j]) / pivot
        for i in range(k + 2, n):
            u = row_k1[i] * inv
            w = row_k[i] * inv
            row_i = a[i]
            row_i[k + 2 :] = [
                (x + u * y - w * z) % p
                for x, y, z in zip(row_i[k + 2 :], tail_k, tail_k1)
            ]
    return value % p


def pfaffian(m: MatrixLike) -> Rational:
    """Pfaffian of a skew-symmetric matrix of even dimension.

    |Pf| is the integer square root of the Bareiss determinant, after the
    whole matrix is scaled by one common denominator L (Pf(L M) =
    L^(n/2) Pf(M); a row-wise scaling would break skewness).  The sign comes
    from one skew elimination modulo the first prime p of a fixed sequence
    that does not divide |Pf|: then p does not divide det, the elimination
    finds every pivot, and for odd p the residues of Pf and -Pf differ.
    For dimensions up to 8 the result is cross-checked against the direct
    perfect-matching sum, and a disagreement raises InternalConsistencyError.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("pfaffian needs a square matrix")
    if n % 2 != 0:
        raise DimensionError(f"pfaffian needs even dimension, got {n}")
    if not is_skew(rows):
        raise InvalidInputError("matrix is not skew-symmetric")
    if n == 0:
        return 1

    scale = math.lcm(*(x.denominator for row in rows for x in row))
    work = [[int(x * scale) for x in row] for row in rows]
    d = det(work)
    value = 0
    if d:
        root = math.isqrt(max(d, 0))
        if root * root != d:
            raise InternalConsistencyError(
                f"determinant {d} of a skew-symmetric matrix is not a square"
            )
        p = next(q for q in _sign_primes() if root % q)
        residue = _pfaffian_mod(work, p)
        if residue == root % p:
            value = root
        elif residue == -root % p:
            value = -root
        else:
            raise InternalConsistencyError(
                f"Pf mod {p} is {residue}, neither +sqrt(det) nor -sqrt(det)"
            )
    result = value if scale == 1 else Fraction(value, scale ** (n // 2))
    if n <= _PFAFFIAN_CHECK_DIM:
        if result != _pfaffian_matching_sum(rows):
            raise InternalConsistencyError("pfaffian disagrees with definition sum")
    return result


def sum_of_minors(
    t: MatrixLike,
    n: int,
    weight: Callable[[tuple[int, ...]], Rational] | None = None,
    budget: int | None = None,
) -> Rational:
    """Sum of det(T_K) over all row subsets K of size n, optionally
    weighted by weight(K) (e.g. the Pfaffian of a principal submatrix)."""
    rows = _as_rows(t)
    p = len(rows)
    if n > p:
        raise DimensionError(f"subset size {n} exceeds row count {p}")
    if rows and len(rows[0]) != n:
        raise DimensionError("minor width must match column count")
    limit = DEFAULT_SUBSET_BUDGET if budget is None else budget
    count = 1
    for i in range(n):
        count = count * (p - i) // (i + 1)
    if count > limit:
        raise ResourceLimitError(f"binomial({p},{n}) = {count} exceeds budget {limit}")
    total: Rational = 0
    for subset in combinations(range(p), n):
        minor = det([rows[i] for i in subset])
        if weight is not None:
            minor *= weight(subset)
        total += minor
    return total


class Poly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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
        a = list(self.coeffs) + [Fraction(0)] * (size - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (size - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        other = other if isinstance(other, Poly) else Poly([other])
        return self + (-other)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
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
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            factor = rem[i + dn] / lead
            if factor:
                quot[i] = factor
                for j, c in enumerate(dcs):
                    rem[i + j] -= factor * c
        return Poly(quot), Poly(rem)

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute inner(x) for the variable."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])


def interpolate(points: Sequence[tuple[Rational, Rational]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points."""
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


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g exactly over the rationals."""
    if not f:
        raise InvalidInputError("divisor polynomial must be nonzero")
    _, rem = g.divmod(f)
    return not rem
