"""Per-class lattice-path constructions and their determinant / Pfaffian
evaluation pipelines.

Each symmetry class gets one matrix built from signed path counts between
integer lattice points (south/east steps, weight -1 per unit of area under
a horizontal step).  Nonintersecting-family counts then come out of a
determinant, or of a Pfaffian via the minor-summation formula when the
starting points range over a pool.  Pool matrices are computed here from
the double sums over the pool, by running sums.  The STC pool matrices come
from one builder for every b: the double sum at the first b, and a rank-2
update for each pool row that b + 1 adds, so a sweep over b builds the
pool once.  The closed forms the derivations give for their entries, the
reduced matrices, the STC pool built anew for one b and the literal double
sum are test references in tests/oracles.py, checked against these routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from . import exactalg
from .core import HALF_FULL_REFERENCE, MAJORITY_REFERENCE, SignedCount
from .errors import DimensionError, InternalConsistencyError, UnsupportedClassError
from .qseries import qbinom_minus1


@dataclass(frozen=True)
class ClassMatrix:
    """A pipeline matrix with the global sign its value must be scaled by."""

    rows: tuple[tuple[int | Fraction, ...], ...]
    global_sign: int


def _skew_double_sum(g: Sequence[Sequence[int]]) -> list[list[int]]:
    """M[i][j] = sum_{l,r} G[l][i] G[r][j] sgn(r - l), by running sums.

    One pass of running column sums gives S[l][j] = sum_{r>l} G[r][j] -
    sum_{r<l} G[r][j], and M = G^T S, which is exactly skew since sgn is
    odd.  The literal double sum is the test reference.
    """
    total = [sum(col) for col in zip(*g)]
    below = [0] * len(total)
    s = []
    for row in g:
        s.append([t - 2 * u - x for t, u, x in zip(total, below, row)])
        below = [u + x for u, x in zip(below, row)]
    return exactalg.matmul(exactalg.transpose(g), s)


def _stc_pool_row(offset: int, alpha: int, i: int) -> list[int]:
    """Row i of the start pool of the STC box of side 2*alpha + offset, with
    the dummy path's 0 appended for odd alpha."""
    row = [
        (-1) ** (i % 2) * qbinom_minus1(i + j - 2 + offset, 2 * j - 2 + offset)
        for j in range(1, alpha + 1)
    ]
    if alpha % 2 == 1:
        row.append(0)
    return row


def _stc_skew_matrices(
    offset: int, alpha: int, b: int = 0
) -> Iterator[list[list[int]]]:
    """The skew matrix of the STC pool for b, b + 1, b + 2, ..., each a new
    list.

    The first is the double sum over the pool's alpha + b rows, with the
    dummy start d = e_alpha appended last for odd alpha.  Pool row g enters
    before d, after rows whose column sums are c, and changes the double
    sum by (c - d) g^T - g (c - d)^T.  So s starts as the column sums less
    d, and each step takes M += s g^T - g s^T, then s += g.
    """
    g = [_stc_pool_row(offset, alpha, i) for i in range(1, alpha + b + 1)]
    s = [sum(col) for col in zip(*g)]
    if alpha % 2 == 1:
        g.append([0] * alpha + [1])
        s[alpha] -= 1
    m = _skew_double_sum(g)
    for i in itertools.count(alpha + b + 1):
        yield m
        row = _stc_pool_row(offset, alpha, i)
        m = [
            [x + si * gj - gi * sj for x, sj, gj in zip(mrow, s, row)]
            for mrow, si, gi in zip(m, s, row)
        ]
        s = [u + x for u, x in zip(s, row)]


@lru_cache(maxsize=256)
def _anchor_pfaffian(offset: int, alpha: int) -> int:
    """Pf of the pool's b = 0 matrix: the box is empty there, so it is +-1."""
    anchor = exactalg.pfaffian(next(_stc_skew_matrices(offset, alpha)))
    if anchor not in (1, -1):
        raise InternalConsistencyError(
            f"pipeline anchor at b=0 should be +-1, got {anchor}"
        )
    return anchor


def stc_pfaffians(offset: int, alpha: int, b_first: int, b_last: int) -> list[int]:
    """The anchored STC Pfaffians for b = b_first..b_last, from one sweep of
    the pool matrices; offset 0 is the side 2*alpha, offset 1 the side
    2*alpha + 1.  The box at b = 0 is empty, so its value is 1 and costs no
    Pfaffian; a negative b raises DimensionError."""
    if b_first < 0:
        raise DimensionError(f"b must be nonnegative, got {b_first}")
    anchor = _anchor_pfaffian(offset, alpha)
    start = max(b_first, 1)
    matrices = itertools.islice(_stc_skew_matrices(offset, alpha, start), b_last - start + 1)
    return [1] * (start - b_first) + [anchor * exactalg.pfaffian(m) for m in matrices]


# ---------------------------------------------------------------------------
# transpose-complementary: an a x a determinant


def tcpp_matrix(a: int, b: int) -> ClassMatrix:
    """Path matrix for the tilings with one horizontal symmetry axis."""
    rows = tuple(
        tuple(
            (-1) ** ((i - 1) * (j - 1) % 2) * qbinom_minus1(b + j - 1, 2 * j - i - 1)
            for j in range(1, a + 1)
        )
        for i in range(1, a + 1)
    )
    return ClassMatrix(rows, (-1) ** (a * (a - 1) // 2 % 2))


def tcpp_enum(a: int, b: int) -> SignedCount:
    cm = tcpp_matrix(a, b)
    value = cm.global_sign * exactalg.det(cm.rows)
    return SignedCount(value, HALF_FULL_REFERENCE)


# ---------------------------------------------------------------------------
# symmetric transpose-complementary, a = 2*alpha


def stcpp_matrix(alpha: int, b: int) -> ClassMatrix:
    return ClassMatrix(tuple(tuple(r) for r in next(_stc_skew_matrices(0, alpha, b))), 1)


def stcpp_enum(alpha: int, b: int) -> SignedCount:
    """(-1)-enumeration for the 2a x 2a x 2b box via a Pfaffian.

    The overall sign is anchored by continuity at b = 0, where the box is
    empty and the enumeration is 1.
    """
    (value,) = stc_pfaffians(0, alpha, b, b)
    return SignedCount(value, HALF_FULL_REFERENCE)


def mtilde_entries(alpha: int, b: int, i: int, j: int) -> Iterator[int]:
    """Single-sum form of the even/odd-index block entries for b, b + 2,
    b + 4, ..., valid for alpha + b even.  The terms with k < max(i, j)
    are 0, and an index below 1 makes every term 0.  The entry at b + 2 is
    the entry at b plus its term at k = (alpha + b)/2 + 1."""
    if (alpha + b) % 2:
        raise DimensionError("single-sum entries need alpha + b even")

    def term(k: int) -> int:
        if min(i, j) < 1 or k < max(i, j):
            return 0
        return math.comb(k + j - 2, 2 * j - 2) * math.comb(k + i - 2, 2 * i - 2)

    top = (alpha + b) // 2
    value = sum(map(term, range(max(i, j), top + 1)))
    while True:
        yield value
        top += 1
        value += term(top)


def mtilde_entry(alpha: int, b: int, i: int, j: int) -> int:
    """The single-sum entry at one b (see mtilde_entries)."""
    return next(mtilde_entries(alpha, b, i, j))


# ---------------------------------------------------------------------------
# symmetric transpose-complementary, a = 2*alpha + 1


def stcpp_odd_enum(alpha: int, b: int) -> SignedCount:
    """(-1)-enumeration for the (2a+1) x (2a+1) x 2b box; no closed form,
    but the Pfaffian is exact.  Sign anchored at b = 0 as usual."""
    (value,) = stc_pfaffians(1, alpha, b, b)
    return SignedCount(value, HALF_FULL_REFERENCE)


# ---------------------------------------------------------------------------
# cyclically symmetric transpose-complementary


def cstcpp_matrix(alpha: int) -> ClassMatrix:
    """Full (alpha-1)-dimensional path matrix with its area-shift sign."""
    n = alpha - 1
    rows = tuple(
        tuple(
            (-1) ** (j * (2 * j - i) % 2) * qbinom_minus1(i + j, 2 * j - i)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    shift = sum(k * k for k in range(1, alpha)) % 2
    return ClassMatrix(rows, (-1) ** shift)


def cstcpp_full_det(alpha: int) -> int:
    cm = cstcpp_matrix(alpha)
    return cm.global_sign * exactalg.det(cm.rows)


def cstcpp_enum(alpha: int) -> SignedCount:
    """The signed determinant of the full path matrix."""
    return SignedCount(cstcpp_full_det(alpha), MAJORITY_REFERENCE)


# ---------------------------------------------------------------------------
# totally symmetric self-complementary


def tsscpp_pool(alpha: int) -> list[list[int]]:
    """Start-pool matrix for the twelfth-of-hexagon path systems; index
    origin depends on the parity of alpha (a dummy path for even alpha)."""
    if alpha % 2 == 1:
        i_range = range(1, 2 * alpha - 1)
        j_range = range(1, alpha)
    else:
        i_range = range(0, 2 * alpha - 1)
        j_range = range(0, alpha)
    return [
        [
            qbinom_minus1(j, i - j)
            * (-1) ** ((j * (2 * j - i) + i * (i + 1) // 2) % 2)
            for j in j_range
        ]
        for i in i_range
    ]


def tsscpp_pfaffian_value(alpha: int) -> int:
    """The minor-summation Pfaffian of the start-pool matrix."""
    m = _skew_double_sum(tsscpp_pool(alpha))
    sign = (-1) ** (alpha // 2 % 2)
    return sign * exactalg.pfaffian(m)


def tsscpp_enum(alpha: int) -> SignedCount:
    """The start-pool Pfaffian.

    The sign is relative to the majority reference partition, the
    conventional choice of weight-1 member.
    """
    return SignedCount(tsscpp_pfaffian_value(alpha), f"{MAJORITY_REFERENCE} (sign conventional)")


# ---------------------------------------------------------------------------
# self-complementary, even sides


def scpp_matrix(a: int, b: int, c: int) -> ClassMatrix:
    """The column-reordered path matrix S* whose Pfaffian does the counting."""
    if a % 2 or b % 2 or c % 2:
        raise UnsupportedClassError(
            "the Pfaffian pipeline covers even boxes; odd sides are handled "
            "by the conjecture evaluator"
        )
    if b > c:
        b, c = c, b
    x = (c - b) // 2
    n = (a + b) // 2

    def s_entry(i: int, j: int) -> int:
        value = (-1) ** ((x + j - i) * (j - 1) % 2) * qbinom_minus1(b + x, x + j - i)
        return value * (-1) ** (j % 2) if j <= n else value

    order = list(range(1, n + 1)) + list(range(2 * n, n, -1))
    rows = tuple(tuple(s_entry(i, j) for j in order) for i in range(1, a + 1))
    sign = (-1) ** ((a * (a + 2) // 8 + x * a // 2) % 2)
    return ClassMatrix(rows, sign)


def scpp_enum(a: int, b: int, c: int) -> SignedCount:
    if a == 0 or b == 0 or c == 0:
        return SignedCount(1, HALF_FULL_REFERENCE)
    cm = scpp_matrix(a, b, c)
    # S*·J·S*^T with J = [[0, I], [-I, 0]] is L·R^T - R·L^T = P - P^T for
    # the column halves L and R of S*
    n = len(cm.rows[0]) // 2
    left, right = [r[:n] for r in cm.rows], [r[n:] for r in cm.rows]
    p = exactalg.matmul(left, exactalg.transpose(right))
    m = [[x - y for x, y in zip(row, col)] for row, col in zip(p, zip(*p))]
    value = cm.global_sign * exactalg.pfaffian(m)
    return SignedCount(value, HALF_FULL_REFERENCE)


# ---------------------------------------------------------------------------
# minor summation


def minor_summation(
    t: Sequence[Sequence[int | Fraction]],
    a: Sequence[Sequence[int | Fraction]],
    subset_budget: int,
) -> tuple[int | Fraction, int | Fraction]:
    """Both sides of the minor-summation formula, for T p x n (n even,
    n <= p) and A skew: sum over n-subsets K of Pf(A_K)·det(T_K), and
    Pf(tT A T).  More than subset_budget subsets raise ResourceLimitError."""
    rows, n = exactalg.dims(t)
    if n % 2:
        raise DimensionError("minor summation needs an even number of columns")
    if n > rows:
        raise DimensionError("need at least as many rows as columns")
    if not exactalg.is_skew(a):
        raise DimensionError("weight matrix must be skew-symmetric")

    a_rows = [list(r) for r in a]

    def pf_weight(subset: tuple[int, ...]) -> int | Fraction:
        sub = [[a_rows[i][j] for j in subset] for i in subset]
        return exactalg.pfaffian(sub)

    lhs = exactalg.sum_of_minors(t, n, pf_weight, subset_budget)
    rhs = exactalg.pfaffian(
        exactalg.matmul(exactalg.matmul(exactalg.transpose(t), a_rows), t)
    )
    return lhs, rhs
