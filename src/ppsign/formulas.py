"""Closed-form evaluators for the product theorems, the odd-side structure
report, and the standalone determinant-identity library."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import exactalg, paths
from .errors import DomainError, UnsupportedClassError, require_int, require_rational
from .exactalg import Poly, Rational
from .qseries import binom, integral_value, macmahon_box, shifted_factorial


def thm1_tcpp(a: int, b: int) -> int:
    """Signed count for the a x a x 2b box: 0 when b is odd and a even and
    positive, else a product of shifted-factorial ratios."""
    if b % 2 == 1 and a % 2 == 0 and a > 0:
        return 0
    value = Fraction(1)
    for j in range(1, -(-a // 2)):
        value *= Fraction(
            (b // 2 + j) * shifted_factorial(a - j, b),
            shifted_factorial(j, b + 1),
        )
    return integral_value(value, "tc product")


def thm2_stcpp(alpha: int, b: int) -> int:
    """Signed count for the 2a x 2a x 2b box, a = alpha: 0 when b is odd and
    alpha > 0, else one product whose factors have length alpha - 1 for even
    alpha and alpha for odd alpha."""
    if b % 2 == 1 and alpha > 0:
        return 0
    length = alpha - 1 + alpha % 2
    value = Fraction(1)
    for k in range(1, alpha // 2 + 1):
        value *= Fraction(
            shifted_factorial(b + 2 * k, length), shifted_factorial(2 * k, length)
        )
    return integral_value(value, "stc product")


def thm4_cstcpp(alpha: int) -> int:
    """The square of the TSSC product: under the (-1)-weight the CSTC count
    is the TSSC count squared (Kuperberg, math.CO/9810091)."""
    return thm5_tsscpp(alpha) ** 2


def thm5_tsscpp(alpha: int) -> int:
    if alpha == 0:
        return 1  # the empty box
    if alpha % 2 == 0:
        return 0
    value = Fraction(1)
    for k in range(1, (alpha - 1) // 2 + 1):
        value *= Fraction(math.factorial(6 * k - 2), math.factorial(2 * k + alpha - 1))
    return integral_value(value, "tssc product")


def thm6_scpp(a: int, b: int, c: int) -> int:
    if a % 2 or b % 2 or c % 2:
        raise UnsupportedClassError(
            "even sides only; odd-side boxes go through conj_scpp_odd"
        )
    return macmahon_box(a // 2, b // 2, c // 2)


def thm7_csscpp(alpha: int) -> int:
    """Absolute value of the signed count; its sign is conjectured +1."""
    value = Fraction(1)
    for k in range(alpha):
        value *= Fraction(math.factorial(3 * k + 1), math.factorial(alpha + k))
    return integral_value(value, "cssc product")


# (a mod 4, b mod 4, c mod 4) -> the shifts (da, db, dc) of the three factors
# B((a+da)/4, (b+db)/4, (c+dc)/4), B = macmahon_box, raised to 2, 1 and 1
_SCPP_ODD_SHIFTS = {
    (0, 3, 3): ((0, 1, 1), (0, -3, 1), (0, 1, -3)),
    (0, 1, 1): ((0, -1, -1), (0, 3, -1), (0, -1, 3)),
    (2, 3, 3): ((-2, 1, 1), (2, -3, 1), (2, 1, -3)),
    (2, 1, 1): ((2, -1, -1), (-2, 3, -1), (-2, -1, 3)),
    (0, 1, 3): ((0, -1, 1), (0, -1, 1), (0, 3, -3)),
    (0, 3, 1): ((0, 1, -1), (0, 1, -1), (0, -3, 3)),
}


def conj_scpp_odd(a: int, b: int, c: int) -> int:
    """Absolute value conjectured for a even, b and c odd, by residue case."""
    if a % 2 or b % 2 == 0 or c % 2 == 0:
        raise UnsupportedClassError("conjecture covers a even with b, c odd")
    if a == 0:
        return 1
    residues = (a % 4, b % 4, c % 4)
    if residues[0] == 2 and residues[1] != residues[2]:
        return 0
    shifts = _SCPP_ODD_SHIFTS.get(residues)
    if shifts is None:
        raise UnsupportedClassError(f"no conjecture case for residues {residues}")
    return math.prod(
        macmahon_box((a + da) // 4, (b + db) // 4, (c + dc) // 4) ** e
        for (da, db, dc), e in zip(shifts, (2, 1, 1))
    )


# ---------------------------------------------------------------------------
# structure report for the odd-side symmetric transpose-complementary boxes


@dataclass(frozen=True)
class StructureCase:
    alpha: int
    b_parity: int
    pipeline_poly: Poly
    forced_factor: Poly
    linear_factor: Poly | None
    divisible: bool
    quotient: Poly | None
    quotient_degree: int | None
    expected_degree: int
    linear_divides: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.divisible
            and self.quotient_degree == self.expected_degree
            and self.linear_divides is not False
        )


def _forced_factor(alpha: int, b_parity: int) -> tuple[Poly, Poly | None, int]:
    """Forced shifted-factorial product (as a polynomial in b), the extra
    linear factor the even-side cases carry, and the stated quotient degree.

    Both parities share the product, in the half-integer (b - b_parity)/2.
    The quotient over the product has degree (alpha/2)^2 for even alpha
    (the linear factor accounts for one of those degrees) and
    (alpha^2-1)/4 for odd alpha.
    """
    x = Poly.x()
    half = (x - b_parity) * Fraction(1, 2)
    factor = Poly([1])
    if alpha % 2 == 0:
        expected = (alpha // 2) ** 2
        linear = x - 1 if b_parity else x + (2 * alpha + 2)
        for k in range(1, alpha // 2 + 1):
            factor = factor * shifted_factorial(half + k, alpha // 2 + 1)
    else:
        expected = (alpha * alpha - 1) // 4
        linear = None
        for i in range(1, (alpha + 1) // 2 + 1):
            factor = factor * shifted_factorial(half + (alpha + 3) // 2 - i, 2 * i - 1)
    return factor, linear, expected


def thm3_structure_check(alpha: int) -> list[StructureCase]:
    """Interpolate the odd-side Pfaffian pipeline in b (per parity), divide
    out the forced product, and report divisibility plus quotient degree.

    Per parity of b the pipeline has degree at most D = alpha(alpha + 1)/2:
    pool row i has entries of degree j - 1 in i (per parity of i), so the
    double sum makes entry (j, k) of degree at most j + k in b and the
    dummy column of degree at most j, and a Pfaffian term, a perfect
    matching, has degree at most 1 + ... + alpha.  So D + 1 samples per
    parity, from one sweep of the pipeline, prove divisibility and quotient
    degree for every b of the parity."""
    if alpha < 1:
        raise DomainError("alpha must be positive")
    count = alpha * (alpha + 1) // 2 + 1
    values = paths.stc_pfaffians(1, alpha, 0, 2 * count - 1)
    cases = []
    for b_parity in (0, 1):
        factor, linear, expected = _forced_factor(alpha, b_parity)
        points = [(b, values[b]) for b in range(b_parity, b_parity + 2 * count, 2)]
        poly = exactalg.interpolate(points)
        quotient, rem = poly.divmod(factor)
        divisible = not rem
        linear_divides = None
        if divisible and linear is not None:
            linear_divides = exactalg.divides(linear, quotient)
        cases.append(
            StructureCase(
                alpha=alpha,
                b_parity=b_parity,
                pipeline_poly=poly,
                forced_factor=factor,
                linear_factor=linear,
                divisible=divisible,
                quotient=quotient if divisible else None,
                quotient_degree=quotient.degree if divisible else None,
                expected_degree=expected,
                linear_divides=linear_divides,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# determinant identity library


def _detl_sides(
    x: Sequence[Rational], a: Sequence[Rational], b: Sequence[Rational]
) -> tuple[list[list[Fraction]], Fraction]:
    """The factored-entry matrix of lemma_detl_check and its double product,
    each entry and the product built as one Fraction from integer pairs.

    Entry (i, j), 0-based, is the product of x_j + v over the parameters
    a_(i+2), ..., a_n, b_2, ..., b_(i+1), n - 1 of them in every row; with
    x_j = p/q and v = s/t each factor is (p t + s q)/(q t)."""
    n = len(x)
    xs = [(v.numerator, v.denominator) for v in x]
    aa = [(v.numerator, v.denominator) for v in a]
    bb = [(v.numerator, v.denominator) for v in b]

    def entry(i: int, p: int, q: int) -> Fraction:
        params = aa[i:] + bb[:i]
        return Fraction(
            math.prod(p * t + s * q for s, t in params),
            q ** (n - 1) * math.prod(t for _, t in params),
        )

    matrix = [[entry(i, p, q) for p, q in xs] for i in range(n)]
    # (x_i - x_j) for i < j, then (b_i - a_j) for 2 <= i <= j <= n
    pairs = [*combinations(xs, 2)]
    pairs += [(bb[i], aa[j]) for i in range(n - 1) for j in range(i, n - 1)]
    product = Fraction(
        math.prod(p * t - s * q for (p, q), (s, t) in pairs),
        math.prod(q * t for (_, q), (_, t) in pairs),
    )
    return matrix, product


def lemma_detl_check(
    x: Sequence[Rational], a: Sequence[Rational], b: Sequence[Rational]
) -> bool:
    """Factored-entry determinant against its double-product closed form.

    x has n entries; a and b supply the parameters indexed 2..n (so both
    have n-1 entries, and n = 1 means empty products on both sides).  A
    value that is not an int or a Fraction raises InvalidInputError.
    """
    n = len(x)
    if len(a) != n - 1 or len(b) != n - 1:
        raise DomainError("parameter vectors must have n-1 entries")
    require_rational((*x, *a, *b))
    matrix, product = _detl_sides(x, a, b)
    return exactalg.det(matrix) == product


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")


def lemma_2ji(alpha: int, beta: int, gamma: int) -> tuple[int, int]:
    """The pair (det binom(beta+j, 2j-i-gamma), its product form); the
    lemma holds where the two are equal."""
    _require_nonnegative("alpha", alpha)
    if gamma not in (0, 1):
        raise DomainError("gamma must be 0 or 1")
    matrix = [
        [binom(beta + j, 2 * j - i - gamma) for j in range(1, alpha + 1)]
        for i in range(1, alpha + 1)
    ]
    d = exactalg.det(matrix)
    product = Fraction(1)
    for j in range(1, alpha + 1):
        if beta + j < 0 or 2 * j - 1 - gamma < 0 or beta + gamma + j - 1 < 0:
            raise DomainError("factorial argument went negative")
        product *= Fraction(
            math.factorial(beta + j)
            * math.factorial(j - 1)
            * shifted_factorial(2 * beta + gamma + j + 1, j - 1),
            math.factorial(2 * j - 1 - gamma) * math.factorial(beta + gamma + j - 1),
        )
    return d, integral_value(product, "determinant product form")


def lemma_M1(alpha: int, b: int) -> int:
    """Closed form for det of the even-side pool matrix, alpha even: the
    square of the STC product."""
    _require_nonnegative("alpha", alpha)
    _require_nonnegative("b", b)
    if alpha % 2:
        raise UnsupportedClassError("even alpha only; odd alpha uses a dummy path")
    return thm2_stcpp(alpha, b) ** 2


def mrr_det(mu: Rational, n: int) -> tuple[Fraction, Fraction]:
    """The pair (det binom(mu+i+j, 2i-j), its closed form) for any rational
    mu; the evaluation holds where the two are equal.  A mu that is not an
    int or a Fraction, or an n that is not an int, raises InvalidInputError."""
    require_rational((mu,))
    require_int((n,), "the order of the mrr determinant")
    if n < 1:
        raise DomainError("n must be positive")
    matrix = [[binom(mu + i + j, 2 * i - j) for j in range(n)] for i in range(n)]
    d = exactalg.det(matrix)
    chi = 1 if n % 4 == 3 else 0
    value = Fraction((-1) ** chi * 2 ** math.comb(n - 1, 2))
    for i in range(1, n):
        value *= shifted_factorial(Fraction(mu) + i + 1, (i + 1) // 2)
        value *= shifted_factorial(Fraction(-mu) - 3 * n + i + Fraction(3, 2), i // 2)
        value /= shifted_factorial(i, i)
    return Fraction(d), value


# ---------------------------------------------------------------------------
# the reduced-matrix recurrence and divisibility facts


def mtilde_recurrence_residual(alpha: int, b: int, i: int, j: int) -> Fraction:
    """Difference between the two sides of the first-order recurrence
    satisfied by the reduced-matrix entries (zero when it holds)."""
    _require_nonnegative("alpha", alpha)
    m = paths.mtilde_entry
    lhs = (j + i - 1) * m(alpha, b, i, j) + 2 * (2 * j + 2 * i - 1) * m(
        alpha, b, i + 1, j
    )
    s = (alpha + b) // 2  # mtilde_entry has checked that alpha + b is even
    rhs = Fraction(
        (alpha + b)
        * shifted_factorial(s - i + 1, 2 * i - 1)
        * shifted_factorial(s - j + 1, 2 * j - 1),
        math.factorial(2 * i) * math.factorial(2 * j - 2),
    )
    return lhs - rhs


def mtilde_combination_poly(alpha: int, t: int, j: int) -> Poly:
    """The row combination used in the half-integer divisibility step,
    interpolated as an exact polynomial in b (sampled at even b).

    Row t + 1 - s enters with weight (-1)^(s-1) binom(2s-1, s) over
    (2s-1) 2^(4s-1); each sample is one integer numerator over the lcm L
    of those denominators.  Row i sums a polynomial of degree 2i + 2j - 4
    in k up to k = (alpha + b)/2, so it has degree 2i + 2j - 3 in b, and
    degree_bound + 1 samples, for the top row i = t + 1, give the
    combination exactly."""
    degree_bound = 2 * (t + 1) + 2 * j - 3
    samples = range(0, 2 * (degree_bound + 1), 2)
    dens = [(2 * s - 1) * 2 ** (4 * s - 1) for s in range(1, t + 1)]
    lcm = math.lcm(*dens)
    weights = [lcm] + [
        (-1) ** (s - 1) * binom(2 * s - 1, s) * (lcm // den)
        for s, den in enumerate(dens, 1)
    ]
    # one running single sum per row t + 1 - s, stepped from sample to sample
    rows = [paths.mtilde_entries(alpha, 0, t + 1 - s, j) for s in range(t + 1)]
    return exactalg.interpolate([
        (b, Fraction(sum(w * next(row) for w, row in zip(weights, rows)), lcm))
        for b in samples
    ])


def mtilde_divisibility_holds(alpha: int, t: int, j: int) -> bool:
    """Whether ((alpha+b)/2 - t + 1/2)_{2t} divides the row combination.

    That rising factorial is 2^(-2t) times the integer product of the
    b + alpha - 2t + 1 + 2m, m < 2t, and a constant factor does not change
    divisibility, so the product is the divisor."""
    _require_nonnegative("alpha", alpha)
    divisor = Poly([1])
    for m in range(2 * t):
        divisor = divisor * Poly([alpha - 2 * t + 1 + 2 * m, 1])
    return exactalg.divides(divisor, mtilde_combination_poly(alpha, t, j))
