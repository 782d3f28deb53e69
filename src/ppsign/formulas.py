"""Closed-form evaluators for the product theorems, the odd-side structure
report, and the standalone determinant-identity library."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactalg, paths
from .errors import (
    DomainError,
    InternalConsistencyError,
    NeedsMoreSamplesError,
    UnsupportedClassError,
)
from .exactalg import Poly, Rational
from .qseries import binom, macmahon_box, shifted_factorial


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InternalConsistencyError(f"{what} is not an integer: {value}")
    return int(value)


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
    return _integral(value, "tc product")


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
    return _integral(value, "stc product")


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
    return _integral(value, "tssc product")


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
    return _integral(value, "cssc product")


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


def thm3_structure_check(
    alpha: int, extra_samples: int = 3
) -> list[StructureCase]:
    """Interpolate the odd-side Pfaffian pipeline in b (per parity), divide
    out the forced product, and report divisibility plus quotient degree."""
    if alpha < 1:
        raise DomainError("alpha must be positive")
    cases = []
    for b_parity in (0, 1):
        factor, linear, expected = _forced_factor(alpha, b_parity)
        degree_bound = factor.degree + expected
        count = degree_bound + 1 + extra_samples
        samples = [b_parity + 2 * t for t in range(count)]
        points = [(b, paths.stcpp_odd_enum(alpha, b).value) for b in samples]
        poly = exactalg.interpolate(points)
        if poly.degree >= count - extra_samples:
            raise NeedsMoreSamplesError(
                f"pipeline polynomial degree {poly.degree} not pinned by "
                f"{count} samples"
            )
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


def lemma_detl_check(
    x: Sequence[Rational], a: Sequence[Rational], b: Sequence[Rational]
) -> bool:
    """Factored-entry determinant against its double-product closed form.

    x has n entries; a and b supply the parameters indexed 2..n (so both
    have n-1 entries, and n = 1 means empty products on both sides).
    """
    n = len(x)
    if len(a) != n - 1 or len(b) != n - 1:
        raise DomainError("parameter vectors must have n-1 entries")
    aa = {i: a[i - 2] for i in range(2, n + 1)}
    bb = {i: b[i - 2] for i in range(2, n + 1)}

    def entry(i: int, j: int) -> Fraction:
        value = Fraction(1)
        for m in range(i + 1, n + 1):
            value *= x[j - 1] + aa[m]
        for m in range(2, i + 1):
            value *= x[j - 1] + bb[m]
        return value

    lhs = exactalg.det([[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    rhs = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rhs *= x[i - 1] - x[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            rhs *= bb[i] - aa[j]
    return lhs == rhs


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
    return d, _integral(product, "determinant product form")


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
    mu; the evaluation holds where the two are equal."""
    if n < 1:
        raise DomainError("n must be positive")
    matrix = [
        [_binom_poly(mu + i + j, 2 * i - j) for j in range(n)] for i in range(n)
    ]
    d = exactalg.det(matrix)
    chi = 1 if n % 4 == 3 else 0
    value = Fraction((-1) ** chi * 2 ** math.comb(n - 1, 2))
    for i in range(1, n):
        value *= shifted_factorial(Fraction(mu) + i + 1, (i + 1) // 2)
        value *= shifted_factorial(Fraction(-mu) - 3 * n + i + Fraction(3, 2), i // 2)
        value /= shifted_factorial(i, i)
    return Fraction(d), value


def _binom_poly(top: Rational, k: int) -> Rational:
    """binom(top, k) for rational top via the falling-factorial polynomial;
    an int, from qseries.binom, when top is integral."""
    if top.denominator == 1:
        return binom(int(top), k)
    if k < 0:
        return Fraction(0)
    value = Fraction(1)
    for t in range(k):
        value *= Fraction(top) - t
    return value / math.factorial(k)


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
    s = Fraction(alpha + b, 2)
    rhs = (
        (alpha + b)
        * shifted_factorial(s - i + 1, 2 * i - 1)
        * shifted_factorial(s - j + 1, 2 * j - 1)
        / (math.factorial(2 * i) * math.factorial(2 * j - 2))
    )
    return Fraction(lhs) - rhs


def mtilde_combination_poly(alpha: int, t: int, j: int, extra: int = 4) -> Poly:
    """The row combination used in the half-integer divisibility step,
    interpolated as an exact polynomial in b (sampled at even b)."""
    degree_bound = 2 * (t + 1) + 2 * j - 3
    samples = [2 * s for s in range(degree_bound + 1 + extra)]

    def combo(b: int) -> Fraction:
        value = Fraction(paths.mtilde_entry(alpha, b, t + 1, j))
        for s in range(1, t + 1):
            coeff = Fraction(
                (-1) ** (s - 1) * binom(2 * s - 1, s), (2 * s - 1) * 2 ** (4 * s - 1)
            )
            value += coeff * paths.mtilde_entry(alpha, b, t + 1 - s, j)
        return value

    return exactalg.interpolate([(b, combo(b)) for b in samples])


def mtilde_divisibility_holds(alpha: int, t: int, j: int) -> bool:
    """Whether ((alpha+b)/2 - t + 1/2)_{2t} divides the row combination."""
    _require_nonnegative("alpha", alpha)
    x = Poly.x()
    divisor = Poly([1]) * shifted_factorial(
        (x + alpha) * Fraction(1, 2) - t + Fraction(1, 2), 2 * t
    )
    return exactalg.divides(divisor, mtilde_combination_poly(alpha, t, j))
