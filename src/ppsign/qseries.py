"""Shifted factorials, binomials, q-binomials at q = -1, the box product
formula, and terminating hypergeometric sums.

Everything here is exact: integers stay integers, everything else is a
`fractions.Fraction`.  A rational product or sum is carried as an integer
numerator and denominator, p/q as the pair (p, q), and becomes one
Fraction, with one gcd, per returned value.  No floating point: a
parameter that is not an int or a Fraction (a float, a string), or an
order, a lower index or a box side that is not an int, raises
InvalidInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    SingularParameterError,
    require_int,
    require_rational,
)
from .exactalg import Poly, Rational


def integral_value(value: Rational, what: str) -> int:
    """value as an int; a value off the integers raises
    InternalConsistencyError naming what it is."""
    if value.denominator != 1:
        raise InternalConsistencyError(f"{what} is not an integer: {value}")
    return int(value)


def shifted_factorial(a: Rational | Poly, n: int) -> Rational | Poly:
    """Rising factorial a(a+1)...(a+n-1); the int 1 for n = 0.

    An int base gives an int and a Fraction base p/q the one Fraction
    p(p+q)...(p+(n-1)q) / q^n.  The base may also be a Poly, giving the
    product as a polynomial."""
    poly = isinstance(a, Poly)
    if type(a) is not int and not poly:
        require_rational((a,))
    if type(n) is not int:
        require_int((n,), "the order of a shifted factorial")
    if n < 0:
        raise InvalidInputError(f"shifted factorial needs n >= 0, got {n}")
    if poly:
        result: Poly | int = 1
        for t in range(n):
            result *= a + t
        return result
    p, q = a.numerator, a.denominator
    num = math.prod(range(p, p + n * q, q))
    if isinstance(a, int) or n == 0:
        return num
    return Fraction(num, q**n)


def binom(n: Rational, k: int) -> Rational:
    """Binomial coefficient n(n-1)...(n-k+1)/k! for any rational n; 0 for
    k < 0.

    An integral n (an int, or a Fraction with denominator 1) gives an int,
    which is 0 for 0 <= n < k.  Every n = p/q but a nonnegative integral
    one goes through the one quotient p(p-q)...(p-(k-1)q) / (q^k k!),
    checked by integral_value to be an int when q = 1.
    """
    if type(n) is not int:
        require_rational((n,))
    if type(k) is not int:
        require_int((k,), "the lower index of a binomial")
    p, q = n.numerator, n.denominator
    if k < 0:
        return 0 if q == 1 else Fraction(0)
    if q == 1 and p >= 0:
        return math.comb(p, k)
    value = Fraction(math.prod(range(p, p - k * q, -q)), q**k * math.factorial(k))
    return value if q != 1 else integral_value(value, f"binom({p}, {k})")


def qbinom_minus1(n: int, k: int) -> int:
    """Gaussian binomial [n k]_q evaluated at q = -1.

    Vanishes for even n and odd k, otherwise reduces to an ordinary
    binomial of the halved arguments.  The parity test comes first on
    every call, and & takes only integers, so a float or a Fraction raises
    InvalidInputError there with no separate type test on the hot path.
    """
    try:
        if n < 0:
            raise InvalidInputError(f"qbinom_minus1 needs n >= 0, got {n}")
        if k & 1 > n & 1 or k < 0 or k > n:
            return 0
    except TypeError:
        require_int((n, k), "each argument of qbinom_minus1")
        raise
    return math.comb(n >> 1, k >> 1)


def macmahon_box(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box (product formula)."""
    require_int((a, b, c), "each box side")
    if min(a, b, c) < 0:
        raise InvalidInputError(f"box sides must be nonnegative, got {a}, {b}, {c}")
    value = Fraction(1)
    for i in range(1, a + 1):
        value *= Fraction(shifted_factorial(c + i, b), shifted_factorial(i, b))
    return integral_value(value, f"box product for {a}x{b}x{c}")


@dataclass(frozen=True)
class HyperParams:
    """Parameters of a terminating hypergeometric series rFs(upper; lower; 1),
    the argument fixed at 1 as in the Pfaff-Saalschuetz sum.

    Every parameter must be an int or a Fraction, and at least one upper
    parameter a nonpositive integer so the sum terminates.
    """

    upper: tuple[Rational, ...]
    lower: tuple[Rational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        require_rational(self.upper + self.lower)
        if not any(_is_nonpositive_int(a) for a in self.upper):
            raise InvalidInputError(
                "series does not terminate: no nonpositive-integer upper parameter"
            )

    @property
    def terminal_index(self) -> int:
        """Largest k with a nonzero term: min(-a) over terminating uppers."""
        return min(-int(a) for a in self.upper if _is_nonpositive_int(a))


def _is_nonpositive_int(x: Rational) -> bool:
    return x.denominator == 1 and x <= 0


def hyper_terminating(p: HyperParams) -> Fraction:
    """Exact sum of the terminating series rFs(upper; lower; 1), as one
    Fraction; a lower factor b + k that reaches 0 raises
    SingularParameterError.

    With every parameter a pair (p, q), term k + 1 is term k times
    prod(p_a + k q_a) prod(q_b) over prod(q_a) prod(p_b + k q_b) (k + 1).
    Each step's denominator multiplies the one before, so the running total
    stays an integer over the current term's denominator."""
    uppers = [(a.numerator, a.denominator) for a in p.upper]
    lowers = [(b.numerator, b.denominator) for b in p.lower]
    upper_den = math.prod(q for _, q in uppers)
    lower_den = math.prod(q for _, q in lowers)
    num = den = total = 1
    for k in range(p.terminal_index):
        # extend every Pochhammer factor from length k to k+1
        factors = [pb + k * qb for pb, qb in lowers]
        if 0 in factors:
            raise SingularParameterError(
                f"lower parameter {factors.index(0)} hits zero factor at term {k + 1}"
            )
        step = math.prod(factors) * upper_den * (k + 1)
        num *= math.prod(pa + k * qa for pa, qa in uppers) * lower_den
        den *= step
        total = total * step + num
    return Fraction(total, den)


def pfaff_saalschutz_rhs(a: Rational, b: Rational, c: Rational, n: int) -> Fraction:
    """Closed form for the Saalschuetzian 3F2[a, b, -n; c, 1+a+b-c-n; 1]."""
    require_rational((a, b, c))
    require_int((n,), "the order of a Saalschuetzian sum")
    if n < 0:
        raise InvalidInputError(f"n must be nonnegative, got {n}")
    den = shifted_factorial(c, n) * shifted_factorial(-a - b + c, n)
    if den == 0:
        raise SingularParameterError("denominator shifted factorial vanishes")
    return Fraction(shifted_factorial(-a + c, n) * shifted_factorial(-b + c, n)) / den
