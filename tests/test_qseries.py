import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppsign import exactalg, formulas, qseries
from ppsign.errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
    SingularParameterError,
)

from oracles import (
    binom_literal,
    detl_sides_literal,
    gaussian_binomial_at,
    hyper_terminating_literal,
    principal_pfaffians,
    shifted_factorial_literal,
    skew_matrix,
    sum_of_minors_per_minor,
)


def test_shifted_factorial_values():
    assert qseries.shifted_factorial(3, 2) == 12
    assert qseries.shifted_factorial(Fraction(7, 3), 0) == 1
    assert qseries.shifted_factorial(Fraction(1, 2), 3) == Fraction(15, 8)


def test_binom_values():
    assert qseries.binom(4, 2) == 6
    assert qseries.binom(3, -1) == 0
    assert qseries.binom(2, 5) == 0
    assert qseries.binom(-1, 2) == 1
    assert qseries.binom(-3, 3) == -10


def test_binom_is_the_falling_factorial_quotient():
    # an integral top, int or Fraction, gives an int: negative tops and
    # 0 <= top < k included; a half-integral top keeps the polynomial over
    # Fraction, which the mrr matrix at rational mu reads
    def quotient(top, k):
        return math.prod(top - t for t in range(k)) / Fraction(math.factorial(k)) if k >= 0 else 0

    for m in range(-6, 9):
        for k in range(-1, 9):
            for top in (m, Fraction(m)):
                value = qseries.binom(top, k)
                assert type(value) is int and value == quotient(m, k), (top, k)
            half = Fraction(2 * m + 1, 2)
            value = qseries.binom(half, k)
            assert type(value) is Fraction and value == quotient(half, k), (half, k)


@given(st.integers(-30, 30), st.integers(-5, 35))
def test_binom_pascal_recurrence(n, k):
    assert qseries.binom(n, k) == qseries.binom(n - 1, k - 1) + qseries.binom(n - 1, k)


def test_qbinom_minus1_values():
    assert qseries.qbinom_minus1(2, 1) == 0
    assert qseries.qbinom_minus1(4, 2) == 2
    for n in range(8):
        assert qseries.qbinom_minus1(n, 0) == 1
    assert qseries.qbinom_minus1(5, -1) == 0
    assert qseries.qbinom_minus1(5, 6) == 0


def test_qbinom_minus1_against_gaussian_polynomial():
    for n in range(21):
        for k in range(n + 1):
            assert qseries.qbinom_minus1(n, k) == gaussian_binomial_at(n, k, -1)


def test_macmahon_box_values():
    assert qseries.macmahon_box(0, 5, 7) == 1
    assert qseries.macmahon_box(1, 1, 1) == 2
    assert qseries.macmahon_box(2, 2, 2) == 20


def test_macmahon_box_symmetric_in_arguments():
    from itertools import permutations

    for dims in [(1, 2, 3), (2, 3, 4), (4, 5, 6), (6, 6, 2)]:
        values = {qseries.macmahon_box(*p) for p in permutations(dims)}
        assert len(values) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: qseries.shifted_factorial(1.5, 2),
        lambda: qseries.pfaff_saalschutz_rhs(0.5, 1, 2, 2),
        lambda: qseries.pfaff_saalschutz_rhs("1", 1, 2, 2),
        lambda: qseries.binom(1.5, 2),
        lambda: qseries.HyperParams((1.5, -2), ()),
        lambda: qseries.HyperParams((1, -2), ("3",)),
        lambda: qseries.macmahon_box(1.5, 2, 2),
        lambda: qseries.macmahon_box(2, Fraction(3, 2), 2),
        lambda: formulas.lemma_detl_check([1.5], [], []),
        lambda: formulas.mrr_det("1", 2),
    ],
    ids=[
        "shifted_factorial-float",
        "pfaff_saalschutz_rhs-float",
        "pfaff_saalschutz_rhs-str",
        "binom-float",
        "hyperparams-float-upper",
        "hyperparams-str-lower",
        "macmahon_box-float",
        "macmahon_box-fraction-side",
        "lemma_detl_check-float-n1",
        "mrr_det-str-mu",
    ],
)
def test_non_rational_parameters_raise_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: qseries.qbinom_minus1(4.0, 2),
        lambda: qseries.qbinom_minus1(4, 1.0),
        lambda: qseries.shifted_factorial(2, 1.5),
        lambda: qseries.binom(2, 1.5),
        lambda: qseries.pfaff_saalschutz_rhs(1, 2, 3, "2"),
        lambda: formulas.mrr_det(1, 2.0),
    ],
    ids=[
        "qbinom_minus1-float-n",
        "qbinom_minus1-float-k",
        "shifted_factorial-float-n",
        "binom-float-k",
        "pfaff_saalschutz_rhs-str-n",
        "mrr_det-float-n",
    ],
)
def test_non_int_orders_raise_invalid_input(call):
    # each raised an untyped TypeError, or (qbinom_minus1(4, 1.0)) returned 0
    with pytest.raises(InvalidInputError, match="must be an int"):
        call()


def test_integral_value_refuses_a_fraction():
    assert qseries.integral_value(Fraction(6, 3), "six thirds") == 2
    with pytest.raises(InternalConsistencyError, match="half is not an integer: 1/2"):
        qseries.integral_value(Fraction(1, 2), "half")


def test_hyper_terminating_examples():
    # a leading upper parameter 0 kills everything after the first term
    p = qseries.HyperParams((0, Fraction(5, 2)), (Fraction(3, 2),))
    assert qseries.hyper_terminating(p) == 1
    p = qseries.HyperParams((1, 1, -2), (3, -2))
    assert qseries.hyper_terminating(p) == Fraction(3, 2)


def test_hyper_requires_terminating_parameter():
    with pytest.raises(InvalidInputError):
        qseries.HyperParams((1, 2), (3,))


def test_hyper_reports_zero_lower_factor():
    # lower parameter -1 vanishes at the second term of a sum to n = 3
    with pytest.raises(SingularParameterError):
        qseries.hyper_terminating(qseries.HyperParams((1, -3), (-1,)))


def test_pfaff_saalschutz_rhs_values():
    assert qseries.pfaff_saalschutz_rhs(5, Fraction(1, 3), 2, 0) == 1
    assert qseries.pfaff_saalschutz_rhs(1, 1, 3, 2) == Fraction(3, 2)
    assert qseries.pfaff_saalschutz_rhs(0, Fraction(2, 5), 3, 4) == 1


def _saalschuetzian_pair(a, b, c, n):
    lower2 = 1 + a + b - c - n
    lhs = qseries.hyper_terminating(
        qseries.HyperParams((a, b, -n), (c, lower2))
    )
    rhs = qseries.pfaff_saalschutz_rhs(a, b, c, n)
    return lhs, rhs


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(0, 8),
)
def test_pfaff_saalschutz_identity(a, b, c, n):
    try:
        lhs, rhs = _saalschuetzian_pair(a, b, c, n)
    except SingularParameterError:
        return  # parameter hit a pole; not a Saalschuetzian instance
    assert lhs == rhs


def test_integer_pair_kernels_match_the_fraction_loops():
    # the kernels carry integer numerators and denominators and build one
    # Fraction per value; the references build one per factor.  Value and
    # type agree, over negative numerators, zero factors, n = 0 and k = 0,
    # integral Fractions and singular lower parameters
    rng = random.Random(2028)

    def rational():
        p = rng.randint(-9, 9)
        return rng.choice([p, Fraction(p), Fraction(p, rng.randint(1, 6))])

    def same(got, want):
        assert type(got) is type(want) and got == want, (got, want)

    def outcome(f, *args):
        try:
            return f(*args)
        except SingularParameterError as exc:
            return "singular", str(exc)

    for _ in range(300):
        a, n = rational(), rng.randint(0, 7)
        same(qseries.shifted_factorial(a, n), shifted_factorial_literal(a, n))
        q = rng.randint(2, 6)
        top = Fraction(rng.choice([m for m in range(-20, 21) if m % q]), q)
        k = rng.randint(0, 7)
        same(qseries.binom(top, k), binom_literal(top, k))
    assert qseries.shifted_factorial(Fraction(-4, 2), 3) == 0  # a zero factor

    singular = 0
    for _ in range(300):
        upper = (-rng.randint(0, 6), *(rational() for _ in range(rng.randint(0, 2))))
        lower = tuple(rational() for _ in range(rng.randint(0, 2)))
        p = qseries.HyperParams(upper, lower)
        got = outcome(qseries.hyper_terminating, p)
        same(got, outcome(hyper_terminating_literal, p))
        singular += type(got) is tuple
    assert singular > 10

    for _ in range(60):
        n = rng.randint(1, 5)
        x = [rational() for _ in range(n)]
        a = [rational() for _ in range(n - 1)]
        b = [rational() for _ in range(n - 1)]
        matrix, product = formulas._detl_sides(x, a, b)
        ref_matrix, ref_product = detl_sides_literal(x, a, b)
        same(product, ref_product)
        for row, ref_row in zip(matrix, ref_matrix, strict=True):
            for entry, ref_entry in zip(row, ref_row, strict=True):
                same(entry, ref_entry)
        assert formulas.lemma_detl_check(x, a, b) is (exactalg.det(ref_matrix) == ref_product)

    # Fraction rows, some integral only, some with a non-integral entry,
    # and mixed int/Fraction rows; int and Fraction skew weight matrices,
    # each at a budget of exactly its subset count
    entries = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    for n in (0, 2, 4, 6):
        for trial in range(12):
            p = n + rng.randint(0, 3)
            if trial % 3 == 0:
                t = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(p)]
            elif trial % 3 == 1:
                t = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                     for _ in range(p)]
            else:
                t = [[rational() for _ in range(n)] for _ in range(p)]
            for entry in entries:
                a = skew_matrix(p, entry)
                same(exactalg.sum_of_minors(t, n, a, math.comb(p, n)),
                     sum_of_minors_per_minor(t, n, principal_pfaffians(a)))
    # the budget is checked before any entry: a float over budget
    with pytest.raises(ResourceLimitError):
        exactalg.sum_of_minors([[0.5, 1], [1, 1], [2, 1]], 2, [[0.5] * 3] * 3, 2)
