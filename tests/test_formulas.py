import hashlib
import math
import random
from fractions import Fraction

import pytest

from ppsign import exactalg, formulas, oracle, paths
from ppsign.core import BoxDims, SymmetryClass
from ppsign.errors import DomainError, UnsupportedClassError

SC = SymmetryClass


def test_thm1_values():
    assert formulas.thm1_tcpp(2, 1) == 0
    assert formulas.thm1_tcpp(1, 7) == 1
    assert formulas.thm1_tcpp(3, 1) == 1
    assert formulas.thm1_tcpp(4, 2) == 4


def test_thm2_values():
    assert formulas.thm2_stcpp(2, 2) == 2
    assert formulas.thm2_stcpp(3, 1) == 0
    assert formulas.thm2_stcpp(2, 0) == 1
    assert formulas.thm2_stcpp(3, 2) == 5


def test_thm4_thm5_values():
    assert [formulas.thm4_cstcpp(a) for a in (1, 2, 3, 4, 5)] == [1, 0, 1, 0, 9]
    assert [formulas.thm5_tsscpp(a) for a in (1, 2, 3, 4, 5, 6, 7)] == [1, 0, 1, 0, 3, 0, 26]


def test_closed_forms_count_the_empty_box_as_one():
    for b in range(4):
        assert formulas.thm1_tcpp(0, b) == 1
        assert formulas.thm2_stcpp(0, b) == 1
        assert formulas.lemma_M1(0, b) == 1
    assert formulas.thm4_cstcpp(0) == 1
    assert formulas.thm5_tsscpp(0) == 1
    assert formulas.thm7_csscpp(0) == 1


def test_thm4_is_square_of_thm5():
    for alpha in range(1, 10):
        assert formulas.thm4_cstcpp(alpha) == formulas.thm5_tsscpp(alpha) ** 2


def test_thm6_values():
    assert formulas.thm6_scpp(2, 2, 2) == 2
    assert formulas.thm6_scpp(2, 2, 4) == 3
    assert formulas.thm6_scpp(0, 2, 2) == 1
    with pytest.raises(UnsupportedClassError):
        formulas.thm6_scpp(2, 3, 2)


def test_thm7_values():
    assert [formulas.thm7_csscpp(alpha) for alpha in (1, 2, 3, 4)] == [1, 2, 7, 42]


def test_conjecture_values():
    assert formulas.conj_scpp_odd(4, 3, 3) == 4
    assert formulas.conj_scpp_odd(0, 3, 5) == 1
    assert formulas.conj_scpp_odd(2, 1, 3) == 0  # residues force zero
    assert formulas.conj_scpp_odd(2, 1, 5) == formulas.conj_scpp_odd(2, 5, 1)
    with pytest.raises(UnsupportedClassError):
        formulas.conj_scpp_odd(3, 3, 3)


def test_conjecture_values_on_a_grid_past_the_golden_rows():
    # even a <= 16, odd b, c <= 15: 576 boxes, every residue case with
    # factors B(m, ...) for m up to 4 (the golden sc-odd rows stop at a = 4,
    # where most factors are B(0, ...) = 1); the digest of the values in
    # this order was recorded from the six-branch form of the evaluator
    values = [
        formulas.conj_scpp_odd(a, b, c)
        for a in range(0, 17, 2) for b in range(1, 16, 2) for c in range(1, 16, 2)
    ]
    assert sum(v == 0 for v in values) == 128
    assert values[-1] == 33067263563568267264  # (16, 15, 15)
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert digest == "6e83abe962281611cf3f65e2ed42813c3d12706773e8bb6980c691488a1b9305"


def test_lemma_detl_spec_instances():
    assert formulas.lemma_detl_check([1], [], [])
    assert formulas.lemma_detl_check([1, 2], [0], [1])
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        while True:
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            if len(set(x)) == n:
                break
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
        assert formulas.lemma_detl_check(x, a, b)


def test_lemma_2ji_values_and_sweep():
    assert formulas.lemma_2ji(1, 2, 0) == (3, 3)
    assert formulas.lemma_2ji(2, 2, 1) == (4, 4)
    for alpha in range(1, 7):
        for beta in range(0, 7):
            for gamma in (0, 1):
                lhs, rhs = formulas.lemma_2ji(alpha, beta, gamma)
                assert lhs == rhs, (alpha, beta, gamma)
    with pytest.raises(DomainError):
        formulas.lemma_2ji(2, 2, 2)


def test_lemma_m1():
    assert formulas.lemma_M1(2, 0) == 1
    assert formulas.lemma_M1(2, 1) == 0
    assert formulas.lemma_M1(2, 2) == 4
    for alpha in (2, 4):
        for b in range(0, 6):
            closed = formulas.lemma_M1(alpha, b)
            assert closed == exactalg.det(paths.stcpp_matrix(alpha, b).rows)
    with pytest.raises(UnsupportedClassError):
        formulas.lemma_M1(3, 2)


def test_mrr_det():
    assert formulas.mrr_det(1, 1) == (1, 1)
    assert formulas.mrr_det(1, 2) == (3, 3)
    for n in range(1, 7):
        for mu in range(0, 5):
            lhs, rhs = formulas.mrr_det(mu, n)
            assert lhs == rhs, (mu, n)
    lhs, rhs = formulas.mrr_det(Fraction(3, 2), 4)
    assert lhs == rhs == Fraction(9009, 8)


def test_binom_poly_is_the_falling_factorial_quotient():
    # an integral top, int or Fraction, goes to qseries.binom: negative
    # tops and 0 <= top < k included; a half-integral top keeps the
    # polynomial over Fraction
    def quotient(top, k):
        return math.prod(top - t for t in range(k)) / Fraction(math.factorial(k)) if k >= 0 else 0

    for m in range(-6, 9):
        for k in range(-1, 9):
            for top in (m, Fraction(m)):
                assert formulas._binom_poly(top, k) == quotient(m, k), (top, k)
            half = Fraction(2 * m + 1, 2)
            value = formulas._binom_poly(half, k)
            assert type(value) is Fraction and value == quotient(half, k), (half, k)


def test_mtilde_recurrence():
    for alpha in (2, 4, 6):
        for b in range(0, 11, 2):
            for i in range(1, 5):
                for j in range(1, 5):
                    assert formulas.mtilde_recurrence_residual(alpha, b, i, j) == 0


def test_mtilde_divisibility():
    # at t = 0 the divisor is the empty rising factorial, the constant 1
    for alpha in (2, 4, 6):
        for t in (0, 1, 2, 3):
            for j in (1, 2, 3):
                assert formulas.mtilde_divisibility_holds(alpha, t, j) is True


def test_structure_check_alpha_one_to_three():
    for alpha in (1, 2, 3):
        for case in formulas.thm3_structure_check(alpha):
            assert case.divisible
            assert case.quotient_degree == case.expected_degree
            assert case.linear_divides is not False
            assert case.ok


def test_structure_report_is_pinned():
    # the digest of these reports (pipeline, forced factor, quotient per b
    # parity) was recorded from the four-branch form of the forced factor
    text = "\n".join(repr(formulas.thm3_structure_check(alpha)) for alpha in range(1, 8))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c3a23680c5b8206a252852df97c6f24dd6507d7c3d8a6198e8db23d907868fe9"


def test_structure_check_linear_factors_present():
    cases = {c.b_parity: c for c in formulas.thm3_structure_check(2)}
    # even b carries (b + 2a + 2), odd b carries (b - 1)
    assert cases[0].linear_factor.coeffs == (Fraction(6), Fraction(1))
    assert cases[1].linear_factor.coeffs == (Fraction(-1), Fraction(1))
    assert cases[0].linear_divides and cases[1].linear_divides


def test_theorems_against_oracle_spot():
    assert formulas.thm1_tcpp(4, 1) == oracle.signed_count(BoxDims(4, 4, 2), SC.TC).value
    assert formulas.thm2_stcpp(2, 1) == oracle.signed_count(BoxDims(4, 4, 2), SC.STC).value
    assert formulas.thm6_scpp(4, 2, 2) == oracle.signed_count(BoxDims(4, 2, 2), SC.SC).value


def test_negative_alpha_or_b_is_out_of_domain():
    with pytest.raises(DomainError):
        formulas.lemma_2ji(-3, 2, 0)
    with pytest.raises(DomainError):
        formulas.lemma_M1(-2, 2)
    with pytest.raises(DomainError):
        formulas.lemma_M1(2, -2)
    with pytest.raises(DomainError):
        formulas.mtilde_recurrence_residual(-2, 2, 1, 1)
    with pytest.raises(DomainError):
        formulas.mtilde_divisibility_holds(-2, 1, 1)
    # alpha = 0 is the empty matrix and stays valid
    assert formulas.lemma_2ji(0, 2, 0) == (1, 1)
    assert formulas.lemma_M1(0, 2) == 1
