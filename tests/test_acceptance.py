"""Acceptance suite: every criterion is checked at exact equality within
its stated time budget and reports one PASS/FAIL line (run with -s to see
the lines as they complete).
"""

import random
import time
from fractions import Fraction
from itertools import product

from ppsign import exactalg, formulas, oracle, paths, qseries
from ppsign.core import BoxDims, SymmetryClass
from ppsign.errors import SingularParameterError
from ppsign.oracle import WeightKind, WeightTag

from oracles import (
    gaussian_binomial_at,
    half_binomial_det,
    pfaffian_fraction_elimination,
    sgn_matrix,
)

SC = SymmetryClass


class Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} ({elapsed:.1f}s): {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_tcpp():
    with Criterion(1, "TC: oracle == determinant pipeline == product, a<=5 b<=3", 10):
        for a in range(1, 6):
            for b in range(0, 4):
                box = BoxDims(a, a, 2 * b)
                got_oracle = oracle.signed_count(box, SC.TC).value
                got_lgv = paths.tcpp_enum(a, b).value
                got_formula = formulas.thm1_tcpp(a, b)
                assert got_oracle == got_lgv == got_formula, (a, b)


def test_criterion_2_stcpp_even_side():
    with Criterion(2, "STC even side: oracle == Pfaffian == product", 60):
        for alpha in (1, 2):
            for b in range(0, 3):
                box = BoxDims(2 * alpha, 2 * alpha, 2 * b)
                got_oracle = oracle.signed_count(box, SC.STC).value
                got_pf = paths.stcpp_enum(alpha, b).value
                got_formula = formulas.thm2_stcpp(alpha, b)
                assert got_oracle == got_pf == got_formula, (alpha, b)
        for alpha in range(1, 5):
            for b in range(0, 7):
                assert paths.stcpp_enum(alpha, b).value == formulas.thm2_stcpp(alpha, b)


def test_criterion_3_structure():
    with Criterion(3, "odd-side STC: forced factors divide, quotient degrees match", 60):
        for alpha in (1, 2):
            for case in formulas.thm3_structure_check(alpha):
                assert case.divisible, (alpha, case.b_parity)
                assert case.quotient_degree == case.expected_degree, (alpha, case.b_parity)
                assert case.linear_divides is not False, (alpha, case.b_parity)


def test_criterion_4_cstcpp():
    with Criterion(4, "CSTC: oracle == determinant pipeline == product, alpha<=3", 120):
        expected = {1: 1, 2: 0, 3: 1}
        for alpha in (1, 2, 3):
            box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
            got_oracle = oracle.signed_count(box, SC.CSTC).value
            got_lgv = paths.cstcpp_enum(alpha).value
            half = half_binomial_det(alpha)
            got_formula = formulas.thm4_cstcpp(alpha)
            assert got_oracle == got_lgv == half ** 2 == got_formula == expected[alpha]
            if alpha % 2 == 1 and alpha > 1:
                n = (alpha - 1) // 2
                det, closed = formulas.mrr_det(1, n)
                assert half == det == closed


def test_criterion_5_tsscpp():
    with Criterion(5, "TSSC: oracle == pipeline == product, alpha<=3", 120):
        for alpha in (1, 2, 3):
            box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
            got_oracle = oracle.signed_count(box, SC.TSSC).value
            got_lgv = paths.tsscpp_enum(alpha).value
            got_formula = formulas.thm5_tsscpp(alpha)
            assert got_oracle == got_lgv == got_formula, alpha
        assert formulas.thm5_tsscpp(1) == oracle.count_vsasm(1)


def test_criterion_5_vsasm_remark_alpha_three():
    """TSSC remark: thm5(alpha) == count_vsasm(alpha) for alpha in {1, 3}.

    For odd alpha the product is Kuperberg's count A_V(alpha) of vertically
    symmetric alternating sign matrices of order alpha.  A reading with
    order alpha + 2 agrees at alpha = 1 only because A_V(1) = A_V(3) = 1;
    alpha = 3 is the first place the two readings differ (1 against
    A_V(5) = 3), so the index is checked there as well.
    """
    with Criterion(5, "TSSC vsasm remark: product(alpha) == vsasm(alpha), alpha in {1, 3}", 120):
        for alpha in (1, 3):
            got = formulas.thm5_tsscpp(alpha)
            want = oracle.count_vsasm(alpha)
            assert got == want, f"alpha={alpha}: product {got} != vsasm({alpha}) = {want}"
        assert formulas.thm5_tsscpp(3) != oracle.count_vsasm(5)


def test_vsasm_corrected_relation():
    # the remark's relation beyond alpha = 3, at every odd order count_vsasm
    # takes on, up to 15
    for alpha in range(1, 16, 2):
        assert formulas.thm5_tsscpp(alpha) == oracle.count_vsasm(alpha), alpha


def test_criterion_6_scpp_even():
    with Criterion(6, "SC even sides: oracle == Pfaffian == box product, sides<=4", 60):
        for a, b, c in product((2, 4), repeat=3):
            box = BoxDims(a, b, c)
            got_oracle = oracle.signed_count(box, SC.SC).value
            got_pf = paths.scpp_enum(a, b, c).value
            got_formula = formulas.thm6_scpp(a, b, c)
            assert got_oracle == got_pf == got_formula, (a, b, c)


def test_criterion_7_csscpp():
    with Criterion(7, "CSSC: signed^2 == |orbit-weighted cyclic|, |signed| == product", 300):
        expected = {1: 1, 2: 2, 3: 7}
        for alpha in (1, 2, 3):
            box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
            signed = oracle.signed_count(box, SC.CSSC).value
            orbit_weighted = oracle.weighted_count(
                box, SC.CYCLIC, WeightKind(WeightTag.QORBITS, Fraction(-1))
            )
            assert signed * signed == abs(orbit_weighted), alpha
            assert abs(signed) == formulas.thm7_csscpp(alpha) == expected[alpha]


def test_criterion_8_conjecture_report():
    with Criterion(8, "SC odd sides: conjecture vs oracle (findings flagged)", 300):
        findings = []
        print()
        print("  a  b  c  |oracle|  conjecture  status")
        for a in (2, 4):
            for b in (1, 3, 5):
                for c in (1, 3, 5):
                    box = BoxDims(a, b, c)
                    got = abs(oracle.signed_count(box, SC.SC).value)
                    want = formulas.conj_scpp_odd(a, b, c)
                    status = "pass" if got == want else "FINDING"
                    print(f"  {a}  {b}  {c}  {got}  {want}  {status}")
                    if got != want:
                        findings.append((a, b, c, got, want))
        if findings:
            print(f"  CONJECTURE FINDINGS (not build failures): {findings}")
        else:
            print("  conjecture confirmed on the whole grid")
        # a mismatch is reported, not asserted; the table above is the result


def test_criterion_9_identity_suite():
    with Criterion(9, "identity suite: detl/2j-i/mrr/saalschuetz/minor-summation/recurrence", 60):
        rng = random.Random(2024)
        # factored-entry determinant, 50 random instances with n <= 5
        for _ in range(50):
            n = rng.randint(1, 5)
            while True:
                x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                if len(set(x)) == n:
                    break
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
            assert formulas.lemma_detl_check(x, a, b)
        # binomial-determinant lemma, full sweep
        for alpha in range(1, 7):
            for beta in range(0, 7):
                for gamma in (0, 1):
                    lhs, rhs = formulas.lemma_2ji(alpha, beta, gamma)
                    assert lhs == rhs, (alpha, beta, gamma)
        # MRR determinant
        for n in range(1, 7):
            for mu in range(0, 5):
                lhs, rhs = formulas.mrr_det(mu, n)
                assert lhs == rhs, (mu, n)
        # Saalschuetzian summation, 100 random instances with n <= 8
        done = 0
        while done < 100:
            n = rng.randint(0, 8)
            abc = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
            a, b, c = abc
            try:
                rhs = qseries.pfaff_saalschutz_rhs(a, b, c, n)
                lhs = qseries.hyper_terminating(
                    qseries.HyperParams((a, b, -n), (c, 1 + a + b - c - n))
                )
            except SingularParameterError:
                continue
            assert lhs == rhs
            done += 1
        # minor summation: 100 random (T, A) with p <= 8
        for trial in range(100):
            p = rng.choice([2, 4, 6, 8])
            n = rng.choice([m for m in (2, 4) if m <= p])
            t = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
            a_m = [[0] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    a_m[i][j] = rng.randint(-5, 5)
                    a_m[j][i] = -a_m[i][j]
            if trial % 2 == 0:
                a_m = sgn_matrix(p)
            lhs, rhs = paths.minor_summation(t, a_m, 10**6)
            assert lhs == rhs
        # reduced-matrix recurrence and half-integer divisibility
        for alpha in (2, 4, 6):
            for b in range(0, 11, 2):
                for i in range(1, 5):
                    for j in range(1, 5):
                        assert formulas.mtilde_recurrence_residual(alpha, b, i, j) == 0
            for t_row in (1, 2, 3):
                for j in (1, 2, 3):
                    assert formulas.mtilde_divisibility_holds(alpha, t_row, j)


def test_criterion_10_kernel_properties():
    with Criterion(10, "kernels: Pf == fraction elimination, q-binomials at -1, box counts", 30):
        rng = random.Random(555)
        for _ in range(200):
            n = rng.choice([2, 4, 6, 8, 10])
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = rng.randint(-9, 9)
                    m[j][i] = -m[i][j]
            assert exactalg.pfaffian(m) == pfaffian_fraction_elimination(m)
        for n in range(0, 21):
            for k in range(0, n + 1):
                assert qseries.qbinom_minus1(n, k) == gaussian_binomial_at(n, k, -1)
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    count = oracle.weighted_count(
                        BoxDims(a, b, c), SC.PLAIN, WeightKind(WeightTag.PLAIN)
                    )
                    assert count == qseries.macmahon_box(a, b, c), (a, b, c)
