import random
from fractions import Fraction
from itertools import combinations

import pytest

from ppsign import exactalg, formulas, oracle, paths
from ppsign.core import BoxDims, SymmetryClass
from ppsign.errors import DimensionError
from ppsign.qseries import binom

from oracles import (
    area2_sign,
    compose,
    dp_signed_path_count,
    half_binomial_det,
    nonintersecting_family_sum,
    path_count_signed,
    sc_product_literal,
    sgn_matrix,
    skew_double_sum_literal,
    stc_pool,
    stcpp_mtilde,
    stcpp_odd_closed_ee,
    stcpp_odd_closed_oo,
    stcpp_odd_matrix,
)

SC = SymmetryClass


def test_path_count_signed_against_dp():
    for x1 in range(0, 3):
        for y1 in range(0, 5):
            for x2 in range(0, 5):
                for y2 in range(0, 4):
                    got = path_count_signed((x1, y1), (x2, y2))
                    assert got == dp_signed_path_count((x1, y1), (x2, y2))


def test_path_count_signed_edge_cases():
    assert path_count_signed((2, 2), (2, 2)) == 1
    assert path_count_signed((0, 1), (1, 1)) == -1  # one east step at height 1
    assert path_count_signed((0, 0), (1, 0)) == 1
    assert path_count_signed((3, 0), (0, 0)) == 0  # unreachable


def test_tcpp_matrix_entries_are_path_counts():
    for a in range(1, 5):
        for b in range(0, 4):
            cm = paths.tcpp_matrix(a, b)
            for i in range(1, a + 1):
                for j in range(1, a + 1):
                    start = (i - 1, b + i - 1)
                    end = (2 * j - 2, j - 1)
                    assert cm.rows[i - 1][j - 1] == path_count_signed(start, end)


def test_tcpp_determinant_counts_nonintersecting_families():
    # LGV at q = -1: brute-force vertex-disjoint families against det
    for a in range(1, 5):
        for b in range(0, 3 if a < 4 else 2):
            starts = [(i - 1, b + i - 1) for i in range(1, a + 1)]
            ends = [(2 * j - 2, j - 1) for j in range(1, a + 1)]
            brute = nonintersecting_family_sum(starts, ends)
            assert brute == exactalg.det(paths.tcpp_matrix(a, b).rows)


def test_tcpp_enum_examples():
    assert paths.tcpp_enum(1, 3).value == 1
    assert paths.tcpp_enum(2, 1).value == 0
    assert paths.tcpp_enum(3, 1).value == 1


def test_determinant_routes_reach_large_boxes():
    # the TC matrices split into parity blocks, and the one for 100 x 59
    # has no perfect matching, so its 0 is structural; CSTC 162^3 is an
    # 80 x 80 determinant
    for a in (99, 100, 101):
        for b in (59, 60):
            assert paths.tcpp_enum(a, b).value == formulas.thm1_tcpp(a, b), (a, b)
    assert paths.cstcpp_full_det(81) == formulas.thm4_cstcpp(81)


def test_stc_free_start_sum_matches_pfaffian():
    # brute force over start choices and disjoint families, with the
    # per-start alternating weights the pool matrix encodes
    for alpha in (1, 2):
        for b in range(0, 3):
            if (alpha % 2) == 1 and alpha == 1:
                pass  # dummy-augmented internally; brute uses real points only
            ends = [(2 * j - 2, j - 1) for j in range(1, alpha + 1)]
            pool = [(0, i - 1) for i in range(1, alpha + b + 1)]
            total = 0
            for chosen in combinations(range(1, alpha + b + 1), alpha):
                starts = [pool[k - 1] for k in chosen]
                start_sign = (-1) ** (sum(chosen) % 2)

                def weight(path, index):
                    # area1 = area above the path's lowest point
                    width = path[-1][0] - path[0][0]
                    sign = area2_sign(path)
                    return sign * (-1) ** (width * path[-1][1] % 2)

                total += start_sign * nonintersecting_family_sum(starts, ends, weight)
            raw_pf = exactalg.pfaffian(paths.stcpp_matrix(alpha, b).rows)
            assert total == raw_pf, (alpha, b)


def test_stcpp_enum_matches_oracle_small():
    for alpha in (1, 2):
        for b in range(0, 3):
            box = BoxDims(2 * alpha, 2 * alpha, 2 * b)
            want = oracle.signed_count(box, SC.STC).value
            assert paths.stcpp_enum(alpha, b).value == want


def test_stcpp_enum_matches_product_formula_larger():
    for alpha in range(1, 5):
        for b in range(0, 7):
            assert paths.stcpp_enum(alpha, b).value == formulas.thm2_stcpp(alpha, b)


def test_stcpp_even_even_block_vanishes():
    # even/even entries of the even-side matrix vanish for b even
    for alpha in (2, 4, 6):
        for b in range(0, 9, 2):
            rows = paths.stcpp_matrix(alpha, b).rows
            dim = len(rows)
            for i in range(2, dim + 1, 2):
                for j in range(2, dim + 1, 2):
                    assert rows[i - 1][j - 1] == 0, (alpha, b, i, j)


def test_det_m_is_square_of_det_mtilde():
    for alpha in (2, 4):
        for b in (0, 2, 4):
            m = paths.stcpp_matrix(alpha, b).rows
            mt = stcpp_mtilde(alpha, b)
            assert exactalg.det(m) == exactalg.det(mt) ** 2


def test_mtilde_alpha_two_is_arithmetic():
    for b in (0, 2, 4, 6):
        assert stcpp_mtilde(2, b) == (((b + 2) // 2,),)
    assert exactalg.det(stcpp_mtilde(2, 0)) == 1


def _det_mtilde_poly(alpha, samples):
    points = [
        (b, exactalg.det(stcpp_mtilde(alpha, b))) for b in range(0, 2 * samples, 2)
    ]
    return exactalg.interpolate(points)


def test_mtilde_interpolation_matches_closed_product():
    # det of the reduced matrix, interpolated in b, squares to the closed form
    for alpha in (2, 4):
        poly = _det_mtilde_poly(alpha, samples=alpha * alpha)
        for b in range(0, 13, 2):
            assert poly(b) ** 2 == formulas.lemma_M1(alpha, b)


def test_mtilde_determinant_divisibility_step_one():
    # the column-wise rising factorials divide det of the reduced matrix
    x = exactalg.Poly.x()
    for alpha in (2, 4, 6):
        divisor = exactalg.Poly([1])
        for j in range(1, alpha // 2 + 1):
            base = (x + alpha) * Fraction(1, 2) - j + 1
            for t in range(2 * j - 1):
                divisor = divisor * (base + t)
        # det M-tilde has degree alpha(alpha-1)/2 in b
        poly = _det_mtilde_poly(alpha, samples=alpha * (alpha - 1) // 2 + 4)
        assert exactalg.divides(divisor, poly), alpha


def test_stcpp_odd_enum_matches_oracle_small():
    for alpha in (1, 2, 3):
        for b in range(0, 3):
            box = BoxDims(2 * alpha + 1, 2 * alpha + 1, 2 * b)
            want = oracle.signed_count(box, SC.STC).value
            assert paths.stcpp_odd_enum(alpha, b).value == want
    # the 7 x 7 x 2 box has a genuinely negative signed count
    assert paths.stcpp_odd_enum(3, 1).value == -1
    # one larger spot check: 5 x 5 x 8
    assert paths.stcpp_odd_enum(2, 4).value == oracle.signed_count(
        BoxDims(5, 5, 8), SC.STC
    ).value


def test_stcpp_odd_vanishes_at_b_one_for_even_alpha():
    for alpha in (2, 4):
        assert paths.stcpp_odd_enum(alpha, 1).value == 0


def test_stcpp_odd_closed_forms_match_double_sums():
    # alpha even, b odd: even/even entries
    for alpha in (2, 4):
        for b in (1, 3, 5):
            rows = stcpp_odd_matrix(alpha, b)
            for i in range(1, alpha // 2 + 1):
                for j in range(1, alpha // 2 + 1):
                    closed = stcpp_odd_closed_ee(alpha, b, i, j)
                    assert rows[2 * i - 1][2 * j - 1] == closed, (alpha, b, i, j)
    # alpha odd, b even: odd/odd entries of the dummy-augmented matrix
    for alpha in (1, 3):
        for b in (0, 2, 4):
            rows = stcpp_odd_matrix(alpha, b)
            for i in range(1, (alpha + 1) // 2 + 1):
                for j in range(1, (alpha + 1) // 2 + 1):
                    closed = stcpp_odd_closed_oo(alpha, b, i, j)
                    assert rows[2 * i - 2][2 * j - 2] == closed, (alpha, b, i, j)


def _entry_poly(alpha, parity, i, j, samples=12):
    points = []
    for t in range(samples):
        b = parity + 2 * t
        rows = stcpp_odd_matrix(alpha, b)
        points.append((b, rows[i - 1][j - 1]))
    return exactalg.interpolate(points)


def test_substitution_swaps_parity_cases():
    # replacing b by -b-2a-1 carries the even-b entry polynomials to the
    # odd-b ones up to the checkerboard sign
    for alpha in (2, 3):
        dim = alpha + (alpha % 2)
        sub = exactalg.Poly([-2 * alpha - 1, -1])
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                even_poly = _entry_poly(alpha, 0, i, j)
                odd_poly = _entry_poly(alpha, 1, i, j)
                assert compose(even_poly, sub) == odd_poly * (-1) ** ((i + j) % 2)


def test_cstcpp_matrix_entries_are_path_counts():
    for alpha in (2, 3, 4):
        cm = paths.cstcpp_matrix(alpha)
        for i in range(1, alpha):
            for j in range(1, alpha):
                got = cm.rows[i - 1][j - 1]
                assert got == path_count_signed((i, 2 * i), (2 * j, j))


def test_cstcpp_routes_agree_with_oracle():
    for alpha in (1, 2, 3, 4):
        box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
        want = oracle.signed_count(box, SC.CSTC).value
        assert paths.cstcpp_enum(alpha).value == want
        assert half_binomial_det(alpha) ** 2 == want
    assert oracle.signed_count(BoxDims(8, 8, 8), SC.CSTC).value == 0


def test_cstcpp_reduction_to_known_determinant():
    # the full path matrix reduces to the square of the half-size binomial
    # determinant, which is the closed-form determinant evaluation
    for alpha in (1, 3, 5, 7):
        n = (alpha - 1) // 2
        reduced = half_binomial_det(alpha)
        assert paths.cstcpp_enum(alpha).value == reduced ** 2
        if n:
            det, closed = formulas.mrr_det(1, n)
            assert reduced == det == closed
        else:
            assert reduced == 1


def test_tsscpp_routes_agree():
    for alpha in range(1, 8):
        pf_route = paths.tsscpp_enum(alpha).value
        det_route = half_binomial_det(alpha)
        n = alpha // 2
        own = exactalg.det([
            [binom(i + j - 1, 2 * j - i - 1) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ])
        assert pf_route == det_route == (own if alpha % 2 else 0), alpha
        assert pf_route == formulas.thm5_tsscpp(alpha) * (1 if alpha % 2 else 0)


def test_tsscpp_matches_oracle():
    for alpha in (1, 2, 3):
        box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
        assert paths.tsscpp_enum(alpha).value == oracle.signed_count(box, SC.TSSC).value


def test_scpp_matches_oracle_and_box_formula():
    for a in (2, 4):
        for b in (2, 4):
            for c in (2, 4):
                box = BoxDims(a, b, c)
                value = paths.scpp_enum(a, b, c).value
                assert value == oracle.signed_count(box, SC.SC).value
                assert value == formulas.thm6_scpp(a, b, c)


def test_scpp_symmetric_in_b_and_c():
    assert paths.scpp_enum(2, 2, 4).value == paths.scpp_enum(2, 4, 2).value == 3
    assert paths.scpp_enum(4, 2, 6).value == paths.scpp_enum(4, 6, 2).value


def test_scpp_degenerate():
    assert paths.scpp_enum(0, 2, 2).value == 1
    assert paths.scpp_enum(2, 0, 4).value == 1


def test_empty_box_counts_one_on_every_route():
    for b in range(4):
        assert oracle.signed_count(BoxDims(0, 0, 2 * b), SC.TC).value == 1
        assert paths.tcpp_enum(0, b).value == 1
        assert paths.stcpp_enum(0, b).value == 1
    empty = BoxDims(0, 0, 0)
    assert oracle.signed_count(empty, SC.TSSC).value == 1
    assert oracle.signed_count(empty, SC.CSTC).value == 1
    assert paths.tsscpp_enum(0).value == 1
    assert paths.cstcpp_enum(0).value == 1
    assert half_binomial_det(0) == 1


def test_stc_anchor_pfaffian_computed_once_per_pool_and_alpha(monkeypatch):
    calls = []
    real = exactalg.pfaffian

    def counting_pfaffian(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(exactalg, "pfaffian", counting_pfaffian)
    paths._anchor_pfaffian.cache_clear()
    for b in range(6):
        paths.stcpp_odd_enum(2, b)
        paths.stcpp_enum(2, b)
    # one Pfaffian per b > 0 and route, plus one anchor per route
    assert len(calls) == 2 * 5 + 2


# more row subsets than any minor summation test takes
SUBSET_BUDGET = 10**6


def test_minor_summation_identity():
    rng = random.Random(42)
    # sign-matrix specialization
    t = [[1, 0], [0, 1]]
    lhs, rhs = paths.minor_summation(t, sgn_matrix(2), SUBSET_BUDGET)
    assert lhs == rhs == 1
    for _ in range(40):
        p, n = 6, 2
        t = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
        lhs, rhs = paths.minor_summation(t, sgn_matrix(p), SUBSET_BUDGET)
        assert lhs == rhs
    # general skew weight matrix
    for _ in range(40):
        p, n = 4, 2
        t = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
        a = [[0] * p for _ in range(p)]
        for i in range(p):
            for j in range(i + 1, p):
                a[i][j] = rng.randint(-5, 5)
                a[j][i] = -a[i][j]
        lhs, rhs = paths.minor_summation(t, a, SUBSET_BUDGET)
        assert lhs == rhs


def test_minor_summation_rejects_odd_width():
    with pytest.raises(DimensionError):
        paths.minor_summation([[1], [2], [3]], sgn_matrix(3), SUBSET_BUDGET)


def test_minor_summation_rejects_a_weight_matrix_of_the_wrong_size(monkeypatch):
    # A is checked to be p x p before any row subset is read
    def fail(*_):
        raise AssertionError("left side reached")

    monkeypatch.setattr(exactalg, "sum_of_minors", fail)
    t = [[1, 2], [3, 4], [5, 6], [7, 8]]
    for size in (2, 6):
        with pytest.raises(DimensionError):
            paths.minor_summation(t, sgn_matrix(size), SUBSET_BUDGET)


def test_tsscpp_pool_entries_are_weighted_path_counts():
    for alpha in (3, 5):
        pool = paths.tsscpp_pool(alpha)
        for i in range(1, 2 * alpha - 1):
            for j in range(1, alpha):
                expected = path_count_signed((i, i), (2 * j, j))
                expected *= (-1) ** (i * (i + 1) // 2 % 2)
                assert pool[i - 1][j - 1] == expected


def test_skew_double_sum_matches_literal_on_random_matrices():
    rng = random.Random(8)
    for p in range(9):
        for n in range(7):
            for trial in range(3):
                g = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(p)]
                if trial and p and n:
                    # a zero row and a zero column
                    g[rng.randrange(p)] = [0] * n
                    zero_col = rng.randrange(n)
                    for row in g:
                        row[zero_col] = 0
                assert paths._skew_double_sum(g) == skew_double_sum_literal(g), g


def test_skew_double_sum_matches_literal_on_pools():
    for offset in (0, 1):
        for alpha in range(5):
            for b in range(5):
                g = stc_pool(offset, alpha, b)
                assert paths._skew_double_sum(g) == skew_double_sum_literal(g)
    for alpha in range(7):
        g = paths.tsscpp_pool(alpha)
        assert paths._skew_double_sum(g) == skew_double_sum_literal(g)


def test_stc_skew_matrices_step_to_the_direct_build():
    # the first matrix is the double sum at the seed b0, every later one a
    # rank-2 update; each must equal the double sum of the pool built anew
    for offset in (0, 1):
        for alpha in range(9):
            for b0 in (0, 1, 5):
                matrices = paths._stc_skew_matrices(offset, alpha, b0)
                for b, m in zip(range(b0, 13), matrices):
                    want = paths._skew_double_sum(stc_pool(offset, alpha, b))
                    assert m == want, (offset, alpha, b0, b)


def test_stc_pfaffians_sweep_matches_single_b_routes():
    # a sweep from 0, a sweep from a later b and the one-element sweeps of
    # the single-b routes give the same anchored values (the anchor is -1
    # at alpha = 1, 2, 5)
    for alpha in range(6):
        assert paths.stc_pfaffians(0, alpha, 0, 8) == [
            paths.stcpp_enum(alpha, b).value for b in range(9)
        ]
        assert paths.stc_pfaffians(1, alpha, 0, 8) == [
            paths.stcpp_odd_enum(alpha, b).value for b in range(9)
        ]
        for offset in (0, 1):
            assert paths.stc_pfaffians(offset, alpha, 3, 8) == (
                paths.stc_pfaffians(offset, alpha, 0, 8)[3:]
            )
    assert paths.stc_pfaffians(1, 3, 0, 0) == [1]
    for route in (paths.stcpp_enum, paths.stcpp_odd_enum):
        with pytest.raises(DimensionError):
            route(1, -1)


def test_scpp_enum_matches_literal_sc_product():
    sides = (0, 2, 4, 6)
    for a in sides:
        for b in sides:
            for c in sides:
                cm = paths.scpp_matrix(a, b, c)
                want = cm.global_sign * exactalg.pfaffian(sc_product_literal(cm.rows))
                assert paths.scpp_enum(a, b, c).value == want, (a, b, c)


# every route that accepts a box, by class: each gives the signed value
_DEGENERATE_ROUTES = {
    "tc": lambda a, b: [
        paths.tcpp_enum(a, b).value,
        formulas.thm1_tcpp(a, b),
        oracle.signed_count(BoxDims(a, a, 2 * b), SC.TC).value,
    ],
    "stc": lambda alpha, b: [
        paths.stcpp_enum(alpha, b).value,
        formulas.thm2_stcpp(alpha, b),
        oracle.signed_count(BoxDims(2 * alpha, 2 * alpha, 2 * b), SC.STC).value,
    ],
    "stc-odd": lambda alpha, b: [
        paths.stcpp_odd_enum(alpha, b).value,
        oracle.signed_count(
            BoxDims(2 * alpha + 1, 2 * alpha + 1, 2 * b), SC.STC
        ).value,
    ],
    "sc": lambda a, b, c: [
        paths.scpp_enum(a, b, c).value,
        formulas.thm6_scpp(a, b, c),
        oracle.signed_count(BoxDims(a, b, c), SC.SC).value,
    ],
    "cstc": lambda alpha: [
        paths.cstcpp_enum(alpha).value,
        half_binomial_det(alpha) ** 2,
        formulas.thm4_cstcpp(alpha),
        oracle.signed_count(BoxDims(2 * alpha, 2 * alpha, 2 * alpha), SC.CSTC).value,
    ],
    "tssc": lambda alpha: [
        paths.tsscpp_enum(alpha).value,
        half_binomial_det(alpha),
        formulas.thm5_tsscpp(alpha),
        oracle.signed_count(BoxDims(2 * alpha, 2 * alpha, 2 * alpha), SC.TSSC).value,
    ],
}

_DEGENERATE_CASES = (
    [("tc", ab) for ab in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)]]
    + [(kind, ab) for kind in ("stc", "stc-odd")
       for ab in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]]
    + [("sc", box) for box in [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 0, 0),
                               (4, 0, 2), (0, 4, 6), (2, 4, 0)]]
    + [("cstc", (0,)), ("tssc", (0,))]
)


@pytest.mark.parametrize(
    "kind, args", _DEGENERATE_CASES,
    ids=["-".join([kind, *map(str, args)]) for kind, args in _DEGENERATE_CASES],
)
def test_degenerate_boxes_agree_on_every_route(kind, args):
    # a box with a zero side holds only the empty partition, counted +1
    values = _DEGENERATE_ROUTES[kind](*args)
    assert values == [1] * len(values)
