import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppsign import exactalg
from ppsign.errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInputError,
    NeedsMoreSamplesError,
    ResourceLimitError,
)
from ppsign.exactalg import Poly

from oracles import (
    det_fraction_elimination,
    det_permutation_expansion,
    interpolate_divided_differences,
    pfaffian_fraction_elimination,
)


def rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def rand_skew(rng, n, lo=-9, hi=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(lo, hi)
            m[j][i] = -m[i][j]
    return m


def test_det_examples():
    assert exactalg.det([[1, 2], [3, 4]]) == -2
    assert exactalg.det([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 1
    assert exactalg.det([[1, 6], [0, 4]]) == 4
    assert exactalg.det([]) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        exactalg.det([[1, 2, 3], [4, 5, 6]])


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        assert exactalg.det(m) == det_permutation_expansion(m)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        assert exactalg.det(m) == det_permutation_expansion(m)


def test_det_integer_input_integer_output():
    rng = random.Random(3)
    for _ in range(20):
        value = exactalg.det(rand_matrix(rng, 4))
        assert isinstance(value, int)


def test_det_row_swap_negates():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_matrix(rng, 4)
        swapped = [m[1], m[0]] + m[2:]
        assert exactalg.det(swapped) == -exactalg.det(m)


def test_det_identical_rows_vanish():
    rng = random.Random(6)
    for _ in range(20):
        m = rand_matrix(rng, 4)
        m[2] = list(m[0])
        assert exactalg.det(m) == 0


def test_det_block_triangular_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 3)
        fill = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(3)]
        m = [list(row) + [0, 0, 0] for row in a]
        m += [fill[i] + list(b[i]) for i in range(3)]
        assert exactalg.det(m) == exactalg.det(a) * exactalg.det(b)


def _block_sizes(rng, n):
    """A composition of n with parts of 1..6; about a third are 1."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.choice([1, 1, 2, 3, 4, 5, 6]), n - sum(sizes)))
    return sizes


def _scrambled_block_triangular(rng, sizes, entry):
    """A lower block-triangular matrix with the given diagonal block sizes,
    entries drawn by entry(), its rows and columns then shuffled apart."""
    n = sum(sizes)
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    m = [
        [entry() if block_of[j] <= block_of[i] else 0 for j in range(n)]
        for i in range(n)
    ]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


def _structurally_singular(rng, n):
    """k rows whose nonzeros all sit in the same k - 1 columns, so no
    perfect matching of rows to nonzero columns exists; the other entries
    are random, and rows and columns are shuffled."""
    k = rng.randint(2, n - 1)
    cols = set(rng.sample(range(n), k - 1))
    m = rand_matrix(rng, n, 1, 9)
    for i in rng.sample(range(n), k):
        m[i] = [x if j in cols else 0 for j, x in enumerate(m[i])]
    return m


def _above_crossover_matrices(seed):
    """Matrices of dimension 12..22, where det() splits along the zero
    pattern first."""
    rng = random.Random(seed)
    nonzero = lambda: rng.choice([-3, -2, -1, 1, 2, 3, 7])  # noqa: E731
    sparse = lambda: rng.choice([0, 0, -1, 1, 2])  # noqa: E731
    for n in range(12, 23):
        sizes = _block_sizes(rng, n)
        yield _scrambled_block_triangular(rng, sizes, nonzero)
        yield _scrambled_block_triangular(rng, sizes, sparse)
        yield _scrambled_block_triangular(rng, [1] * n, nonzero)
        yield _scrambled_block_triangular(rng, [n], nonzero)
        yield _structurally_singular(rng, n)
        m = _structurally_singular(rng, n)
        m[0] = [Fraction(x, 3) for x in m[0]]
        yield m
        m = _scrambled_block_triangular(rng, sizes, nonzero)
        for i in rng.sample(range(n), 3):
            m[i] = [Fraction(x, rng.randint(1, 6)) for x in m[i]]
        yield m


def test_det_above_crossover_matches_fraction_elimination():
    assert exactalg._BLOCK_SPLIT_DIM <= 12  # so every matrix below splits
    values = []
    for m in _above_crossover_matrices(21):
        value = exactalg.det(m)
        assert value == det_fraction_elimination(m)
        values.append(value)
    # the draws include nonzero values of both signs and structural zeros
    assert any(v > 0 for v in values) and any(v < 0 for v in values)
    assert values.count(0) >= 22


def test_det_above_crossover_keeps_the_input_type():
    for m in _above_crossover_matrices(22):
        value = exactalg.det(m)
        rational = any(isinstance(x, Fraction) for row in m for x in row)
        assert type(value) is (Fraction if rational else int)


def test_matmul_examples():
    assert exactalg.matmul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert exactalg.matmul([[1, 2, 3]], [[1], [0], [Fraction(1, 2)]]) == [
        [Fraction(5, 2)]
    ]
    assert exactalg.matmul([], [[1, 2]]) == []
    assert exactalg.matmul([[], []], []) == [[], []]


def test_matmul_rejects_inner_dimension_mismatch():
    # a zip over the inner dimension would return [[1, 2], [4, 5]]
    with pytest.raises(DimensionError):
        exactalg.matmul([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        exactalg.matmul([[1, 2]], [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(DimensionError):
        exactalg.matmul([[1, 2]], [])


def test_matmul_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        exactalg.matmul([[1, 2], [3]], [[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        exactalg.matmul([[1, 2], [3, 4]], [[1, 0], [0]])


def test_transpose_reads_its_input_once():
    m = [[1, 2, 3], [4, 5, 6]]
    want = [[1, 4], [2, 5], [3, 6]]
    assert exactalg.transpose(m) == want
    assert exactalg.transpose(row for row in m) == want
    assert exactalg.transpose(iter(m)) == want
    assert exactalg.transpose([]) == []
    with pytest.raises(DimensionError):
        exactalg.transpose([[1, 2], [3]])


def test_pfaffian_examples():
    assert exactalg.pfaffian([[0, 3], [-3, 0]]) == 3
    m = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    assert exactalg.pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4
    assert exactalg.pfaffian([]) == 1


def test_pfaffian_rejects_bad_input():
    with pytest.raises(DimensionError):
        exactalg.pfaffian([[0]])
    with pytest.raises(InvalidInputError):
        exactalg.pfaffian([[0, 1], [1, 0]])


def test_pfaffian_zero_row_short_circuits():
    m = rand_skew(random.Random(8), 6)
    for j in range(6):
        m[0][j] = 0
        m[j][0] = 0
    assert exactalg.pfaffian(m) == 0


def _sparse_skew_matrices(seed):
    """Skew matrices of dimension 10..20 with entries in -1..1.  Zero pivots
    after the first step are common there (19 of these 24 draws swap one),
    where draws from -9..9 almost never need a swap past step 0."""
    rng = random.Random(seed)
    for _ in range(4):
        for n in range(10, 21, 2):
            yield rand_skew(rng, n, -1, 1)


def test_pfaffian_squared_is_det_quick():
    rng = random.Random(9)
    dense = [rand_skew(rng, rng.choice([2, 4, 6, 8, 10, 12])) for _ in range(60)]
    for m in dense + list(_sparse_skew_matrices(10)):
        pf = exactalg.pfaffian(m)
        # the reference elimination checks value and sign; Pf^2 = det
        # checks the value against the Bareiss determinant
        assert pf == pfaffian_fraction_elimination(m)
        assert pf * pf == exactalg.det(m)


def rand_rational_skew(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            m[j][i] = -m[i][j]
    return m


def _swap01(m):
    out = [row[:] for row in m]
    out[0], out[1] = out[1], out[0]
    for row in out:
        row[0], row[1] = row[1], row[0]
    return out


def _sign_test_matrices(seed):
    """Random integer and rational skew matrices of dimension 10..20, above
    the dimension where pfaffian() checks itself by perfect matchings."""
    rng = random.Random(seed)
    for n in range(10, 21, 2):
        yield rand_skew(rng, n)
        yield rand_rational_skew(rng, n)


def test_pfaffian_matches_fraction_elimination_with_sign():
    for m in _sign_test_matrices(21):
        pf = exactalg.pfaffian(m)
        ref = pfaffian_fraction_elimination(m)
        assert pf == ref
        integral = all(Fraction(x).denominator == 1 for row in m for x in row)
        assert isinstance(pf, int) if integral else isinstance(pf, Fraction)


def test_pfaffian_congruence_multiplies_by_det():
    rng = random.Random(22)
    for m in _sign_test_matrices(23):
        n = len(m)
        b = rand_matrix(rng, n, -3, 3)
        bmbt = exactalg.matmul(exactalg.matmul(b, m), exactalg.transpose(b))
        assert exactalg.pfaffian(bmbt) == exactalg.det(b) * exactalg.pfaffian(m)


def test_pfaffian_index_swap_flips_sign():
    for m in _sign_test_matrices(24):
        pf = exactalg.pfaffian(m)
        assert pf != 0
        assert exactalg.pfaffian(_swap01(m)) == -pf


def test_pfaffian_singular_without_zero_row():
    rng = random.Random(25)
    for n in (10, 14, 20):
        # rank at most n - 2: T (n x (n-2)) A ((n-2) x (n-2)) T^t
        t = [[rng.randint(-4, 4) for _ in range(n - 2)] for _ in range(n)]
        a = rand_skew(rng, n - 2)
        m = exactalg.matmul(exactalg.matmul(t, a), exactalg.transpose(t))
        assert all(any(row) for row in m)
        assert exactalg.pfaffian(m) == 0
        assert exactalg.pfaffian([[Fraction(x, 3) for x in row] for row in m]) == 0


def test_pfaffian_of_block_diagonal_is_block_product_with_sign():
    rng = random.Random(26)
    for n in (10, 16, 20):
        rest = rand_skew(rng, n - 2)
        assert exactalg.pfaffian(rest) != 0
        # block-diagonal value and sign pins: |Pf| divisible by 3, then by 3·5·7·11·13
        for entry in (3, -3, 3 * 5 * 7 * 11 * 13, -3 * 5 * 7 * 11 * 13):
            m = [[0, entry] + [0] * (n - 2), [-entry, 0] + [0] * (n - 2)]
            m += [[0, 0] + row for row in rest]
            pf = exactalg.pfaffian(m)
            assert pf % entry == 0
            assert pf == pfaffian_fraction_elimination(m) == entry * exactalg.pfaffian(rest)
            assert exactalg.pfaffian(_swap01(m)) == -pf


def _whole_fraction_forms(m):
    """m with every entry a Fraction of denominator 1, and with every
    other row so (int and Fraction rows mixed)."""
    whole = [[Fraction(x) for x in row] for row in m]
    return [whole, [whole[i] if i % 2 else list(row) for i, row in enumerate(m)]]


def test_integer_matrices_stay_integer():
    # all-int input skips the rescaling; a Fraction with denominator 1
    # scales by 1, so both give the same int, and no input is modified
    rng = random.Random(31)
    for n in (1, 2, 5, 11, 12, 16):  # below and above the block split
        m = rand_matrix(rng, n)
        kept = [row[:] for row in m]
        value = exactalg.det(m)
        assert type(value) is int and value == det_fraction_elimination(m)
        assert m == kept
        for form in _whole_fraction_forms(m):
            assert type(exactalg.det(form)) is int and exactalg.det(form) == value
    for n in (2, 4, 8, 10, 12):  # with the matching check and past it
        m = rand_skew(rng, n)
        kept = [row[:] for row in m]
        pf = exactalg.pfaffian(m)
        assert type(pf) is int and pf == pfaffian_fraction_elimination(m)
        assert m == kept
        for form in _whole_fraction_forms(m):
            assert type(exactalg.pfaffian(form)) is int and exactalg.pfaffian(form) == pf


def test_pfaffian_rejects_matrices_that_are_not_skew():
    m = rand_skew(random.Random(32), 6)
    for i, j in ((0, 5), (3, 2), (4, 4)):  # above, below and on the diagonal
        bad = [row[:] for row in m]
        bad[i][j] += 1
        for form in (bad, [[Fraction(x, 2) for x in row] for row in bad]):
            assert not exactalg.is_skew(form)
            with pytest.raises(InvalidInputError):
                exactalg.pfaffian(form)


def test_flipped_skew_elimination_trips_the_matching_check(monkeypatch):
    real = exactalg._skew_eliminate
    monkeypatch.setattr(exactalg, "_skew_eliminate", lambda a: -real(a))
    rng = random.Random(33)
    for n in (2, 4, 6, 8):
        m = rand_skew(rng, n)
        while pfaffian_fraction_elimination(m) == 0:
            m = rand_skew(rng, n)
        for form in (m, *_whole_fraction_forms(m), [[Fraction(x, 3) for x in row] for row in m]):
            with pytest.raises(InternalConsistencyError):
                exactalg.pfaffian(form)
    # past dimension 8 nothing re-derives the value
    m = rand_skew(rng, 10)
    assert exactalg.pfaffian(m) == -pfaffian_fraction_elimination(m) != 0


def test_sum_of_minors_trivial_and_budget():
    assert exactalg.sum_of_minors([[1, 0], [0, 1]], 2, lambda subset: 1, 1) == 1
    with pytest.raises(ResourceLimitError):
        exactalg.sum_of_minors([[1] * 3 for _ in range(40)], 3, lambda subset: 1, 10)


def test_interpolate_examples():
    p = exactalg.interpolate([(0, 1), (1, 1)])
    assert p.coeffs == (Fraction(1),)
    p = exactalg.interpolate([(0, 0), (1, 1), (2, 4)])
    assert p.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(InvalidInputError):
        exactalg.interpolate([(0, 1), (0, 2)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=1,
        max_size=6,
    )
)
def test_interpolate_roundtrip(coeffs):
    poly = Poly(coeffs)
    points = [(x, poly(x)) for x in range(len(coeffs))]
    assert exactalg.interpolate(points) == poly


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)),
    st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)]),
    st.lists(
        st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=6)),
        min_size=1,
        max_size=9,
    ),
)
def test_interpolate_matches_divided_differences(x0, h, ys):
    points = [(x0 + i * h, y) for i, y in enumerate(ys)]
    poly = exactalg.interpolate(points)
    reference = interpolate_divided_differences(points)
    assert poly == reference and repr(poly) == repr(reference)
    assert all(poly(x) == y for x, y in points)


def test_interpolate_rejects_bad_abscissae():
    with pytest.raises(InvalidInputError, match="equally spaced"):
        exactalg.interpolate([(0, 1), (1, 2), (3, 5)])
    with pytest.raises(InvalidInputError, match="distinct"):
        exactalg.interpolate([(0, 1), (1, 2), (0, 5)])
    with pytest.raises(InvalidInputError, match="distinct"):
        exactalg.interpolate([(Fraction(1, 2), 1), (Fraction(1, 2), 1)])
    with pytest.raises(NeedsMoreSamplesError):
        exactalg.interpolate([])


@pytest.mark.parametrize(
    "call",
    [
        lambda: exactalg.det([[0.5]]),
        lambda: exactalg.det([[1, 2], [3, 0.5]]),
        lambda: exactalg.det([[1] * 12 for _ in range(11)] + [[1.0] * 12]),
        lambda: exactalg.sum_of_minors([[0.5], [1]], 1, lambda subset: 1, 2),
        lambda: exactalg.pfaffian([[0, 0.5], [-0.5, 0]]),
        lambda: exactalg.pfaffian([[0, "1"], ["-1", 0]]),
        lambda: Poly([0.1]),
        lambda: Poly(["1/3"]),
        lambda: Poly([1, 2]) * 0.5,
        lambda: exactalg.interpolate([(0, 0.1), (1, 2)]),
        lambda: exactalg.interpolate([(0.5, 1), (1.5, 2)]),
        lambda: exactalg.interpolate([("0", 1)]),
    ],
    ids=[
        "det-float",
        "det-float-entry",
        "det-float-block-split",
        "sum_of_minors-float",
        "pfaffian-float",
        "pfaffian-str",
        "poly-float",
        "poly-str",
        "poly-times-float",
        "interpolate-float-y",
        "interpolate-float-x",
        "interpolate-str-x",
    ],
)
def test_non_rational_input_is_rejected(call):
    with pytest.raises(InvalidInputError):
        call()


def test_poly_keeps_integral_coefficients_as_int():
    p = Poly([Fraction(4, 2), 3])
    assert [type(c) for c in p.coeffs] == [int, int]
    value = p(Fraction(1, 2))
    assert type(value) is Fraction and value == Fraction(7, 2)
    assert type(p(1)) is Fraction
    mixed = Poly([Fraction(6, 3), Fraction(1, 3)])
    assert [type(c) for c in mixed.coeffs] == [int, Fraction]
    for built in ([2, 3], [Fraction(2), Fraction(3)], [Fraction(4, 2), 3, Fraction(0)]):
        assert Poly(built) == Poly([2, 3])
        assert hash(Poly(built)) == hash(Poly([2, 3]))
        assert repr(Poly(built)) == "Poly(2 + 3*x^1)"
    assert Poly([Fraction(5)]) == 5 and Poly([5]) == Fraction(5)
    # arithmetic, exact division and interpolation keep the contract
    product = Poly([Fraction(1, 2), 1]) * Poly([2, 0, 4])
    assert product.coeffs == (1, 2, 2, 4)
    assert all(type(c) is int for c in product.coeffs)
    q, r = Poly([2, 3, 1]).divmod(Poly([1, 1]))
    assert q.coeffs == (2, 1) and not r
    assert all(type(c) is int for c in q.coeffs)
    q, r = Poly([1, 1]).divmod(Poly([0, 2]))
    assert q.coeffs == (Fraction(1, 2),) and r.coeffs == (1,)
    assert type(q.coeffs[0]) is Fraction and type(r.coeffs[0]) is int
    squares = exactalg.interpolate([(0, 0), (1, 1), (2, 4)])
    assert all(type(c) is int for c in squares.coeffs)


def test_divides():
    x = Poly.x()
    assert exactalg.divides(x, x * x)
    assert not exactalg.divides(x + 1, x * x + 1)
    with pytest.raises(InvalidInputError):
        exactalg.divides(Poly(), x)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
)
def test_poly_divmod_reconstructs(f_coeffs, g_coeffs):
    f, g = Poly(f_coeffs), Poly(g_coeffs)
    if not g:
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree or not r

