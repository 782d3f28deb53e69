from fractions import Fraction
from itertools import product

import pytest

from ppsign import oracle, qseries
from ppsign.core import BoxDims, SymmetryClass, check_box_shape
from ppsign.errors import ResourceLimitError, ShapeError, UnsupportedClassError
from ppsign.oracle import WeightKind, WeightTag

from oracles import alternating_sign_matrices, enumerate_class_rows, vsasm_count_by_filter

SC = SymmetryClass


def heights_list(box, cls):
    return [pp.heights for pp in oracle.enumerate_class(box, cls)]


def test_enumerate_examples():
    assert len(heights_list(BoxDims(1, 1, 1), SC.PLAIN)) == 2
    assert len(heights_list(BoxDims(2, 2, 2), SC.SC)) == 4
    assert heights_list(BoxDims(2, 2, 2), SC.TC) == [((1, 1), (1, 1)), ((2, 1), (1, 0))]


def test_enumerate_is_lexicographic_and_duplicate_free():
    for cls, box in [
        (SC.PLAIN, BoxDims(2, 3, 2)),
        (SC.SC, BoxDims(2, 2, 4)),
        (SC.CYCLIC, BoxDims(3, 3, 3)),
        (SC.TSSC, BoxDims(4, 4, 4)),
    ]:
        seen = heights_list(box, cls)
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))


def test_enumerate_budget():
    with pytest.raises(ResourceLimitError):
        list(oracle.enumerate_class(BoxDims(4, 4, 4), SC.PLAIN, node_budget=50))


def visits_exactly(box, cls, nodes):
    """Whether the walk finishes on a budget of nodes and stops on one less."""
    list(oracle.enumerate_class(box, cls, node_budget=nodes))
    try:
        list(oracle.enumerate_class(box, cls, node_budget=nodes - 1))
    except ResourceLimitError:
        return True
    return nodes == 0


def small_boxes(cls):
    # PLAIN compiles to no rule at all, so its boxes beyond 3^3 add time
    # (PLAIN 4^3 visits 743,287 nodes) and no case
    sides = range(4 if cls is SC.PLAIN else 5)
    for a, b, c in product(sides, repeat=3):
        box = BoxDims(a, b, c)
        try:
            check_box_shape(box, cls)
        except ShapeError:
            continue
        yield box


@pytest.mark.parametrize("cls", list(SC))
def test_walk_matches_row_reference(cls):
    # zero sides, odd heights and the classes a parity makes empty included
    for box in small_boxes(cls):
        members, nodes = enumerate_class_rows(box, cls)
        assert heights_list(box, cls) == members, box
        assert visits_exactly(box, cls, nodes), box


@pytest.mark.parametrize("cls, box, nodes", [
    (SC.TC, (4, 4, 4), 1_062),
    (SC.STC, (5, 5, 4), 1_229),
    (SC.SC, (4, 4, 4), 7_651),
    (SC.CSTC, (4, 4, 4), 117),
    (SC.CSSC, (4, 4, 4), 682),
    (SC.TSSC, (4, 4, 4), 449),
    (SC.CYCLIC, (4, 4, 4), 1_999),
    (SC.PLAIN, (3, 3, 3), 2_674),
    (SC.SYMMETRIC, (4, 4, 4), 15_827),
    (SC.TOTALLY_SYMMETRIC, (4, 4, 4), 1_008),
])
def test_walk_node_counts_are_pinned(cls, box, nodes):
    box = BoxDims(*box)
    assert enumerate_class_rows(box, cls)[1] == nodes
    assert visits_exactly(box, cls, nodes)


@pytest.mark.parametrize("cls, box, nodes", [
    (SC.TC, (6, 6, 4), 95_410),
    (SC.STC, (7, 7, 4), 21_482),
    (SC.SC, (6, 4, 4), 102_630),
    (SC.SC, (4, 5, 5), 78_505),
    (SC.CSTC, (6, 6, 6), 3_653),
    (SC.CSSC, (6, 6, 6), 144_567),
    (SC.TSSC, (6, 6, 6), 47_828),
])
def test_walk_node_counts_at_benchmark_scale(cls, box, nodes):
    # the boxes the benchmark times, where backtracking crosses long runs of
    # forced cells
    assert visits_exactly(BoxDims(*box), cls, nodes)


def test_deep_box_walk_needs_no_recursion():
    # 1,600 cells: deeper than the default recursion limit, were the walk to
    # recurse once per cell
    assert oracle.signed_count(BoxDims(40, 40, 0), SC.TC).value == 1


def test_signed_count_examples():
    assert oracle.signed_count(BoxDims(2, 2, 2), SC.TC).value == 0
    assert oracle.signed_count(BoxDims(3, 3, 2), SC.TC).value == 1
    assert oracle.signed_count(BoxDims(2, 2, 2), SC.SC).value == 2


def test_signed_count_needs_complementation():
    with pytest.raises(UnsupportedClassError):
        oracle.signed_count(BoxDims(2, 2, 2), SC.CYCLIC)


def test_signed_count_odd_height_uses_fallback_reference():
    result = oracle.signed_count(BoxDims(2, 3, 3), SC.SC)
    assert "lexicographically first" in result.sign_convention
    assert abs(result.value) == 1


def test_weighted_count_examples():
    box1 = BoxDims(1, 1, 1)
    assert oracle.weighted_count(box1, SC.PLAIN, WeightKind(WeightTag.QCUBES, Fraction(1))) == 2
    box = BoxDims(2, 2, 2)
    assert oracle.weighted_count(box, SC.PLAIN, WeightKind(WeightTag.QCUBES, Fraction(1))) == 20
    orbit_weight = oracle.weighted_count(
        box, SC.CYCLIC, WeightKind(WeightTag.QORBITS, Fraction(-1))
    )
    cssc = oracle.signed_count(box, SC.CSSC).value
    assert abs(orbit_weight) == cssc * cssc == 1


def test_weighted_count_qcubes_tracks_generating_polynomial():
    # q = 2 separates sizes, so this pins the whole size distribution
    box = BoxDims(2, 2, 2)
    by_hand = sum(
        Fraction(2) ** pp.size() for pp in oracle.enumerate_class(box, SC.PLAIN)
    )
    assert oracle.weighted_count(box, SC.PLAIN, WeightKind(WeightTag.QCUBES, Fraction(2))) == by_hand


def test_qorbits_needs_symmetry_group():
    with pytest.raises(UnsupportedClassError):
        oracle.weighted_count(
            BoxDims(2, 2, 2), SC.SC, WeightKind(WeightTag.QORBITS, Fraction(-1))
        )


def test_plain_counts_match_box_formula_small():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                count = oracle.weighted_count(
                    BoxDims(a, b, c), SC.PLAIN, WeightKind(WeightTag.PLAIN)
                )
                assert count == qseries.macmahon_box(a, b, c)


def test_cyclic_count_matches_product_formula():
    # product formula for cyclically symmetric plane partitions in a cube
    def cspp(r):
        total = Fraction(1)
        for i in range(1, r + 1):
            total *= Fraction(3 * i - 1, 3 * i - 2)
            for j in range(i, r + 1):
                total *= Fraction(i + j + r - 1, 2 * i + j - 1)
        assert total.denominator == 1
        return int(total)

    for r in (1, 2, 3, 4, 5):
        count = sum(1 for _ in oracle.enumerate_class(BoxDims(r, r, r), SC.CYCLIC))
        assert count == cspp(r)


def test_signed_counts_alpha_three_boxes():
    box = BoxDims(6, 6, 6)
    assert oracle.signed_count(box, SC.TSSC).value == 1
    assert oracle.signed_count(box, SC.CSTC).value == 1
    assert oracle.signed_count(box, SC.CSSC).value == 7


def test_count_vsasm_values():
    assert oracle.count_vsasm(1) == 1
    assert oracle.count_vsasm(2) == 0
    assert oracle.count_vsasm(3) == 1
    assert oracle.count_vsasm(5) == 3
    assert oracle.count_vsasm(7) == 26


def test_count_vsasm_limits():
    with pytest.raises(ResourceLimitError):
        oracle.count_vsasm(9)
    with pytest.raises(Exception):
        oracle.count_vsasm(0)


def test_count_vsasm_matches_asm_filter():
    for n in range(1, 8):
        assert oracle.count_vsasm(n) == vsasm_count_by_filter(n), n


def test_asm_total_counts():
    # 1, 2, 7, 42 alternating sign matrices of orders 1..4
    totals = [
        sum(1 for _ in alternating_sign_matrices(n)) for n in range(1, 5)
    ]
    assert totals == [1, 2, 7, 42]


def test_asm_matrices_are_alternating():
    for m in alternating_sign_matrices(4):
        for row in m:
            assert sum(row) == 1
            partial = 0
            for entry in row:
                partial += entry
                assert partial in (0, 1)
        for col in zip(*m):
            assert sum(col) == 1
            partial = 0
            for entry in col:
                partial += entry
                assert partial in (0, 1)
