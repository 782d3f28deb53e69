from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from ppsign import formulas, oracle, qseries
from ppsign.core import BoxDims, SymmetryClass, check_box_shape
from ppsign.errors import InvalidInputError, ResourceLimitError, ShapeError, UnsupportedClassError
from ppsign.oracle import WeightKind, WeightTag

from oracles import (
    alternating_sign_matrices,
    enumerate_class_rows,
    pp_size,
    tally_by_leaf,
    vsasm_count_by_filter,
)

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
    # a side of 5 or 6 at small volume: rows and columns longer than above,
    # of both parities
    for sides in WIDE_BOXES.get(cls, ()):
        yield BoxDims(*sides)


WIDE_BOXES = {
    SC.SC: [(5, 2, 3), (2, 5, 3), (3, 2, 5), (6, 3, 2), (2, 6, 3), (3, 3, 6), (5, 4, 2)],
    SC.TC: [(5, 5, 2), (6, 6, 2)],
    # past 4^3 the values written ahead of their cells, and the bounds they
    # put on the cells between, act over longer stretches of rows
    SC.TOTALLY_SYMMETRIC: [(5, 5, 5), (6, 6, 6)],
    SC.CYCLIC: [(5, 5, 5)],
}


@pytest.mark.parametrize("cls", list(SC))
def test_walk_matches_row_reference(cls):
    # zero sides, odd heights and the classes a parity makes empty included;
    # the walk decides each rule no later than the reference does, so it
    # finishes on the reference's node count
    for box in small_boxes(cls):
        members, nodes = enumerate_class_rows(box, cls)
        walked = [pp.heights for pp in oracle.enumerate_class(box, cls, node_budget=nodes)]
        assert walked == members, box


def pin_ids(pins):
    return [f"{cls}-box{k}-{reference}" for k, (cls, _, reference, _) in enumerate(pins)]


# (class, box, nodes of the row reference, nodes of the walk)
NODE_PINS = [
    (SC.TC, (4, 4, 4), 1_062, 846),
    (SC.STC, (5, 5, 4), 1_229, 997),
    (SC.SC, (4, 4, 4), 7_651, 4_071),
    (SC.CSTC, (4, 4, 4), 117, 59),
    (SC.CSSC, (4, 4, 4), 682, 122),
    (SC.TSSC, (4, 4, 4), 449, 59),
    (SC.CYCLIC, (4, 4, 4), 1_999, 1_999),
    (SC.PLAIN, (3, 3, 3), 2_674, 2_674),
    (SC.SYMMETRIC, (4, 4, 4), 15_827, 15_827),
    (SC.TOTALLY_SYMMETRIC, (4, 4, 4), 1_008, 773),
]


@pytest.mark.parametrize("cls, box, reference, nodes", NODE_PINS, ids=pin_ids(NODE_PINS))
def test_walk_node_counts_are_pinned(cls, box, reference, nodes):
    box = BoxDims(*box)
    assert enumerate_class_rows(box, cls)[1] == reference
    assert visits_exactly(box, cls, nodes)


BENCHMARK_PINS = [
    (SC.TC, (6, 6, 4), 95_410, 76_045),
    (SC.STC, (7, 7, 4), 21_482, 17_504),
    (SC.SC, (6, 4, 4), 102_630, 36_637),
    (SC.SC, (4, 5, 5), 78_505, 29_996),
    (SC.CSTC, (6, 6, 6), 3_653, 787),
    (SC.CSSC, (6, 6, 6), 144_567, 3_228),
    (SC.TSSC, (6, 6, 6), 47_828, 573),
]


@pytest.mark.parametrize("cls, box, reference, nodes", BENCHMARK_PINS, ids=pin_ids(BENCHMARK_PINS))
def test_walk_node_counts_at_benchmark_scale(cls, box, reference, nodes):
    # the boxes the benchmark times; the reference checks each forced cell
    # when it reaches it, the walk on the choice cell that fixes it
    box = BoxDims(*box)
    members, reference_nodes = enumerate_class_rows(box, cls)
    assert reference_nodes == reference
    assert heights_list(box, cls) == members
    assert visits_exactly(box, cls, nodes)


def test_cyclic_walk_node_counts_past_benchmark_scale():
    # at 8^3 the row reference takes 31,226,784 nodes for TSSC, about a
    # minute, so the walk alone is pinned
    box = BoxDims(8, 8, 8)
    for cls, nodes in [(SC.CSTC, 22_473), (SC.TSSC, 7_446)]:
        assert visits_exactly(box, cls, nodes), cls


def test_non_cyclic_walk_is_backtrack_free():
    # each root's bounds are projected onto the earlier roots, so every
    # node lies on the path to a member: the walk visits each distinct
    # prefix of a member once and no other (without the projection, SC
    # 5x4x4 takes 16,132 nodes for its 12,497 prefixes)
    for cls in (SC.TC, SC.STC, SC.SC):
        for a, b, c in product(range(1, 9), repeat=3):
            box = BoxDims(a, b, c)
            if box.volume() > 100:
                continue
            try:
                check_box_shape(box, cls)
            except ShapeError:
                continue
            members = [sum(heights, ()) for heights in heights_list(box, cls)]
            prefixes = sum(len({h[:idx + 1] for h in members}) for idx in range(a * b))
            assert visits_exactly(box, cls, prefixes), (cls, box)


def test_walk_offers_only_members_but_in_cyclic(monkeypatch):
    # every leaf the walk offers the class predicate is a member, except in
    # CYCLIC, where the counts of a row's conjugate leave non-members (with
    # the writes ahead turned on there, the counts stay the same)
    offered = []
    real = oracle.core.class_predicate

    def counting(box, cls):
        accept = real(box, cls)

        def predicate(h):
            offered.append(accept(h))
            return offered[-1]

        return predicate

    monkeypatch.setattr(oracle.core, "class_predicate", counting)
    cubes = [BoxDims(n, n, n) for n in (2, 4, 6)]
    grid = {
        "tc": (SC.TC, [BoxDims(a, a, 2 * b) for a in range(1, 6) for b in range(4)]),
        "stc": (SC.STC, [BoxDims(a, a, 2 * b) for a in range(1, 6) for b in range(4)]),
        "sc": (SC.SC, [BoxDims(*s) for s in product(range(1, 5), range(1, 5), range(5))]),
        "cstc": (SC.CSTC, cubes),
        "cssc": (SC.CSSC, cubes),
        "tssc": (SC.TSSC, cubes),
        "totally-symmetric": (SC.TOTALLY_SYMMETRIC, [BoxDims(n, n, n) for n in range(1, 6)]),
        **{f"cyclic-{n}": (SC.CYCLIC, [BoxDims(n, n, n)]) for n in (3, 4, 5)},
    }
    found = {}
    for name, (cls, boxes) in grid.items():
        offered.clear()
        for box in boxes:
            for _ in oracle.enumerate_class(box, cls):
                pass
        found[name] = (len(offered), offered.count(False))  # leaves, rejected
    assert found == {
        "tc": (5849, 0), "stc": (347, 0), "sc": (1254, 0),
        "cstc": (14, 0), "cssc": (54, 0), "tssc": (10, 0), "totally-symmetric": (441, 0),
        "cyclic-3": (30, 10), "cyclic-4": (180, 48), "cyclic-5": (1762, 310),
    }


def members_before_stop(box, cls, budget):
    """The heights the walk yields on a node budget, and whether it stopped."""
    members = []
    try:
        for pp in oracle.enumerate_class(box, cls, node_budget=budget):
            members.append(pp.heights)
    except ResourceLimitError:
        return members, True
    return members, False


def copy_runs(box, cls):
    """(start, stop) of each maximal run of copy cells, which the walk
    charges to the node cell before it."""
    runs = []
    for idx, (_, copy, _) in enumerate(oracle._compile(box, cls)):
        if copy is None:
            continue
        if runs and runs[-1][1] == idx:
            runs[-1] = (runs[-1][0], idx + 1)
        else:
            runs.append((idx, idx + 1))
    return runs


TAIL_RUN_PINS = [pin for pin in NODE_PINS if pin[0] in (SC.TC, SC.STC, SC.SC)]


@pytest.mark.parametrize("cls, box, reference, nodes", TAIL_RUN_PINS, ids=pin_ids(TAIL_RUN_PINS))
def test_budget_stop_inside_the_tail_run_of_copies(cls, box, reference, nodes):
    # every cell past the last choice copies a root, and the walk's last
    # nodes are that run on the way to the last member: a budget short by
    # any part of the run stops before that member, after all the others
    box = BoxDims(*box)
    start, stop = copy_runs(box, cls)[-1]
    assert stop == box.a * box.b and stop - start > 1
    full, stopped = members_before_stop(box, cls, nodes)
    assert not stopped
    for short in range(1, stop - start + 1):
        assert members_before_stop(box, cls, nodes - short) == (full[:-1], True)


def test_budget_stop_inside_an_interior_run_of_copies():
    # STC 7x7x6 copies cells 12..15 between choice cells, and the path to
    # each of the first two members (49 and 98 nodes) passes through them,
    # so the budgets short of the third member's 146 include some that end
    # mid-run
    box, cls = BoxDims(7, 7, 6), SC.STC
    assert (12, 16) in copy_runs(box, cls)
    full, stopped = members_before_stop(box, cls, 142_314)
    assert not stopped and len(full) > 2
    yielded = 0
    for budget in range(146):
        members, stopped = members_before_stop(box, cls, budget)
        assert stopped, budget
        assert members == full[:len(members)], budget
        assert len(members) >= yielded
        yielded = len(members)
    assert yielded == 2


@pytest.mark.parametrize("cls, nodes", [
    pytest.param(SC.CSSC, 3_228, id="cssc-6"),
    pytest.param(SC.TSSC, 573, id="tssc-6"),
])
def test_budget_stop_inside_the_cyclic_walk(cls, nodes):
    # the cyclic classes' forced cells, and the values some of them write
    # ahead, count their nodes on the choice cells' path: a stop anywhere
    # on it ends the walk after a prefix of the members, and a larger
    # budget never yields fewer
    box = BoxDims(6, 6, 6)
    full, stopped = members_before_stop(box, cls, nodes)
    assert not stopped
    yielded = 0
    for budget in [*range(0, nodes - 1, nodes // 100), nodes - 1]:
        members, stopped = members_before_stop(box, cls, budget)
        assert stopped, budget
        assert members == full[:len(members)], budget
        assert len(members) >= yielded, budget
        yielded = len(members)
    assert 0 < yielded <= len(full)


def test_sc_count_is_invariant_under_side_permutation():
    # the SC condition treats the three axes alike, so |count| depends on
    # the sides alone, not their order; the walk moves rules onto roots by
    # orientation and parity, and a slip there would break the symmetry
    for sides in combinations_with_replacement(range(11), 3):
        if sides[0] * sides[1] * sides[2] > 120:
            continue
        counts = {
            abs(oracle.signed_count(BoxDims(*box), SC.SC).value)
            for box in set(permutations(sides))
        }
        assert len(counts) == 1, sides


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


def test_signed_count_compiles_its_box_and_class_once():
    # an odd height has no canonical reference, so the walk to the first
    # member and the tally's walk both run on the one cached plan
    oracle._compile.cache_clear()
    result = oracle.signed_count(BoxDims(4, 5, 5), SC.SC)
    assert "lexicographically first" in result.sign_convention
    info = oracle._compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
        Fraction(2) ** pp_size(pp) for pp in oracle.enumerate_class(box, SC.PLAIN)
    )
    assert oracle.weighted_count(box, SC.PLAIN, WeightKind(WeightTag.QCUBES, Fraction(2))) == by_hand


def tally_boxes(cls):
    """Every box with sides 0..5 that fits the class, up to volume 64; up to
    volume 36 for PLAIN, whose 4^3 box visits 743,287 nodes."""
    for a, b, c in product(range(6), repeat=3):
        if a * b * c > (36 if cls is SC.PLAIN else 64):
            continue
        box = BoxDims(a, b, c)
        try:
            check_box_shape(box, cls)
        except ShapeError:
            continue
        yield box


def test_tally_matches_the_per_leaf_sum(monkeypatch):
    # the walk reads each member's statistic off its path: a root's row
    # holds its copies' rows, and the constant copies (a self-paired cell
    # at c/2, as at the centre of an SC box with two odd sides) sit in a
    # base that only the cube weight sees; every class, every weight it
    # has, each checked against the sum over the member's cells at the leaf
    checked = []
    tally = oracle._tally

    def tally_checked(box, cls, reps, node_budget):
        hist = tally(box, cls, reps, node_budget)
        assert hist == tally_by_leaf(box, cls, reps, node_budget), (cls, box, reps)
        checked.append((cls, box))
        return hist

    monkeypatch.setattr(oracle, "_tally", tally_checked)
    weights = [WeightKind(tag, Fraction(2)) for tag in WeightTag]
    for cls in SC:
        for box in tally_boxes(cls):
            if cls.has_complementation:
                oracle.signed_count(box, cls)
            for w in weights:
                if w.tag is not WeightTag.QORBITS or cls.is_symmetric or cls.is_cyclic:
                    oracle.weighted_count(box, cls, w)
    assert (SC.SC, BoxDims(3, 5, 2)) in checked and (SC.SC, BoxDims(5, 3, 4)) in checked
    assert len(checked) == 1_244


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


@pytest.mark.parametrize("cls, closed_form, budget", [
    (SC.CSSC, formulas.thm7_csscpp, 300_000),
    (SC.TSSC, formulas.thm5_tsscpp, 30_000),
    (SC.CSTC, formulas.thm4_cstcpp, 40_000),
])
def test_signed_counts_match_closed_forms_with_sign(cls, closed_form, budget):
    # the orbit-sign sum against the product formula, sign included, for
    # alpha = 1..4; the 8^3 walk must finish inside the budget (CSSC 8^3
    # visits 241,171 nodes where a walk that checks each count-forced cell
    # only on reaching it visits 7,912,639)
    for alpha in range(1, 5):
        box = BoxDims(2 * alpha, 2 * alpha, 2 * alpha)
        value = oracle.signed_count(box, cls, node_budget=budget).value
        assert value == closed_form(alpha), alpha


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
    # 15 is the largest odd order counted; an even order is 0 at any size
    with pytest.raises(ResourceLimitError):
        oracle.count_vsasm(17)
    assert oracle.count_vsasm(18) == 0
    with pytest.raises(InvalidInputError):
        oracle.count_vsasm(0)


def test_count_vsasm_refuses_a_float_order():
    with pytest.raises(InvalidInputError, match="must be an int"):
        oracle.count_vsasm(9.0)


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
