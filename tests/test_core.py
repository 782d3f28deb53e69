from functools import lru_cache
from itertools import product

import pytest

from ppsign import core
from ppsign.core import BoxDims, PlanePartition, SymmetryClass
from ppsign.errors import (
    DimensionError,
    InvalidInputError,
    ShapeError,
    UnsupportedClassError,
)
from ppsign.oracle import enumerate_class

from oracles import (
    _point_complement,
    _transpose_complement,
    cell_indicator,
    cellset_satisfies,
    cellset_to_pp,
    cells_of,
    is_valid_pp,
    orbit_cells,
    pp_size,
    region_count,
    sign_weight,
)

SC = SymmetryClass

COMPLEMENTATION_BOXES = [
    (SC.SC, BoxDims(2, 2, 2)),
    (SC.SC, BoxDims(3, 2, 2)),
    (SC.SC, BoxDims(2, 3, 3)),
    (SC.TC, BoxDims(2, 2, 2)),
    (SC.TC, BoxDims(3, 3, 2)),
    (SC.TC, BoxDims(4, 4, 4)),
    (SC.STC, BoxDims(2, 2, 2)),
    (SC.STC, BoxDims(3, 3, 4)),
    (SC.STC, BoxDims(4, 4, 2)),
    (SC.CSTC, BoxDims(2, 2, 2)),
    (SC.CSTC, BoxDims(4, 4, 4)),
    (SC.CSSC, BoxDims(2, 2, 2)),
    (SC.CSSC, BoxDims(4, 4, 4)),
    (SC.TSSC, BoxDims(2, 2, 2)),
    (SC.TSSC, BoxDims(4, 4, 4)),
]


def test_box_rejects_negative_sides():
    with pytest.raises(InvalidInputError):
        BoxDims(1, -1, 1)


def test_is_valid_pp():
    box = BoxDims(2, 2, 2)
    assert is_valid_pp([[2, 1], [1, 0]], box)
    assert not is_valid_pp([[0, 1], [0, 0]], box)
    assert not is_valid_pp([[3, 0], [0, 0]], box)
    with pytest.raises(DimensionError):
        is_valid_pp([[1, 1]], box)


def test_satisfies_examples():
    box = BoxDims(2, 2, 2)
    assert core.satisfies(PlanePartition(box, ((1, 1), (1, 1))), SC.TC)
    assert core.satisfies(PlanePartition(box, ((2, 1), (1, 0))), SC.SC)
    assert not core.satisfies(PlanePartition(box, ((2, 2), (0, 0))), SC.CYCLIC)


def test_satisfies_shape_errors():
    with pytest.raises(ShapeError):
        core.satisfies(PlanePartition(BoxDims(2, 3, 2), ((0,) * 3,) * 2), SC.TC)
    with pytest.raises(ShapeError):
        core.satisfies(PlanePartition(BoxDims(2, 2, 3), ((0, 0), (0, 0))), SC.STC)
    with pytest.raises(ShapeError):
        core.check_box_shape(BoxDims(3, 3, 3), SC.TSSC)


def test_satisfies_rejects_height_matrices_that_are_not_plane_partitions():
    box = BoxDims(2, 2, 2)
    # each would pass the class conditions alone: a rise along a row, a rise
    # down a column, and entries outside [0, c]
    assert not core.satisfies(PlanePartition(box, ((1, 2), (0, 1))), SC.SC)
    assert not core.satisfies(PlanePartition(box, ((1, 0), (2, 1))), SC.SC)
    assert not core.satisfies(PlanePartition(box, ((3, 0), (0, -1))), SC.PLAIN)
    assert not core.satisfies(PlanePartition(BoxDims(2, 2, 4), ((5, 1), (1, -3))), SC.PLAIN)
    assert core.satisfies(PlanePartition(BoxDims(2, 2, 4), ((4, 1), (1, 0))), SC.PLAIN)
    with pytest.raises(ShapeError):
        core.satisfies(PlanePartition(box, ((1, 1),)), SC.PLAIN)
    with pytest.raises(ShapeError):
        core.satisfies(PlanePartition(box, ((1, 1), (1,))), SC.SC)


# (class, box, what the box lacks or None): per class a box that passes and
# one that breaks each rule; a box that breaks two rules shows which is
# checked first
SHAPE_CASES = [
    (SC.PLAIN, (2, 3, 5), None),
    (SC.PLAIN, (0, 1, 2), None),
    (SC.SYMMETRIC, (3, 3, 5), None),
    (SC.SYMMETRIC, (2, 3, 2), "a square base"),
    (SC.CYCLIC, (3, 3, 3), None),
    (SC.CYCLIC, (3, 3, 2), "a cubical box"),
    (SC.TOTALLY_SYMMETRIC, (3, 3, 3), None),
    (SC.TOTALLY_SYMMETRIC, (3, 3, 2), "a cubical box"),
    (SC.TOTALLY_SYMMETRIC, (2, 3, 3), "a cubical box"),
    (SC.SC, (3, 2, 5), None),
    (SC.SC, (1, 1, 1), None),
    (SC.TC, (3, 3, 2), None),
    (SC.TC, (2, 3, 2), "a square base"),
    (SC.TC, (3, 3, 3), "an even height"),
    (SC.TC, (2, 3, 3), "a square base"),
    (SC.STC, (3, 3, 4), None),
    (SC.STC, (3, 2, 2), "a square base"),
    (SC.STC, (2, 2, 1), "an even height"),
    (SC.STC, (3, 2, 3), "a square base"),
    (SC.CSTC, (4, 4, 4), None),
    (SC.CSTC, (4, 4, 2), "a cubical box"),
    (SC.CSTC, (3, 3, 3), "even sides"),
    (SC.CSTC, (3, 3, 5), "a cubical box"),
    (SC.CSSC, (2, 2, 2), None),
    (SC.CSSC, (2, 4, 4), "a cubical box"),
    (SC.CSSC, (5, 5, 5), "even sides"),
    (SC.CSSC, (5, 3, 5), "a cubical box"),
    (SC.TSSC, (6, 6, 6), None),
    (SC.TSSC, (6, 6, 4), "a cubical box"),
    (SC.TSSC, (1, 1, 1), "even sides"),
    (SC.TSSC, (3, 1, 1), "a cubical box"),
]


def test_shape_cases_cover_every_class():
    assert {cls for cls, _, _ in SHAPE_CASES} == set(SC)


@pytest.mark.parametrize("cls,sides,lacks", SHAPE_CASES)
def test_check_box_shape(cls, sides, lacks):
    box = BoxDims(*sides)
    if lacks is None:
        core.check_box_shape(box, cls)
        return
    with pytest.raises(ShapeError) as excinfo:
        core.check_box_shape(box, cls)
    assert str(excinfo.value) == f"{cls.value} needs {lacks}, got {box}"


# the cell map of each class's complementation, written out independently
COMPLEMENTS = {
    SC.SC: _point_complement, SC.CSSC: _point_complement, SC.TSSC: _point_complement,
    SC.TC: _transpose_complement, SC.STC: _transpose_complement,
    SC.CSTC: _transpose_complement,
}


def test_complement_partners_match_the_cell_maps():
    # every box with sides <= 6: the table checks the shape as
    # check_box_shape does, is empty without complementation, sends column
    # (i, j) where the cell map sends (i, j, 1), and is an involution
    valid = {cls: 0 for cls in COMPLEMENTS}
    for a, b, c in product(range(7), repeat=3):
        box = BoxDims(a, b, c)
        for cls in SC:
            try:
                core.check_box_shape(box, cls)
            except ShapeError:
                with pytest.raises(ShapeError):
                    core.complement_partners(box, cls)
                continue
            partners = core.complement_partners(box, cls)
            if cls not in COMPLEMENTS:
                assert partners == (), (cls, box)
                continue
            valid[cls] += 1
            images = [COMPLEMENTS[cls](box, (i, j, 1)) for i in range(1, a + 1)
                      for j in range(1, b + 1)]
            assert all(k == c for _, _, k in images), (cls, box)
            assert partners == tuple((i - 1) * b + j - 1 for i, j, _ in images), (cls, box)
            assert [partners[p] for p in partners] == list(range(a * b)), (cls, box)
    assert all(valid.values()), valid


CELLSET_CASES = COMPLEMENTATION_BOXES + [
    (SC.SYMMETRIC, BoxDims(3, 3, 2)),
    (SC.CYCLIC, BoxDims(3, 3, 3)),
    (SC.TOTALLY_SYMMETRIC, BoxDims(3, 3, 3)),
]


@lru_cache(maxsize=None)
def _satisfies_mismatches(box):
    """One pass over the plain partitions in the box: each member's cell
    indicator is built once and judged for every class CELLSET_CASES tests on this
    box.  Maps each class to the height matrices on which core.satisfies
    and the cell-set definition disagree."""
    classes = [cls for cls, case_box in CELLSET_CASES if case_box == box]
    mismatches = {cls: [] for cls in classes}
    for pp in enumerate_class(box, SC.PLAIN):
        indicator = cell_indicator(pp)
        for cls in classes:
            if core.satisfies(pp, cls) != cellset_satisfies(pp, cls, indicator):
                mismatches[cls].append(pp.heights)
    return mismatches


@pytest.mark.parametrize("cls,box", CELLSET_CASES)
def test_satisfies_matches_cellset_definitions(cls, box):
    assert _satisfies_mismatches(box)[cls] == []


def test_orbit_decomposition_examples():
    box = BoxDims(2, 2, 2)
    sc_orbits = core.orbit_decomposition(box, SC.SC).orbits
    assert len(sc_orbits) == 4
    for orbit in sc_orbits:
        assert len(orbit.half_a) == len(orbit.half_b) == 1

    cssc = core.orbit_decomposition(box, SC.CSSC).orbits
    diag = next(o for o in cssc if (1, 1, 1) in orbit_cells(o))
    assert {frozenset(h) for h in (diag.half_a, diag.half_b)} == {
        frozenset({(1, 1, 1)}),
        frozenset({(2, 2, 2)}),
    }

    tc = core.orbit_decomposition(box, SC.TC).orbits
    assert len(tc) == 4
    for orbit in tc:
        (cell,) = orbit.half_a
        i, j, k = cell
        assert orbit.half_b == frozenset({(3 - j, 3 - i, 3 - k)})


def test_orbit_decomposition_needs_complementation():
    with pytest.raises(UnsupportedClassError):
        core.orbit_decomposition(BoxDims(2, 2, 2), SC.CYCLIC)


@pytest.mark.parametrize("cls,box", COMPLEMENTATION_BOXES)
def test_orbit_invariants(cls, box):
    decomposition = core.orbit_decomposition(box, cls)
    seen = set()
    for orbit in decomposition.orbits:
        assert len(orbit.half_a) == len(orbit.half_b)
        assert not orbit.half_a & orbit.half_b
        assert not orbit_cells(orbit) & seen
        seen |= orbit_cells(orbit)
    assert len(seen) == box.volume()
    # every member contains exactly one full half of each orbit
    for pp in enumerate_class(box, cls):
        cells = cells_of(pp)
        for orbit in decomposition.orbits:
            in_a = orbit.half_a <= cells
            in_b = orbit.half_b <= cells
            assert in_a != in_b
            assert not (orbit.half_a & cells and orbit.half_b & cells)


def test_reference_partition_examples():
    assert core.reference_partition(BoxDims(2, 2, 2), SC.TC).heights == ((1, 1), (1, 1))
    assert core.reference_partition(BoxDims(2, 2, 2), SC.CSSC).heights == ((2, 1), (1, 0))
    assert core.reference_partition(BoxDims(2, 2, 4), SC.SC).heights == ((2, 2), (2, 2))


@pytest.mark.parametrize("cls,box", COMPLEMENTATION_BOXES)
def test_reference_partition_is_class_member(cls, box):
    if cls is SC.SC and box.c % 2:
        with pytest.raises(UnsupportedClassError):
            core.reference_partition(box, cls)
        return
    pp = core.reference_partition(box, cls)
    assert core.satisfies(pp, cls)


def test_sign_weight_examples():
    box = BoxDims(2, 2, 2)
    assert sign_weight(core.reference_partition(box, SC.TC), SC.TC) == 1
    assert sign_weight(PlanePartition(box, ((2, 1), (1, 0))), SC.TC) == -1
    all_one = PlanePartition(BoxDims(3, 3, 2), ((1, 1, 1),) * 3)
    assert sign_weight(all_one, SC.TC) == 1
    with pytest.raises(InvalidInputError):
        sign_weight(PlanePartition(box, ((2, 2), (2, 2))), SC.TC)


def test_region_count_examples():
    box = BoxDims(3, 3, 2)
    two_high = PlanePartition(box, ((2, 2, 1), (1, 1, 1), (1, 1, 0)))
    assert region_count(two_high, SC.TC) == 2
    assert region_count(core.reference_partition(box, SC.TC), SC.TC) == 0
    stc_box = BoxDims(2, 2, 2)
    assert region_count(PlanePartition(stc_box, ((2, 1), (1, 0))), SC.STC) == 1
    with pytest.raises(UnsupportedClassError):
        region_count(two_high, SC.SC)


def test_sign_equals_region_parity_tc():
    for a in range(1, 5):
        for b in range(0, 4):
            box = BoxDims(a, a, 2 * b)
            for pp in enumerate_class(box, SC.TC):
                expected = -1 if region_count(pp, SC.TC) % 2 else 1
                assert sign_weight(pp, SC.TC) == expected


@pytest.mark.parametrize(
    "cls,boxes",
    [
        (SC.STC, [BoxDims(a, a, c) for a in (2, 3, 4, 5, 6) for c in (2, 4, 6)]),
        (SC.CSTC, [BoxDims(s, s, s) for s in (2, 4, 6)]),
    ],
)
def test_sign_equals_region_parity_quarter_and_octant(cls, boxes):
    for box in boxes:
        for pp in enumerate_class(box, cls):
            expected = -1 if region_count(pp, cls) % 2 else 1
            assert sign_weight(pp, cls) == expected


@pytest.mark.parametrize("cls,box", COMPLEMENTATION_BOXES[:8])
def test_orbit_swap_flips_sign(cls, box):
    if cls is SC.SC and box.c % 2:
        return
    decomposition = core.orbit_decomposition(box, cls)
    for pp in enumerate_class(box, cls):
        cells = cells_of(pp)
        for orbit in decomposition.orbits:
            if orbit.half_a <= cells:
                swapped = (cells - orbit.half_a) | orbit.half_b
            else:
                swapped = (cells - orbit.half_b) | orbit.half_a
            candidate = cellset_to_pp(frozenset(swapped), box)
            if candidate is None or not core.satisfies(candidate, cls):
                continue
            assert sign_weight(candidate, cls) == -sign_weight(pp, cls)


def test_degenerate_box_has_single_empty_partition():
    for cls in (SC.TC, SC.SC, SC.STC):
        box = BoxDims(2, 2, 0) if cls is not SC.SC else BoxDims(2, 3, 0)
        members = list(enumerate_class(box, cls))
        assert len(members) == 1
        assert pp_size(members[0]) == 0
