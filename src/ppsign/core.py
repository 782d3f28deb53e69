"""Plane partitions in a box, symmetry classes, orbits, and signs.

A plane partition is stored as its a x b height matrix; the cell set view
(1-based coordinates (i, j, k)) is derived on demand.  Symmetry classes
are defined through two sets of box self-maps: `sym` maps that members
must be invariant under, and `anti` maps that send a member onto the
complement of its image cell set.  The sign of a member is (-1)^d where d
counts orbits on which it differs from the class reference partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import add, ge, itemgetter
from typing import Callable, Iterator, Sequence

from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    ShapeError,
    UnsupportedClassError,
)

Cell = tuple[int, int, int]


@dataclass(frozen=True)
class BoxDims:
    """Sidelengths of the containing box; degenerate (zero) sides allowed."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 0:
            raise InvalidInputError(f"box sides must be nonnegative: {self}")

    def cells(self) -> Iterator[Cell]:
        for i in range(1, self.a + 1):
            for j in range(1, self.b + 1):
                for k in range(1, self.c + 1):
                    yield (i, j, k)

    def volume(self) -> int:
        return self.a * self.b * self.c


class SymmetryClass(Enum):
    """A symmetry class, declared by its traits (Kuperberg, math.CO/9810091).

    ``is_symmetric``: members are invariant under transposition i <-> j.
    ``is_cyclic``: members are invariant under the rotation (i, j, k) ->
    (j, k, i).  ``complement``: the map that sends a member onto its
    complement, "point" through the box centre, "transpose" through the
    centre with i <-> j, or None for a class without complementation;
    ``has_complementation`` tells the two apart.  Code past the shape check
    reads the complement through ``complement_partners``.
    """

    PLAIN = "plain", False, False, None
    SYMMETRIC = "symmetric", True, False, None
    CYCLIC = "cyclic", False, True, None
    TOTALLY_SYMMETRIC = "totally-symmetric", True, True, None
    SC = "sc", False, False, "point"
    TC = "tc", False, False, "transpose"
    STC = "stc", True, False, "transpose"
    CSTC = "cstc", False, True, "transpose"
    CSSC = "cssc", False, True, "point"
    TSSC = "tssc", True, True, "point"

    def __new__(cls, value: str, is_symmetric: bool, is_cyclic: bool,
                complement: str | None) -> SymmetryClass:
        member = object.__new__(cls)
        member._value_ = value
        member.is_symmetric = is_symmetric
        member.is_cyclic = is_cyclic
        member.complement = complement
        member.has_complementation = complement is not None
        return member


@dataclass(frozen=True)
class SignedCount:
    """An exact signed enumeration and the sign reference it is relative to."""

    value: int
    sign_convention: str


def check_box_shape(box: BoxDims, cls: SymmetryClass) -> None:
    """Raise ShapeError unless the box can hold members of the class.

    Rotation needs a cube, with even sides if a complementation comes too.
    Otherwise transposition needs a square base, and the transpose
    complement also an even height.
    """
    a, b, c = box.a, box.b, box.c
    if cls.is_cyclic:
        if not (a == b == c):
            raise ShapeError(f"{cls.value} needs a cubical box, got {box}")
        if cls.has_complementation and a % 2 != 0:
            raise ShapeError(f"{cls.value} needs even sides, got {box}")
    elif cls.is_symmetric or cls.complement == "transpose":
        if a != b:
            raise ShapeError(f"{cls.value} needs a square base, got {box}")
        if cls.complement == "transpose" and c % 2 != 0:
            raise ShapeError(f"{cls.value} needs an even height, got {box}")


@dataclass(frozen=True)
class PlanePartition:
    """A plane partition given by its weakly decreasing height matrix."""

    box: BoxDims
    heights: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# symmetry maps


@lru_cache(maxsize=None)
def complement_partners(box: BoxDims, cls: SymmetryClass) -> tuple[int, ...]:
    """partners[x]: the row-major index of the column that complementation
    pairs with column x = i*b + j (0-based); () for a class without
    complementation.  Raises ShapeError if the box cannot hold the class.

    A member's heights at x and partners[x] sum to c: complementation sends
    the cell over column x at height k to the cell over partners[x] at
    height c + 1 - k.  The point complement pairs (i, j) with
    (a-1-i, b-1-j), index n-1-x; the transpose complement pairs it with
    (a-1-j, a-1-i), index n-1-(j*a+i).  Either table is an involution.
    """
    check_box_shape(box, cls)
    n = box.a * box.b
    if cls.complement == "point":
        return tuple(range(n - 1, -1, -1))
    if cls.complement == "transpose":
        a = box.a
        return tuple(n - 1 - (x % a) * a - x // a for x in range(n))
    return ()


def _maps_for(box: BoxDims, cls: SymmetryClass) -> tuple[
    tuple[Callable[[Cell], Cell], ...], tuple[Callable[[Cell], Cell], ...]
]:
    """(sym, anti) cell maps generating the class's combined group; the
    rotation rho alone generates the cyclic group, since rho^2 = rho^-1."""
    b, c = box.b, box.c
    partners = complement_partners(box, cls)  # checks the box shape

    def tau(cell: Cell) -> Cell:
        i, j, k = cell
        return (j, i, k)

    def rho(cell: Cell) -> Cell:
        i, j, k = cell
        return (j, k, i)

    def complement(cell: Cell) -> Cell:
        i, j, k = cell
        p = partners[(i - 1) * b + j - 1]
        return (p // b + 1, p % b + 1, c + 1 - k)

    sym = ((tau,) if cls.is_symmetric else ()) + ((rho,) if cls.is_cyclic else ())
    anti = (complement,) if cls.has_complementation else ()
    return sym, anti


def satisfies(pp: PlanePartition, cls: SymmetryClass) -> bool:
    """Whether pp is a plane partition in its box and a member of the class.

    Raises ShapeError if the box cannot hold the class or the heights are
    not an a x b matrix.  Entries must lie in [0, c] and weakly decrease
    along rows and columns; then every class condition is checked, by
    class_predicate on the row-major heights.
    """
    box = pp.box
    accept = class_predicate(box, cls)  # checks the box shape
    rows = pp.heights
    h = list(chain.from_iterable(rows))
    by_columns = list(chain.from_iterable(zip(*rows)))
    # zip stops at the shortest row, so the sizes agree only for a x b rows
    if not (len(rows) == box.a and len(h) == len(by_columns) == box.a * box.b):
        raise ShapeError(f"heights in {box} must form an {box.a} x {box.b} matrix")
    # each entry is at least the one below it, and the one to its right
    if not (all(map(ge, h, h[box.b:])) and all(map(ge, by_columns, by_columns[box.a:]))):
        return False
    if h and (h[0] > box.c or h[-1] < 0):  # the largest and the smallest entry
        return False
    return accept(h)


@lru_cache(maxsize=None)
def class_predicate(box: BoxDims, cls: SymmetryClass) -> Callable[[Sequence[int]], bool]:
    """The class conditions compiled for one box and class: a function that
    tells whether a row-major height list h meets them.  Entries past the
    first a*b are ignored, and h is not checked to be a plane partition.

    Raises ShapeError if the box cannot hold the class.  The conditions are
    phrased on the height matrix and read h through index tuples:
    transposition invariance pairs h[i][j] with h[j][i], complementation
    pairs each cell once with its partner in complement_partners, the two
    to sum to c (a cell that is its own partner, to c / 2), and the cyclic
    condition makes column j the conjugate of row j,
    h[i][j] == #{k : h[j][k] > i}.
    """
    partners = complement_partners(box, cls)  # checks the box shape
    a, b, c = box.a, box.b, box.c
    n = a * b
    equal = same = None
    if cls.is_symmetric:
        upper = [(i * b + j, j * b + i) for i in range(a) for j in range(i + 1, b)]
        if upper:
            equal, same = (_getter(side) for side in zip(*upper))
    # each row of a cubical box, and the column it must be the conjugate of
    cyclic = tuple(
        (_getter(range(j * a, (j + 1) * a)), _getter(range(j, n, a)))
        for j in range(a if cls.is_cyclic else 0)
    )
    pairs = [(k, p) for k, p in enumerate(partners) if k <= p]
    first = second = None
    if pairs:
        first, second = (_getter(side) for side in zip(*pairs))
    full = (c,) * len(pairs)

    def predicate(h: Sequence[int]) -> bool:
        if equal is not None and equal(h) != same(h):
            return False
        for row, column in cyclic:
            if column(h) != _conjugate(row(h)):
                return False
        return first is None or tuple(map(add, first(h), second(h))) == full

    return predicate


def _getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """h -> the tuple of h at indices; itemgetter gives a tuple only from
    two indices on."""
    indices = tuple(indices)
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda h: tuple(h[i] for i in indices)


@lru_cache(maxsize=1 << 14)  # every row of a cube up to 8^3: C(16, 8) = 12,870
def _conjugate(row: tuple[int, ...]) -> tuple[int, ...]:
    """Entry i counts the entries of row above i, for i < len(row): past the
    k smallest entries, len(row) - k remain, and they are above every i
    below the next one."""
    a = len(row)
    conjugate: list[int] = []
    for k, v in enumerate(sorted(row)):
        conjugate += [a - k] * (min(v, a) - len(conjugate))
    return tuple(conjugate + [0] * (a - len(conjugate)))


# ---------------------------------------------------------------------------
# orbits and signs


@dataclass(frozen=True)
class Orbit:
    """One combined-group orbit, split into the halves swapped by complementation."""

    half_a: frozenset[Cell]
    half_b: frozenset[Cell]


@dataclass(frozen=True)
class OrbitDecomposition:
    box: BoxDims
    cls: SymmetryClass
    orbits: tuple[Orbit, ...]


def _sym_orbit(sym: Sequence[Callable[[Cell], Cell]], seed: Cell) -> frozenset[Cell]:
    """The orbit of one cell under the group the maps generate."""
    seen = {seed}
    stack = [seed]
    while stack:
        cell = stack.pop()
        for g in sym:
            image = g(cell)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return frozenset(seen)


@lru_cache(maxsize=None)
def symmetry_orbit_reps(box: BoxDims, cls: SymmetryClass) -> tuple[Cell, ...]:
    """The first cell, in box order, of each orbit of the box cells under
    the class's symmetry group without complementation."""
    sym, _ = _maps_for(box, cls)
    seen: set[Cell] = set()
    reps: list[Cell] = []
    for cell in box.cells():
        if cell not in seen:
            reps.append(cell)
            seen |= _sym_orbit(sym, cell)
    return tuple(reps)


@lru_cache(maxsize=None)
def orbit_decomposition(box: BoxDims, cls: SymmetryClass) -> OrbitDecomposition:
    """Orbits of <class symmetries, complementation> on the box cells.

    Each orbit splits into two equal halves; a class member contains
    exactly one half of each orbit.
    """
    if not cls.has_complementation:
        raise UnsupportedClassError(f"{cls.value} has no complementation component")
    check_box_shape(box, cls)
    sym, anti = _maps_for(box, cls)
    orbits: list[Orbit] = []
    assigned: set[Cell] = set()
    for cell in box.cells():
        if cell in assigned:
            continue
        half_a = _sym_orbit(sym, cell)
        half_b = _sym_orbit(sym, anti[0](cell))
        if half_a & half_b:
            raise InvalidInputError(
                f"orbit of {cell} does not split into two halves under {cls.value}"
            )
        if len(half_a) != len(half_b):
            raise InternalConsistencyError(f"orbit halves of {cell} differ in size")
        orbits.append(Orbit(half_a, half_b))
        assigned |= half_a | half_b
    if len(assigned) != box.volume():
        raise InternalConsistencyError(f"orbits of {cls.value} do not partition {box}")
    return OrbitDecomposition(box, cls, tuple(orbits))


# the sign labels of the two reference partitions below
HALF_FULL_REFERENCE = "reference: half-full partition"
MAJORITY_REFERENCE = "reference: majority partition"


def reference_partition(box: BoxDims, cls: SymmetryClass) -> PlanePartition:
    """The class member assigned weight +1.

    The classes without rotation (TC, STC, SC) use the half-full partition
    {k <= c/2}; the cyclic ones (CSTC, CSSC, TSSC) use the majority
    partition {>= 2 coordinates <= a/2}.
    """
    if not cls.has_complementation:
        raise UnsupportedClassError(f"{cls.value} has no complementation component")
    check_box_shape(box, cls)
    a, b, c = box.a, box.b, box.c
    if not cls.is_cyclic:
        if c % 2 != 0:
            raise UnsupportedClassError(
                "no half-full reference in a box of odd height; "
                "signed counts are then fixed only up to a global sign"
            )
        heights = tuple(tuple(c // 2 for _ in range(b)) for _ in range(a))
    else:
        alpha = a // 2
        heights = tuple(
            tuple(
                c
                if i <= alpha and j <= alpha
                else (alpha if (i <= alpha) != (j <= alpha) else 0)
                for j in range(1, b + 1)
            )
            for i in range(1, a + 1)
        )
    pp = PlanePartition(box, heights)
    if not satisfies(pp, cls):
        raise InternalConsistencyError(f"reference partition is not a {cls.value} member")
    return pp
