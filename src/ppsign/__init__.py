"""Exact (-1)-enumeration of plane partitions with complementation symmetry.

Three independent routes to every count: a brute-force orbit-sign oracle,
determinant/Pfaffian lattice-path pipelines, and closed product formulas,
plus the determinant and Pfaffian identities the derivations rest on.
"""

from .core import (
    BoxDims,
    Orbit,
    OrbitDecomposition,
    PlanePartition,
    SignedCount,
    SymmetryClass,
    orbit_decomposition,
    reference_partition,
    satisfies,
)
from .oracle import (
    WeightKind,
    WeightTag,
    count_vsasm,
    enumerate_class,
    signed_count,
    weighted_count,
)
from .qseries import (
    HyperParams,
    binom,
    hyper_terminating,
    macmahon_box,
    pfaff_saalschutz_rhs,
    qbinom_minus1,
    shifted_factorial,
)

__all__ = [
    "BoxDims",
    "HyperParams",
    "Orbit",
    "OrbitDecomposition",
    "PlanePartition",
    "SignedCount",
    "SymmetryClass",
    "WeightKind",
    "WeightTag",
    "binom",
    "count_vsasm",
    "enumerate_class",
    "hyper_terminating",
    "macmahon_box",
    "orbit_decomposition",
    "pfaff_saalschutz_rhs",
    "qbinom_minus1",
    "reference_partition",
    "satisfies",
    "shifted_factorial",
    "signed_count",
    "weighted_count",
]
