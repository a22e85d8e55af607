"""Exact-arithmetic toolkit for sublattice-free convex lattice polygons."""

from .core import (
    E1,
    E2,
    ORIGIN,
    AffineMap,
    InvariantError,
    LatticeError,
    Mat2,
    StepMeasures,
    Sublattice,
    Vec,
    invariant_factors,
    steps,
)
from .polygon import (
    BoundingStats,
    DegenerateHullError,
    GeometryError,
    PickResult,
    Polygon,
    Segment,
    apply_affine,
    bounding_stats,
    convex_hull,
    lattice_points_in,
    pick_identity,
    polygon_free_of,
)
from .reduction import (
    ClassificationError,
    DiameterWitness,
    NormalizationResult,
    NotLatticeFreeError,
    SplitProfile,
    TypeTag,
    classify_type,
    lattice_diameter,
    satisfies_type,
    slab_normalize,
)
from .slopes import (
    CheckReport,
    Frame,
    MaximalSlopes,
    Slope,
    SlopeError,
    SlopeProfile,
    check_profile_ledger,
    check_projection_bound,
    check_sublattice_projection_bound,
    check_width_bound,
    maximal_slopes,
    slope_profile,
    validate_slope,
)
from .verify import (
    SearchBox,
    VerificationReport,
    check_type_vertex_bound,
    construct_extremal,
    critical_vertex_count,
    enumerate_free_polygons,
    type_ii_bound_pipeline,
    verify_vertex_threshold,
)

__version__ = "0.1.0"
