"""Attractors, fast basins, fractal continuations and branched fractal
manifolds of iterated function systems."""

from .addresses import (
    Address,
    AddressClass,
    SymbolicSet,
    disjunctive_prefix,
    format_address,
    iterate_symbolic_ifs,
    metric,
    negate,
    parse_address,
    positive_truncations,
    shift,
    sigma,
    symbolic_hausdorff,
    validate,
)
from .basin import (
    BasinInclusionReport,
    MembershipResult,
    Raster,
    basin_inclusion_check,
    fast_basin_raster,
    finite_continuation,
    is_reversible_periodic,
    membership,
    membership_along,
    raster_from_continuations,
)
from .ifs import (
    AttractorCloud,
    IfsSystem,
    attractor,
    chaos_game,
    coding_map,
    hausdorff_distance,
    random_address,
    verify_semiconjugacy,
)
from .manifold import (
    ManifoldDistance,
    ManifoldPoint,
    branch_points,
    canonicalize,
    common_prefix,
    distance,
    enumerate_leaves,
    leaf_projection,
    manifold_point,
    sigma_tilde,
)
from .maps import AffineMap, MoebiusMap, from_sphere, to_sphere

__version__ = "0.1.0"
