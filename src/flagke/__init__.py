"""Kahler-Einstein metrics on cohomogeneity-one manifolds from root data.

The pipeline: build an exact root system, paint simple roots to fix a flag
manifold with an invariant complex structure, pick a unit direction in the
center of the isotropy algebra, test the obstruction integral and segment
admissibility, then solve and verify the Einstein metric profile numerically.
"""

from .errors import (
    DegreeMismatchError,
    FlagkeError,
    InputError,
    InternalError,
    NoKahlerEinsteinError,
    SingularConfigurationError,
)
from .rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    RootSystem,
    build_root_system,
    coroot_vector,
    evaluate,
    killing,
)
from .flag import (
    FlagData,
    InvariantComplexStructure,
    build_flag,
    chamber_position,
    default_complex_structure,
    ricci_invariant,
    validate_complex_structure,
    wall_roots,
)
from .model import (
    AdmissibleSegment,
    CenterLine,
    analyze_segment,
    check_parametrization,
    make_base,
)
from .einstein import (
    FutakiReport,
    ProfileSolution,
    SegmentPolynomial,
    build_segment_polynomial,
    futaki,
    ke_endpoints,
    profile_solve,
    ricci_normal,
    ricci_tangential,
    search_diameters,
    search_walled,
    sphere_in_chamber,
    u_eval,
    verify_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSegment",
    "CartanVector",
    "CenterLine",
    "DegreeMismatchError",
    "FlagData",
    "FlagkeError",
    "FutakiReport",
    "InputError",
    "InternalError",
    "InvariantComplexStructure",
    "LieAlgebraSpec",
    "NoKahlerEinsteinError",
    "ProfileSolution",
    "Root",
    "RootSystem",
    "SegmentPolynomial",
    "SingularConfigurationError",
    "analyze_segment",
    "build_flag",
    "build_root_system",
    "build_segment_polynomial",
    "chamber_position",
    "check_parametrization",
    "coroot_vector",
    "default_complex_structure",
    "evaluate",
    "futaki",
    "ke_endpoints",
    "killing",
    "make_base",
    "profile_solve",
    "ricci_invariant",
    "ricci_normal",
    "ricci_tangential",
    "search_diameters",
    "search_walled",
    "sphere_in_chamber",
    "u_eval",
    "validate_complex_structure",
    "verify_profile",
    "wall_roots",
]
