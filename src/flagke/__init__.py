"""Kahler-Einstein metrics on cohomogeneity-one manifolds from root data.

The pipeline: build an exact root system, paint simple roots to fix a flag
manifold with an invariant complex structure, pick a unit direction in the
center of the isotropy algebra, test the obstruction integral and segment
admissibility, then solve and verify the Einstein metric profile numerically.

The exact layers (`rootsys`, `flag`, `model`, `polys`, `linalg`, `scalars`,
`records`) import no numpy, and `linalg` is integer-only.  The two
searches, `walled` and `diameters`, are exact too and import no numpy.
They and the float layer, `einstein`, are loaded on the first use of one
of their names: `search_walled` resolves to `walled`, `search_diameters`
to `diameters`, and `profile_solve` and the rest to `einstein`, through
the module `__getattr__` below (PEP 562).
"""

from importlib import import_module

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
    sphere_in_chamber,
    validate_complex_structure,
    wall_roots,
)
from .model import (
    AdmissibleSegment,
    CenterLine,
    FutakiReport,
    analyze_segment,
    check_parametrization,
    futaki,
    ke_endpoints,
    make_base,
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
    "search_diameters",
    "search_walled",
    "sphere_in_chamber",
    "u_eval",
    "validate_complex_structure",
    "verify_profile",
    "wall_roots",
]


def __getattr__(name):
    """A public name of `walled`, `diameters` or `einstein`, loaded with its module on first use."""
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = {"search_walled": ".walled", "search_diameters": ".diameters"}.get(name, ".einstein")
    return getattr(import_module(home, __name__), name)
