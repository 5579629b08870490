"""spreadlab: exact commutative algebra for analytic spreads of ideals
and filtrations, symbolic powers, and fat-point interpolation over a
prime field."""

from .ring import (
    ContextError,
    DEFAULT_PRIME,
    HomogeneityError,
    MonomialOrder,
    Polynomial,
    RingContext,
    is_weighted_homogeneous,
    weighted_degree,
)
from .groebner import GroebnerBasis, groebner_basis, normal_form
from .ideals import (
    Ideal,
    eliminate,
    height,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    is_max_ideal_associated,
    krull_dim,
    maximal_ideal,
    monomial_integral_closure,
    quotient,
    saturate,
    saturate_by_elimination,
    unit_ideal,
)
from .filtrations import (
    EquimultipleReport,
    Filtration,
    ReesPresentation,
    SpreadReport,
    analytic_spread,
    analytic_spread_truncated,
    equimultiple_check,
    fiber_nilpotency_witness,
    finite_generation_probe,
    rees_presentation,
    symbolic_power,
)

__version__ = "0.1.0"

# The fat-point side needs numpy.  Its names, and the ``fatpoints`` and
# ``linalg`` modules, load on first access, so the rest of the package
# (and the command line's session commands) starts without numpy.
_FATPOINT_NAMES = (
    "FatPointScheme",
    "LinearSystem",
    "fiber_generator_census",
    "graded_power_containment",
    "h0",
    "linear_system",
    "mult_map_surjective",
    "sample_scheme",
)
_LAZY_NAMES = _FATPOINT_NAMES + ("fatpoints", "linalg")


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # binds spreadlab.fatpoints and spreadlab.linalg as submodules
    fatpoints = importlib.import_module(".fatpoints", __name__)
    if name in _FATPOINT_NAMES:
        globals()[name] = getattr(fatpoints, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = [name for name in __dir__() if not name.startswith("_")]
