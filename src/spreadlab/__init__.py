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
from .fatpoints import (
    FatPointScheme,
    LinearSystem,
    fiber_generator_census,
    graded_power_containment,
    h0,
    linear_system,
    mult_map_surjective,
    sample_scheme,
)

__version__ = "0.1.0"
