"""abelint: exact Picard-Fuchs derivation and zero counting for period
integrals of polynomial level curves.

The pipeline: divide polynomial forms in the module generated by a basis of
monomial forms (division.py), assemble the exact Pfaffian system satisfied by
the period vector and restrict it to a pencil (picard_fuchs.py), reduce to a
scalar Fuchsian operator (operators.py), and count or bound zeros of solution
combinations with the argument principle, admissible slit geometry, and
certified annulus bounds (counting.py, slits.py, integrals.py).
"""

__version__ = "0.1.0"

from .counting import (ContourPath, annulus_zero_bound, continue_solution,
                       count_region_partition, count_zeros, headline_bound,
                       is_quasiunipotent, monodromy, var_arg_bound,
                       variation_of_argument)
from .division import (Hamiltonian, basis_exponents, divide_one_form,
                       divide_two_form, is_basis_regular)
from .errors import AbelintError
from .integrals import abelian_integral, count_real_zeros, critical_values, trace_oval
from .operators import (DiffOperator, MobiusMap, affine_slope,
                        invariant_slope_sampled, lclm, pullback,
                        reduce_to_scalar, reflect, symmetrize)
from .parsing import parse_operator, parse_poly
from .picard_fuchs import derive_pfaffian, restrict_to_pencil, size_report
from .polynomials import MultiPoly
from .ratfunc import RatFunc, size_of
from .serialize import dumps, loads
from .slits import (Circle, SlitSystem, build_slits, cluster_diameter_upper,
                    is_admissible, normalized_length, regions)

__all__ = [
    "AbelintError", "Circle", "ContourPath", "DiffOperator", "Hamiltonian",
    "MobiusMap", "MultiPoly", "RatFunc", "SlitSystem",
    "abelian_integral", "affine_slope", "annulus_zero_bound",
    "basis_exponents", "build_slits",
    "cluster_diameter_upper", "continue_solution", "count_real_zeros",
    "count_region_partition", "count_zeros", "critical_values",
    "derive_pfaffian", "divide_one_form", "divide_two_form", "dumps",
    "headline_bound", "invariant_slope_sampled", "is_admissible",
    "is_basis_regular", "is_quasiunipotent", "lclm", "loads", "monodromy",
    "normalized_length", "parse_operator", "parse_poly", "pullback",
    "reduce_to_scalar", "reflect", "regions", "restrict_to_pencil",
    "size_of", "size_report", "symmetrize", "trace_oval", "var_arg_bound",
    "variation_of_argument",
]
