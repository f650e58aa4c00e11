"""Exact computations with conjugation-invariant functions on gl_n(F_q):
adjoint orbits, Harish-Chandra induction/restriction, the graded Hopf algebra
structure, the duality operation, and the positive self-adjoint axioms.
"""
from .field import (ContextMismatchError, Cyclotomic, FqContext,
                    NotRationalError, fq, rational_is_square)
from .glmat import (Composition, Matrix, ShapeError, SingularMatrixError,
                    compositions)
from .orbits import (OrbitLabel, OrbitTable, enumerate_orbits, orbit_of,
                     partitions, representative)
from .invfun import (GradedElement, InvariantFunction, TensorFunction,
                     constant_one, coords, fourier_character_basis, indicator,
                     inner_product, inner_product_rational)
from .report import Report
from .hc import (hc_induce, hc_restrict, induction_matrix, restriction_matrix,
                 verify_adjunction, verify_mackey)
from .hopf import (antipode, antipode_function, comultiply, is_primitive,
                   multiply, multiply_functions, primitive_subspace,
                   verify_bialgebra)
from .duality import (DualityOperator, duality_operator, steinberg,
                      steinberg_constituents, verify_antipode_is_duality,
                      verify_characterization, verify_involutive_isometric)
from .psh import (nondescending_witness, omega_basis, structure_constants,
                  verify_positivity, verify_self_adjointness)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
