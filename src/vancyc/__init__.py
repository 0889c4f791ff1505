"""Exact-arithmetic checks for involutive map germs and their vanishing cycles.

Sparse rational polynomials and Groebner bases power discriminant and
multiplicity computations; integer matrices power reflection groups,
diagram foldings and adjoint-quotient checks.  The `vancyc` console script
exposes the same functionality, including a twelve-check verification
suite (`vancyc paper-suite`).
"""

from .germfile import GermFile, GermFileError, load_germ_file, parse_germ_text
from .groebner import (DEFAULT_PAIR_LIMIT, GroebnerBasis, IdealBasis,
                       ResourceLimitExceeded, buchberger, eliminate,
                       normal_form, quotient_dimension, radical_membership)
from .monodromy import (CoxeterDatum, FoldingDatum, FoldingError,
                        IntersectionLattice, LatticeError, braid_relation_check,
                        cartan_matrix, coxeter_element_order, fold,
                        group_order_bfs, identify_type, pl_reflection,
                        quotient_rank_check, standard_automorphisms,
                        variation_matrix, weyl_generators, weyl_group_order)
from .poly import (AmbientMismatchError, PolyError, PolyParseError, Polynomial,
                   UnknownVariableError, determinant_fraction_free,
                   exact_divide, format_polynomial, gcd_polynomials, normalized,
                   parse_polynomial, rational_rank, resultant,
                   squarefree_part_bivariate, variables)
from .report import CheckResult, Report
from .singularity import (NonGenericMatrixError, NonIsolatedSingularityError,
                          action_coordinates_germ, al_multiplicity_by_counting,
                          critical_ideal, curve_multiplicity, discriminant, jacobian,
                          milnor_number, multiplicity_at_origin)
from .steinberg import (SteinbergMap, SubregularSliceReport, casimir_components_check,
                        jacobian_rank_at, steinberg_discriminant_multiplicity,
                        steinberg_kks, steinberg_map, subregular_slice_check)
from .suite import run_paper_suite
from .symplectic import (MapGerm, PoissonStructure, SymplecticContext,
                         casimir_check, general_bracket, jacobi_check,
                         poisson_bracket)

__version__ = "0.1.0"
