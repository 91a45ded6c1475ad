"""Orbit divisors and cone verdicts for mixed product-quotient surfaces.

The package computes, from finite group data alone, the geometry of
surfaces S = (C x C)/G where G mixes the two factors and p_g(S) = 0:
branched-covering data for C, orbit divisors on S, their exact
intersection numbers, and a sufficient-criterion verdict that
Eff(S) = Nef(S) = SAmp(S) (so S is a Mori dream surface).
"""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, InputParseError, IntegrityError,
                     MismatchError, MixedSurfError, ValidationError,
                     WordSyntaxError)
from .perm import (FiniteGroup, GroupFingerprint, Permutation, Subgroup,
                   closure, conjugacy_class, conjugacy_classes,
                   derived_subgroup, fingerprint, subgroup_as_group,
                   subgroup_generated)
from .words import Presentation, Word, parse_word
from .coset import todd_coxeter
from .covering import (CoverType, CoveringData, GeneratingVector,
                       covering_data, fixed_point_table,
                       hurwitz_genus, parse_cover_type,
                       search_generating_vectors, stabilizer_set,
                       validate_generating_vector)
from .surface import (FreenessReport, MixedAction, SurfaceData,
                      assemble_surface, build_mixed_action, check_free_action,
                      derive_induced_vectors)
from .divisors import IntersectionTable, OrbitDivisor, graph_orbits, intersection_table
from .cone import (ConeReport, NumericalClass, VERDICT_INCONCLUSIVE,
                   VERDICT_MORI_DREAM, choose_basis, cone_report,
                   find_divfq_quadruple, numerical_classes)
from .files import (FamilyBundle, build_surface, load_group, load_surface_record,
                    run_pipeline)
