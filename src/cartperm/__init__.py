"""Decreasing monomial Cartesian codes over GF(p^k) and the affine
transformations that permute them: exact field arithmetic, monomial-set
combinatorics, structural families of stabilizers, and a brute-force oracle
that certifies every characterization at desk scale."""

from .affine import (
    AffineTransformation, SpanChecker, induced_permutation,
    is_affine_permutation, membership_report, permute_word,
    stabilizes_monomial_span, stabilizes_set,
)
from .codes import GeneratorMatrix, build_code, codes_equal, rank_ix, rref_ix
from .families import (
    AdditiveHeteroPattern, AdditivePowerFamily, BorelClaimedFamily,
    MixedFullTorusFamily, MixedGeneralFamily, MultProductFamily,
    enumerate_LTA, enumerate_ML_invertible, gl_count, lta_count,
)
from .field import (
    GF, Field, FieldElement, FieldError, leq_p, leq_p_values,
    multinomial_nonzero_mod_p, p_adic,
)
from .monomials import (
    MonomialSet, PBorelGraph, StableMatrixPattern, borel_movements,
    borel_property_witness, divisibility_closure, has_borel_property,
    is_decreasing, p_borel_graph, p_borel_movements, random_borel_set,
    random_decreasing_set, stable_pattern, valid_p_borel_reachable,
)
from .oracle import (
    AffineMaps, BudgetExceeded, VerificationReport, code_permutation_check,
    enumerate_all_affine, group_axioms_report, oracle_affine_perm_group,
    oracle_stabilizers, two_route_agreement, verify_characterization,
    verify_containment,
)
from .points import (
    CartesianSet, SetComponent, additive_component, classify_subset,
    explicit_component, full_component, mult_component, stabilizer_subfield,
    sum_of_elements, torus_component, transporter_space,
)
from .poly import (
    Polynomial, evaluate_on_set, reduce_mod_vanishing, substitute_affine,
)

__version__ = "0.1.0"
