"""Coset posets of finite permutation groups.

Builds the poset of cosets of proper subgroups of a small group, computes
reduced homology of its order complex over prime fields, evaluates the
generation-probability Dirichlet polynomial, and runs structure checks on
alternating groups.
"""

from .perm import Permutation, cycle_string, parse_permutation, parse_permutation_list
from .groups import (
    BudgetExceededError,
    PermutationGroup,
    alternating_group,
    cyclic_group,
    diagonal_embedding,
    direct_power,
    generated_order,
    intermediate_subgroups,
    is_normal_subgroup,
    minimal_normal_subgroups,
    normal_closure,
    quotient_representation,
    symmetric_group,
    sylow_subgroup,
)
from .lattice import (
    SubgroupLattice,
    enumerate_subgroups,
    lattice_dump,
    maximal_subgroups,
    moebius_to_top,
)
from .cosets import (
    CosetPoset,
    OvergroupAutomorphism,
    build_coset_poset,
    build_relative_poset,
    fixed_cosets,
)
from .complexes import (
    BettiVector,
    CosetComplex,
    kunneth_join_betti,
    order_complex,
    poset_f_vector,
    poset_reduced_euler_characteristic,
    reduced_betti,
)
from .zeta import (
    DirichletPolynomial,
    brute_force_generation_probability,
    evaluate,
    hall_polynomial,
)
from .generation import (
    GenerationReport,
    check_alternating_claims,
    check_diagonal_universal,
    imprimitive_parity_identity,
    sylow2_fixed_point_free_element,
    univ_gen_via_maximal_indices,
    universally_p_generates,
)
from .catalog import GroupCatalogEntry, catalog_group, load_catalog

__version__ = "0.1.0"

# the verification suites are loaded on first access: no library call needs them
_SUITE_NAMES = ("SuiteConfig", "VerificationReport", "run_suite")


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
