"""dcpolab: a desk-scale workbench for order-theoretic domain theory.

Finite posets stand in for dcpos; every theorem-shaped claim the package
makes is checked by brute force, oracle comparison, or fuelled search.
"""

from .finposet import (
    EpPair,
    FinPoset,
    MonoMap,
    closure_from_covers,
    directed_sup,
    is_directed,
    is_scott_continuous,
    mono_compose,
    subposet,
    validate_ep_pair,
)
from .waybelow import (
    BasisMap,
    ContinuityData,
    approximates,
    basis_contains_all_compacts_check,
    check_continuity_data,
    check_small_basis,
    check_small_compact_basis,
    compacts,
    compacts_closed_under_joins_check,
    exponential_locally_small_certificate,
    interpolate_binary,
    interpolate_unary,
    is_compact,
    leq_via_basis,
    retract_way_below_transfer_check,
    transfer_basis_along_retract,
    way_below,
    way_below_matrix,
)

__all__ = [
    "BasisMap",
    "ContinuityData",
    "EpPair",
    "FinPoset",
    "MonoMap",
    "approximates",
    "basis_contains_all_compacts_check",
    "check_continuity_data",
    "check_small_basis",
    "check_small_compact_basis",
    "closure_from_covers",
    "compacts",
    "compacts_closed_under_joins_check",
    "directed_sup",
    "exponential_locally_small_certificate",
    "interpolate_binary",
    "interpolate_unary",
    "is_compact",
    "is_directed",
    "is_scott_continuous",
    "leq_via_basis",
    "mono_compose",
    "retract_way_below_transfer_check",
    "subposet",
    "transfer_basis_along_retract",
    "validate_ep_pair",
    "way_below",
    "way_below_matrix",
]
