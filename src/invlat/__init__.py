"""Bruhat intervals, inversion hyperplane arrangements and chromatic
identities for permutations of the symmetric group."""

from invlat.bruhat import (
    bruhat_leq,
    bubbles,
    interval_size,
    rank_matrix,
)
from invlat.chromatic import (
    IntPoly,
    acyclic_orientations,
    betti_numbers,
    chromatic_identity_holds,
    chromatic_of,
    distance_poly,
    opy_chromatic,
)
from invlat.lattice import (
    IntersectionLattice,
    build_lattice,
    mobius_values,
    partition_text,
)
from invlat.patterns import (
    contains,
    find_reduction_pair,
    is_chromobruhatic,
    is_smooth,
    reduction_step,
    witness_below,
)
from invlat.permutation import (
    InversionGraph,
    Permutation,
    Transposition,
    all_permutations,
    parse_permutation,
    reduced_expression,
    reflection_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "IntersectionLattice",
    "InversionGraph",
    "Permutation",
    "Transposition",
    "acyclic_orientations",
    "all_permutations",
    "betti_numbers",
    "bruhat_leq",
    "bubbles",
    "build_lattice",
    "chromatic_identity_holds",
    "chromatic_of",
    "contains",
    "distance_poly",
    "find_reduction_pair",
    "interval_size",
    "is_chromobruhatic",
    "is_smooth",
    "mobius_values",
    "opy_chromatic",
    "parse_permutation",
    "partition_text",
    "rank_matrix",
    "reduced_expression",
    "reduction_step",
    "reflection_sequence",
    "witness_below",
]
