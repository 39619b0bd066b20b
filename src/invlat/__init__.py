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
    chromatic_polynomial,
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
from invlat.phimap import (
    PhiImage,
    phi_table,
    verify_characterization,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "IntersectionLattice",
    "InversionGraph",
    "Permutation",
    "PhiImage",
    "Transposition",
    "acyclic_orientations",
    "all_permutations",
    "betti_numbers",
    "bruhat_leq",
    "bubbles",
    "build_lattice",
    "chromatic_identity_holds",
    "chromatic_of",
    "chromatic_polynomial",
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
    "phi_table",
    "rank_matrix",
    "reduced_expression",
    "reduction_step",
    "reflection_sequence",
    "verify_characterization",
    "witness_below",
]
