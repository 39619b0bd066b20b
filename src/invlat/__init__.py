"""Bruhat intervals, inversion hyperplane arrangements and chromatic
identities for permutations of the symmetric group."""

from invlat.bruhat import (
    bruhat_leq,
    bubbles,
    directed_distance,
    interval,
    interval_size,
    rank_matrix,
    right_hull,
)
from invlat.chromatic import (
    IntPoly,
    acyclic_orientations,
    chromatic_identity_holds,
    chromatic_of,
    chromatic_polynomial,
    distance_poly,
    opy_chromatic,
)
from invlat.lattice import (
    DecreasingChain,
    IntersectionLattice,
    SetPartition,
    betti_numbers,
    build_lattice,
    decreasing_chains,
    mobius_values,
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
    phi,
    phi_table,
    verify_characterization,
    verify_going_down,
    verify_injective,
    verify_surjective,
)

__version__ = "0.1.0"

__all__ = [
    "DecreasingChain",
    "IntPoly",
    "IntersectionLattice",
    "InversionGraph",
    "Permutation",
    "PhiImage",
    "SetPartition",
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
    "decreasing_chains",
    "directed_distance",
    "distance_poly",
    "find_reduction_pair",
    "interval",
    "interval_size",
    "is_chromobruhatic",
    "is_smooth",
    "mobius_values",
    "opy_chromatic",
    "parse_permutation",
    "phi",
    "phi_table",
    "rank_matrix",
    "reduced_expression",
    "reduction_step",
    "reflection_sequence",
    "right_hull",
    "verify_characterization",
    "verify_going_down",
    "verify_injective",
    "verify_surjective",
    "witness_below",
]
