"""The elements of the Bruhat interval that the chain map misses.

The chain map itself is read off the chain walk of ``invlat.lattice``,
which yields each label-decreasing chain C with its image p(C) * w:
``cli.analyze`` reads it from ``IntersectionLattice.chains``, and
``verify``'s chain checks as the walk streams, with no lattice.
"""

from __future__ import annotations

from typing import Container

from invlat.bruhat import distances_from
from invlat.permutation import Permutation


def missed_elements(
    w: Permutation, images: Container[tuple[int, ...]]
) -> tuple[Permutation, ...]:
    """The elements of [e, w] whose words are not in ``images``, sorted."""
    missed = sorted(u for u in distances_from(w) if u not in images)
    return tuple(map(Permutation._trusted, missed))
