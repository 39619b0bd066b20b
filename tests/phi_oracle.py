"""The chain map one chain at a time, and the going-down check by
breadth-first search, as oracles for ``phi_table`` and the chain checks.

The chains come from the depth-first search along a built lattice's covers
(``lattice_oracle.decreasing_chains``).  Each chain's product is rebuilt
from the identity, and the facts the walk guarantees by construction are
re-derived from scratch: the image is compared with w by ``bruhat_leq``,
and the absolute length and orbits come from the product's cycles.
"""

from __future__ import annotations

from invlat.bruhat import bruhat_leq, distances_from
from invlat.lattice import IntersectionLattice, build_lattice
from invlat.permutation import Permutation
from invlat.phimap import PhiImage
from lattice_oracle import blocks_of, canon, decreasing_chains


def phi(
    path: tuple[int, ...],
    labels: tuple[int, ...],
    w: Permutation,
    lattice: IntersectionLattice,
) -> PhiImage:
    """Map the decreasing chain along ``path`` to p(C) * w where p(C)
    multiplies the chain's labelled reflections left to right; raise when
    the image is not below w, the absolute length of p(C) is not the chain
    length, or the orbits of p(C) are not the blocks of the chain's top."""
    word = list(range(1, w.n + 1))
    for j in labels:
        # Right-multiplying by (a b) swaps the values a and b.
        a, b = lattice.hyperplanes[j - 1]
        word = [b if v == a else a if v == b else v for v in word]
    product = Permutation(word)
    image = product * w
    if not bruhat_leq(image, w):
        raise RuntimeError(f"phi image {image} is not below {w}")
    cycles = product.cycles()
    if w.n - len(cycles) != len(labels):
        raise RuntimeError(
            f"absolute length {w.n - len(cycles)} != chain length "
            f"{len(labels)} for labels {labels}"
        )
    top = lattice.elements[path[-1]]
    if canon(cycles) != blocks_of(top):
        raise RuntimeError(
            f"orbit partition {canon(cycles)} differs from chain top {blocks_of(top)}"
        )
    return PhiImage(labels, top, product, image)


def going_down(w: Permutation) -> bool:
    """Right-to-left partial products of every chain walk strictly down,
    and the image sits at directed distance exactly m from w, by
    breadth-first search over [e, w].

    For a chain with labels j_1 < ... < j_m the walk
    w > t_{j_m} w > t_{j_{m-1}} t_{j_m} w > ... must decrease strictly in
    Bruhat order.
    """
    lattice = build_lattice(w)
    dist = distances_from(w)
    for _, labels in decreasing_chains(lattice):
        current = list(w.word)
        for j in reversed(labels):
            a, b = lattice.hyperplanes[j - 1]
            # With a < b, (a b) * x swaps positions a and b, and lies
            # strictly below x exactly when x(a) > x(b).
            if current[a - 1] < current[b - 1]:
                return False
            current[a - 1], current[b - 1] = current[b - 1], current[a - 1]
        if dist.get(tuple(current)) != len(labels):
            return False
    return True
