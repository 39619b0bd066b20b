"""The chain map one chain at a time, as an oracle for ``phi_table``.

Each chain's product is rebuilt from the identity, and the three facts the
table checks eagerly are re-derived from scratch: the image is compared
with w by ``bruhat_leq``, and the absolute length and orbits come from the
product's cycles.
"""

from __future__ import annotations

from invlat.bruhat import bruhat_leq
from invlat.lattice import DecreasingChain, IntersectionLattice
from invlat.permutation import Permutation
from invlat.phimap import PhiImage
from lattice_oracle import blocks_of, canon


def phi(
    chain: DecreasingChain,
    w: Permutation,
    lattice: IntersectionLattice,
    check: bool = True,
) -> PhiImage:
    """Map a decreasing chain to p(C) * w where p(C) multiplies the chain's
    labelled reflections left to right; with ``check`` on, raise when the
    image is not below w, the absolute length of p(C) is not the chain
    length, or the orbits of p(C) are not the blocks of the chain's top."""
    word = list(range(1, w.n + 1))
    for j in chain.labels:
        # Right-multiplying by (a b) swaps the values a and b.
        a, b = lattice.hyperplanes[j - 1]
        word = [b if v == a else a if v == b else v for v in word]
    product = Permutation(word)
    image = product * w
    if check:
        if not bruhat_leq(image, w):
            raise RuntimeError(f"phi image {image} is not below {w}")
        cycles = product.cycles()
        if w.n - len(cycles) != chain.length:
            raise RuntimeError(
                f"absolute length {w.n - len(cycles)} != chain length "
                f"{chain.length} for labels {chain.labels}"
            )
        top = blocks_of(lattice.elements[chain.top])
        if canon(cycles) != top:
            raise RuntimeError(
                f"orbit partition {canon(cycles)} differs from chain top {top}"
            )
    return PhiImage(chain, product, image)
