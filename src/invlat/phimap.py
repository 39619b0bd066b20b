"""The injection from label-decreasing lattice chains into the Bruhat
interval, read off the chains with one value swap per chain, and the
elements of the interval it misses.

``phi_table`` maps the chains a lattice keeps; ``verify``'s chain checks
map the chain walk as it streams, with no lattice, through the same
``_images``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from invlat.bruhat import _word_leq, distances_from
from invlat.lattice import IntersectionLattice
from invlat.permutation import Permutation, format_one_line


@dataclass(frozen=True)
class PhiImage:
    """A chain C by its labels and the index of its top in the lattice's
    ``elements``, the reflection product p(C), and the image p(C) * w."""

    labels: tuple[int, ...]
    top: int
    product: Permutation
    image: Permutation


def _images(w: Permutation, chains: Iterable[tuple]) -> Iterator[tuple]:
    """``(labels, product word, top, image word)`` for each decreasing
    chain ``(labels, product word, top)`` of w, in the given order: the
    image p(C) * w reads w at the product's letters."""
    values = (0,) + w.word
    for labels, word, top in chains:
        yield labels, word, top, tuple(map(values.__getitem__, word))


def phi_table(lattice: IntersectionLattice) -> list[PhiImage]:
    """The full chain-to-interval table of ``lattice.chains``, ordered by
    chain label sequence: chain C maps to p(C) * w, p(C) the product of its
    labelled reflections left to right.

    Each image is tested against w's bubbles as a word and raises when it
    is not below w, as a labelling bug.  The walk merges two different
    orbits with every label, so the absolute length of p(C) is the chain
    length and its orbits are the chain's top by construction.
    """
    w = lattice.w
    table = []
    for labels, word, top, image in _images(w, lattice.chains):
        if not _word_leq(image, w):
            raise RuntimeError(
                f"phi image {format_one_line(image)} of the chain {labels} "
                f"is not below {w}"
            )
        product = Permutation._trusted(word)
        table.append(PhiImage(labels, top, product, Permutation._trusted(image)))
    return table


def missed_elements(
    w: Permutation, images: Container[tuple[int, ...]]
) -> tuple[Permutation, ...]:
    """The elements of [e, w] whose words are not in ``images``, sorted."""
    missed = sorted(u for u in distances_from(w) if u not in images)
    return tuple(map(Permutation._trusted, missed))
