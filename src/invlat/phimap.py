"""The injection from label-decreasing lattice chains into the Bruhat
interval, read off the chain walk with one value swap per chain, and the
distance characterization check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterator, Optional, Sequence

from invlat.bruhat import _word_leq, distances_from
from invlat.lattice import _chain_walk, _hyperplanes
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, format_one_line, reduced_expression


@dataclass(frozen=True)
class PhiImage:
    """A chain C by its labels and its top (a lattice element), the
    reflection product p(C), and the image p(C) * w."""

    labels: tuple[int, ...]
    top: tuple[int, ...]
    product: Permutation
    image: Permutation


def _images(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """``(labels, product word, top, image word)`` for every decreasing
    chain of w's lattice, in label order, walked straight from the
    hyperplane order of ``expression`` (the canonical one by default)."""
    expr = tuple(expression) if expression is not None else reduced_expression(w)
    values = (0,) + w.word
    for labels, word, top in _chain_walk(w.n, _hyperplanes(w, expr)):
        yield labels, word, top, tuple(map(values.__getitem__, word))


def phi_table(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> list[PhiImage]:
    """The full chain-to-interval table, ordered by chain label sequence:
    chain C maps to p(C) * w, p(C) the product of its labelled reflections
    left to right.

    Each image is tested against w's bubbles as a word and raises when it
    is not below w, as a labelling bug.  The walk merges two different
    orbits with every label, so the absolute length of p(C) is the chain
    length and its orbits are the chain's top by construction.
    """
    table = []
    for labels, word, top, image in _images(w, expression):
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


def verify_characterization(w: Permutation) -> bool:
    """Distance equals absolute length below w iff w avoids the patterns.

    Checks the biconditional: (for all u < w, the directed distance from u
    to w equals the absolute length of u w^-1) holds exactly when w is
    four-pattern avoiding.
    """
    winv = w.inverse()
    dist = distances_from(w)
    equal_everywhere = all(
        d == (Permutation(word) * winv).absolute_length()
        for word, d in dist.items()
    )
    return equal_everywhere == is_chromobruhatic(w)
