"""The injection from label-decreasing lattice chains into the Bruhat
interval, with its injectivity, surjectivity, going-down and distance
characterization checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from invlat.bruhat import bruhat_leq, distances_from, interval
from invlat.lattice import (
    DecreasingChain,
    IntersectionLattice,
    SetPartition,
    build_lattice,
    decreasing_chains,
)
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation


@dataclass(frozen=True)
class PhiImage:
    """A chain C, the reflection product p(C), and the image p(C) * w."""

    chain: DecreasingChain
    product: Permutation
    image: Permutation


def phi(
    chain: DecreasingChain,
    w: Permutation,
    lattice: IntersectionLattice,
    check: bool = True,
) -> PhiImage:
    """Map a decreasing chain to p(C) * w where p(C) multiplies the chain's
    labelled reflections left to right.

    With ``check`` on, three facts are verified eagerly: the image lies in
    [e, w], the absolute length of p(C) is the chain length, and the orbits
    of p(C) are the blocks of the chain's top element.  Violations signal a
    labelling bug and raise.
    """
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
        if tuple(tuple(sorted(c)) for c in cycles) != chain.top.blocks:
            raise RuntimeError(
                f"orbit partition {SetPartition(w.n, cycles)} differs from "
                f"chain top {chain.top}"
            )
    return PhiImage(chain, product, image)


def phi_table(
    w: Permutation,
    expression: Optional[Sequence[int]] = None,
    check: bool = True,
    lattice: Optional[IntersectionLattice] = None,
) -> list[PhiImage]:
    """The full chain-to-interval table, ordered by chain label sequence.

    ``lattice`` reuses w's lattice when the caller already built it;
    otherwise it is built from ``expression``.
    """
    if lattice is None:
        lattice = build_lattice(w, expression)
    return [phi(c, w, lattice, check=check) for c in decreasing_chains(lattice)]


def is_injective(table: Sequence[PhiImage]) -> bool:
    """Whether distinct chains of the table have distinct images."""
    images = [entry.image for entry in table]
    return len(set(images)) == len(images)


def missed_elements(w: Permutation, table: Sequence[PhiImage]) -> tuple[Permutation, ...]:
    """The elements of [e, w] outside the table's image, sorted."""
    image = {entry.image for entry in table}
    return tuple(sorted(u for u in interval(w) if u not in image))


def verify_injective(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> bool:
    """Whether distinct decreasing chains map to distinct interval elements."""
    return is_injective(phi_table(w, expression))


def verify_surjective(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> tuple[bool, tuple[Permutation, ...]]:
    """Whether the image fills [e, w]; returns the missed elements too.

    Surjectivity is expected exactly when w avoids the four patterns.
    """
    missed = missed_elements(w, phi_table(w, expression))
    return (not missed, missed)


def verify_going_down(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> bool:
    """Right-to-left partial products of every chain walk strictly down.

    For a chain with labels j_1 < ... < j_m the walk
    w > t_{j_m} w > t_{j_{m-1}} t_{j_m} w > ... must decrease strictly in
    Bruhat order; consequently the image sits at directed distance exactly m
    from w, which is checked as well.
    """
    lattice = build_lattice(w, expression)
    dist = distances_from(w)
    for chain in decreasing_chains(lattice):
        current = w
        for j in reversed(chain.labels):
            a, b = lattice.hyperplanes[j - 1]
            nxt = Permutation.transposition(w.n, a, b) * current
            if not (bruhat_leq(nxt, current) and nxt != current):
                return False
            current = nxt
        if dist.get(current.word) != chain.length:
            return False
    return True


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
