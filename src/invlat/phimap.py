"""The injection from label-decreasing lattice chains into the Bruhat
interval, built in one depth-first pass with one value swap per chain,
with its injectivity, surjectivity, going-down and distance
characterization checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from invlat.bruhat import _word_leq, distances_from
from invlat.lattice import (
    DecreasingChain,
    IntersectionLattice,
    build_lattice,
    decreasing_chains,
    partition_text,
)
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, format_one_line


@dataclass(frozen=True)
class PhiImage:
    """A chain C, the reflection product p(C), and the image p(C) * w."""

    chain: DecreasingChain
    product: Permutation
    image: Permutation


def phi_table(
    w: Permutation,
    expression: Optional[Sequence[int]] = None,
    check: bool = True,
    lattice: Optional[IntersectionLattice] = None,
) -> list[PhiImage]:
    """The full chain-to-interval table, ordered by chain label sequence:
    chain C maps to p(C) * w, p(C) the product of its labelled reflections
    left to right.  ``lattice`` reuses w's lattice when the caller already
    built it; otherwise it is built from ``expression``.

    The chains come in depth-first preorder, so a chain of length m finds
    its parent's product word and orbit masks in ``stack[m]`` (the
    identity's when m = 0) and swaps the values of its last reflection.
    The orbits are kept in the lattice's order, by smallest point.  With
    ``check`` on, raise if an image is not below w, if the swap joins two
    points of one orbit (the absolute length falls short of the chain
    length), or if the orbits are not the blocks of the chain's top: each
    means a labelling bug.
    """
    if lattice is None:
        lattice = build_lattice(w, expression)
    n = w.n
    values = (0,) + w.word
    stack = [(tuple(range(1, n + 1)), tuple(1 << v for v in range(n)))]
    table = []
    for chain in decreasing_chains(lattice):
        labels = chain.labels
        m = len(labels)
        word, orbits = stack[m]
        if m:
            a, b = lattice.hyperplanes[labels[-1] - 1]
            word = tuple(b if v == a else a if v == b else v for v in word)
        image = tuple(map(values.__getitem__, word))
        if check:
            if not _word_leq(image, w):
                raise RuntimeError(f"phi image {format_one_line(image)} is not below {w}")
            if m:
                bit_a, bit_b = 1 << (a - 1), 1 << (b - 1)
                i = next(k for k, o in enumerate(orbits) if o & bit_a)
                j = next(k for k, o in enumerate(orbits) if o & bit_b)
                if i == j:
                    raise RuntimeError(
                        f"absolute length {n - len(orbits) - 1} != chain length "
                        f"{m} for labels {labels}"
                    )
                # b's orbit can start below a's, as for the chain (2, 3) of 321.
                if i > j:
                    i, j = j, i
                merged = (orbits[i] | orbits[j],)
                orbits = orbits[:i] + merged + orbits[i + 1 : j] + orbits[j + 1 :]
            top = lattice.elements[chain.top]
            if orbits != top:
                raise RuntimeError(
                    f"orbit partition {partition_text(n, orbits)} "
                    f"differs from chain top {partition_text(n, top)}"
                )
        del stack[m + 1 :]
        stack.append((word, orbits))
        table.append(
            PhiImage(chain, Permutation._trusted(word), Permutation._trusted(image))
        )
    return table


def is_injective(table: Sequence[PhiImage]) -> bool:
    """Whether distinct chains of the table have distinct images."""
    images = [entry.image for entry in table]
    return len(set(images)) == len(images)


def missed_elements(w: Permutation, table: Sequence[PhiImage]) -> tuple[Permutation, ...]:
    """The elements of [e, w] outside the table's image, sorted."""
    image = {entry.image.word for entry in table}
    missed = sorted(u for u in distances_from(w) if u not in image)
    return tuple(map(Permutation._trusted, missed))


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
        current = list(w.word)
        for j in reversed(chain.labels):
            a, b = lattice.hyperplanes[j - 1]
            # With a < b, (a b) * x swaps positions a and b, and lies
            # strictly below x exactly when x(a) > x(b).
            if current[a - 1] < current[b - 1]:
                return False
            current[a - 1], current[b - 1] = current[b - 1], current[a - 1]
        if dist.get(tuple(current)) != chain.length:
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
