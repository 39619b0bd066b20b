"""The intersection lattice of a permutation's inversion arrangement.

For the symmetric group the lattice is the bond lattice of the inversion
graph: elements are set partitions of {1, ..., n} whose blocks are connected
in the graph, ordered by refinement.  An ordering H_1 > H_2 > ... > H_k of
the hyperplanes, read off a reduced expression, induces the edge labelling
whose strictly decreasing chains from the bottom count the regions of the
arrangement.

Internally an element is a tuple of block bitmasks (bit v-1 stands for
point v).  The lattice grows rank by rank from the singletons: merging two
blocks of an element gives one of its covers exactly when some inversion
edge crosses them, and the cover's label is the largest hyperplane index
among the crossing edges.  Each element is turned into a ``SetPartition``
once, for ordering, chains and printing.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from invlat.chromatic import chromatic_of
from invlat.permutation import (
    Permutation,
    Transposition,
    evaluate_word,
    reduced_expression,
    reflection_sequence,
)


class SetPartition:
    """A partition of {1, ..., n} with canonically ordered blocks."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks):
        self.n = n
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen = [v for b in canon for v in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition 1..{n}")
        self.blocks = canon
        self._hash = hash((n, canon))

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(n, [(i,) for i in range(1, n + 1)])

    @property
    def rank(self) -> int:
        """Codimension of the corresponding subspace: n minus block count."""
        return self.n - len(self.blocks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetPartition") -> bool:
        return (self.rank, self.blocks) < (other.rank, other.blocks)

    def __str__(self) -> str:
        if self.n <= 9:
            return "|".join("".join(map(str, b)) for b in self.blocks)
        return "|".join(",".join(map(str, b)) for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self.blocks!r})"


@dataclass(frozen=True)
class DecreasingChain:
    """A saturated chain from the bottom whose labels strictly decrease in
    the hyperplane order, i.e. whose label indices strictly increase."""

    elements: tuple[SetPartition, ...]
    labels: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def top(self) -> SetPartition:
        return self.elements[-1]


def _points(mask: int) -> tuple[int, ...]:
    """The 1-based points of a block bitmask, ascending."""
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


class IntersectionLattice:
    """Bond lattice of the inversion graph, with covers, labels and Mobius data.

    ``hyperplanes[i]`` is the transposition of H_{i+1}; hyperplane order is
    H_1 > H_2 > ... > H_k, so the label of a cover is the *largest* index
    among the hyperplanes first merged by it.  ``elements`` is sorted by
    (rank, blocks) and ``masks[i]`` holds the block bitmasks of
    ``elements[i]``.
    """

    def __init__(self, w: Permutation, expression: tuple[int, ...]):
        self.w = w
        self.expression = expression
        self.hyperplanes: tuple[Transposition, ...] = reflection_sequence(
            w.n, expression
        )
        if evaluate_word(w.n, expression) != w or len(expression) != w.length():
            raise ValueError(
                f"{expression!r} is not a reduced expression for {w}"
            )
        self._chains: Optional[tuple[DecreasingChain, ...]] = None
        self._mobius: Optional[Mapping[SetPartition, int]] = None
        self._build()

    def _build(self) -> None:
        n = self.w.n
        edges = [(1 << (t.i - 1)) | (1 << (t.j - 1)) for t in self.hyperplanes]

        # Label of merging blocks a < b, memoised on the pair; 0 when no
        # edge crosses them.
        merge_labels: dict[int, int] = {}

        def merge_label(a: int, b: int) -> int:
            key = a << n | b
            label = merge_labels.get(key)
            if label is None:
                label = 0
                for i in range(len(edges), 0, -1):
                    e = edges[i - 1]
                    if e & a and e & b:
                        label = i
                        break
                merge_labels[key] = label
            return label

        # Elements keyed by their numerically sorted block masks.
        bottom = tuple(1 << v for v in range(n))
        ups: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        level = [bottom]
        while level:
            nxt = []
            for x in level:
                covers = ups[x] = []
                for i, a in enumerate(x):
                    for j in range(i + 1, len(x)):
                        b = x[j]
                        label = merge_label(a, b)
                        if label:
                            y = tuple(sorted(x[:i] + x[i + 1 : j] + x[j + 1 :] + (a | b,)))
                            covers.append((y, label))
                            if y not in ups:
                                ups[y] = []
                                nxt.append(y)
            level = nxt

        parts = {x: SetPartition(n, [_points(b) for b in x]) for x in ups}
        keys = sorted(ups, key=lambda x: (n - len(x), parts[x].blocks))
        position = {x: k for k, x in enumerate(keys)}

        self.elements: tuple[SetPartition, ...] = tuple(parts[x] for x in keys)
        self.masks: tuple[tuple[int, ...], ...] = tuple(keys)
        self.index: dict[SetPartition, int] = {
            x: k for k, x in enumerate(self.elements)
        }
        self.bottom = self.elements[0]
        self.covers_up: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted((position[y], label) for y, label in ups[x])) for x in keys
        )

    def max_rank(self) -> int:
        return self.elements[-1].rank if self.elements else 0

    def cover_labels(self) -> list[tuple[SetPartition, SetPartition, int]]:
        return [
            (self.elements[i], self.elements[j], label)
            for i in range(len(self.elements))
            for j, label in self.covers_up[i]
        ]


def build_lattice(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> IntersectionLattice:
    """Intersection lattice of w's inversion arrangement.

    The hyperplane order comes from the given reduced expression, defaulting
    to the canonical one.
    """
    expr = tuple(expression) if expression is not None else reduced_expression(w)
    return IntersectionLattice(w, expr)


def decreasing_chains(lattice: IntersectionLattice) -> tuple[DecreasingChain, ...]:
    """All label-decreasing saturated chains from the bottom, every length
    included; ordered lexicographically by label sequence.

    Decreasing in the hyperplane order H_1 > ... > H_k means the integer
    labels strictly increase along the chain.  The chains are computed once
    per lattice and shared by later calls.
    """
    if lattice._chains is not None:
        return lattice._chains
    out: list[DecreasingChain] = []

    def grow(idx: int, elements: tuple[SetPartition, ...], labels: tuple[int, ...]):
        out.append(DecreasingChain(elements, labels))
        last = labels[-1] if labels else 0
        for j, label in lattice.covers_up[idx]:
            if label > last:
                grow(j, elements + (lattice.elements[j],), labels + (label,))

    grow(0, (lattice.bottom,), ())
    out.sort(key=lambda c: c.labels)
    lattice._chains = tuple(out)
    return lattice._chains


def mobius_values(lattice: IntersectionLattice) -> Mapping[SetPartition, int]:
    """|mu(bottom, x)| for every element, computed two independent ways.

    By Whitney's theorem (Rota 1964) the interval below x is the product of
    the bond lattices of its blocks, so |mu(bottom, x)| is the product over
    the blocks B of x of the absolute linear coefficient of the chromatic
    polynomial of the induced graph G[B]; each block's factor is computed
    once.  The count of decreasing chains ending at x must agree; a mismatch
    means the lattice or its labelling is built wrongly.  The values are
    computed once per lattice and shared by later calls, so the mapping is
    read-only.
    """
    if lattice._mobius is not None:
        return lattice._mobius
    word = lattice.w.word
    block_values: dict[int, int] = {}

    def block_value(mask: int) -> int:
        # G[B] is the inversion graph of the pattern w shows on the points of B.
        value = block_values.get(mask)
        if value is None:
            values = [word[p - 1] for p in _points(mask)]
            rank = {v: k for k, v in enumerate(sorted(values), 1)}
            pattern = Permutation([rank[v] for v in values])
            value = block_values[mask] = abs(chromatic_of(pattern).coefficient(1))
        return value

    by_chains = [0] * len(lattice.elements)
    for chain in decreasing_chains(lattice):
        by_chains[lattice.index[chain.top]] += 1

    out: dict[SetPartition, int] = {}
    for x, blocks, chains in zip(lattice.elements, lattice.masks, by_chains):
        value = 1
        for mask in blocks:
            value *= block_value(mask)
        if value != chains:
            raise RuntimeError(
                f"Mobius mismatch at {x}: {value} by the block product vs "
                f"{chains} decreasing chains; lattice construction bug"
            )
        out[x] = value
    lattice._mobius = types.MappingProxyType(out)
    return lattice._mobius


def betti_numbers(lattice: IntersectionLattice) -> tuple[int, ...]:
    """Sum of |mu| over each rank: Betti numbers of the complexified
    arrangement complement, summing to the region count."""
    mu = mobius_values(lattice)
    out = [0] * (lattice.max_rank() + 1)
    for x, value in mu.items():
        out[x.rank] += value
    return tuple(out)

