"""The intersection lattice of a permutation's inversion arrangement.

For the symmetric group the lattice is the bond lattice of the inversion
graph: elements are set partitions of {1, ..., n} whose blocks are connected
in the graph, ordered by refinement.  An ordering H_1 > H_2 > ... > H_k of
the hyperplanes, read off a reduced expression, induces the edge labelling
whose strictly decreasing chains from the bottom count the regions of the
arrangement.

An element is a tuple of block bitmasks (bit v-1 stands for point v), the
blocks ordered by their smallest point; chains, covers and Mobius values
refer to elements by their index in ``IntersectionLattice.elements``, and
``partition_text`` turns an element into text only for printing.  The
lattice grows rank by rank from the singletons: merging two blocks of an
element gives one of its covers exactly when some inversion edge crosses
them, and the cover's label is the largest hyperplane index among the
crossing edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from invlat.chromatic import chromatic_of
from invlat.permutation import (
    MAX_N,
    Permutation,
    Transposition,
    evaluate_word,
    reduced_expression,
    reflection_sequence,
)


@dataclass(frozen=True)
class DecreasingChain:
    """A saturated chain from the bottom whose labels strictly decrease in
    the hyperplane order, i.e. whose label indices strictly increase.
    ``path`` holds the indices of its elements, the bottom's first."""

    path: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def top(self) -> int:
        return self.path[-1]


@functools.lru_cache(maxsize=1 << MAX_N)
def _points(mask: int) -> tuple[int, ...]:
    """The 1-based points of a block bitmask, ascending; cached, as there
    are at most 2^MAX_N masks."""
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def partition_text(n: int, blocks: Sequence[int]) -> str:
    """A lattice element of a size-n lattice as text: each block's points,
    blocks separated by ``|``, with commas between points once n >= 10.

    >>> partition_text(4, (0b1101, 0b0010))
    '134|2'
    >>> partition_text(10, (0b0111111111, 0b1000000000))
    '1,2,3,4,5,6,7,8,9|10'
    """
    sep = "" if n <= 9 else ","
    return "|".join(sep.join(map(str, _points(b))) for b in blocks)


class IntersectionLattice:
    """Bond lattice of the inversion graph, with covers, labels and Mobius data.

    ``hyperplanes[i]`` is the transposition of H_{i+1}; hyperplane order is
    H_1 > H_2 > ... > H_k, so the label of a cover is the *largest* index
    among the hyperplanes first merged by it.  ``elements`` holds the
    elements sorted by rank, then by their blocks' points, so the bottom is
    ``elements[0]``; ``covers_up[k]`` lists the sorted (index, label) pairs
    of the covers of ``elements[k]``.
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
        self._mobius: Optional[tuple[int, ...]] = None
        self._build()

    def _build(self) -> None:
        n = self.w.n
        edges = [(1 << (t.i - 1)) | (1 << (t.j - 1)) for t in self.hyperplanes]

        # Label of merging blocks a and b, memoised on the pair; 0 when no
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

        # Blocks stay ordered by their smallest points: merging blocks i < j
        # puts a | b at i, as it keeps a's smallest point.
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
                            y = x[:i] + (a | b,) + x[i + 1 : j] + x[j + 1 :]
                            covers.append((y, label))
                            if y not in ups:
                                ups[y] = []
                                nxt.append(y)
            level = nxt

        self.elements: tuple[tuple[int, ...], ...] = tuple(
            sorted(ups, key=lambda x: (n - len(x), tuple(map(_points, x))))
        )
        position = {x: k for k, x in enumerate(self.elements)}
        self.covers_up: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted((position[y], label) for y, label in ups[x]))
            for x in self.elements
        )

    def max_rank(self) -> int:
        return self.w.n - len(self.elements[-1])


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

    def grow(path: tuple[int, ...], labels: tuple[int, ...]):
        out.append(DecreasingChain(path, labels))
        last = labels[-1] if labels else 0
        for j, label in lattice.covers_up[path[-1]]:
            if label > last:
                grow(path + (j,), labels + (label,))

    grow((0,), ())
    out.sort(key=lambda c: c.labels)
    lattice._chains = tuple(out)
    return lattice._chains


def mobius_values(lattice: IntersectionLattice) -> tuple[int, ...]:
    """|mu(bottom, x)| for every element x, aligned with ``elements`` and
    computed two independent ways.

    By Whitney's theorem (Rota 1964) the interval below x is the product of
    the bond lattices of its blocks, so |mu(bottom, x)| is the product over
    the blocks B of x of the absolute linear coefficient of the chromatic
    polynomial of the induced graph G[B]; each block's factor is computed
    once.  The count of decreasing chains ending at x must agree; a mismatch
    means the lattice or its labelling is built wrongly.  The values are
    computed once per lattice and shared by later calls.
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
        by_chains[chain.top] += 1

    out = []
    for x, chains in zip(lattice.elements, by_chains):
        value = 1
        for mask in x:
            value *= block_value(mask)
        if value != chains:
            raise RuntimeError(
                f"Mobius mismatch at {partition_text(lattice.w.n, x)}: {value} "
                f"by the block product vs {chains} decreasing chains; lattice "
                "construction bug"
            )
        out.append(value)
    lattice._mobius = tuple(out)
    return lattice._mobius
