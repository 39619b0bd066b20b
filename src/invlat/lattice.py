"""The intersection lattice of a permutation's inversion arrangement, and
the walk over its label-decreasing chains.

For the symmetric group the lattice is the bond lattice of the inversion
graph: elements are set partitions of {1, ..., n} whose blocks are connected
in the graph, ordered by refinement.  An ordering H_1 > H_2 > ... > H_k of
the hyperplanes, read off a reduced expression, induces the edge labelling
whose strictly decreasing chains from the bottom count the regions of the
arrangement.

An element is a tuple of block bitmasks (bit v-1 stands for point v), the
blocks ordered by their smallest point; covers and Mobius values refer to
elements by their index in ``IntersectionLattice.elements``, and
``partition_text`` turns an element into text only for printing.  Merging
two blocks of an element gives one of its covers exactly when some
inversion edge crosses them, and the cover's label is the largest
hyperplane index among the crossing edges (``_merge_labeller``).  The
lattice grows rank by rank from the singletons by that rule, and
``_chain_walk`` follows the same rule along the decreasing chains alone,
with no lattice.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, Optional, Sequence

from invlat.chromatic import chromatic_of
from invlat.permutation import (
    MAX_N,
    Permutation,
    Transposition,
    evaluate_word,
    reduced_expression,
    reflection_sequence,
)


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


def _hyperplanes(
    w: Permutation, expression: Sequence[int]
) -> tuple[Transposition, ...]:
    """H_1, ..., H_k as transpositions, read off ``expression``, which must
    be a reduced expression for w."""
    hyperplanes = reflection_sequence(w.n, expression)
    if evaluate_word(w.n, expression) != w or len(expression) != w.length():
        raise ValueError(f"{tuple(expression)!r} is not a reduced expression for {w}")
    return hyperplanes


def _merge_labeller(
    n: int, hyperplanes: Sequence[Transposition]
) -> Callable[[int, int], int]:
    """``merge_label(a, b)``: the label of merging blocks a and b, the
    largest index of a hyperplane whose edge crosses them, or 0 when none
    does; memoised on the pair."""
    edges = [(1 << (t.i - 1)) | (1 << (t.j - 1)) for t in hyperplanes]
    labels: dict[int, int] = {}

    def merge_label(a: int, b: int) -> int:
        key = a << n | b
        label = labels.get(key)
        if label is None:
            label = 0
            for i in range(len(edges), 0, -1):
                e = edges[i - 1]
                if e & a and e & b:
                    label = i
                    break
            labels[key] = label
        return label

    return merge_label


def _chain_walk(
    n: int, hyperplanes: Sequence[Transposition]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Yield ``(labels, product word, blocks)`` for every label-decreasing
    saturated chain from the bottom, every length included, in depth-first
    preorder with the labels tried ascending: that is, lexicographically by
    label sequence.

    Decreasing in the hyperplane order H_1 > ... > H_k means the integer
    labels strictly increase.  Appending j to a chain is a cover exactly
    when t_j = (a b) joins two different blocks A and B of its top and j is
    the largest index of a hyperplane crossing A and B, the rule the
    lattice labels its covers by.  ``blocks`` is the chain's top as a
    lattice element.  The product word is that of t_{j_1} ... t_{j_m}: each
    label swaps the values a and b, which lie in different cycles, so the
    cycles of the product are the blocks.
    """
    merge_label = _merge_labeller(n, hyperplanes)
    steps = [(j, t.i, t.j) for j, t in enumerate(hyperplanes, 1)]
    tops: dict[tuple[int, ...], tuple[int, ...]] = {}

    # owner[v - 1] is the block of point v; listing the distinct blocks in
    # point order puts them in the element's order, by smallest point.
    # Chains with the same top share one tuple of it.
    def grow(labels, word, owner, start):
        blocks = tuple(dict.fromkeys(owner))
        yield labels, word, tops.setdefault(blocks, blocks)
        for j, a, b in steps[start:]:
            block_a, block_b = owner[a - 1], owner[b - 1]
            if block_a != block_b and merge_label(block_a, block_b) == j:
                merged = block_a | block_b
                yield from grow(
                    labels + (j,),
                    tuple(b if v == a else a if v == b else v for v in word),
                    tuple(merged if o & merged else o for o in owner),
                    j,
                )

    yield from grow((), tuple(range(1, n + 1)), tuple(1 << v for v in range(n)), 0)


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
        self.hyperplanes = _hyperplanes(w, expression)
        self._mobius: Optional[tuple[int, ...]] = None
        self._build()

    def _build(self) -> None:
        n = self.w.n
        merge_label = _merge_labeller(n, self.hyperplanes)
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


def _element_indices(
    lattice: IntersectionLattice, tops: Iterable[tuple[int, ...]]
) -> Iterator[int]:
    """The index in ``lattice.elements`` of each walked chain's top; a top
    that is no element of the lattice raises, as a labelling bug."""
    position = {x: k for k, x in enumerate(lattice.elements)}
    for top in tops:
        k = position.get(top)
        if k is None:
            raise RuntimeError(
                f"chain top {partition_text(lattice.w.n, top)} is not an element "
                "of the lattice; labelling bug"
            )
        yield k


def mobius_values(
    lattice: IntersectionLattice, tops: Optional[Iterable[int]] = None
) -> tuple[int, ...]:
    """|mu(bottom, x)| for every element x, aligned with ``elements`` and
    computed two independent ways.

    By Whitney's theorem (Rota 1964) the interval below x is the product of
    the bond lattices of its blocks, so |mu(bottom, x)| is the product over
    the blocks B of x of the absolute linear coefficient of the chromatic
    polynomial of the induced graph G[B]; each block's factor is computed
    once.  The count of decreasing chains ending at x must agree; a mismatch
    means the lattice or its labelling is built wrongly.  ``tops`` gives the
    index of each decreasing chain's top, for a caller that has walked the
    chains already; by default they are walked here.  The values are
    computed once per lattice and shared by later calls.
    """
    if lattice._mobius is not None:
        return lattice._mobius
    n = lattice.w.n
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

    if tops is None:
        walk = _chain_walk(n, lattice.hyperplanes)
        tops = _element_indices(lattice, (blocks for _, _, blocks in walk))
    by_chains = [0] * len(lattice.elements)
    for k in tops:
        by_chains[k] += 1

    out = []
    for x, chains in zip(lattice.elements, by_chains):
        value = 1
        for mask in x:
            value *= block_value(mask)
        if value != chains:
            raise RuntimeError(
                f"Mobius mismatch at {partition_text(n, x)}: {value} "
                f"by the block product vs {chains} decreasing chains; lattice "
                "construction bug"
            )
        out.append(value)
    lattice._mobius = tuple(out)
    return lattice._mobius
