"""The intersection lattice of a permutation's inversion arrangement, and
the walk over its label-decreasing chains.

For the symmetric group the lattice is the bond lattice of the inversion
graph: elements are set partitions of {1, ..., n} whose blocks are connected
in the graph, ordered by refinement.  An ordering H_1 > H_2 > ... > H_k of
the hyperplanes, read off a reduced expression, induces the edge labelling
whose strictly decreasing chains from the bottom count the regions of the
arrangement.

An element is a tuple of block bitmasks (bit v-1 stands for point v), the
blocks ordered by their smallest point; chains, covers and Mobius values
refer to elements by their index in ``IntersectionLattice.elements``, and
``partition_text`` turns an element into text only for printing.  Merging
two blocks of an element gives one of its covers exactly when some
inversion edge crosses them, and the cover's label is the largest
hyperplane index among the crossing edges (``_merge_labeller``).
``_chain_walk`` follows that rule along the decreasing chains alone, with
no lattice, and yields each chain with its image under the chain map and
its top as an ``owner`` tuple, the block bitmask of each point.  It is the
lattice's only enumeration: every element tops at least one decreasing
chain, so ``IntersectionLattice`` takes its elements from the distinct
owners, each turned into an element once, and its covers from the same
rule, and checks that the covers of the tops are tops.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Optional, Sequence

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
    w: Permutation, hyperplanes: Sequence[Transposition]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Yield ``(labels, image word, owner)`` for every label-decreasing
    saturated chain C from the bottom, every length included, in
    depth-first preorder with the labels tried ascending: that is,
    lexicographically by label sequence.

    Decreasing in the hyperplane order H_1 > ... > H_k means the integer
    labels strictly increase.  Appending j to a chain is a cover exactly
    when t_j = (a b) joins two different blocks A and B of its top and j is
    the largest index of a hyperplane crossing A and B, the rule the
    lattice labels its covers by.  ``owner[v - 1]`` is the bitmask of the
    block of point v in the chain's top; listing the distinct blocks in
    point order gives the top as a lattice element.  The image word is that
    of p(C) * w, where p(C) = t_{j_1} ... t_{j_m}.  Each label swaps the
    values a and b of p(C), so it swaps the values w(a) and w(b) of the
    image; a and b lie in different cycles of p(C), so the cycles of p(C)
    are the blocks.  The walk keeps the image as ``bytes`` and swaps its
    two values with one ``bytes.translate`` table per hyperplane; it
    yields the image as a tuple of ints.
    """
    n = w.n
    merge_label = _merge_labeller(n, hyperplanes)
    steps = []
    for j, (a, b) in enumerate(hyperplanes, 1):
        swap = bytearray(range(256))
        swap[w(a)], swap[w(b)] = w(b), w(a)
        steps.append((j, a - 1, b - 1, bytes(swap)))

    def grow(labels, image, owner, start):
        yield labels, tuple(image), owner
        for j, a, b, swap in steps[start:]:
            block_a, block_b = owner[a], owner[b]
            if block_a != block_b and merge_label(block_a, block_b) == j:
                merged = block_a | block_b
                yield from grow(
                    labels + (j,),
                    image.translate(swap),
                    tuple(merged if o & merged else o for o in owner),
                    j,
                )

    yield from grow((), bytes(w.word), tuple(1 << v for v in range(n)), 0)


class IntersectionLattice:
    """Bond lattice of the inversion graph, with its decreasing chains,
    covers, labels and Mobius data.

    ``hyperplanes[i]`` is the transposition of H_{i+1}; hyperplane order is
    H_1 > H_2 > ... > H_k, so the label of a cover is the *largest* index
    among the hyperplanes first merged by it.  ``chains`` holds one
    ``(labels, image word, top index)`` per decreasing chain C, in label
    order, as ``_chain_walk`` yields them: the image is the chain map's
    p(C) * w, which ``cli.analyze`` tests against w.  The walk gives each
    chain's top as its ``owner`` tuple; each distinct owner is turned into
    its element once, and chains with the same top share that element's
    index.  ``elements`` holds the distinct chain tops sorted by rank, then
    by their blocks' points, so the bottom is ``elements[0]``;
    ``covers_up[k]`` lists the sorted (index, label) pairs of the covers of
    ``elements[k]``.

    Every element of a geometric lattice has |mu(bottom, x)| >= 1 (Rota
    1964), and the decreasing chains ending at x number |mu(bottom, x)|
    under this labelling (Bjorner 1980), so every element tops a chain.
    The build checks it: the bottom tops the empty chain, and a cover of
    some top that tops no chain raises, so the tops are closed upwards and
    are the lattice.
    """

    def __init__(self, w: Permutation, expression: tuple[int, ...]):
        n = w.n
        self.w = w
        self.hyperplanes = _hyperplanes(w, expression)
        chains = list(_chain_walk(w, self.hyperplanes))
        # Listing an owner's distinct blocks in point order puts them in the
        # element's order, by smallest point; each distinct owner is read once.
        tops = {owner: tuple(dict.fromkeys(owner)) for owner in {c[2] for c in chains}}
        self.elements: tuple[tuple[int, ...], ...] = tuple(
            sorted(
                tops.values(),
                key=lambda x: (n - len(x), tuple(map(_points, x))),
            )
        )
        position = {x: k for k, x in enumerate(self.elements)}
        index = {owner: position[top] for owner, top in tops.items()}
        self.chains: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...] = tuple(
            (labels, image, index[owner]) for labels, image, owner in chains
        )

        # Blocks stay ordered by their smallest points: merging blocks i < j
        # puts a | b at i, as it keeps a's smallest point.
        merge_label = _merge_labeller(n, self.hyperplanes)
        covers_up = []
        for x in self.elements:
            ups = []
            for i, a in enumerate(x):
                for j in range(i + 1, len(x)):
                    b = x[j]
                    label = merge_label(a, b)
                    if label:
                        y = x[:i] + (a | b,) + x[i + 1 : j] + x[j + 1 :]
                        k = position.get(y)
                        if k is None:
                            raise RuntimeError(
                                f"{partition_text(n, y)} covers "
                                f"{partition_text(n, x)} but tops no decreasing "
                                "chain; labelling bug"
                            )
                        ups.append((k, label))
            covers_up.append(tuple(sorted(ups)))
        self.covers_up: tuple[tuple[tuple[int, int], ...], ...] = tuple(covers_up)


def build_lattice(
    w: Permutation, expression: Optional[Sequence[int]] = None
) -> IntersectionLattice:
    """Intersection lattice of w's inversion arrangement.

    The hyperplane order comes from the given reduced expression, defaulting
    to the canonical one.
    """
    expr = tuple(expression) if expression is not None else reduced_expression(w)
    return IntersectionLattice(w, expr)


def mobius_values(lattice: IntersectionLattice) -> tuple[int, ...]:
    """|mu(bottom, x)| for every element x, aligned with ``elements`` and
    computed two independent ways.

    By Whitney's theorem (Rota 1964) the interval below x is the product of
    the bond lattices of its blocks, so |mu(bottom, x)| is the product over
    the blocks B of x of the absolute linear coefficient of the chromatic
    polynomial of the induced graph G[B]; each block's factor is computed
    once.  The count of decreasing chains ending at x, read off
    ``lattice.chains``, must agree; a mismatch means the lattice or its
    labelling is built wrongly.
    """
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

    by_chains = [0] * len(lattice.elements)
    for _, _, k in lattice.chains:
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
    return tuple(out)
