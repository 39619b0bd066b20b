"""The retired join-closure construction of the bond lattice, the
O(|L|^2) Mobius recursion, the lattice's rank sums of |mu|, the
depth-first search for decreasing chains along a built lattice's covers
and the retired edge scan for a merge's label, kept as independent oracles
for ``invlat.lattice`` and ``chromatic.betti_numbers``.

A partition is a canonical tuple of sorted blocks, e.g. ((1, 2), (3,)), and
``blocks_of`` reads a library element, a tuple of block bitmasks, in that
form without reordering its blocks.  The
lattice is the join closure of the atoms (one per hyperplane), and a cover's
label is found by scanning the hyperplanes from the last one down for the
first pair that the upper element joins and the lower one separates.
"""

from __future__ import annotations

from invlat.lattice import IntersectionLattice, mobius_values

Blocks = tuple[tuple[int, ...], ...]


def canon(blocks) -> Blocks:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def blocks_of(masks: tuple[int, ...]) -> Blocks:
    """The points of each block bitmask (bit v-1 for point v), blocks kept
    in the given order."""
    return tuple(
        tuple(v + 1 for v in range(m.bit_length()) if m >> v & 1) for m in masks
    )


def sort_key(n: int, p: Blocks):
    return (n - len(p), p)


def block_index(p: Blocks) -> dict[int, int]:
    return {v: k for k, b in enumerate(p) for v in b}


def together(p: Blocks, a: int, b: int) -> bool:
    idx = block_index(p)
    return idx[a] == idx[b]


def merge(p: Blocks, i: int, j: int) -> Blocks:
    """Partition with blocks i and j merged."""
    rest = [b for k, b in enumerate(p) if k not in (i, j)]
    return canon(rest + [p[i] + p[j]])


def join(n: int, p: Blocks, q: Blocks) -> Blocks:
    """Common coarsening, via union-find over both block families."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in (p, q):
        for block in part:
            for v in block[1:]:
                parent[find(v)] = find(block[0])
    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return canon(groups.values())


def refines(p: Blocks, q: Blocks) -> bool:
    idx = block_index(q)
    return all(idx[b[0]] == idx[v] for b in p for v in b[1:])


def max_crossing_label(hyperplanes, a: int, b: int) -> int:
    """The label of merging the disjoint blocks with bitmasks a and b: the
    largest index i whose H_i has a point in each, or 0 when none does.
    Scans the edges from the last one down, as the library did before it
    read labels off its block entries."""
    for i in range(len(hyperplanes), 0, -1):
        c, d = hyperplanes[i - 1]
        edge = (1 << (c - 1)) | (1 << (d - 1))
        if edge & a and edge & b:
            return i
    return 0


def _label(hyperplanes, lower: Blocks, upper: Blocks) -> int:
    """Largest index i with H_i first contained at the upper element."""
    for i in range(len(hyperplanes), 0, -1):
        a, b = hyperplanes[i - 1]
        if together(upper, a, b) and not together(lower, a, b):
            return i
    raise AssertionError(f"no hyperplane separates {lower} from {upper}")


def oracle_lattice(n: int, hyperplanes) -> tuple[list[Blocks], list[tuple]]:
    """Elements sorted by (rank, blocks) and, per element, its sorted
    (upper index, label) covers: the shape of ``IntersectionLattice``."""
    bottom = canon((v,) for v in range(1, n + 1))
    atoms = [
        canon([(a, b)] + [(v,) for v in range(1, n + 1) if v not in (a, b)])
        for a, b in hyperplanes
    ]
    elements = {bottom} | set(atoms)
    frontier = list(dict.fromkeys(atoms))
    while frontier:
        nxt = []
        for x in frontier:
            for atom in atoms:
                y = join(n, x, atom)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    ordered = sorted(elements, key=lambda p: sort_key(n, p))
    index = {x: k for k, x in enumerate(ordered)}

    # Merging two blocks raises the rank by exactly one, so the covers of x
    # are its two-block merges that land in the lattice.
    covers_up = []
    for x in ordered:
        ups = []
        for i in range(len(x)):
            for j in range(i + 1, len(x)):
                y = merge(x, i, j)
                if y in index:
                    ups.append((index[y], _label(hyperplanes, x, y)))
        covers_up.append(tuple(sorted(ups)))
    return ordered, covers_up


def oracle_mobius(n: int, elements: list[Blocks]) -> list[int]:
    """|mu(bottom, x)| by the recursion mu(x) = -sum_{y < x} mu(y), for
    elements sorted by rank with the bottom first."""
    # Point -> block-id arrays make the refinement test a flat scan.
    keys = []
    for x in elements:
        arr = [0] * (n + 1)
        for bid, block in enumerate(x):
            for v in block:
                arr[v] = bid
        keys.append(arr)
    signed: list[int] = []
    for k, x in enumerate(elements):
        if k == 0:
            signed.append(1)
            continue
        kx = keys[k]
        total = 0
        for m, y in enumerate(elements):
            if len(y) <= len(x):
                break
            if all(kx[b[0]] == kx[v] for b in y for v in b[1:]):
                total += signed[m]
        signed.append(-total)
    return [abs(v) for v in signed]


def rank_betti(lattice: IntersectionLattice) -> tuple[int, ...]:
    """Sum of |mu| over each rank: Betti numbers of the complexified
    arrangement complement, summing to the region count."""
    out = [0] * (lattice.w.n - len(lattice.elements[-1]) + 1)
    for x, value in zip(lattice.elements, mobius_values(lattice)):
        out[lattice.w.n - len(x)] += value
    return tuple(out)


def decreasing_chains(lattice: IntersectionLattice) -> list[tuple[tuple, tuple]]:
    """``(path, labels)`` of every label-decreasing saturated chain from the
    bottom, every length included, found by depth-first search along
    ``covers_up`` and sorted by label sequence; ``path`` holds the indices
    of the chain's elements, the bottom's first."""
    out = []

    def grow(path, labels):
        out.append((path, labels))
        last = labels[-1] if labels else 0
        for j, label in lattice.covers_up[path[-1]]:
            if label > last:
                grow(path + (j,), labels + (label,))

    grow((0,), ())
    out.sort(key=lambda chain: chain[1])
    return out
