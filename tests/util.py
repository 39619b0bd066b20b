"""Shared helpers and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: pattern
containment tries every index subset, distances walk the full group, the
permanent sums over permutations, acyclic orientations are tried one by
one, bond-lattice elements come from raw edge-subset enumeration, and the
weak orders compare inversion sets.  Four helpers read the library instead:
``interval`` and ``directed_distance`` read ``bruhat.distances_from``,
``region_count`` sums the Mobius values of a built lattice, and
``count_table`` collects the count sweeps' walk.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

import invlat.lattice
from invlat.bruhat import distances_from
from invlat.lattice import build_lattice, mobius_values
from invlat.permutation import InversionGraph, Permutation, Transposition
from invlat.verify import _count_walk


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Permutation, ...]:
    return tuple(
        Permutation(word) for word in itertools.permutations(range(1, n + 1))
    )


def contains_oracle(w: Permutation, p: Permutation) -> bool:
    """Pattern containment by checking every index subset."""
    ww, pw = w.word, p.word
    for idx in itertools.combinations(range(w.n), p.n):
        values = [ww[i] for i in idx]
        if all(
            (values[a] < values[b]) == (pw[a] < pw[b])
            for a in range(p.n)
            for b in range(a + 1, p.n)
        ):
            return True
    return False


def brute_permanent(rows, n: int) -> int:
    return sum(
        all(rows[i] >> p[i] & 1 for i in range(n))
        for p in itertools.permutations(range(n))
    )


def brute_colorings(masks, k: int) -> int:
    n = len(masks)
    count = 0
    for col in itertools.product(range(k), repeat=n):
        if all(
            not (masks[i] >> j & 1) or col[i] != col[j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            count += 1
    return count


def order_induced_orientations(masks) -> int:
    """Acyclic orientations of a graph on neighbour masks, counted as the
    distinct orientations that the k! vertex orders induce (every acyclic
    orientation has a topological order).  Unlike
    ``acyclic_orientations_brute`` it costs k!, not 2^|E|, so it reaches
    dense graphs on 7 vertices."""
    k = len(masks)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if masks[i] >> j & 1]
    seen = set()
    for order in itertools.permutations(range(k)):
        seen.add(tuple(order[i] < order[j] for i, j in edges))
    return len(seen)


def acyclic_orientations_brute(g: InversionGraph) -> int:
    """Try all 2^|E| orientations and count the acyclic ones by Kahn
    peeling.  Exponential; for small oracles only."""
    edges = sorted(g.edges)
    n = g.n
    count = 0
    for choice in itertools.product((0, 1), repeat=len(edges)):
        out_deg = [0] * (n + 1)
        preds = [[] for _ in range(n + 1)]
        for (a, b), c in zip(edges, choice):
            src, dst = (a, b) if c else (b, a)
            out_deg[src] += 1
            preds[dst].append(src)
        ready = [v for v in range(1, n + 1) if out_deg[v] == 0]
        removed = 0
        while ready:
            v = ready.pop()
            removed += 1
            for u in preds[v]:
                out_deg[u] -= 1
                if out_deg[u] == 0:
                    ready.append(u)
        count += removed == n
    return count


def interval(w: Permutation) -> list[Permutation]:
    """The lower interval [e, w], in lexicographic order."""
    return [Permutation(word) for word in sorted(distances_from(w))]


def directed_distance(u: Permutation, w: Permutation) -> int:
    """Length of a shortest directed path u -> t_1 u -> ... -> w where each
    step multiplies by a transposition and raises the length."""
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    try:
        return distances_from(w)[u.word]
    except KeyError:
        raise ValueError(f"{u} is not below {w} in the Bruhat order") from None


def weak_leq_right(u: Permutation, w: Permutation) -> bool:
    """Right weak order: the inversion set of u is contained in that of w."""
    return set(u.inversions()) <= set(w.inversions())


def weak_leq_left(u: Permutation, w: Permutation) -> bool:
    """Left weak order: right weak order of the inverses."""
    return weak_leq_right(u.inverse(), w.inverse())


def full_graph_distance(u: Permutation, w: Permutation) -> int | None:
    """Directed Bruhat-graph distance computed forwards over all of S_n,
    with no restriction to the interval below w."""
    n = u.n
    target = w.word
    frontier = {u.word}
    seen = {u.word}
    d = 0
    while frontier:
        if target in frontier:
            return d
        d += 1
        nxt = set()
        for word in frontier:
            for i in range(n):
                for j in range(i + 1, n):
                    if word[i] < word[j]:
                        t = list(word)
                        t[i], t[j] = t[j], t[i]
                        t = tuple(t)
                        if t not in seen:
                            seen.add(t)
                            nxt.add(t)
        frontier = nxt
    return None


def min_transpositions(w: Permutation) -> int:
    """Fewest transpositions multiplying to w, by breadth-first search."""
    n = w.n
    start = Permutation.identity(n).word
    if w.word == start:
        return 0
    frontier = {start}
    seen = {start}
    d = 0
    while True:
        d += 1
        nxt = set()
        for word in frontier:
            for i in range(n):
                for j in range(i + 1, n):
                    t = list(word)
                    t[i], t[j] = t[j], t[i]
                    t = tuple(t)
                    if t == w.word:
                        return d
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
        frontier = nxt


def bond_partitions_oracle(n: int, edges) -> set[tuple[tuple[int, ...], ...]]:
    """All component partitions over every edge subset, canonically sorted."""
    out = set()
    edges = list(edges)
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            parent = list(range(n + 1))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for a, b in subset:
                parent[find(a)] = find(b)
            blocks: dict[int, list[int]] = {}
            for v in range(1, n + 1):
                blocks.setdefault(find(v), []).append(v)
            out.add(tuple(sorted(tuple(sorted(b)) for b in blocks.values())))
    return out


def region_count(w: Permutation, expression: Optional[Sequence[int]] = None) -> int:
    """Number of regions of the inversion arrangement of w, as the total
    Mobius mass of its intersection lattice; the arrangement may be taken
    essentialized without changing the count."""
    return sum(mobius_values(build_lattice(w, expression)))


@lru_cache(maxsize=None)
def count_table(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """(br, ao) for every word of S_n, read off the count sweeps' walk, in
    the order it yields them."""
    return {word: (br, ao) for word, br, ao in _count_walk(n)}


def corrupt_second_hyperplane(monkeypatch) -> None:
    """Make the hyperplane order of 4132's reduced expression s1 s2 s3 s2
    read H_2 = (1 3) as (2 3): the chain (1, 2) then maps to
    t1 (2 3) 4132 = 3412, which is not below 4132."""
    real = invlat.lattice.reflection_sequence

    def corrupted(n, expression):
        hyperplanes = real(n, expression)
        if tuple(expression) == (1, 2, 3, 2):
            hyperplanes = (hyperplanes[0], Transposition(2, 3)) + hyperplanes[2:]
        return hyperplanes

    monkeypatch.setattr(invlat.lattice, "reflection_sequence", corrupted)
