"""Bruhat order on the symmetric group: the comparison u <= w by rank counts
at w's bubbles, the lower interval's size and length counts, the directed
distances to w in the Bruhat graph from every element of the interval, the
elements of the interval that the chain map misses, and the downward covers
in the two-sided weak order."""

from __future__ import annotations

import functools
import math
import types
from typing import Callable, Container, Iterable, Mapping, Sequence

from invlat.permutation import Permutation


def rank_matrix(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """The table R[i][j] = #{m <= i : mw >= j} (1-based, stored 0-based).

    Counts the rooks weakly north-east of each square; rows are weakly
    increasing, columns weakly decreasing, and R[n][1] = n.
    """
    n = w.n
    rows = []
    prev = (0,) * n
    for i in range(1, n + 1):
        v = w(i)
        row = tuple(prev[j] + (1 if v >= j + 1 else 0) for j in range(n))
        rows.append(row)
        prev = row
    return tuple(rows)


def bubbles(w: Permutation) -> frozenset[tuple[int, int]]:
    """Squares with a rook strictly to the left in their row and strictly
    below in their column; comparing rank counts there decides u <= w."""
    winv = w.inverse()
    return frozenset(
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(1, w.n + 1)
        if w(i) < j and winv(j) > i
    )


@functools.lru_cache(maxsize=256)
def _bubble_rows(w: Permutation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i - 1 holds (j - 1, R_w[i][j]) for each bubble (i, j) of w in
    row i; computed once per w."""
    wr = rank_matrix(w)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(w.n)]
    for i, j in sorted(bubbles(w)):
        rows[i - 1].append((j - 1, wr[i - 1][j - 1]))
    return tuple(map(tuple, rows))


def _word_leq(
    word: Sequence[int], rows: Sequence[Sequence[tuple[int, int]]]
) -> bool:
    """Whether the permutation with one-line ``word`` is <= w, where
    ``rows`` is ``_bubble_rows(w)``: at each bubble (i, j) of w, its first
    i values (bits of ``mask``) hold at most R_w[i][j] values >= j.  A
    caller testing many words against one w reads the rows once."""
    mask = 0
    for v, row in zip(word, rows):
        mask |= 1 << (v - 1)
        for shift, bound in row:
            if (mask >> shift).bit_count() > bound:
                return False
    return True


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in the Bruhat order, by comparing u's rank counts with w's at
    the bubbles of w only.

    >>> bruhat_leq(Permutation((1, 3, 2, 4)), Permutation((4, 2, 3, 1)))
    True
    """
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    return _word_leq(u.word, _bubble_rows(w))


def _grow(level: dict[int, int], n: int, width: int) -> dict[int, int]:
    """Append one more value in every possible way to the prefixes counted
    in ``level`` (value set -> count); prefixes reaching the same set merge.

    With ``width > 0`` a count packs one ``width``-bit field per length, and
    appending v to a prefix with value set S shifts it up one field per
    larger value in S (the inversions v adds); ``width = 0`` is plain counts.
    """
    full = (1 << n) - 1
    grown: dict[int, int] = {}
    for s, count in level.items():
        free = full & ~s
        while free:
            bit = free & -free
            free ^= bit
            added = (s >> bit.bit_length()).bit_count() if width else 0
            grown[s | bit] = grown.get(s | bit, 0) + (count << (width * added))
    return grown


def _prefix_count(
    n: int, keeps: Iterable[Callable[[int], bool]], width: int = 0
) -> int:
    """The words of S_n whose first i values form a set that ``keeps[i - 1]``
    accepts, for every i, counted by the prefix-set DP; ``width`` as in
    ``_grow`` (0 for plain counts, > 0 for counts packed by length)."""
    level = {0: 1}
    for keep in keeps:
        level = {s: c for s, c in _grow(level, n, width).items() if keep(s)}
    return sum(level.values())


def _dominated_sets(top: int, n: int) -> frozenset[int]:
    """Every set of |top| values, as a bitmask, that ``top`` dominates.

    Ehresmann's tableau criterion: u <= w exactly when for every i the set
    of u's first i values is dominated by the set of w's first i values,
    that is, when for every k the k-th smallest value of u's set is at most
    the k-th smallest of w's (equivalently, for every bound j, u's set holds
    no more values >= j than w's).
    """
    sets = [0]
    for cap in (v for v in range(n) if top >> v & 1):
        sets = [s | 1 << v for s in sets for v in range(s.bit_length(), cap + 1)]
    return frozenset(sets)


def interval_length_counts(w: Permutation) -> tuple[int, ...]:
    """Ascending coefficients of sum_{u <= w} q^l(u): entry k counts the
    elements of length k in [e, w].  Serves any w with n <= 12.

    The DP walks the value sets of u's prefixes, i values at a time,
    keeping those that w's prefix of length i dominates (``_dominated_sets``),
    in O(n 2^n) steps (``_prefix_count``).  Each set's length counts are
    packed into one integer (``_grow``), so appending a value is a shift and
    merging prefixes is an addition.
    """
    n = w.n
    width = math.factorial(n).bit_length()  # no count exceeds n!
    keeps = []
    top = 0
    for value in w.word:
        top |= 1 << (value - 1)
        keeps.append(_dominated_sets(top, n).__contains__)
    packed = _prefix_count(n, keeps, width)
    field = (1 << width) - 1
    return tuple((packed >> (width * k)) & field for k in range(w.length() + 1))


def interval_size(w: Permutation) -> int:
    """br(w) = |[e, w]| as an exact integer, for any w with n <= 12."""
    return sum(interval_length_counts(w))


@functools.lru_cache(maxsize=4)
def distances_from(w: Permutation) -> Mapping[tuple[int, ...], int]:
    """Directed Bruhat-graph distance to w from every u <= w.

    Breadth-first search backwards from w: each backward step swaps an
    inversion pair of positions, which strictly lowers the Bruhat order, so
    every vertex met lies in [e, w] and the walk never has to leave the
    interval.  The keys are exactly the words of [e, w].  Computed once per
    w and shared by every caller, so the mapping is read-only.
    """
    n = w.n
    dist = {w.word: 0}
    frontier = [w.word]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for word in frontier:
            for i in range(n):
                for j in range(i + 1, n):
                    if word[i] > word[j]:
                        u = list(word)
                        u[i], u[j] = u[j], u[i]
                        t = tuple(u)
                        if t not in dist:
                            dist[t] = d
                            nxt.append(t)
        frontier = nxt
    return types.MappingProxyType(dist)


def missed_elements(
    w: Permutation, images: Container[tuple[int, ...]]
) -> tuple[Permutation, ...]:
    """The elements of [e, w] whose words are not among the chain map's
    ``images``, sorted."""
    missed = sorted(u for u in distances_from(w) if u not in images)
    return tuple(map(Permutation._trusted, missed))


def two_sided_weak_covers(w: Permutation) -> set[Permutation]:
    """Downward covers of w in the two-sided weak order.

    Right-weak covers drop one inversion by swapping the adjacent values
    v, v+1 when v+1 sits left of v; left-weak covers swap the positions at a
    descent.  Each has length exactly one less than w.
    """
    out: set[Permutation] = set()
    word = w.word
    n = w.n
    pos = {v: i for i, v in enumerate(word, 1)}
    for v in range(1, n):
        if pos[v + 1] < pos[v]:
            swapped = list(word)
            swapped[pos[v] - 1], swapped[pos[v + 1] - 1] = v + 1, v
            out.add(Permutation(swapped))
    for i in w.descents():
        swapped = list(word)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        out.add(Permutation(swapped))
    return out
