"""Bruhat order on the symmetric group: the comparison u <= w by Ehresmann's
criterion, one set lookup per prefix of u against the value sets that w's
prefixes dominate; the lower interval's size and length counts by the
prefix-set DP; the directed distances to w in the Bruhat graph from every
element of the interval; the elements of the interval that the chain map
misses; and the downward covers in the two-sided weak order."""

from __future__ import annotations

import functools
import math
import types
from typing import Container, Mapping, Sequence

from invlat.permutation import Permutation


@functools.lru_cache(maxsize=1 << 10)
def _dominated_sets(top: int, n: int) -> frozenset[int]:
    """Every set of |top| values, as a bitmask, that ``top`` dominates.

    Ehresmann's tableau criterion: u <= w exactly when for every i the set
    of u's first i values is dominated by the set of w's first i values,
    that is, when for every k the k-th smallest value of u's set is at most
    the k-th smallest of w's (equivalently, for every bound j, u's set holds
    no more values >= j than w's).  Cached on ``(top, n)``, which holds
    every top of S_n up to n = 10.
    """
    sets = [0]
    for cap in (v for v in range(n) if top >> v & 1):
        sets = [s | 1 << v for s in sets for v in range(s.bit_length(), cap + 1)]
    return frozenset(sets)


def _prefix_sets(w: Permutation) -> tuple[frozenset[int], ...]:
    """Entry i - 1 holds every set of i values, as a bitmask, that the set
    of w's first i values dominates (``_dominated_sets``), for i = 1..n-1;
    the set of all n values is always dominated and has no entry."""
    sets = []
    top = 0
    for value in w.word[:-1]:
        top |= 1 << (value - 1)
        sets.append(_dominated_sets(top, w.n))
    return tuple(sets)


# _BIT[v] == 1 << (v - 1), the bit of value v, for every value a byte holds.
_BIT = (0,) + tuple(1 << v for v in range(255))


def _word_leq(word: Sequence[int], sets: Sequence[Container[int]]) -> bool:
    """Whether the permutation with one-line ``word`` is <= w, where
    ``sets`` is ``_prefix_sets(w)``: by Ehresmann's criterion, the set of
    its first i values (bits of ``mask``) is among w's dominated sets of
    size i, for every i.  ``word`` may be a tuple of ints or ``bytes``.  A
    caller testing many words against one w reads the sets once."""
    mask = 0
    for v, keep in zip(word, sets):
        mask |= _BIT[v]
        if mask not in keep:
            return False
    return True


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in the Bruhat order, by Ehresmann's criterion: each prefix of
    u, as a set of values, is dominated by w's prefix of the same length.

    >>> bruhat_leq(Permutation((1, 3, 2, 4)), Permutation((4, 2, 3, 1)))
    True
    """
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    return _word_leq(u.word, _prefix_sets(w))


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


def interval_length_counts(w: Permutation) -> tuple[int, ...]:
    """Ascending coefficients of sum_{u <= w} q^l(u): entry k counts the
    elements of length k in [e, w].  Serves any w with n <= 12.

    The DP walks the value sets of u's prefixes, i values at a time,
    keeping those that w's prefix of length i dominates (``_dominated_sets``),
    in O(n 2^n) steps.  Each set's length counts are packed into one
    integer (``_grow``), so appending a value is a shift and merging
    prefixes is an addition.
    """
    n = w.n
    width = math.factorial(n).bit_length()  # no count exceeds n!
    level = {0: 1}
    top = 0
    for value in w.word:
        top |= 1 << (value - 1)
        keep = _dominated_sets(top, n)
        level = {s: c for s, c in _grow(level, n, width).items() if s in keep}
    packed = sum(level.values())
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
