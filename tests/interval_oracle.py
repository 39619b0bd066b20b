"""The retired ways of comparing, counting and enumerating [e, w], kept as
independent oracles for ``invlat.bruhat``'s bubble test, prefix-set DP and
breadth-first search.

- ``rank_leq``: u <= w by comparing the full rank matrices;
- ``hull_rows``: w's right hull as one bitmask per row;
- ``ryser_permanent``: br(w) as the permanent of the right-hull mask, exact
  only when w avoids 4231, 35142, 42513 and 351624;
- ``hull_interval``: the permutation matrices inside the right hull, under
  the same condition;
- ``filter_interval``: a scan of all of S_n with the bubble criterion;
- ``bitset_ideal_table``: br(w) for all of S_n from bitset ideals.
"""

from __future__ import annotations

import itertools

from invlat.bruhat import rank_matrix
from invlat.permutation import Permutation
from util import all_perms


def rank_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w iff u's rank matrix is at most w's at every square."""
    return all(
        a <= b
        for ur, wr in zip(rank_matrix(u), rank_matrix(w))
        for a, b in zip(ur, wr)
    )


def hull_rows(w: Permutation) -> tuple[int, ...]:
    """w's right hull: bit j - 1 of row i - 1 is set iff square (i, j) has a
    rook of w weakly south-west and one weakly north-east."""
    word = w.word
    return tuple(
        # Columns from the smallest value weakly below row i to the largest
        # weakly above it.
        (1 << max(word[:i])) - (1 << (min(word[i - 1 :]) - 1))
        for i in range(1, w.n + 1)
    )


def ryser_permanent(rows, n: int) -> int:
    """Permanent of an n x n 0/1 matrix given as row bitmasks.

    Ryser's inclusion-exclusion over column subsets, walked in Gray-code
    order so each step updates one column:

        per(A) = (-1)^n * sum_{S != 0} (-1)^|S| prod_i |row_i & S|
    """
    rows = list(rows)
    if len(rows) != n:
        raise ValueError("need exactly n rows")
    if n == 0:
        return 1
    sums = [0] * n
    total = 0
    size = 0
    prev_gray = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        col = changed.bit_length() - 1
        bit = 1 << col
        if gray & bit:
            size += 1
            for i in range(n):
                if rows[i] & bit:
                    sums[i] += 1
        else:
            size -= 1
            for i in range(n):
                if rows[i] & bit:
                    sums[i] -= 1
        prod = 1
        for s in sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += -prod if size & 1 else prod
    return total if n % 2 == 0 else -total


def hull_fillings(rows: tuple[int, ...]):
    """All permutation words with every rook inside the hull mask, lex order."""
    n = len(rows)
    word = [0] * n

    def fill(i: int, used: int):
        if i == n:
            yield tuple(word)
            return
        free = rows[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            word[i] = bit.bit_length()
            yield from fill(i + 1, used | bit)

    yield from fill(0, 0)


def hull_interval(w: Permutation) -> list[Permutation]:
    """[e, w] in lex order, as the fillings of w's right hull."""
    return [Permutation(word) for word in hull_fillings(hull_rows(w))]


def filter_interval(w: Permutation) -> list[Permutation]:
    """[e, w] in lex order, by scanning all of S_n: u <= w iff at every
    bubble square (i, j) of w (w's rook strictly left in row i and strictly
    below in column j), u has no more values >= j in its first i positions
    than w has."""
    n = w.n
    ww = w.word
    winv = w.inverse()
    constraints = [
        (i, j, sum(1 for m in range(i) if ww[m] >= j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if w(i) < j and winv(j) > i
    ]
    return [
        u
        for u in all_perms(n)
        if all(
            sum(1 for m in range(i) if u.word[m] >= j) <= bound
            for i, j, bound in constraints
        )
    ]


def bitset_ideal_table(n: int) -> dict[tuple[int, ...], int]:
    """br(w) for every w in S_n, keyed by word.

    Sweeping by length, the ideal of w is w itself plus the union of the
    ideals of all tw with lower length; ideals are bitmasks over S_n, so the
    union is a single big-int OR.  The masks take (n!)^2 bits in all, about
    130 MB at n = 8.
    """
    perms = sorted(
        itertools.permutations(range(1, n + 1)),
        key=lambda p: (sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)), p),
    )
    index = {p: k for k, p in enumerate(perms)}
    masks: list[int] = []
    sizes: dict[tuple[int, ...], int] = {}
    for k, p in enumerate(perms):
        m = 1 << k
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    q = list(p)
                    q[i], q[j] = q[j], q[i]
                    m |= masks[index[tuple(q)]]
        masks.append(m)
        sizes[p] = m.bit_count()
    return sizes


def length_counts(elements, top: int) -> list[int]:
    """Entry k counts the elements of length k, for k = 0..top."""
    counts = [0] * (top + 1)
    for u in elements:
        counts[u.length()] += 1
    return counts
