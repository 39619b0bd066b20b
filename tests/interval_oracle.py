"""The retired ways of counting and enumerating [e, w], kept as independent
oracles for ``invlat.bruhat``'s prefix-set DP and breadth-first search.

- ``ryser_permanent``: br(w) as the permanent of the right-hull mask, exact
  only when w avoids 4231, 35142, 42513 and 351624;
- ``hull_interval``: the permutation matrices inside the right hull, under
  the same condition;
- ``filter_interval``: a scan of all of S_n with the bubble criterion.
"""

from __future__ import annotations

from invlat.bruhat import right_hull
from invlat.permutation import Permutation
from util import all_perms


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
    return [Permutation(word) for word in hull_fillings(right_hull(w).rows)]


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


def length_counts(elements, top: int) -> list[int]:
    """Entry k counts the elements of length k, for k = 0..top."""
    counts = [0] * (top + 1)
    for u in elements:
        counts[u.length()] += 1
    return counts
