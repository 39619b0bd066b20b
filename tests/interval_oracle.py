"""The retired ways of comparing, counting and enumerating [e, w], kept as
independent oracles for ``invlat.bruhat``'s prefix-set test, prefix-set DP
and breadth-first search, and for ``invlat.verify``'s hull walk.

- ``rank_matrix`` and ``bubbles``: w's rank counts, and the squares where
  comparing them decides u <= w;
- ``rank_leq``: u <= w by comparing the full rank matrices;
- ``bubble_rows`` and ``bubble_word_leq``: u <= w by counting, at each of
  w's bubbles, u's values at or above the bubble's column;
- ``hull_counts``: the bubble and right-hull counts of one w, each by its
  own prefix-set DP;
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

from invlat.permutation import Permutation
from util import all_perms


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


def bubble_rows(w: Permutation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i - 1 holds (j - 1, R_w[i][j]) for each bubble (i, j) of w in
    row i."""
    wr = rank_matrix(w)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(w.n)]
    for i, j in sorted(bubbles(w)):
        rows[i - 1].append((j - 1, wr[i - 1][j - 1]))
    return tuple(map(tuple, rows))


def rank_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w iff u's rank matrix is at most w's at every square."""
    return all(
        a <= b
        for ur, wr in zip(rank_matrix(u), rank_matrix(w))
        for a, b in zip(ur, wr)
    )


def bubble_word_leq(word, rows) -> bool:
    """Whether the permutation with one-line ``word`` is <= w, where
    ``rows`` is ``bubble_rows(w)``: at each bubble (i, j) of
    w, its first i values (bits of ``mask``) hold at most R_w[i][j] values
    >= j."""
    mask = 0
    for v, row in zip(word, rows):
        mask |= 1 << (v - 1)
        for shift, bound in row:
            if (mask >> shift).bit_count() > bound:
                return False
    return True


def hull_counts(w: Permutation) -> tuple[int, int]:
    """``(bubble, hull)``: the number of u that pass the rank test at w's
    bubbles, and that fit in w's right hull, each by one prefix-set DP.

    u fits in the hull when, at every position i, u(i) lies between the
    smallest value of w at positions >= i and the largest at positions
    <= i.  Both bounds grow with i, so this holds exactly when every set S
    of u's first i values lies in [1, max of w's first i values] and holds
    [1, m - 1], where m is the smallest value of w after position i.
    """
    n = w.n
    word = w.word
    rows = bubble_rows(w)
    bubble, hull = [], []
    for i in range(1, n + 1):
        within = (1 << max(word[:i])) - 1
        need = (1 << (min(word[i:]) - 1 if i < n else n)) - 1
        bubble.append(
            lambda s, row=rows[i - 1]: all((s >> j).bit_count() <= b for j, b in row)
        )
        hull.append(
            lambda s, within=within, need=need: s | within == within
            and s & need == need
        )
    return prefix_count(n, bubble), prefix_count(n, hull)


def prefix_count(n: int, keeps) -> int:
    """The words of S_n whose first i values form a set that ``keeps[i - 1]``
    accepts, for every i, counted by a plain prefix-set DP."""
    level = {0: 1}
    for keep in keeps:
        grown: dict[int, int] = {}
        for s, count in level.items():
            for v in range(n):
                t = s | 1 << v
                if t != s and keep(t):
                    grown[t] = grown.get(t, 0) + count
        level = grown
    return sum(level.values())


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
