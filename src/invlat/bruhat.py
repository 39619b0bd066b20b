"""Bruhat order on the symmetric group: comparison backends, the lower
interval's size and length counts, its enumeration with directed distances
in the Bruhat graph, and the downward covers in the two-sided weak order."""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Mapping, Optional

from invlat.patterns import is_chromobruhatic
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


@dataclass(frozen=True)
class RightHull:
    """Mask of every square with a rook weakly south-west and weakly north-east."""

    n: int
    rows: tuple[int, ...]  # bit j-1 of rows[i-1] set iff square (i, j) in hull

    def contains(self, i: int, j: int) -> bool:
        return bool(self.rows[i - 1] >> (j - 1) & 1)


def right_hull(w: Permutation) -> RightHull:
    n = w.n
    word = w.word
    rows = []
    for i in range(1, n + 1):
        # min value weakly below row i / max value weakly above row i
        sw = min(word[i - 1 :])
        ne = max(word[:i])
        mask = 0
        for j in range(sw, ne + 1):
            mask |= 1 << (j - 1)
        rows.append(mask)
    return RightHull(n, tuple(rows))


def _leq_rank(u: Permutation, w: Permutation) -> bool:
    return all(
        ur[j] <= wr[j]
        for ur, wr in zip(rank_matrix(u), _rank_bound(w))
        for j in range(u.n)
    )


@functools.lru_cache(maxsize=256)
def _rank_bound(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """w's rank matrix for the rank criterion, computed once per w."""
    return rank_matrix(w)


@functools.lru_cache(maxsize=256)
def _bubble_constraints(w: Permutation) -> tuple[tuple[int, int, int], ...]:
    """(i, j, R_w[i][j]) over the bubbles of w, computed once per w."""
    wr = rank_matrix(w)
    return tuple((i, j, wr[i - 1][j - 1]) for i, j in sorted(bubbles(w)))


def _leq_bubble(u: Permutation, w: Permutation) -> bool:
    uw = u.word
    for i, j, bound in _bubble_constraints(w):
        if sum(1 for m in range(i) if uw[m] >= j) > bound:
            return False
    return True


@functools.lru_cache(maxsize=256)
def _avoiding_hull(w: Permutation) -> Optional[RightHull]:
    """w's right hull, or None when w contains one of the four patterns;
    computed once per w."""
    return right_hull(w) if is_chromobruhatic(w) else None


def _leq_hull(u: Permutation, w: Permutation) -> bool:
    hull = _avoiding_hull(w)
    if hull is None:
        raise ValueError(
            f"hull criterion requires w to avoid the four patterns; {w} does not"
        )
    return all(hull.contains(i, u(i)) for i in range(1, u.n + 1))


def bruhat_leq(u: Permutation, w: Permutation, method: str = "auto") -> bool:
    """u <= w in the Bruhat order.

    Backends: 'rank' compares the full rank matrices, 'bubble' only the
    bubbles of w, 'hull' tests that every rook of u lies in the right
    hull of w (valid only when w avoids the four patterns).  'auto' uses the
    bubble criterion.
    """
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    if method in ("auto", "bubble"):
        return _leq_bubble(u, w)
    if method == "rank":
        return _leq_rank(u, w)
    if method == "hull":
        return _leq_hull(u, w)
    raise ValueError(f"unknown method {method!r}")


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
    in O(n 2^n) steps.  Each set's length counts are packed into one integer
    (``_grow``), so appending a value is a shift and merging prefixes is an
    addition.
    """
    n = w.n
    width = math.factorial(n).bit_length()  # no count exceeds n!
    level = {0: 1}
    top = 0
    for value in w.word:
        top |= 1 << (value - 1)
        keep = _dominated_sets(top, n)
        level = {t: c for t, c in _grow(level, n, width).items() if t in keep}
    packed = level[(1 << n) - 1]
    field = (1 << width) - 1
    return tuple((packed >> (width * k)) & field for k in range(w.length() + 1))


def interval(w: Permutation) -> list[Permutation]:
    """The lower interval [e, w], in lexicographic order."""
    return [Permutation(word) for word in sorted(distances_from(w))]


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


def directed_distance(u: Permutation, w: Permutation) -> int:
    """Length of a shortest directed path u -> t_1 u -> ... -> w where each
    step multiplies by a transposition and raises the length."""
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    dist = distances_from(w)
    try:
        return dist[u.word]
    except KeyError:
        raise ValueError(f"{u} is not below {w} in the Bruhat order") from None


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
