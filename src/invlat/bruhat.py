"""Bruhat order on the symmetric group: comparison backends, interval
enumeration and counting, directed distances in the Bruhat graph, and the
weak orders."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from invlat import kernels
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, Transposition, all_permutations


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
    """Mask of squares with a rook weakly south-west and weakly north-east."""

    n: int
    rows: tuple[int, ...]  # bit j-1 of rows[i-1] set iff square (i, j) in hull

    def contains(self, i: int, j: int) -> bool:
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def squares(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.contains(i, j)
        )

    def to_lines(self) -> tuple[str, ...]:
        """One text row per board row, '#' inside the hull."""
        return tuple(
            "".join("#" if self.contains(i, j) else "." for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )


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
        for ur, wr in zip(rank_matrix(u), rank_matrix(w))
        for j in range(u.n)
    )


@functools.lru_cache(maxsize=256)
def _bubble_constraints(w: Permutation) -> tuple[tuple[int, int, int], ...]:
    """(i, j, R_w[i][j]) over the bubble squares of w, computed once per w."""
    wr = rank_matrix(w)
    return tuple((i, j, wr[i - 1][j - 1]) for i, j in sorted(bubbles(w)))


def _leq_bubble(u: Permutation, w: Permutation) -> bool:
    uw = u.word
    for i, j, bound in _bubble_constraints(w):
        if sum(1 for m in range(i) if uw[m] >= j) > bound:
            return False
    return True


def _leq_hull(u: Permutation, w: Permutation) -> bool:
    if not is_chromobruhatic(w):
        raise ValueError(
            f"hull criterion requires w to avoid the four patterns; {w} does not"
        )
    hull = right_hull(w)
    return all(hull.contains(i, u(i)) for i in range(1, u.n + 1))


def bruhat_leq(u: Permutation, w: Permutation, method: str = "auto") -> bool:
    """u <= w in the Bruhat order.

    Backends: 'rank' compares the full rank matrices, 'bubble' only the
    bubble squares of w, 'hull' tests that every rook of u lies in the right
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


def _hull_fillings(rows: tuple[int, ...]):
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


def interval(w: Permutation, method: str = "auto") -> list[Permutation]:
    """The lower interval [e, w], in lexicographic order.

    'hull' enumerates permutation matrices inside the right hull (avoiding w
    only); 'filter' scans all of S_n with the bubble criterion; 'bfs' walks
    the Bruhat graph down from w.  The backends are interchangeable and
    cross-checked against each other in the test suite.
    """
    if method == "auto":
        method = "hull" if is_chromobruhatic(w) else "bfs"
    if method == "hull":
        if not is_chromobruhatic(w):
            raise ValueError(
                f"hull enumeration requires w to avoid the four patterns; {w} does not"
            )
        return [Permutation(word) for word in _hull_fillings(right_hull(w).rows)]
    if method == "bfs":
        return [Permutation(word) for word in sorted(distances_from(w))]
    if method == "filter":
        constraints = _bubble_constraints(w)
        out = []
        for u in all_permutations(w.n):
            uw = u.word
            if all(
                sum(1 for m in range(i) if uw[m] >= j) <= bound
                for i, j, bound in constraints
            ):
                out.append(u)
        return out
    raise ValueError(f"unknown method {method!r}")


def interval_size(w: Permutation, method: str = "auto") -> int:
    """br(w) = |[e, w]| as an exact integer.

    For w avoiding the four patterns this is the permanent of the right-hull
    mask, a 2^n computation; otherwise the interval is enumerated.
    """
    if method == "auto":
        if is_chromobruhatic(w):
            method = "permanent"
        else:
            return len(interval(w, method="bfs"))
    if method == "permanent":
        if not is_chromobruhatic(w):
            raise ValueError(
                f"permanent fast path requires w to avoid the four patterns; {w} does not"
            )
        return kernels.ryser_permanent(right_hull(w).rows, w.n)
    if method == "filter":
        return len(interval(w, method="filter"))
    raise ValueError(f"unknown method {method!r}")


@functools.lru_cache(maxsize=4)
def ideal_size_table(n: int) -> dict[tuple[int, ...], int]:
    """br(w) for every w in S_n at once.

    Sweeping by length, the ideal of w is w itself plus the union of the
    ideals of all tw with lower length; ideals are bitmasks over S_n, so the
    union is a single big-int OR.  Used by the exhaustive checks.
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


def distances_from(w: Permutation) -> dict[tuple[int, ...], int]:
    """Directed Bruhat-graph distance to w from every u <= w.

    Breadth-first search backwards from w: each backward step swaps an
    inversion pair of positions, which strictly lowers the Bruhat order, so
    every vertex met lies in [e, w] and the walk never has to leave the
    interval.  The keys are exactly the words of [e, w].
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
    return dist


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


@dataclass(frozen=True)
class BruhatGraph:
    """The Bruhat graph restricted to [e, w]: edges x -> tx raising length."""

    w: Permutation
    vertices: tuple[Permutation, ...]
    edges: tuple[tuple[Permutation, Permutation, Transposition], ...]


def bruhat_graph(w: Permutation) -> BruhatGraph:
    vertices = interval(w)
    vertex_set = {v.word for v in vertices}
    n = w.n
    edges = []
    for x in vertices:
        for i in range(n):
            for j in range(i + 1, n):
                if x.word[i] < x.word[j]:
                    word = list(x.word)
                    word[i], word[j] = word[j], word[i]
                    t = tuple(word)
                    if t in vertex_set:
                        edges.append(
                            (x, Permutation(t), Transposition(i + 1, j + 1))
                        )
    return BruhatGraph(w, tuple(vertices), tuple(edges))


def weak_leq_right(u: Permutation, w: Permutation) -> bool:
    """Right weak order: the inversion set of u is contained in that of w."""
    if u.n != w.n:
        raise ValueError(f"size mismatch: n={u.n} vs n={w.n}")
    return set(u.inversions()) <= set(w.inversions())


def weak_leq_left(u: Permutation, w: Permutation) -> bool:
    """Left weak order: right weak order of the inverses."""
    return weak_leq_right(u.inverse(), w.inverse())


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
