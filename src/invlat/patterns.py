"""Pattern containment, the four-pattern and smooth classes, reduction pairs
and the witness constructions showing why the four patterns obstruct
region/interval equality."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from invlat.permutation import Permutation

# br = re holds exactly for permutations avoiding these four.
CHROMOBRUHATIC_PATTERNS = (
    Permutation((4, 2, 3, 1)),
    Permutation((3, 5, 1, 4, 2)),
    Permutation((4, 2, 5, 1, 3)),
    Permutation((3, 5, 1, 6, 2, 4)),
)

# Lakshmibai-Sandhya: the Schubert variety of w is smooth iff w avoids these.
SMOOTH_PATTERNS = (
    Permutation((3, 4, 1, 2)),
    Permutation((4, 2, 3, 1)),
)


def find_occurrence(w: Permutation, p: Permutation) -> Optional[tuple[int, ...]]:
    """Lexicographically first positions i_1 < ... < i_m where w realises p.

    Backtracking over positions; a candidate must compare against every
    chosen value the way p prescribes, and enough positions must remain.
    """
    m = p.n
    n = w.n
    if m > n:
        return None
    pw = p.word
    ww = w.word
    chosen: list[int] = []

    def extend(start: int) -> bool:
        k = len(chosen)
        if k == m:
            return True
        for i in range(start, n - (m - k) + 1):
            v = ww[i]
            if all(
                (ww[chosen[t]] < v) == (pw[t] < pw[k]) for t in range(k)
            ):
                chosen.append(i)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        return tuple(i + 1 for i in chosen)
    return None


def contains(w: Permutation, p: Permutation) -> bool:
    """True iff some subsequence of w is order-isomorphic to p."""
    return find_occurrence(w, p) is not None


def is_chromobruhatic(w: Permutation) -> bool:
    """True iff w avoids 4231, 35142, 42513 and 351624."""
    return not any(contains(w, p) for p in CHROMOBRUHATIC_PATTERNS)


def is_smooth(w: Permutation) -> bool:
    """True iff w avoids 3412 and 4231."""
    return not any(contains(w, p) for p in SMOOTH_PATTERNS)


@dataclass(frozen=True)
class ReductionPair:
    """A descent pair of rooks x, y: y sits one row above x and strictly to its right."""

    kind: str  # 'light' or 'heavy'
    x: tuple[int, int]  # (row, column)
    y: tuple[int, int]


def first_descent_rooks(v: Permutation) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Rooks (x, y) at the first descent of v: x in the descent row, y above it."""
    word = v.word
    for i in range(2, v.n + 1):
        if word[i - 1] < word[i - 2]:
            return (i, word[i - 1]), (i - 1, word[i - 2])
    return None


def _is_light(v: Permutation, x, y) -> bool:
    word = v.word
    xi, xj = x
    yi, yj = y
    # Nothing strictly north-east of y.
    for i in range(1, yi):
        if word[i - 1] > yj:
            return False
    # Nothing strictly below x with column between x and y.
    for i in range(xi + 1, v.n + 1):
        if xj < word[i - 1] < yj:
            return False
    return True


def _is_heavy(v: Permutation, x, y) -> bool:
    word = v.word
    xi, xj = x
    yi, yj = y
    # Nothing strictly south-west of x.
    for i in range(xi + 1, v.n + 1):
        if word[i - 1] < xj:
            return False
    # Nothing strictly north-east of y.
    for i in range(1, yi):
        if word[i - 1] > yj:
            return False
    # Some column split x_j <= j < y_j leaves the upper-left region
    # [1, y_i-1] x [x_j+1, j] and lower-right region [x_i+1, n] x [j+1, y_j-1]
    # both empty: every upper value in (x_j, y_j) must exceed every lower one.
    top = [word[i - 1] for i in range(1, yi) if xj < word[i - 1] < yj]
    bottom = [word[i - 1] for i in range(xi + 1, v.n + 1) if xj < word[i - 1] < yj]
    return (max(bottom) if bottom else xj) < (min(top) if top else yj)


def classify_pair(v: Permutation, x, y) -> Optional[str]:
    """'light', 'heavy', or None for a descent rook pair of v."""
    if _is_light(v, x, y):
        return "light"
    if _is_heavy(v, x, y):
        return "heavy"
    return None


def find_reduction_pair(
    w: Permutation,
) -> Optional[tuple[str, Permutation, ReductionPair]]:
    """First reduction pair at the first descent of w, w^-1, the rotation or its inverse.

    Light pairs are preferred over heavy ones across all four images.  For a
    non-identity permutation avoiding the four patterns, the first descent of
    w or of w^-1 is guaranteed to yield a pair; otherwise the result may be
    None and callers must not assume one exists.
    """
    targets = (
        ("w", w),
        ("inverse", w.inverse()),
        ("rotate", w.rotate()),
        ("rotate-inverse", w.rotate().inverse()),
    )
    found = []
    for name, v in targets:
        rooks = first_descent_rooks(v)
        if rooks is None:
            continue
        x, y = rooks
        kind = classify_pair(v, x, y)
        if kind is not None:
            found.append((name, v, ReductionPair(kind, x, y)))
    for item in found:
        if item[2].kind == "light":
            return item
    return found[0] if found else None


@dataclass(frozen=True)
class ReductionStep:
    """Result of swapping a reduction pair: the swap and the deletions the
    interval/orientation recurrences consume."""

    rho: Permutation
    minus_y: Permutation
    minus_x: Optional[Permutation] = None
    minus_xy: Optional[Permutation] = None


def delete_rooks(v: Permutation, rows) -> Permutation:
    """Remove the given rows and their columns, relabelling order-preservingly."""
    rows = set(rows)
    cols = sorted(v(i) for i in rows)

    def newval(c: int) -> int:
        return c - sum(1 for d in cols if d < c)

    word = [newval(v(i)) for i in range(1, v.n + 1) if i not in rows]
    return Permutation(word)


def reduction_step(v: Permutation, pair: ReductionPair) -> ReductionStep:
    """Swap the pair's rows and produce the deleted permutations.

    The light recurrences need v minus y; the heavy ones also need v minus x
    and v minus both.
    """
    x, y = pair.x, pair.y
    if y[0] != x[0] - 1 or v(x[0]) != x[1] or v(y[0]) != y[1] or not x[1] < y[1]:
        raise ValueError(f"{pair!r} is not a descent rook pair of {v}")
    if classify_pair(v, x, y) != pair.kind:
        raise ValueError(f"{pair!r} is not a {pair.kind} reduction pair of {v}")
    word = list(v.word)
    word[x[0] - 2], word[x[0] - 1] = word[x[0] - 1], word[x[0] - 2]
    rho = Permutation(word)
    minus_y = delete_rooks(v, [y[0]])
    if pair.kind == "light":
        return ReductionStep(rho, minus_y)
    return ReductionStep(
        rho,
        minus_y,
        minus_x=delete_rooks(v, [x[0]]),
        minus_xy=delete_rooks(v, [x[0], y[0]]),
    )


@dataclass(frozen=True)
class Witness:
    """An element u < w whose Bruhat-graph distance to w exceeds the
    absolute length of u w^-1, produced from a forbidden-pattern occurrence."""

    u: Permutation
    pattern: Permutation
    positions: tuple[int, ...]


def witness_below(w: Permutation) -> Optional[Witness]:
    """The witness for the first forbidden pattern w contains, if any.

    For an occurrence at positions p = (n_1, ..., n_m), u multiplies w on the
    left by fixed cycles on those positions:

        4231   -> (n1 n4)(n2 n3)
        35142  -> (n1 n3 n4)(n2 n5)
        42513  -> (n2 n5 n3)(n1 n4)
        351624 -> (n1 n3 n6 n4)(n2 n5)
    """
    constructions = {
        (4, 2, 3, 1): lambda p: [(p[0], p[3]), (p[1], p[2])],
        (3, 5, 1, 4, 2): lambda p: [(p[0], p[2], p[3]), (p[1], p[4])],
        (4, 2, 5, 1, 3): lambda p: [(p[1], p[4], p[2]), (p[0], p[3])],
        (3, 5, 1, 6, 2, 4): lambda p: [(p[0], p[2], p[5], p[3]), (p[1], p[4])],
    }
    for pattern in CHROMOBRUHATIC_PATTERNS:
        positions = find_occurrence(w, pattern)
        if positions is None:
            continue
        cycles = constructions[pattern.word](positions)
        u = Permutation.from_cycles(w.n, cycles) * w
        return Witness(u, pattern, positions)
    return None
