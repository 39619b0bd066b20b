"""Permutations of {1, ..., n} in one-line notation.

A permutation ``w`` acts on the right, so position ``i`` holds the value
``iw``.  Products read left to right: ``u * w`` applies ``u`` first, then
``w``, i.e. ``i(uw) = (iu)w``.  Everything here is immutable and safe to
share between workers.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

# Public bound on n.  Interval sizes stay below 12! < 2**63 and every
# exhaustive sweep in this package is far smaller.
MAX_N = 12


class Transposition(NamedTuple):
    """The transposition (i j) with 1 <= i < j."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"({self.i} {self.j})"


class Permutation:
    """A permutation of {1, ..., n}.

    >>> w = Permutation((4, 1, 3, 2))
    >>> w(1), w(4)
    (4, 2)
    >>> str(w.inverse()), str(w * w.inverse())
    ('2431', '1234')
    """

    __slots__ = ("word", "_hash")

    word: tuple[int, ...]

    def __init__(self, word: Sequence[int]):
        w = tuple(word)
        n = len(w)
        if n < 1:
            raise ValueError("a permutation needs n >= 1")
        if n > MAX_N:
            raise ValueError(f"n={n} exceeds the supported bound n <= {MAX_N}")
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {w!r}")
        self.word = w
        self._hash = hash(w)

    @property
    def n(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation n, n-1, ..., 1."""
        return cls(range(n, 0, -1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        word = list(range(1, n + 1))
        word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
        return cls(word)

    @classmethod
    def adjacent(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition s_i = (i i+1)."""
        return cls.transposition(n, i, i + 1)

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Product of the given cycles, applied left to right.

        The cycle (a b c) sends a to b, b to c and c to a.

        >>> str(Permutation.from_cycles(4, [(1, 4), (2, 3)]))
        '4321'
        """
        result = cls.identity(n)
        for cycle in cycles:
            word = list(range(1, n + 1))
            for a, b in zip(cycle, cycle[1:] + type(cycle)(cycle[:1])):
                word[a - 1] = b
            result = result * cls(word)
        return result

    def __call__(self, i: int) -> int:
        """The image iw of position i."""
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """First self, then other."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.word) != len(other.word):
            raise ValueError(
                f"size mismatch: cannot compose n={len(self.word)} with n={len(other.word)}"
            )
        ow = other.word
        return Permutation(tuple(ow[v - 1] for v in self.word))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"

    def __str__(self) -> str:
        return format_one_line(self.word)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.word, 1))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for pos, v in enumerate(self.word, 1):
            inv[v - 1] = pos
        return Permutation(inv)

    def rotate(self) -> "Permutation":
        """180-degree rotation of the rook diagram: w0 * w * w0."""
        n = len(self.word)
        return Permutation(tuple(n + 1 - v for v in reversed(self.word)))

    def inversions(self) -> tuple[Transposition, ...]:
        """All pairs (i, j) with i < j and iw > jw, in lexicographic order."""
        w = self.word
        n = len(w)
        return tuple(
            Transposition(i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, n)
            if w[i] > w[j]
        )

    def length(self) -> int:
        """Coxeter length: the number of inversions."""
        w = self.word
        n = len(w)
        return sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))

    def descents(self) -> tuple[int, ...]:
        """Positions i with iw > (i+1)w."""
        w = self.word
        return tuple(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles including fixed points, each starting at its minimum."""
        seen = [False] * len(self.word)
        out = []
        for start in range(1, len(self.word) + 1):
            if seen[start - 1]:
                continue
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = self.word[i - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """Cycle notation with fixed points omitted; 'e' for the identity."""
        parts = [
            "(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1
        ]
        return "".join(parts) if parts else "e"

    def absolute_length(self) -> int:
        """Minimum number of transpositions multiplying to w: n - #cycles."""
        return len(self.word) - len(self.cycles())


def format_one_line(word: Sequence[int]) -> str:
    """One-line text: digits for n <= 9, comma-separated for larger n."""
    if len(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, e.g. '4132' or '10,3,1,2,4,5,6,7,8,9'."""
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    if "," in s:
        values = []
        for token in s.split(","):
            token = token.strip()
            if not token.isdigit():
                raise ValueError(f"bad token {token!r} in permutation text {text!r}")
            values.append(int(token))
    else:
        for ch in s:
            if not ch.isdigit() or ch == "0":
                raise ValueError(f"bad token {ch!r} in permutation text {text!r}")
        values = [int(ch) for ch in s]
    return Permutation(values)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of the one-line word."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def reduced_expression(w: Permutation) -> tuple[int, ...]:
    """Canonical reduced expression for w as a tuple of letters a with s_a = (a a+1).

    Straight-selection rule: repeatedly record the smallest descent position
    of the running word and unwind it, so w = s_{a_1} s_{a_2} ... s_{a_k}.

    >>> reduced_expression(Permutation((4, 1, 3, 2)))
    (1, 2, 3, 2)
    """
    v = list(w.word)
    letters = []
    i = 0
    while i < len(v) - 1:
        if v[i] > v[i + 1]:
            letters.append(i + 1)
            v[i], v[i + 1] = v[i + 1], v[i]
            i = 0
        else:
            i += 1
    return tuple(letters)


def evaluate_word(n: int, letters: Sequence[int]) -> Permutation:
    """The product s_{a_1} s_{a_2} ... s_{a_k}, applied left to right."""
    word = list(range(1, n + 1))
    for a in reversed(letters):
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for n={n}")
        word[a - 1], word[a] = word[a], word[a - 1]
    return Permutation(word)


def all_reduced_expressions(w: Permutation) -> list[tuple[int, ...]]:
    """Every reduced expression for w (first letters are descent positions)."""
    if w.is_identity():
        return [()]
    out = []
    word = w.word
    for i in w.descents():
        shorter = list(word)
        shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
        for rest in all_reduced_expressions(Permutation(shorter)):
            out.append((i,) + rest)
    return out


def reflection_sequence(n: int, letters: Sequence[int]) -> tuple[Transposition, ...]:
    """The reflections t_i = s_{a_1}...s_{a_{i-1}} s_{a_i} s_{a_{i-1}}...s_{a_1}.

    For a reduced expression of w these are pairwise distinct and their set
    equals the inversion set of w; a repeat means the input is not reduced.

    >>> reflection_sequence(4, (1, 2, 3, 2))
    (Transposition(i=1, j=2), Transposition(i=1, j=3), Transposition(i=1, j=4), Transposition(i=3, j=4))
    """
    # q tracks the inverse of the prefix product; t_i swaps the points
    # currently occupying values a, a+1 under the prefix.
    q = list(range(1, n + 1))
    out: list[Transposition] = []
    for a in letters:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for n={n}")
        c, d = q[a - 1], q[a]
        out.append(Transposition(min(c, d), max(c, d)))
        q[a - 1], q[a] = q[a], q[a - 1]
    if len(set(out)) != len(out):
        raise ValueError(f"expression {tuple(letters)!r} is not reduced")
    return tuple(out)


def record_positions(w: Permutation) -> tuple[int, ...]:
    """Positions r with rw larger than every earlier value; position 1 always counts."""
    best = 0
    out = []
    for i, v in enumerate(w.word, 1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def opy_exponents(w: Permutation) -> tuple[int, ...]:
    """Exponents e_1..e_n driving the product formula for smooth permutations.

    With r_i the nearest record position <= i and r'_i the next record
    position > i (or past the end), e_i counts j in [r_i, i) with jw > iw
    plus k in [r'_i, n] with kw < iw.
    """
    word = w.word
    n = len(word)
    records = record_positions(w)
    out = []
    for i in range(1, n + 1):
        r = max(p for p in records if p <= i)
        later = [p for p in records if p > i]
        r_next = later[0] if later else n + 1
        e = sum(1 for j in range(r, i) if word[j - 1] > word[i - 1])
        e += sum(1 for k in range(r_next, n + 1) if word[k - 1] < word[i - 1])
        out.append(e)
    return tuple(out)


class InversionGraph:
    """Graph on the rooks 1..n with an edge for every inversion of w,
    stored as neighbour bitmasks over 0-based vertices."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges):
        masks = [0] * n
        for a, b in edges:
            masks[a - 1] |= 1 << (b - 1)
            masks[b - 1] |= 1 << (a - 1)
        self.n = n
        self.masks = tuple(masks)

    @classmethod
    def of(cls, w: Permutation) -> "InversionGraph":
        """Read the masks straight off the word: position i is adjacent to
        the earlier positions holding larger values and the later positions
        holding smaller ones."""
        word = w.word
        n = len(word)
        at = [0] * (n + 1)  # at[v]: the bit of the position holding v
        for i, v in enumerate(word):
            at[v] = 1 << i
        larger = [0] * (n + 1)  # larger[v]: positions holding values > v
        for v in range(n - 1, 0, -1):
            larger[v] = larger[v + 1] | at[v + 1]
        full = (1 << n) - 1
        masks = []
        for i, v in enumerate(word):
            earlier = (1 << i) - 1
            later = full ^ earlier ^ (1 << i)
            smaller = full ^ larger[v] ^ at[v]
            masks.append((larger[v] & earlier) | (smaller & later))
        g = cls.__new__(cls)
        g.n = n
        g.masks = tuple(masks)
        return g

    @property
    def edges(self) -> frozenset[Transposition]:
        return frozenset(
            Transposition(a + 1, b + 1)
            for a, m in enumerate(self.masks)
            for b in range(a + 1, self.n)
            if m >> b & 1
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InversionGraph)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"InversionGraph(n={self.n}, edges={sorted(self.edges)!r})"
