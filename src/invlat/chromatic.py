"""Chromatic polynomials of inversion graphs and their acyclic-orientation
counts, both read off one colouring DP over the permutation's word; the
inversion arrangement's Betti numbers, read off the chromatic polynomial;
and the Bruhat-distance generating function identity."""

from __future__ import annotations

from math import factorial
from typing import Sequence

from invlat.bruhat import distances_from
from invlat.permutation import InversionGraph, Permutation


class IntPoly:
    """Univariate polynomial with exact integer coefficients.

    Coefficients are stored ascending by degree with no trailing zeros; the
    zero polynomial has no coefficients at all.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPoly":
        return cls([0] * degree + [coeff])

    @classmethod
    def from_roots(cls, roots: Sequence[int]) -> "IntPoly":
        """The monic product of (x - r) over the given integer roots."""
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def coefficient(self, degree: int) -> int:
        return self.coeffs[degree] if 0 <= degree < len(self.coeffs) else 0

    def text(self, var: str = "q") -> str:
        """Descending-degree text, e.g. '2q^3+5q^2+4q+1'."""
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if d == 1 else f"{head}{var}^{d}"
            parts.append(sign + body)
        return "".join(parts)

    def to_json(self) -> list[int]:
        """Ascending coefficient array."""
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def _colour_step(level: dict[int, int], v: int) -> dict[int, int]:
    """Append the value v to every colouring counted in ``level``.

    A proper colouring of an inversion graph splits the positions into
    increasing subsequences, so a prefix's colourings are counted by the set
    of their classes' maxima (an n-bit mask of values).  The new value opens
    a class of its own or becomes the maximum of a class whose maximum is
    smaller.
    """
    bit = 1 << (v - 1)
    grown: dict[int, int] = {}
    for s, count in level.items():
        grown[s | bit] = grown.get(s | bit, 0) + count
        below = s & (bit - 1)
        while below:
            b = below & -below
            below ^= b
            t = (s ^ b) | bit
            grown[t] = grown.get(t, 0) + count
    return grown


def _class_counts(word: Sequence[int]) -> list[int]:
    """Entry j counts the partitions of the positions into j increasing
    subsequences: the proper colourings that use exactly j classes."""
    level = {0: 1}
    for v in word:
        level = _colour_step(level, v)
    counts = [0] * (len(word) + 1)
    for s, count in level.items():
        counts[s.bit_count()] += count
    return counts


def _word_of(g: InversionGraph) -> tuple[int, ...]:
    """The word whose inversion graph is ``g``, labels included.

    w(i) - 1 counts the positions holding smaller values: the earlier ones
    not adjacent to i and the later ones adjacent to it.  Raises ValueError
    when ``g`` is no permutation's inversion graph.
    """
    word = tuple(
        1 + i - (m & ((1 << i) - 1)).bit_count() + (m >> (i + 1)).bit_count()
        for i, m in enumerate(g.masks)
    )
    if (
        sorted(word) != list(range(1, g.n + 1))
        or InversionGraph.of(Permutation(word)) != g
    ):
        raise ValueError("the graph is not the inversion graph of a permutation")
    return word


def chromatic_of(w: Permutation) -> IntPoly:
    """Chromatic polynomial of w's inversion graph, by the colouring DP."""
    # chi(t) is the sum over j of (colourings with j classes) t(t-1)...(t-j+1).
    return sum(
        (IntPoly.from_roots(range(j)) * a for j, a in enumerate(_class_counts(w.word))),
        IntPoly(),
    )


def acyclic_orientations(g: InversionGraph) -> int:
    """Number of acyclic orientations, which is (-1)^n chi(-1) (Stanley),
    read off the colouring DP's class counts as the sum over j of
    (-1)^(n+j) j! times the colourings with j classes.

    >>> acyclic_orientations(InversionGraph.of(Permutation((4, 1, 3, 2))))
    12
    """
    counts = _class_counts(_word_of(g))
    n = g.n
    return sum((-1) ** (n + j) * factorial(j) * a for j, a in enumerate(counts))


def betti_numbers(chi: IntPoly) -> tuple[int, ...]:
    """Betti numbers of the complexified arrangement complement: the absolute
    coefficients of chi from t^n down to its lowest nonzero term (Whitney,
    Orlik-Solomon); entry i is the |mu| mass of the lattice's rank i.

    >>> betti_numbers(chromatic_of(Permutation((4, 1, 3, 2))))
    (1, 4, 5, 2)
    """
    low = next(d for d, c in enumerate(chi.coeffs) if c)
    return tuple(abs(c) for c in reversed(chi.coeffs[low:]))


def distance_poly(w: Permutation) -> IntPoly:
    """Generating function of directed Bruhat-graph distances to w over
    [e, w], as a polynomial in q."""
    dist = distances_from(w)
    counts = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        counts[d] += 1
    return IntPoly(counts)


def chi_distance_transform(chi: IntPoly, n: int) -> IntPoly:
    """(-q)^n chi(-1/q) as a polynomial in q: reverse and alternate signs."""
    return IntPoly([(-1) ** m * chi.coefficient(n - m) for m in range(n + 1)])


def chromatic_identity_holds(w: Permutation) -> bool:
    """Whether the distance generating function equals
    (-q)^n chi(-1/q); this holds exactly for four-pattern-avoiding w."""
    return distance_poly(w) == chi_distance_transform(chromatic_of(w), w.n)
