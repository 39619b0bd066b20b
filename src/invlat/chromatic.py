"""Chromatic polynomials of inversion graphs, acyclic-orientation counts,
the smooth-permutation product formula, and the Bruhat-distance generating
function identity."""

from __future__ import annotations

import itertools
from typing import Sequence

from invlat import kernels
from invlat.bruhat import distances_from
from invlat.patterns import is_smooth
from invlat.permutation import InversionGraph, Permutation, opy_exponents


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


def chromatic_polynomial(g: InversionGraph) -> IntPoly:
    """Chromatic polynomial of the inversion graph, by memoized
    deletion-contraction.

    Monic of degree n with alternating-sign coefficients.  The kernel runs
    on the labelled adjacency masks with one memo shared by every call in
    the process, so a sweep over S_n, or the per-block polynomials of one
    lattice, reuse each other's sub-graphs.
    """
    return IntPoly(kernels.chromatic_coeffs(g.adjacency_masks()))


def chromatic_of(w: Permutation) -> IntPoly:
    return chromatic_polynomial(InversionGraph.of(w))


def acyclic_orientations(g: InversionGraph) -> int:
    """Number of acyclic orientations: (-1)^n chi(-1)."""
    chi = chromatic_polynomial(g)
    return (-1) ** g.n * chi(-1)


def acyclic_orientations_brute(g: InversionGraph) -> int:
    """Independent oracle: try all 2^|E| orientations, count the acyclic
    ones by Kahn peeling.  Exponential; for small oracles only."""
    edges = sorted(g.edges)
    n = g.n
    count = 0
    for choice in itertools.product((0, 1), repeat=len(edges)):
        out_deg = [0] * (n + 1)
        preds = [[] for _ in range(n + 1)]
        for (a, b), c in zip(edges, choice):
            src, dst = (a, b) if c else (b, a)
            out_deg[src] += 1
            preds[dst].append(src)
        ready = [v for v in range(1, n + 1) if out_deg[v] == 0]
        removed = 0
        while ready:
            v = ready.pop()
            removed += 1
            for u in preds[v]:
                out_deg[u] -= 1
                if out_deg[u] == 0:
                    ready.append(u)
        count += removed == n
    return count


def opy_chromatic(w: Permutation) -> IntPoly:
    """Product formula for the chromatic polynomial of a smooth permutation's
    inversion graph: the product of (t - e_i) over the record exponents."""
    if not is_smooth(w):
        raise ValueError(f"{w} is not smooth (it contains 3412 or 4231)")
    return IntPoly.from_roots(opy_exponents(w))


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
