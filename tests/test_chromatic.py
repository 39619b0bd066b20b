import pytest

from invlat.chromatic import (
    IntPoly,
    _word_of,
    acyclic_orientations,
    chi_distance_transform,
    chromatic_identity_holds,
    chromatic_of,
    chromatic_polynomial,
    distance_poly,
    opy_chromatic,
)
from invlat.patterns import is_chromobruhatic, is_smooth
from invlat.permutation import InversionGraph, Permutation
from util import acyclic_orientations_brute, all_perms, brute_colorings

W4132 = Permutation((4, 1, 3, 2))


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert not IntPoly()
        assert IntPoly([3]).degree == 0
        assert IntPoly().degree == -1

    def test_arithmetic(self):
        p = IntPoly([1, 1])  # 1 + x
        q = IntPoly([-1, 1])  # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - p).coeffs == ()
        assert (3 * p).coeffs == (3, 3)
        assert p(5) == 6 and (p * q)(3) == 8

    def test_from_roots(self):
        assert IntPoly.from_roots([0, 1, 1, 2]).coeffs == (0, -2, 5, -4, 1)
        assert IntPoly.from_roots([]).coeffs == (1,)

    def test_monomial(self):
        assert IntPoly.monomial(3).coeffs == (0, 0, 0, 1)
        assert (IntPoly.monomial(1) * IntPoly([1, 1])).coeffs == (0, 1, 1)

    def test_text_forms(self):
        assert IntPoly([1, 4, 5, 2]).text("q") == "2q^3+5q^2+4q+1"
        assert IntPoly([0, -2, 5, -4, 1]).text("t") == "t^4-4t^3+5t^2-2t"
        assert IntPoly().text() == "0"
        assert IntPoly([0, 1]).text() == "q"
        assert IntPoly([0, -1]).text() == "-q"
        assert IntPoly([7]).text() == "7"

    def test_json_form(self):
        assert IntPoly([1, 4, 5, 2]).to_json() == [1, 4, 5, 2]


class TestChromaticPolynomial:
    def test_edgeless(self):
        chi = chromatic_of(Permutation.identity(4))
        assert chi == IntPoly.monomial(4)

    def test_4132_product_form(self):
        assert chromatic_of(W4132) == IntPoly.from_roots([0, 1, 1, 2])
        assert chromatic_of(W4132).text("t") == "t^4-4t^3+5t^2-2t"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_proper_colorings(self, n):
        for w in all_perms(n):
            chi = chromatic_of(w)
            masks = InversionGraph.of(w).masks
            for k in (1, 2, 3):
                assert chi(k) == brute_colorings(masks, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shape_invariants(self, n):
        for w in all_perms(n):
            chi = chromatic_of(w)
            assert chi.degree == n
            assert chi.coefficient(n) == 1
            assert chi(0) == 0
            assert abs(chi.coefficient(n - 1)) == w.length()
            for d in range(n + 1):
                c = chi.coefficient(d)
                assert c == 0 or (c > 0) == ((n - d) % 2 == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_word_recovery_round_trips(self, n):
        for w in all_perms(n):
            g = InversionGraph.of(w)
            assert _word_of(g) == w.word
            assert chromatic_polynomial(g) == chromatic_of(w)

    def test_non_inversion_graph_raises(self):
        # The labelled 4-cycle 1-2-3-4-1 is the inversion graph of no
        # permutation (3412 gives the 4-cycle 1-3-2-4-1).
        cycle = InversionGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        for read in (chromatic_polynomial, acyclic_orientations):
            with pytest.raises(ValueError, match="not the inversion graph"):
                read(cycle)


class TestAcyclicOrientations:
    def test_edgeless(self):
        assert acyclic_orientations(InversionGraph.of(Permutation.identity(5))) == 1

    def test_4132(self):
        assert acyclic_orientations(InversionGraph.of(W4132)) == 12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_enumeration(self, n):
        for w in all_perms(n):
            g = InversionGraph.of(w)
            assert acyclic_orientations(g) == acyclic_orientations_brute(g)

    def test_deletion_contraction_identity(self):
        # ao(G) = ao(G minus e) + ao(G contract e) on sample inversion graphs.
        for text in ("4231", "3412", "35142"):
            w = Permutation(tuple(int(c) for c in text))
            g = InversionGraph.of(w)
            edges = sorted(g.edges)
            a, b = edges[0]
            minus = InversionGraph(g.n, [e for e in edges if e != edges[0]])
            # Contract by merging b into a and relabelling.
            contracted_edges = set()
            for c, d in edges[1:]:
                c2 = a if c == b else c
                d2 = a if d == b else d
                if c2 != d2:
                    c2 = c2 if c2 < b else c2 - 1
                    d2 = d2 if d2 < b else d2 - 1
                    contracted_edges.add((min(c2, d2), max(c2, d2)))
            contracted = InversionGraph(g.n - 1, contracted_edges)
            assert acyclic_orientations_brute(g) == acyclic_orientations_brute(
                minus
            ) + acyclic_orientations_brute(contracted)


class TestOpyFormula:
    def test_identity(self):
        assert opy_chromatic(Permutation.identity(4)) == IntPoly.monomial(4)

    def test_4132(self):
        assert opy_chromatic(W4132) == chromatic_of(W4132)

    def test_rejects_non_smooth(self):
        with pytest.raises(ValueError, match="not smooth"):
            opy_chromatic(Permutation((3, 4, 1, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_agreement(self, n):
        for w in all_perms(n):
            if is_smooth(w):
                assert opy_chromatic(w) == chromatic_of(w)


class TestDistanceIdentity:
    def test_identity_permutation(self):
        e = Permutation.identity(3)
        assert distance_poly(e) == IntPoly([1])
        assert chi_distance_transform(chromatic_of(e), 3) == IntPoly([1])

    def test_4132(self):
        assert distance_poly(W4132).text("q") == "2q^3+5q^2+4q+1"
        assert chromatic_identity_holds(W4132)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_iff_avoidance(self, n):
        for w in all_perms(n):
            assert chromatic_identity_holds(w) == is_chromobruhatic(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_transform_has_nonnegative_coefficients(self, n):
        for w in all_perms(n):
            transformed = chi_distance_transform(chromatic_of(w), n)
            assert all(c >= 0 for c in transformed.coeffs)
            assert sum(transformed.coeffs) == acyclic_orientations(
                InversionGraph.of(w)
            )
