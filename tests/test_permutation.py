import pytest

from invlat.permutation import (
    InversionGraph,
    Permutation,
    Transposition,
    all_reduced_expressions,
    evaluate_word,
    format_one_line,
    opy_exponents,
    parse_permutation,
    record_positions,
    reduced_expression,
    reflection_sequence,
)
from util import all_perms, min_transpositions

W4132 = Permutation((4, 1, 3, 2))


class TestConstruction:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation(())

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="bound"):
            Permutation(range(1, 14))

    def test_parse_and_format(self):
        assert parse_permutation("4132") == W4132
        assert str(W4132) == "4132"
        big = parse_permutation("10,3,1,2,4,5,6,7,8,9")
        assert big.n == 10 and big(1) == 10
        assert str(big) == "10,3,1,2,4,5,6,7,8,9"
        assert format_one_line(range(1, 10)) == "123456789"

    def test_parse_diagnostics_name_the_token(self):
        with pytest.raises(ValueError, match="'x'"):
            parse_permutation("41x2")
        with pytest.raises(ValueError, match="'ab'"):
            parse_permutation("1,ab,3")
        with pytest.raises(ValueError):
            parse_permutation("")


class TestGroupOps:
    def test_compose_identity_and_inverse(self):
        e = Permutation.identity(4)
        assert e * W4132 == W4132
        assert W4132 * W4132.inverse() == e

    def test_compose_reads_left_to_right(self):
        # first (1 2), then 4132: position 2 goes 2 -> 1 -> 4.
        t1 = Permutation((2, 1, 3, 4))
        assert t1 * W4132 == Permutation((1, 4, 3, 2))

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            Permutation((1, 2)) * Permutation((1, 2, 3))

    def test_from_cycles(self):
        assert Permutation.from_cycles(4, [(1, 4), (2, 3)]) == Permutation.longest(4)
        p = Permutation.from_cycles(5, [(1, 3, 4), (2, 5)])
        assert p == Permutation((3, 5, 4, 1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_involutions(self, n):
        for w in all_perms(n):
            assert w.inverse().inverse() == w
            assert w.rotate().rotate() == w

    def test_rotate_identity_fixed(self):
        assert Permutation.identity(4).rotate() == Permutation.identity(4)

    def test_rotate_matches_brute_composition(self):
        for w in all_perms(4):
            w0 = Permutation.longest(4)
            assert w.rotate() == w0 * w * w0
        assert W4132.rotate() == Permutation((3, 2, 4, 1))

    def test_transpose_flips_rook_diagram(self):
        # The inverse is the transpose of the rook diagram.
        for w in [parse_permutation("35124"), *all_perms(4)]:
            rooks = {(i, w(i)) for i in range(1, w.n + 1)}
            trooks = {(i, w.inverse()(i)) for i in range(1, w.n + 1)}
            assert trooks == {(j, i) for i, j in rooks}


class TestInversions:
    def test_examples(self):
        assert Permutation.identity(4).inversions() == ()
        assert W4132.inversions() == (
            Transposition(1, 2),
            Transposition(1, 3),
            Transposition(1, 4),
            Transposition(3, 4),
        )
        assert len(Permutation.longest(4).inversions()) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_length_is_inversion_count(self, n):
        for w in all_perms(n):
            assert w.length() == len(w.inversions())


class TestAbsoluteLength:
    def test_examples(self):
        assert Permutation.identity(4).absolute_length() == 0
        assert W4132.absolute_length() == 2  # cycles (1 4 2)(3)
        pair = Permutation.from_cycles(4, [(1, 4), (2, 3)])
        assert pair.absolute_length() == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_bfs_oracle(self, n):
        for w in all_perms(n):
            assert w.absolute_length() == min_transpositions(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_at_most_length(self, n):
        for w in all_perms(n):
            assert w.absolute_length() <= w.length()


class TestReducedExpressions:
    def test_examples(self):
        assert reduced_expression(Permutation.identity(4)) == ()
        assert reduced_expression(W4132) == (1, 2, 3, 2)
        assert evaluate_word(4, (1, 2, 3, 2)) == W4132

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        for w in all_perms(n):
            expr = reduced_expression(w)
            assert len(expr) == w.length()
            assert evaluate_word(n, expr) == w

    def test_all_reduced_expressions(self):
        w0 = Permutation.longest(4)
        exprs = all_reduced_expressions(w0)
        assert len(exprs) == 16
        assert len(set(exprs)) == 16
        for expr in exprs:
            assert len(expr) == 6
            assert evaluate_word(4, expr) == w0

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_word(3, (3,))


class TestReflectionSequence:
    def test_golden_example(self):
        assert reflection_sequence(4, (1, 2, 3, 2)) == (
            Transposition(1, 2),
            Transposition(1, 3),
            Transposition(1, 4),
            Transposition(3, 4),
        )

    def test_empty(self):
        assert reflection_sequence(4, ()) == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_set_equals_inversions(self, n):
        for w in all_perms(n):
            seq = reflection_sequence(n, reduced_expression(w))
            assert len(set(seq)) == len(seq)
            assert set(seq) == set(w.inversions())

    def test_non_reduced_detected(self):
        with pytest.raises(ValueError, match="not reduced"):
            reflection_sequence(3, (1, 1))

    def test_any_reduced_expression_gives_inversions(self):
        for w in all_perms(4):
            for expr in all_reduced_expressions(w):
                assert set(reflection_sequence(4, expr)) == set(w.inversions())


class TestRecordsAndExponents:
    def test_identity(self):
        e = Permutation.identity(4)
        assert record_positions(e) == (1, 2, 3, 4)
        assert opy_exponents(e) == (0, 0, 0, 0)

    def test_4132(self):
        assert record_positions(W4132) == (1,)
        assert opy_exponents(W4132) == (0, 1, 1, 2)

    def test_35124(self):
        # Position 5 holds 4, which is not a new maximum (5 came earlier),
        # so the records are 1 and 2 only.
        w = parse_permutation("35124")
        assert record_positions(w) == (1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_records_are_prefix_maxima(self, n):
        for w in all_perms(n):
            expected = tuple(
                r
                for r in range(1, n + 1)
                if all(w(r) > w(i) for i in range(1, r))
            )
            assert record_positions(w) == expected


class TestInversionGraph:
    def test_structure(self):
        g = InversionGraph.of(W4132)
        assert g.n == 4
        assert g.edges == frozenset(W4132.inversions())
        masks = g.masks
        assert sum(m.bit_count() for m in masks) // 2 == W4132.length()
        for a, b in g.edges:
            assert masks[a - 1] >> (b - 1) & 1
            assert masks[b - 1] >> (a - 1) & 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_edge_count_everywhere(self, n):
        for w in all_perms(n):
            masks = InversionGraph.of(w).masks
            assert sum(m.bit_count() for m in masks) // 2 == w.length()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_masks_from_the_word_match_the_edge_list(self, n):
        # ``of`` reads the masks off the word; the constructor builds them
        # from the inversion pairs.
        for w in all_perms(n):
            g = InversionGraph.of(w)
            from_edges = InversionGraph(n, w.inversions())
            assert g == from_edges and hash(g) == hash(from_edges)
            assert g.edges == frozenset(w.inversions())
