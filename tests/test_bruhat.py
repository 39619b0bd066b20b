import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interval_oracle import (
    bitset_ideal_table,
    filter_interval,
    hull_interval,
    hull_rows,
    length_counts,
    rank_leq,
    ryser_permanent,
)
from invlat.bruhat import (
    bruhat_leq,
    bubbles,
    distances_from,
    interval_length_counts,
    interval_size,
    rank_matrix,
    two_sided_weak_covers,
)
from invlat.chromatic import acyclic_orientations
from invlat.patterns import is_chromobruhatic
from invlat.permutation import (
    InversionGraph,
    Permutation,
    evaluate_word,
    parse_permutation,
)
from util import (
    all_perms,
    brute_permanent,
    count_table,
    directed_distance,
    full_graph_distance,
    interval,
    weak_leq_left,
    weak_leq_right,
)

W4132 = Permutation((4, 1, 3, 2))
W4231 = Permutation((4, 2, 3, 1))

# Largest interval the sampled tests enumerate by breadth-first search.
BFS_CAP = 20_000


class TestRankMatrix:
    def test_invariants(self):
        for w in all_perms(4):
            r = rank_matrix(w)
            assert r[3][0] == 4
            for i in range(4):
                for j in range(4):
                    if i > 0:
                        assert r[i][j] >= r[i - 1][j]
                    if j > 0:
                        assert r[i][j] <= r[i][j - 1]

    def test_counts(self):
        r = rank_matrix(W4132)
        assert r[1][1] == 1  # rooks weakly NE of (2,2): just the 4
        assert r[1][2] == 1


class TestLeqBackends:
    def test_identity_is_minimum(self):
        e = Permutation.identity(5)
        for w in all_perms(5):
            assert bruhat_leq(e, w)

    def test_1324_below_4231(self):
        assert bruhat_leq(Permutation((1, 3, 2, 4)), W4231)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_leq(Permutation.identity(3), W4132)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rank_and_bubble_agree_everywhere(self, n):
        # The bubble test against the full rank-matrix comparison.
        for w in all_perms(n):
            for u in all_perms(n):
                assert bruhat_leq(u, w) == rank_leq(u, w)

    def test_hull_agrees_for_avoiding(self):
        # Sjostrand: when w avoids the four patterns, [e, w] is exactly the
        # set of permutation matrices inside w's right hull.
        for n in range(1, 6):
            for w in all_perms(n):
                if is_chromobruhatic(w):
                    below = [u for u in all_perms(n) if bruhat_leq(u, w)]
                    assert hull_interval(w) == below

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_order_properties(self, n):
        for w in all_perms(n):
            assert bruhat_leq(w, w)
        # u <= w forces l(u) <= l(w), equality only at u = w.
        for w in all_perms(n):
            for u in interval(w):
                assert u.length() <= w.length()
                assert u == w or u.length() < w.length()


class TestBubbles:
    def test_4132(self):
        assert bubbles(W4132) == frozenset({(2, 2), (2, 3)})

    def test_identity_criterion_still_exact(self):
        # The identity has a bubble at every strictly upper square; the
        # criterion there pins the interval to the identity alone.
        e = Permutation.identity(4)
        assert bubbles(e) == frozenset(
            (i, j) for i in range(1, 5) for j in range(1, 5) if i < j
        )
        assert [u for u in all_perms(4) if bruhat_leq(u, e)] == [e]


class TestRightHull:
    """The right-hull oracle, which the hull-vs-standard check counts by
    prefix sets."""

    @staticmethod
    def contains(rows, i, j):
        return bool(rows[i - 1] >> (j - 1) & 1)

    # Bit j - 1 of a row is column j, so each literal reads right to left.
    def test_identity_is_diagonal(self):
        assert hull_rows(Permutation.identity(4)) == (0b0001, 0b0010, 0b0100, 0b1000)

    def test_35124_mask(self):
        rows = hull_rows(parse_permutation("35124"))
        assert rows == (0b00111, 0b11111, 0b11111, 0b11110, 0b11000)

    def test_rooks_always_inside(self):
        for w in all_perms(5):
            rows = hull_rows(w)
            assert all(self.contains(rows, i, w(i)) for i in range(1, 6))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rotation_symmetry(self, n):
        for w in all_perms(n):
            rows = hull_rows(w)
            rotated = hull_rows(w.rotate())
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert self.contains(rows, i, j) == self.contains(
                        rotated, n + 1 - i, n + 1 - j
                    )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_interval_inside_hull(self, n):
        # If u(i) > max w[:i], the rank bound fails at (i, u(i)); the suffix
        # minimum fails the same way.  So the hull can only overcount.
        for w in all_perms(n):
            rows = hull_rows(w)
            for word in distances_from(w):
                assert all(rows[i] >> (v - 1) & 1 for i, v in enumerate(word))


class TestInterval:
    def test_sizes(self):
        assert interval_size(Permutation.identity(4)) == 1
        assert interval_size(W4132) == 12

    def test_lex_order_and_membership(self):
        got = interval(W4132)
        assert got == sorted(got)
        assert len(got) == 12
        assert all(u(1) == 1 or u(2) == 1 for u in got)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_backends_agree(self, n):
        # The DP and the BFS against the retired filter scan, hull
        # fillings and permanent.
        for w in all_perms(n):
            by_filter = filter_interval(w)
            assert interval(w) == by_filter
            assert interval_size(w) == len(by_filter)
            if is_chromobruhatic(w):
                assert hull_interval(w) == by_filter
                assert ryser_permanent(hull_rows(w), n) == len(by_filter)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_length_counts_match_filter(self, n):
        for w in all_perms(n):
            expected = length_counts(filter_interval(w), w.length())
            assert list(interval_length_counts(w)) == expected

    def test_permanent_is_hull_permanent(self):
        for w in all_perms(4):
            if is_chromobruhatic(w):
                rows = hull_rows(w)
                assert interval_size(w) == brute_permanent(rows, 4)
                assert ryser_permanent(rows, 4) == brute_permanent(rows, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_ideal_size_table(self, n):
        # The count sweeps' walk yields every w in lexicographic order, with
        # br(w) = |[e, w]| and ao(w) beside it.
        table = count_table(n)
        assert list(table) == [w.word for w in all_perms(n)]
        for w in all_perms(n):
            ao = acyclic_orientations(InversionGraph.of(w))
            assert table[w.word] == (interval_size(w), ao)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ideal_size_table_against_bitset_oracle(self, n):
        table = {word: br for word, (br, _) in count_table(n).items()}
        assert table == bitset_ideal_table(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_longest_element_is_mahonian(self, n):
        # [e, w0] is all of S_n, counted by length by the product of
        # (1 + q + ... + q^(i-1)) over i = 1..n.
        mahonian = [1]
        for i in range(1, n + 1):
            mahonian = [
                sum(mahonian[max(0, k - i + 1) : k + 1])
                for k in range(len(mahonian) + i - 1)
            ]
        counts = interval_length_counts(Permutation.longest(n))
        assert list(counts) == mahonian
        assert interval_size(Permutation.longest(n)) == math.factorial(n)

    # Products of 30 to 48 adjacent transpositions keep the intervals small
    # enough for the BFS, and 24 of the 40 draws avoid the four patterns;
    # uniform draws from S_12 avoid them one time in 45.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(8, 12).flatmap(
            lambda n: st.lists(
                st.integers(1, n - 1), min_size=30, max_size=48
            ).map(lambda letters: evaluate_word(n, letters))
        )
    )
    def test_sampled_n8_to_n12(self, w):
        size = interval_size(w)
        if is_chromobruhatic(w):
            assert size == ryser_permanent(hull_rows(w), w.n)
        if size <= BFS_CAP:
            expected = length_counts(interval(w), w.length())
            assert list(interval_length_counts(w)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_br_symmetry_invariance(self, n):
        table = count_table(n)
        for w in all_perms(n):
            br = table[w.word][0]
            assert table[w.inverse().word][0] == br
            assert table[w.rotate().word][0] == br


class TestPermanent:
    """The Ryser permanent oracle against brute force."""

    def test_against_brute_force(self):
        rng = random.Random(20240)
        for _ in range(200):
            n = rng.randint(0, 6)
            rows = [rng.getrandbits(n) for _ in range(n)]
            assert ryser_permanent(rows, n) == brute_permanent(rows, n)

    def test_all_ones_is_factorial(self):
        for n in range(1, 13):
            assert ryser_permanent([(1 << n) - 1] * n, n) == math.factorial(n)

    def test_empty_and_zero(self):
        assert ryser_permanent([], 0) == 1
        assert ryser_permanent([0, 0], 2) == 0

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            ryser_permanent([1], 2)


class TestDirectedDistance:
    def test_zero_at_top(self):
        assert directed_distance(W4132, W4132) == 0

    def test_4132_distance_counts(self):
        dist = distances_from(W4132)
        counts = {}
        for d in dist.values():
            counts[d] = counts.get(d, 0) + 1
        assert counts == {0: 1, 1: 4, 2: 5, 3: 2}

    def test_witness_gap_in_4231(self):
        u = Permutation((1, 3, 2, 4))
        assert u * W4231.inverse() == Permutation.from_cycles(4, [(1, 4), (2, 3)])
        assert (u * W4231.inverse()).absolute_length() == 2
        assert directed_distance(u, W4231) == 4

    def test_mapping_is_shared_and_read_only(self):
        dist = distances_from(W4132)
        assert distances_from(W4132) is dist
        with pytest.raises(TypeError):
            dist[(1, 2, 3, 4)] = 5

    def test_not_below_raises(self):
        with pytest.raises(ValueError, match="not below"):
            directed_distance(Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_unrestricted_bfs(self, n):
        # The interval-restricted walk must agree with a search over the
        # whole group; any path into w descends through [e, w] anyway.
        for w in all_perms(n):
            dist = distances_from(w)
            for u in all_perms(n):
                full = full_graph_distance(u, w)
                assert dist.get(u.word) == full

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_parity_and_lower_bound(self, n):
        for w in all_perms(n):
            winv = w.inverse()
            for word, d in distances_from(w).items():
                u = Permutation(word)
                assert (d - (w.length() - u.length())) % 2 == 0
                assert d >= (u * winv).absolute_length()


class TestWeakOrders:
    def test_identity_below_everything(self):
        e = Permutation.identity(5)
        for w in all_perms(5):
            assert weak_leq_right(e, w)
            assert weak_leq_left(e, w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weak_implies_bruhat(self, n):
        for w in all_perms(n):
            for u in all_perms(n):
                if weak_leq_right(u, w):
                    assert bruhat_leq(u, w)

    def test_two_sided_covers(self):
        assert two_sided_weak_covers(Permutation.identity(4)) == set()
        for w in all_perms(4):
            for u in two_sided_weak_covers(w):
                assert u.length() == w.length() - 1
                assert weak_leq_right(u, w) or weak_leq_left(u, w)
        # Every element strictly below in a weak order sits above some cover.
        for w in all_perms(4):
            if w.is_identity():
                continue
            assert two_sided_weak_covers(w)
