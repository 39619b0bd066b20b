import itertools

import pytest

from invlat.bruhat import bruhat_leq, distances_from, interval_size
from invlat.patterns import (
    CHROMOBRUHATIC_PATTERNS,
    SMOOTH_PATTERNS,
    ReductionPair,
    classify_pair,
    contains,
    find_occurrence,
    find_reduction_pair,
    first_descent_rooks,
    is_chromobruhatic,
    is_smooth,
    reduction_step,
    witness_below,
)
from invlat.permutation import InversionGraph, Permutation, parse_permutation
from util import acyclic_orientations_brute, all_perms, contains_oracle

W4231 = Permutation((4, 2, 3, 1))

# Frozen regression counts of the avoidance classes, derived by the
# subset-enumeration oracle below.
CHROMOBRUHATIC_COUNTS = {1: 1, 2: 2, 3: 6, 4: 23, 5: 101, 6: 477}
SMOOTH_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 88, 6: 366}


class TestContains:
    def test_pattern_contains_itself(self):
        for p in CHROMOBRUHATIC_PATTERNS + SMOOTH_PATTERNS:
            assert contains(p, p)

    def test_35124_avoids_all_four(self):
        w = parse_permutation("35124")
        for p in CHROMOBRUHATIC_PATTERNS:
            assert not contains(w, p)
            assert not contains_oracle(w, p)
        assert contains(w, Permutation((3, 4, 1, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_subset_oracle(self, n):
        for w in all_perms(n):
            for p in CHROMOBRUHATIC_PATTERNS + SMOOTH_PATTERNS:
                assert contains(w, p) == contains_oracle(w, p)

    def test_occurrence_is_lex_first(self):
        w = parse_permutation("453621")
        p = Permutation((2, 3, 1))
        got = find_occurrence(w, p)
        expected = min(
            idx
            for idx in itertools.combinations(range(1, 7), 3)
            if all(
                (w(idx[a]) < w(idx[b])) == (p(a + 1) < p(b + 1))
                for a in range(3)
                for b in range(a + 1, 3)
            )
        )
        assert got == expected

    def test_longer_pattern_never_contained(self):
        assert not contains(Permutation((1, 2, 3)), W4231)


class TestClasses:
    def test_class_sets_closed_under_symmetry(self):
        four = set(CHROMOBRUHATIC_PATTERNS)
        assert {p.inverse() for p in four} == four
        assert {p.rotate() for p in four} == four
        two = set(SMOOTH_PATTERNS)
        assert {p.inverse() for p in two} == two
        assert {p.rotate() for p in two} == two

    @pytest.mark.parametrize("n", sorted(CHROMOBRUHATIC_COUNTS))
    def test_frozen_counts(self, n):
        assert (
            sum(is_chromobruhatic(w) for w in all_perms(n))
            == CHROMOBRUHATIC_COUNTS[n]
        )
        assert sum(is_smooth(w) for w in all_perms(n)) == SMOOTH_COUNTS[n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_class_invariance(self, n):
        for w in all_perms(n):
            c = is_chromobruhatic(w)
            assert is_chromobruhatic(w.inverse()) == c
            assert is_chromobruhatic(w.rotate()) == c

    # Each of the four patterns contains 3412 or 4231, so smoothness is the
    # stronger condition.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_smooth_implies_chromobruhatic(self, n):
        for w in all_perms(n):
            if is_smooth(w):
                assert is_chromobruhatic(w)


def _light_oracle(v, x, y):
    n = v.n
    rooks = [(i, v(i)) for i in range(1, n + 1)]
    (xi, xj), (yi, yj) = x, y
    if any(ai < yi and aj > yj for ai, aj in rooks):
        return False
    if any(ai > xi and xj < aj < yj for ai, aj in rooks):
        return False
    return True


def _heavy_oracle(v, x, y):
    n = v.n
    rooks = [(i, v(i)) for i in range(1, n + 1)]
    (xi, xj), (yi, yj) = x, y
    if any(ai > xi and aj < xj for ai, aj in rooks):
        return False
    if any(ai < yi and aj > yj for ai, aj in rooks):
        return False
    # Forbidden pair form of the third condition.
    for ai, aj in rooks:
        for bi, bj in rooks:
            if ai < yi and bi > xi and xj < aj < bj < yj:
                return False
    return True


class TestReductionPairs:
    def test_no_descent_no_pair(self):
        assert first_descent_rooks(Permutation.identity(4)) is None
        assert find_reduction_pair(Permutation.identity(4)) is None

    def test_first_descent_coordinates(self):
        x, y = first_descent_rooks(Permutation((4, 1, 3, 2)))
        assert x == (2, 1) and y == (1, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_classification_matches_region_oracle(self, n):
        for w in all_perms(n):
            rooks = first_descent_rooks(w)
            if rooks is None:
                continue
            x, y = rooks
            light = _light_oracle(w, x, y)
            heavy = _heavy_oracle(w, x, y)
            kind = classify_pair(w, x, y)
            if light:
                assert kind == "light"
            elif heavy:
                assert kind == "heavy"
            else:
                assert kind is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_avoiding_always_has_pair_at_first_descents(self, n):
        for w in all_perms(n):
            if w.is_identity() or not is_chromobruhatic(w):
                continue
            found = find_reduction_pair(w)
            assert found is not None
            direct = []
            for v in (w, w.inverse()):
                rooks = first_descent_rooks(v)
                if rooks is not None:
                    direct.append(classify_pair(v, *rooks))
            assert any(kind is not None for kind in direct)

    def test_4231_has_no_pair(self):
        assert find_reduction_pair(W4231) is None


class TestReductionStep:
    def test_invalid_pair_rejected(self):
        w = Permutation((4, 1, 3, 2))
        with pytest.raises(ValueError):
            reduction_step(w, ReductionPair("light", (3, 3), (2, 1)))
        x, y = first_descent_rooks(w)
        kind = classify_pair(w, x, y)
        wrong = "heavy" if kind == "light" else "light"
        with pytest.raises(ValueError):
            reduction_step(w, ReductionPair(wrong, x, y))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_swap_descends_and_stays_avoiding(self, n):
        for w in all_perms(n):
            if w.is_identity() or not is_chromobruhatic(w):
                continue
            name, v, pair = find_reduction_pair(w)
            step = reduction_step(v, pair)
            assert step.rho.length() == v.length() - 1
            assert bruhat_leq(step.rho, v)
            assert is_chromobruhatic(step.rho)
            assert step.minus_y.n == n - 1
            if pair.kind == "heavy":
                assert step.minus_x.n == n - 1
                assert step.minus_xy.n == n - 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_recurrences(self, n):
        br = interval_size

        def ao(u):
            return acyclic_orientations_brute(InversionGraph.of(u))

        for w in all_perms(n):
            if w.is_identity() or not is_chromobruhatic(w):
                continue
            name, v, pair = find_reduction_pair(w)
            step = reduction_step(v, pair)
            if pair.kind == "light":
                assert br(v) == br(step.rho) + br(step.minus_y)
                assert ao(v) == ao(step.rho) + ao(step.minus_y)
            else:
                assert br(v) == br(step.rho) + br(step.minus_x) + br(
                    step.minus_y
                ) - br(step.minus_xy)
                assert ao(v) == ao(step.rho) + ao(step.minus_x) + ao(
                    step.minus_y
                ) - ao(step.minus_xy)


class TestWitness:
    def test_identity_has_none(self):
        assert witness_below(Permutation.identity(4)) is None

    def test_4231_case(self):
        witness = witness_below(W4231)
        assert witness.u == Permutation((1, 3, 2, 4))
        assert witness.pattern == W4231
        assert (witness.u * W4231.inverse()).absolute_length() == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_gap_for_every_non_avoiding(self, n):
        for w in all_perms(n):
            witness = witness_below(w)
            if is_chromobruhatic(w):
                assert witness is None
                continue
            assert witness is not None
            u = witness.u
            assert bruhat_leq(u, w) and u != w
            dist = distances_from(w)
            gap = (u * w.inverse()).absolute_length()
            assert dist[u.word] > gap
