"""Deletion-contraction, kept as the oracle, agrees with brute force, and the
library's colouring DP agrees with deletion-contraction."""

import random

import pytest

import chromatic_oracle
from invlat.chromatic import acyclic_orientations, chromatic_polynomial
from invlat.permutation import InversionGraph, Permutation
from util import all_perms, brute_colorings, order_induced_orientations

# The test ids carry the name of the one implementation, ``[python]``.
IMPLS = [chromatic_oracle]


def _eval(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _random_graph(rng, n, p=0.5):
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


@pytest.mark.parametrize("impl", IMPLS, ids=["python"])
class TestChromatic:
    def test_against_brute_colorings(self, impl):
        rng = random.Random(321)
        for _ in range(120):
            n = rng.randint(0, 6)
            masks = _random_graph(rng, n)
            coeffs = impl.chromatic_coeffs(masks)
            for k in (1, 2, 3):
                assert _eval(coeffs, k) == brute_colorings(masks, k)

    def test_known_families(self, impl):
        # Edgeless, path, triangle, 4-cycle, K4.
        assert impl.chromatic_coeffs((0, 0, 0)) == (0, 0, 0, 1)
        path3 = impl.chromatic_coeffs((2, 5, 2))  # 1-2-3 path
        assert _eval(path3, 3) == 3 * 2 * 2
        triangle = impl.chromatic_coeffs((6, 5, 3))
        assert _eval(triangle, 3) == 6 and _eval(triangle, 2) == 0
        c4 = impl.chromatic_coeffs((2 | 8, 1 | 4, 2 | 8, 1 | 4))
        assert _eval(c4, 2) == 2  # proper 2-colorings of an even cycle
        k4 = impl.chromatic_coeffs((14, 13, 11, 7))
        assert _eval(k4, 4) == 24 and _eval(k4, 3) == 0

    def test_tree_formula(self, impl):
        # Star on 5 vertices: t (t-1)^4.
        star = (0b11110, 1, 1, 1, 1)
        coeffs = impl.chromatic_coeffs(star)
        for k in range(5):
            assert _eval(coeffs, k) == k * (k - 1) ** 4

    def test_disconnected_product(self, impl):
        # Two disjoint edges: (t(t-1))^2.
        masks = (2, 1, 8, 4)
        coeffs = impl.chromatic_coeffs(masks)
        for k in range(4):
            assert _eval(coeffs, k) == (k * (k - 1)) ** 2


def _assert_dp_matches_oracle(w):
    """The colouring DP's chi and ao equal deletion-contraction's, and ao
    is (-1)^n chi(-1) (Stanley)."""
    g = InversionGraph.of(w)
    chi = chromatic_oracle.chromatic_coeffs(g.masks)
    ao = chromatic_oracle.acyclic_orientation_count(g.masks)
    assert chromatic_polynomial(g).coeffs == chi
    assert acyclic_orientations(g) == ao == (-1) ** w.n * _eval(chi, -1)


class TestAcyclicOrientationCount:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_inversion_graph_against_chi(self, n):
        for w in all_perms(n):
            _assert_dp_matches_oracle(w)

    def test_sampled_n8_to_n12_against_chi(self):
        rng = random.Random(2024)
        for n in range(8, 13):
            for _ in range(20):
                _assert_dp_matches_oracle(Permutation(rng.sample(range(1, n + 1), n)))

    def test_extremes_of_s12(self):
        # K_{6,6}, the hardest graph here for deletion-contraction, and the
        # edgeless graph, where the DP keeps the most class-maxima sets.
        _assert_dp_matches_oracle(Permutation((7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6)))
        _assert_dp_matches_oracle(Permutation.identity(12))

    def test_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(100):
            masks = _random_graph(rng, rng.randint(0, 7), rng.choice((0.2, 0.5, 0.8)))
            assert chromatic_oracle.acyclic_orientation_count(
                masks
            ) == order_induced_orientations(masks)

    def test_known_families(self):
        count = chromatic_oracle.acyclic_orientation_count
        assert count(()) == 1
        assert count((0, 0, 0)) == 1
        assert count((0b11110, 1, 1, 1, 1)) == 2**4  # a tree with 4 edges
        assert count((2, 1, 8, 4)) == 4  # two disjoint edges
        assert count((6, 5, 3)) == 6  # triangle
        assert count((2 | 8, 1 | 4, 2 | 8, 1 | 4)) == 14  # 4-cycle
        assert count((14, 13, 11, 7)) == 24  # K4
        # The same families as inversion graphs, through the colouring DP;
        # 3412's inversion graph is the 4-cycle 1-3-2-4-1.
        for word, expected in (
            ((1, 2, 3), 1),
            ((5, 1, 2, 3, 4), 2**4),
            ((2, 1, 4, 3), 4),
            ((3, 2, 1), 6),
            ((3, 4, 1, 2), 14),
            ((4, 3, 2, 1), 24),
        ):
            g = InversionGraph.of(Permutation(word))
            assert acyclic_orientations(g) == expected == count(g.masks)
