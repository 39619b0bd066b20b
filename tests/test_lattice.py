import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invlat.lattice
from invlat.bruhat import interval_size
from invlat.chromatic import betti_numbers, chromatic_of
from invlat.lattice import _chain_walk, build_lattice, mobius_values, partition_text
from invlat.permutation import (
    InversionGraph,
    Permutation,
    Transposition,
    all_reduced_expressions,
    evaluate_word,
    reduced_expression,
)
from lattice_oracle import (
    blocks_of,
    decreasing_chains,
    max_crossing_label,
    oracle_lattice,
    oracle_mobius,
    rank_betti,
    refines,
)
from util import (
    acyclic_orientations_brute,
    all_perms,
    bond_partitions_oracle,
    region_count,
)

W4132 = Permutation((4, 1, 3, 2))
W4231 = Permutation((4, 2, 3, 1))

GOLDEN_COVERS = [
    ("1|2|3|4", "1|2|34", 4),
    ("1|2|3|4", "12|3|4", 1),
    ("1|2|3|4", "13|2|4", 2),
    ("1|2|3|4", "14|2|3", 3),
    ("1|2|34", "12|34", 1),
    ("1|2|34", "134|2", 3),
    ("12|3|4", "12|34", 4),
    ("12|3|4", "123|4", 2),
    ("12|3|4", "124|3", 3),
    ("13|2|4", "123|4", 1),
    ("13|2|4", "134|2", 4),
    ("14|2|3", "124|3", 1),
    ("14|2|3", "134|2", 4),
    ("12|34", "1234", 3),
    ("123|4", "1234", 4),
    ("124|3", "1234", 4),
    ("134|2", "1234", 1),
]


class TestBuildLattice:
    def test_identity_lattice(self):
        lattice = build_lattice(Permutation.identity(4))
        assert len(lattice.elements) == 1
        assert lattice.elements[0] == (1, 2, 4, 8)
        assert list(walk(lattice)) == [((), bytes((1, 2, 3, 4)), (1, 2, 4, 8))]
        assert lattice.chains == (((), (1, 2, 3, 4), 0),)

    def test_golden_elements_and_covers(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        names = [partition_text(4, x) for x in lattice.elements]
        assert names == [
            "1|2|3|4",
            "1|2|34",
            "12|3|4",
            "13|2|4",
            "14|2|3",
            "12|34",
            "123|4",
            "124|3",
            "134|2",
            "1234",
        ]
        got = [
            (names[i], names[j], label)
            for i, ups in enumerate(lattice.covers_up)
            for j, label in ups
        ]
        assert got == GOLDEN_COVERS

    def test_non_reduced_expression_rejected(self):
        with pytest.raises(ValueError, match="is not reduced"):
            build_lattice(W4132, (1, 1, 2, 3, 3, 2))
        with pytest.raises(ValueError, match="is not a reduced expression for 4132"):
            build_lattice(W4132, (1, 2))
        with pytest.raises(ValueError, match="is not a reduced expression for 4132"):
            build_lattice(W4132, (2, 1, 3, 2))  # evaluates elsewhere

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_elements_match_edge_subset_oracle(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            expected = bond_partitions_oracle(n, [tuple(t) for t in w.inversions()])
            assert {blocks_of(x) for x in lattice.elements} == expected

    def test_4231_element_count_is_bond_count(self):
        lattice = build_lattice(W4231)
        oracle = bond_partitions_oracle(4, [tuple(t) for t in W4231.inversions()])
        assert len(lattice.elements) == len(oracle) == 13


def walk(lattice):
    """The chain walk over the lattice's own hyperplane order."""
    return _chain_walk(lattice.w, lattice.hyperplanes)


def assert_walk_matches_cover_dfs(lattice):
    """The walk, and the lattice's chains with their tops read as elements,
    give the chains that the depth-first search along ``covers_up`` finds,
    in the same order, each with its image t_{j_1} ... t_{j_m} * w and its
    top element.  (a b) * x swaps positions a and b of x, so the image
    takes w through the labels from the last one back.  The walk gives the
    top as its owner tuple: ``owner[v - 1]``, stripped to its low n bits,
    must be the block of the DFS element that holds point v.  The walk
    yields each image as ``bytes``; the lattice must keep it as a tuple of
    ints, as ``cli.analyze`` looks the interval's words up among the images
    and a ``bytes`` image would match none of them."""
    expected = []
    for path, labels in decreasing_chains(lattice):
        word = list(lattice.w.word)
        for j in reversed(labels):
            a, b = lattice.hyperplanes[j - 1]
            word[a - 1], word[b - 1] = word[b - 1], word[a - 1]
        expected.append((labels, tuple(word), lattice.elements[path[-1]]))
    walked = list(walk(lattice))
    assert [(labels, word) for labels, word, _ in walked] == [
        (labels, bytes(word)) for labels, word, _ in expected
    ]
    full = (1 << lattice.w.n) - 1
    for (_, word, owner), (_, _, top) in zip(walked, expected):
        assert type(word) is bytes
        assert len(owner) == lattice.w.n
        for v, entry in enumerate(owner, 1):
            block = entry & full
            assert block in top and block >> (v - 1) & 1
    kept = [(labels, word, lattice.elements[k]) for labels, word, k in lattice.chains]
    assert kept == expected
    for _, word, _ in lattice.chains:
        assert type(word) is tuple and all(type(v) is int for v in word)


class TestDecreasingChains:
    def test_golden_chain_words(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        assert [labels for labels, _, _ in walk(lattice)] == [
            (),
            (1,),
            (1, 2),
            (1, 2, 4),
            (1, 3),
            (1, 3, 4),
            (1, 4),
            (2,),
            (2, 4),
            (3,),
            (3, 4),
            (4,),
        ]

    def test_labels_strictly_increase(self):
        # Each chain starts at the bottom and steps along covers_up by the
        # cover it labels.  In preorder a chain of length m extends the
        # last chain of length m - 1 before it, which gives its path.
        for w in (w for n in range(1, 6) for w in all_perms(n)):
            lattice = build_lattice(w)
            path = []
            for labels, _, top in lattice.chains:
                del path[len(labels) :]
                path.append(top)
                assert path[0] == 0 and len(path) == len(labels) + 1
                assert all(a < b for a, b in zip(labels, labels[1:]))
                for k, label in enumerate(labels):
                    assert (path[k + 1], label) in lattice.covers_up[path[k]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_cover_dfs_exhaustive(self, n):
        for w in all_perms(n):
            assert_walk_matches_cover_dfs(build_lattice(w))

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_cover_dfs_sampled(self, n):
        rng = random.Random(n)
        for _ in range(20):
            w = Permutation(rng.sample(range(1, n + 1), n))
            assert_walk_matches_cover_dfs(build_lattice(w))

    def test_every_reduced_expression_of_s4(self):
        for w in all_perms(4):
            for expr in all_reduced_expressions(w):
                assert_walk_matches_cover_dfs(build_lattice(w, expr))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_count_is_orientation_count(self, n):
        for w in all_perms(n):
            chains = sum(1 for _ in walk(build_lattice(w)))
            assert chains == acyclic_orientations_brute(InversionGraph.of(w))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_count_independent_of_expression(self, n):
        for w in all_perms(n):
            counts = {
                sum(1 for _ in walk(build_lattice(w, expr)))
                for expr in all_reduced_expressions(w)
            }
            assert len(counts) == 1


def assert_entries_hold_incidences(lattice):
    """Every block entry the walk gives holds, above its points, the bit
    n + i - 1 of each H_i with a point in the block, and no other."""
    n = lattice.w.n
    full = (1 << n) - 1
    for _, _, owner in walk(lattice):
        for entry in owner:
            incident = 0
            for i, (a, b) in enumerate(lattice.hyperplanes, 1):
                if entry >> (a - 1) & 1 or entry >> (b - 1) & 1:
                    incident |= 1 << (n + i - 1)
            assert entry == entry & full | incident, (lattice.w, bin(entry))


def assert_labels_match_edge_scan(lattice):
    """Each element's covers are the merges of two blocks that the edge
    scan labels, each with that label, and no merge the scan labels 0."""
    position = {x: k for k, x in enumerate(lattice.elements)}
    for x, ups in zip(lattice.elements, lattice.covers_up):
        expected = []
        for i, a in enumerate(x):
            for j in range(i + 1, len(x)):
                label = max_crossing_label(lattice.hyperplanes, a, x[j])
                if label:
                    y = x[:i] + (a | x[j],) + x[i + 1 : j] + x[j + 1 :]
                    expected.append((position[y], label))
        assert ups == tuple(sorted(expected)), (lattice.w, x)


def edge_scan_cases():
    """Every w of S_1..S_6 on its canonical expression, every reduced
    expression of S_4, and 40 seeded w at n = 9..12, each a product of 12
    simple transpositions and so of length at most 12."""
    for n in range(1, 7):
        for w in all_perms(n):
            yield w, reduced_expression(w)
    for w in all_perms(4):
        for expr in all_reduced_expressions(w):
            yield w, expr
    for n in range(9, 13):
        rng = random.Random(n)
        for _ in range(10):
            w = evaluate_word(n, [rng.randrange(1, n) for _ in range(12)])
            yield w, reduced_expression(w)


class TestBlockEntries:
    def test_entries_and_labels_match_edge_scan(self):
        for w, expr in edge_scan_cases():
            lattice = build_lattice(w, expr)
            assert_entries_hold_incidences(lattice)
            assert_labels_match_edge_scan(lattice)


def _count_increasing_chains(lattice, blocks, lower, upper):
    """Saturated chains from element lower to element upper whose label
    indices strictly decrease, i.e. increase in the hyperplane order;
    ``blocks[k]`` is element k's blocks."""

    def walk(idx, last):
        if idx == upper:
            return 1
        total = 0
        for j, label in lattice.covers_up[idx]:
            if label < last and refines(blocks[j], blocks[upper]):
                total += walk(j, label)
        return total

    return walk(lower, len(lattice.hyperplanes) + 1)


class TestELProperty:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unique_increasing_chain_in_every_interval(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            blocks = [blocks_of(x) for x in lattice.elements]
            for lower, x in enumerate(blocks):
                for upper, y in enumerate(blocks):
                    if lower != upper and refines(x, y):
                        count = _count_increasing_chains(lattice, blocks, lower, upper)
                        assert count == 1


class TestMobiusAndBetti:
    def test_golden_values(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        names = [partition_text(4, x) for x in lattice.elements]
        mu = dict(zip(names, mobius_values(lattice)))
        assert mu == {
            "1|2|3|4": 1,
            "1|2|34": 1,
            "12|3|4": 1,
            "13|2|4": 1,
            "14|2|3": 1,
            "12|34": 1,
            "123|4": 1,
            "124|3": 1,
            "134|2": 2,
            "1234": 2,
        }
        assert rank_betti(lattice) == (1, 4, 5, 2)

    @staticmethod
    def relabelled(monkeypatch, last):
        """4132's lattice, walked with H_4 = (3 4) read as ``last``."""
        real = invlat.lattice._hyperplanes
        monkeypatch.setattr(
            invlat.lattice, "_hyperplanes", lambda w, expr: real(w, expr)[:3] + (last,)
        )
        return build_lattice(W4132, (1, 2, 3, 2))

    def test_mislabelled_cover_is_caught(self, monkeypatch):
        # With H_4 read as (1 2), no hyperplane joins 3 and 4: only the
        # chain (2, 3) reaches 134|2, whose interval has |mu| = 2.
        lattice = self.relabelled(monkeypatch, Transposition(1, 2))
        with pytest.raises(RuntimeError, match=r"Mobius mismatch at 134\|2: 2 .* 1 "):
            mobius_values(lattice)

    def test_top_outside_the_lattice_is_caught(self, monkeypatch):
        # With H_4 read as (2 3), the chain (4,) ends at 1|23|4, which the
        # inversion graph of 4132 does not connect.
        lattice = self.relabelled(monkeypatch, Transposition(2, 3))
        with pytest.raises(RuntimeError, match=r"Mobius mismatch at 1\|23\|4: 0 .* 1 "):
            mobius_values(lattice)

    def test_cover_that_tops_no_chain_is_caught(self, monkeypatch):
        # A walk that loses the chains ending at 134|2 leaves out an element
        # that 1|2|34, 13|2|4 and 14|2|3 all cover.
        real = invlat.lattice._chain_walk

        def lossy(w, hyperplanes):
            # The walk gives a chain's top as the entry of each point's
            # block, whose low 4 bits are the block's points.
            lost = (0b1101, 0b0010, 0b1101, 0b1101)
            return (
                c
                for c in real(w, hyperplanes)
                if tuple(o & 0b1111 for o in c[2]) != lost
            )

        monkeypatch.setattr(invlat.lattice, "_chain_walk", lossy)
        with pytest.raises(RuntimeError, match=r"134\|2 covers 1\|2\|34 but tops no"):
            build_lattice(W4132, (1, 2, 3, 2))

    def test_computed_once_and_read_only(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        mu = mobius_values(lattice)
        with pytest.raises(TypeError):
            mu[0] = 2

    def test_bottom_is_one(self):
        lattice = build_lattice(W4231)
        assert lattice.elements[0] == (1, 2, 4, 8)
        assert mobius_values(lattice)[0] == 1

    def test_identity_betti(self):
        e = Permutation.identity(3)
        assert betti_numbers(chromatic_of(e)) == (1,)
        assert rank_betti(build_lattice(e)) == (1,)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_betti_structure(self, n):
        for w in all_perms(n):
            betti = betti_numbers(chromatic_of(w))
            assert betti[0] == 1
            if w.length():
                assert betti[1] == w.length()
            assert sum(betti) == region_count(w)

    def test_betti_matches_chromatic_coefficients(self):
        # Whitney: the rank-i Mobius mass is the |coefficient| of t^(n-i),
        # and the top rank is n minus the inversion graph's components.
        for n in range(1, 7):
            for w in all_perms(n):
                assert betti_numbers(chromatic_of(w)) == rank_betti(build_lattice(w))


class TestRegionCount:
    def test_examples(self):
        assert region_count(Permutation.identity(4)) == 1
        assert region_count(W4132) == 12
        assert region_count(W4231) == acyclic_orientations_brute(
            InversionGraph.of(W4231)
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_invariance_and_bound(self, n):
        for w in all_perms(n):
            re = region_count(w)
            assert re == region_count(w.inverse())
            assert re == region_count(w.rotate())
            assert re <= interval_size(w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_independent_of_expression(self, n):
        for w in all_perms(n):
            base = region_count(w, reduced_expression(w))
            for expr in all_reduced_expressions(w):
                assert region_count(w, expr) == base

    def test_matches_orientation_count_on_s6_sample(self):
        from invlat.chromatic import acyclic_orientations

        for w in list(all_perms(6))[::37]:
            assert region_count(w) == acyclic_orientations(InversionGraph.of(w))


def assert_matches_oracle(lattice):
    """Elements, covers with labels and |mu| equal the retired join-closure
    build and the O(|L|^2) Mobius recursion."""
    n = lattice.w.n
    elements, covers_up = oracle_lattice(n, lattice.hyperplanes)
    assert [blocks_of(x) for x in lattice.elements] == elements
    assert list(lattice.covers_up) == covers_up
    assert list(mobius_values(lattice)) == oracle_mobius(n, elements)


class TestAgainstRetiredOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_of_sn(self, n):
        for w in all_perms(n):
            assert_matches_oracle(build_lattice(w))

    def test_every_reduced_expression_of_s4(self):
        for w in all_perms(4):
            for expr in all_reduced_expressions(w):
                assert_matches_oracle(build_lattice(w, expr))

    # Length at most 12 keeps the O(|L|^2) oracle within about a second for
    # the whole sample; the filter keeps 72% of S_7 and 13% of S_9.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(7, 9)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(Permutation)
        .filter(lambda w: w.length() <= 12)
    )
    def test_sampled_n7_to_n9(self, w):
        assert_matches_oracle(build_lattice(w))
