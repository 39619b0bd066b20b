import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlat.bruhat import interval_size
from invlat.chromatic import chromatic_of
from invlat.lattice import (
    SetPartition,
    betti_numbers,
    build_lattice,
    decreasing_chains,
    mobius_values,
)
from invlat.permutation import (
    InversionGraph,
    Permutation,
    all_reduced_expressions,
    reduced_expression,
)
from lattice_oracle import oracle_lattice, oracle_mobius, refines
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


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition(4, [(3, 4), (2,), (1,)])
        assert p.blocks == ((1,), (2,), (3, 4))
        assert str(p) == "1|2|34"
        assert p.rank == 1

    def test_large_n_format(self):
        p = SetPartition(10, [tuple(range(1, 10)), (10,)])
        assert str(p) == "1,2,3,4,5,6,7,8,9|10"

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            SetPartition(3, [(1, 2)])
        with pytest.raises(ValueError):
            SetPartition(3, [(1, 2), (2, 3)])


class TestBuildLattice:
    def test_identity_lattice(self):
        lattice = build_lattice(Permutation.identity(4))
        assert len(lattice.elements) == 1
        assert lattice.elements[0] == SetPartition.singletons(4)
        assert decreasing_chains(lattice)[0].labels == ()

    def test_golden_elements_and_covers(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        assert [str(x) for x in lattice.elements] == [
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
        got = [(str(a), str(b), label) for a, b, label in lattice.cover_labels()]
        assert got == GOLDEN_COVERS

    def test_non_reduced_expression_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(W4132, (1, 1, 2, 3, 3, 2))
        with pytest.raises(ValueError):
            build_lattice(W4132, (1, 2))
        with pytest.raises(ValueError):
            build_lattice(W4132, (2, 1, 3, 2))  # evaluates elsewhere

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_elements_match_edge_subset_oracle(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            expected = bond_partitions_oracle(n, [tuple(t) for t in w.inversions()])
            assert {x.blocks for x in lattice.elements} == expected

    def test_4231_element_count_is_bond_count(self):
        lattice = build_lattice(W4231)
        oracle = bond_partitions_oracle(4, [tuple(t) for t in W4231.inversions()])
        assert len(lattice.elements) == len(oracle) == 13


class TestDecreasingChains:
    def test_golden_chain_words(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        chains = decreasing_chains(lattice)
        assert [c.labels for c in chains] == [
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
        lattice = build_lattice(W4231)
        for chain in decreasing_chains(lattice):
            assert all(a < b for a, b in zip(chain.labels, chain.labels[1:]))
            assert len(chain.elements) == len(chain.labels) + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_count_is_orientation_count(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            assert len(decreasing_chains(lattice)) == acyclic_orientations_brute(
                InversionGraph.of(w)
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_count_independent_of_expression(self, n):
        for w in all_perms(n):
            counts = {
                len(decreasing_chains(build_lattice(w, expr)))
                for expr in all_reduced_expressions(w)
            }
            assert len(counts) == 1


def _count_increasing_chains(lattice, lower, upper):
    """Saturated chains from lower to upper whose label indices strictly
    decrease, i.e. increase in the hyperplane order."""

    def walk(idx, last, target):
        x = lattice.elements[idx]
        if x == target:
            return 1
        total = 0
        for j, label in lattice.covers_up[idx]:
            if label < last and refines(lattice.elements[j].blocks, target.blocks):
                total += walk(j, label, target)
        return total

    return walk(lattice.index[lower], len(lattice.hyperplanes) + 1, upper)


class TestELProperty:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unique_increasing_chain_in_every_interval(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            for lower in lattice.elements:
                for upper in lattice.elements:
                    if lower != upper and refines(lower.blocks, upper.blocks):
                        assert _count_increasing_chains(lattice, lower, upper) == 1


class TestMobiusAndBetti:
    def test_golden_values(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        mu = {str(x): v for x, v in mobius_values(lattice).items()}
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
        assert betti_numbers(lattice) == (1, 4, 5, 2)

    def test_mislabelled_cover_is_caught(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        # Label 0 on the cover 1|2|3|4 -> 1|2|34 cuts every chain through it.
        bottom_covers = lattice.covers_up[0]
        assert bottom_covers[0] == (1, 4)
        lattice.covers_up = ((((1, 0),) + bottom_covers[1:]),) + lattice.covers_up[1:]
        with pytest.raises(RuntimeError, match="Mobius mismatch at 1\\|2\\|34"):
            mobius_values(lattice)

    def test_computed_once_and_read_only(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        mu = mobius_values(lattice)
        assert mobius_values(lattice) is mu
        with pytest.raises(TypeError):
            mu[lattice.bottom] = 2

    def test_bottom_is_one(self):
        lattice = build_lattice(W4231)
        assert mobius_values(lattice)[SetPartition.singletons(4)] == 1

    def test_identity_betti(self):
        assert betti_numbers(build_lattice(Permutation.identity(3))) == (1,)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_betti_structure(self, n):
        for w in all_perms(n):
            lattice = build_lattice(w)
            betti = betti_numbers(lattice)
            assert betti[0] == 1
            if w.length():
                assert betti[1] == w.length()
            assert sum(betti) == region_count(w)

    def test_betti_matches_chromatic_coefficients(self):
        # Whitney: the rank-i Mobius mass is the |coefficient| of t^(n-i).
        for w in (W4231, W4132, Permutation((3, 4, 1, 2))):
            betti = betti_numbers(build_lattice(w))
            chi = chromatic_of(w)
            for i, value in enumerate(betti):
                assert value == abs(chi.coefficient(w.n - i))


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
    assert [x.blocks for x in lattice.elements] == elements
    assert list(lattice.covers_up) == covers_up
    mu = mobius_values(lattice)
    assert [mu[x] for x in lattice.elements] == oracle_mobius(n, elements)


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
