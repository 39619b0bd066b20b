import copy
import itertools
import random

import pytest

from invlat.bruhat import bruhat_leq, distances_from, interval
from invlat.lattice import build_lattice, decreasing_chains
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, Transposition, all_reduced_expressions
from invlat.phimap import (
    phi_table,
    verify_characterization,
    verify_going_down,
    verify_injective,
    verify_surjective,
)
from phi_oracle import phi
from util import all_perms

W4132 = Permutation((4, 1, 3, 2))
W4231 = Permutation((4, 2, 3, 1))

GOLDEN_TABLE = {
    (): "4132",
    (1,): "1432",
    (1, 2): "1342",
    (1, 2, 4): "1243",
    (1, 3): "1234",
    (1, 3, 4): "1324",
    (1, 4): "1423",
    (2,): "3142",
    (2, 4): "2143",
    (3,): "2134",
    (3, 4): "3124",
    (4,): "4123",
}


class TestPhi:
    def test_empty_chain_maps_to_w(self):
        entry = phi_table(W4132, (1, 2, 3, 2))[0]
        assert entry.chain.labels == ()
        assert entry.product.is_identity()
        assert entry.image == W4132

    def test_golden_table(self):
        table = phi_table(W4132, (1, 2, 3, 2))
        got = {entry.chain.labels: str(entry.image) for entry in table}
        assert got == GOLDEN_TABLE

    def test_specific_chain(self):
        table = phi_table(W4132, (1, 2, 3, 2))
        by_labels = {entry.chain.labels: entry for entry in table}
        entry = by_labels[(1, 2, 4)]
        assert str(entry.image) == "1243"
        assert entry.product.cycle_string() == "(1 2 4 3)"

    @staticmethod
    def corrupted(**changes):
        """A copy of 4132's lattice with some attributes replaced and its
        decreasing chains recomputed."""
        bad = copy.copy(build_lattice(W4132, (1, 2, 3, 2)))
        for name, value in changes.items():
            setattr(bad, name, value)
        bad._chains = None
        return bad

    def test_eager_checks_catch_bad_chains(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        # H_2 read as (2 3): the chain (1, 2) maps to t1 (2 3) w = 3412,
        # which is not below 4132.
        hyperplanes = list(lattice.hyperplanes)
        hyperplanes[1] = Transposition(2, 3)
        not_below = self.corrupted(hyperplanes=tuple(hyperplanes))
        # Relabel 13|2|4 < 134|2 by 3 and 134|2 < 1234 by 4: the chain
        # (2, 3, 4) appears, and H_4 = (3 4) joins two points that the
        # product (1 3)(1 4) already has in one orbit.
        covers = list(lattice.covers_up)
        covers[3] = ((6, 1), (8, 3))
        covers[8] = ((9, 4),)
        repeated_orbit = self.corrupted(covers_up=tuple(covers))
        # 123|4 replaced by 124|3: the chain (1, 2) has orbits 123|4, so
        # they differ from its top's blocks.
        elements = list(lattice.elements)
        elements[6] = elements[7]
        wrong_top = self.corrupted(elements=tuple(elements))
        cases = [
            (not_below, "not below"),
            (repeated_orbit, "absolute length"),
            (wrong_top, r"orbit partition 123\|4 differs from chain top 124\|3"),
        ]
        for bad, message in cases:
            with pytest.raises(RuntimeError, match=message):
                phi_table(W4132, lattice=bad)
            # Unchecked, the table maps every chain and raises nothing.
            unchecked = phi_table(W4132, check=False, lattice=bad)
            assert len(unchecked) == len(decreasing_chains(bad))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle_exhaustive(self, n):
        for w in all_perms(n):
            assert_matches_oracle(w)

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_oracle_sampled(self, n):
        rng = random.Random(n)
        for _ in range(20):
            assert_matches_oracle(Permutation(rng.sample(range(1, n + 1), n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eager_invariants_hold(self, n):
        # check=True raises internally if any of the three facts break.
        for w in all_perms(n):
            table = phi_table(w, check=True)
            for entry in table:
                assert entry.image == entry.product * w

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_length_drop_parity(self, n):
        for w in all_perms(n):
            for entry in phi_table(w, check=False):
                drop = w.length() - entry.image.length()
                m = entry.chain.length
                assert drop >= m
                assert (drop - m) % 2 == 0


def assert_matches_oracle(w: Permutation) -> None:
    """``phi_table`` maps every chain of w's lattice, in order, to the
    chain, product and image the per-chain oracle gives, checked or not."""
    lattice = build_lattice(w)
    expected = [phi(chain, w, lattice) for chain in decreasing_chains(lattice)]
    assert phi_table(w, lattice=lattice) == expected
    assert phi_table(w, check=False, lattice=lattice) == expected


class TestInjectivity:
    def test_identity(self):
        assert verify_injective(Permutation.identity(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_expression(self, n):
        for w in all_perms(n):
            assert verify_injective(w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_reduced_expression(self, n):
        for w in all_perms(n):
            for expr in all_reduced_expressions(w):
                assert verify_injective(w, expr)


class TestSurjectivity:
    def test_identity(self):
        ok, missed = verify_surjective(Permutation.identity(3))
        assert ok and missed == ()

    def test_4231_misses_two(self):
        ok, missed = verify_surjective(W4231)
        assert not ok
        assert [str(u) for u in missed] == ["1324", "2314"]
        # Evenly many missed elements of each length parity.
        evens = sum(1 for u in missed if u.length() % 2 == 0)
        assert evens * 2 == len(missed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_iff_avoidance(self, n):
        for w in all_perms(n):
            ok, missed = verify_surjective(w)
            assert ok == is_chromobruhatic(w)
            assert ok == (not missed)
            image_size = len(phi_table(w, check=False))
            assert image_size + len(missed) == len(interval(w))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_missed_parity_balance(self, n):
        for w in all_perms(n):
            _, missed = verify_surjective(w)
            evens = sum(1 for u in missed if u.length() % 2 == 0)
            odds = len(missed) - evens
            assert evens == odds


class TestGoingDown:
    def test_identity(self):
        assert verify_going_down(Permutation.identity(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive(self, n):
        for w in all_perms(n):
            assert verify_going_down(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_descent_comparison_matches_bruhat_leq(self, n):
        # Every step of every walk applies some transposition to some x.
        for x in all_perms(n):
            for a, b in itertools.combinations(range(1, n + 1), 2):
                nxt = Permutation.transposition(n, a, b) * x
                assert (x(a) > x(b)) == (bruhat_leq(nxt, x) and nxt != x)

    def test_distances_equal_chain_length(self):
        dist = distances_from(W4132)
        for entry in phi_table(W4132, (1, 2, 3, 2)):
            assert dist[entry.image.word] == entry.chain.length


class TestCharacterization:
    def test_identity(self):
        assert verify_characterization(Permutation.identity(3))

    def test_4231_biconditional(self):
        # The equality fails at u = 1324 while 4231 contains a pattern,
        # so the biconditional itself holds.
        u = Permutation((1, 3, 2, 4))
        dist = distances_from(W4231)
        assert dist[u.word] == 4
        assert (u * W4231.inverse()).absolute_length() == 2
        assert verify_characterization(W4231)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive(self, n):
        for w in all_perms(n):
            assert verify_characterization(w)
