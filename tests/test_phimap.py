import pytest

from invlat.bruhat import distances_from, interval
from invlat.lattice import DecreasingChain, build_lattice, decreasing_chains
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, all_reduced_expressions
from invlat.phimap import (
    phi,
    phi_table,
    verify_characterization,
    verify_going_down,
    verify_injective,
    verify_surjective,
)
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
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        empty = decreasing_chains(lattice)[0]
        entry = phi(empty, W4132, lattice)
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

    def test_eager_checks_catch_bad_chains(self):
        lattice = build_lattice(W4132, (1, 2, 3, 2))
        chain = {c.labels: c for c in decreasing_chains(lattice)}[(1, 2, 4)]
        # Labels out of order: t2 t1 w = 3412 is not below 4132.
        with pytest.raises(RuntimeError, match="not below"):
            phi(DecreasingChain(chain.elements[:3], (2, 1)), W4132, lattice)
        # A repeated reflection: t1 t2 t2 = t1 has absolute length 1, not 3.
        with pytest.raises(RuntimeError, match="absolute length"):
            phi(DecreasingChain(chain.elements, (1, 2, 2)), W4132, lattice)
        # The product (1 2 4 3) has one orbit, but this chain tops out at 134|2.
        wrong_top = chain.elements[:-1] + (lattice.elements[-2],)
        with pytest.raises(RuntimeError, match="orbit partition"):
            phi(DecreasingChain(wrong_top, chain.labels), W4132, lattice)
        unchecked = phi(DecreasingChain(wrong_top, chain.labels), W4132, lattice, check=False)
        assert str(unchecked.image) == "1243"

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
