import itertools
import random

import pytest

import invlat.phimap
import invlat.verify
from invlat.bruhat import bruhat_leq, distances_from, interval_size
from invlat.lattice import build_lattice
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, all_reduced_expressions
from invlat.phimap import missed_elements, phi_table, verify_characterization
from invlat.verify import _going_down_failure, _phi_images
from lattice_oracle import blocks_of, canon, decreasing_chains
from phi_oracle import going_down, phi
from util import all_perms, corrupt_second_hyperplane, interval

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
        assert entry.labels == ()
        assert entry.top == (1, 2, 4, 8)
        assert entry.product.is_identity()
        assert entry.image == W4132

    def test_golden_table(self):
        table = phi_table(W4132, (1, 2, 3, 2))
        got = {entry.labels: str(entry.image) for entry in table}
        assert got == GOLDEN_TABLE

    def test_specific_chain(self):
        table = phi_table(W4132, (1, 2, 3, 2))
        by_labels = {entry.labels: entry for entry in table}
        entry = by_labels[(1, 2, 4)]
        assert str(entry.image) == "1243"
        assert entry.product.cycle_string() == "(1 2 4 3)"

    def test_eager_checks_catch_bad_chains(self, monkeypatch):
        corrupt_second_hyperplane(monkeypatch)
        message = r"3412 of the chain \(1, 2\) is not below 4132"
        with pytest.raises(RuntimeError, match=message):
            phi_table(W4132, (1, 2, 3, 2))

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
        # The table raises on an image not below w; the chain length and
        # the orbits hold by construction.
        for w in all_perms(n):
            for entry in phi_table(w):
                assert entry.image == entry.product * w
                assert w.n - len(entry.top) == len(entry.labels)
                assert canon(entry.product.cycles()) == blocks_of(entry.top)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_length_drop_parity(self, n):
        for w in all_perms(n):
            for entry in phi_table(w):
                drop = w.length() - entry.image.length()
                m = len(entry.labels)
                assert drop >= m
                assert (drop - m) % 2 == 0


def assert_matches_oracle(w: Permutation) -> None:
    """``phi_table`` maps every chain that the depth-first search along the
    lattice's covers finds, in order, to the labels, top, product and image
    the per-chain oracle gives."""
    lattice = build_lattice(w)
    chains = decreasing_chains(lattice)
    expected = [phi(path, labels, w, lattice) for path, labels in chains]
    assert phi_table(w) == expected


def injective(w: Permutation, expression=None) -> bool:
    """The chain checks' verdict: every image is below w and no two
    chains share one."""
    found, _ = _phi_images(w, expression)
    return found is None


def surjective(w: Permutation) -> tuple[bool, tuple[Permutation, ...]]:
    """Whether the images fill [e, w], by the elements they miss."""
    found, images = _phi_images(w)
    assert found is None, found
    missed = missed_elements(w, images)
    return not missed, missed


class TestInjectivity:
    def test_identity(self):
        assert injective(Permutation.identity(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_expression(self, n):
        for w in all_perms(n):
            assert injective(w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_reduced_expression(self, n):
        for w in all_perms(n):
            for expr in all_reduced_expressions(w):
                assert injective(w, expr)

    def test_shared_image_is_reported(self, monkeypatch):
        # The chain (1,) listed a second time shares its image.
        def walk_twice(w, expression=None):
            rows = list(invlat.phimap._images(w, expression))
            return rows + rows[1:2]

        monkeypatch.setattr(invlat.verify, "_images", walk_twice)
        found, _ = _phi_images(W4132)
        assert found == {
            "w": "4132",
            "labels": [1],
            "reason": "image 1432 is also the image of the chain [1]",
        }


class TestSurjectivity:
    def test_identity(self):
        ok, missed = surjective(Permutation.identity(3))
        assert ok and missed == ()

    def test_4231_misses_two(self):
        ok, missed = surjective(W4231)
        assert not ok
        assert [str(u) for u in missed] == ["1324", "2314"]
        # Evenly many missed elements of each length parity.
        evens = sum(1 for u in missed if u.length() % 2 == 0)
        assert evens * 2 == len(missed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_iff_avoidance(self, n):
        for w in all_perms(n):
            ok, missed = surjective(w)
            assert ok == is_chromobruhatic(w)
            assert ok == (not missed)
            # Distinct images below w fill [e, w] exactly when there are
            # br(w) of them: the count the check tests.
            image_size = len(phi_table(w))
            assert ok == (image_size == interval_size(w))
            assert image_size + len(missed) == len(interval(w))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_missed_parity_balance(self, n):
        for w in all_perms(n):
            _, missed = surjective(w)
            evens = sum(1 for u in missed if u.length() % 2 == 0)
            odds = len(missed) - evens
            assert evens == odds


class TestGoingDown:
    def test_identity(self):
        assert _going_down_failure(Permutation.identity(2)) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        # The check tests strict descent alone; the breadth-first oracle
        # also tests that each image lies at distance m from w.
        for w in all_perms(n):
            assert _going_down_failure(w) is None
            assert going_down(w)

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
            assert dist[entry.image.word] == len(entry.labels)

    def test_failed_descent_is_reported(self, monkeypatch):
        # With H_2 read as (2 3), the chain (1, 2) first applies (2 3) to
        # 4132, which swaps 1 and 3 upwards.
        corrupt_second_hyperplane(monkeypatch)
        assert _going_down_failure(W4132) == {
            "w": "4132",
            "labels": [1, 2],
            "reason": "t2 does not go down from 4132",
        }


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
