import itertools
import random

import pytest

import invlat.verify
from invlat.bruhat import bruhat_leq, distances_from, interval_size, missed_elements
from invlat.cli import analyze
from invlat.lattice import build_lattice
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation, all_reduced_expressions, format_one_line
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


def golden_chains():
    """4132's chains ``(labels, image word, top index)``, in label order."""
    return build_lattice(W4132, (1, 2, 3, 2)).chains


class TestPhi:
    def test_empty_chain_maps_to_w(self):
        labels, image, top = golden_chains()[0]
        assert labels == ()
        assert top == 0
        assert image == W4132.word

    def test_golden_table(self):
        got = {labels: format_one_line(image) for labels, image, _ in golden_chains()}
        assert got == GOLDEN_TABLE

    def test_specific_chain(self):
        by_labels = {labels: image for labels, image, _ in golden_chains()}
        image = Permutation(by_labels[(1, 2, 4)])
        assert str(image) == "1243"
        assert (image * W4132.inverse()).cycle_string() == "(1 2 4 3)"

    def test_eager_checks_catch_bad_chains(self, monkeypatch):
        corrupt_second_hyperplane(monkeypatch)
        message = r"3412 of the chain \(1, 2\) is not below 4132"
        with pytest.raises(RuntimeError, match=message):
            analyze(W4132)

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
        # analyze raises on an image not below w; the chain length and the
        # orbits of the product p(C) = image * w^-1 hold by construction.
        for w in all_perms(n):
            lattice = build_lattice(w)
            for labels, image, k in lattice.chains:
                top = lattice.elements[k]
                product = Permutation(image) * w.inverse()
                assert w.n - len(top) == len(labels)
                assert canon(product.cycles()) == blocks_of(top)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_length_drop_parity(self, n):
        for w in all_perms(n):
            for labels, image, _ in build_lattice(w).chains:
                drop = w.length() - Permutation(image).length()
                m = len(labels)
                assert drop >= m
                assert (drop - m) % 2 == 0


def assert_matches_oracle(w: Permutation) -> None:
    """The lattice keeps every chain that the depth-first search along its
    covers finds, in order, with the labels, top and image the per-chain
    oracle gives."""
    lattice = build_lattice(w)
    chains = decreasing_chains(lattice)
    expected = [phi(path, labels, w, lattice) for path, labels in chains]
    assert [(labels, k, image) for labels, image, k in lattice.chains] == expected


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
        real = invlat.verify._chain_walk

        def walk_twice(w, hyperplanes):
            rows = list(real(w, hyperplanes))
            return rows + rows[1:2]

        monkeypatch.setattr(invlat.verify, "_chain_walk", walk_twice)
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
            image_size = len(build_lattice(w).chains)
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
        for labels, image, _ in golden_chains():
            assert dist[image] == len(labels)

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
    """The characterization check: distance equals absolute length below w
    iff w avoids the four patterns."""

    def test_identity(self):
        _, scan = invlat.verify.CHECKS["characterization"]
        outcomes = scan(3, "canonical")
        assert next(iter(outcomes)) == (None, {})

    def test_4231_biconditional(self, monkeypatch):
        # The equality fails at u = 1324 while 4231 contains a pattern,
        # so the biconditional itself holds.
        u = Permutation((1, 3, 2, 4))
        dist = distances_from(W4231)
        assert dist[u.word] == 4
        assert (u * W4231.inverse()).absolute_length() == 2
        assert invlat.verify.run_check("characterization", 4).passed
        # Were every w taken for an avoider, 4231 alone would break it, and
        # its counterexample carries the avoidance the check computed.
        monkeypatch.setattr(invlat.verify, "is_chromobruhatic", lambda w: True)
        report = invlat.verify.run_check("characterization", 4)
        assert report.counterexamples == [{"w": "4231", "avoiding": True}]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive(self, n):
        report = invlat.verify.run_check("characterization", n)
        assert report.passed and report.population == len(all_perms(n))
