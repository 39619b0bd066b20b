"""The kernels agree with brute force, whatever the shared memos hold."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlat import kernels
from invlat.permutation import InversionGraph, Permutation
from util import all_perms, brute_colorings, order_induced_orientations

# The test ids carry the implementation name, ``[python]``.
IMPLS = [kernels]


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


@pytest.mark.parametrize("impl", IMPLS, ids=lambda m: m.IMPLEMENTATION)
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


def _chi_oracle(masks):
    """(-1)^n chi(-1) from a cold chromatic run: the acyclic orientations."""
    return (-1) ** len(masks) * _eval(kernels._chi(tuple(masks), {}), -1)


class TestAcyclicOrientationCount:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_inversion_graph_against_chi(self, n):
        for w in all_perms(n):
            masks = InversionGraph.of(w).adjacency_masks()
            assert kernels.acyclic_orientation_count(masks) == _chi_oracle(masks)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(8, 12)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(Permutation)
    )
    def test_sampled_n8_to_n12_against_chi(self, w):
        masks = InversionGraph.of(w).adjacency_masks()
        assert kernels.acyclic_orientation_count(masks) == _chi_oracle(masks)

    def test_known_families(self):
        count = kernels.acyclic_orientation_count
        assert count(()) == 1
        assert count((0, 0, 0)) == 1
        assert count((0b11110, 1, 1, 1, 1)) == 2**4  # a tree with 4 edges
        assert count((2, 1, 8, 4)) == 4  # two disjoint edges
        assert count((6, 5, 3)) == 6  # triangle
        assert count((2 | 8, 1 | 4, 2 | 8, 1 | 4)) == 14  # 4-cycle
        assert count((14, 13, 11, 7)) == 24  # K4

    def test_every_small_labelled_graph_has_its_own_key(self):
        keys = set()
        total = 0
        for k in range(5):
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            for bits in range(1 << len(pairs)):
                masks = [0] * k
                for b, (i, j) in enumerate(pairs):
                    if bits >> b & 1:
                        masks[i] |= 1 << j
                        masks[j] |= 1 << i
                keys.add(kernels._key(tuple(masks)))
                total += 1
        assert total == 1 + 1 + 2 + 8 + 64 and len(keys) == total


def test_selected_kernel_exports():
    assert kernels.IMPLEMENTATION == "python"
    assert callable(kernels.chromatic_coeffs)
    assert callable(kernels.acyclic_orientation_count)


def _assert_history_free(masks):
    """The value read through the shared memo equals a cold run with a
    fresh memo and the brute-force colouring counts."""
    warm = kernels.chromatic_coeffs(masks)
    # A tuple, so no caller can alter the memo entry it was handed.
    assert type(warm) is tuple
    assert warm == kernels._chi(tuple(masks), {})
    for k in (1, 2, 3):
        assert _eval(warm, k) == brute_colorings(masks, k)


def _assert_ao_history_free(masks):
    """The same for the acyclic-orientation memo."""
    warm = kernels.acyclic_orientation_count(masks)
    assert warm == kernels._ao(tuple(masks), {})
    assert warm == order_induced_orientations(masks)


@pytest.fixture(scope="module")
def warm_memo():
    """Sweep S_1..S_6 through both shared memos before comparing."""
    graphs = [
        InversionGraph.of(w).adjacency_masks() for n in range(1, 7) for w in all_perms(n)
    ]
    for masks in graphs:
        kernels.chromatic_coeffs(masks)
        kernels.acyclic_orientation_count(masks)
    return graphs


class TestSharedMemo:
    def test_every_inversion_graph_to_s6(self, warm_memo):
        for masks in warm_memo:
            _assert_history_free(masks)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(7, 8)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(Permutation)
    )
    def test_sampled_n7_to_n8(self, warm_memo, w):
        masks = InversionGraph.of(w).adjacency_masks()
        kernels.chromatic_coeffs(masks)  # the second read below is a memo hit
        _assert_history_free(masks)

    def test_random_graphs_after_the_sweep(self, warm_memo):
        rng = random.Random(7)
        for _ in range(100):
            masks = _random_graph(rng, rng.randint(0, 7), rng.choice((0.2, 0.5, 0.8)))
            _assert_history_free(masks)

    def test_ao_random_graphs_after_the_sweep(self, warm_memo):
        rng = random.Random(11)
        for _ in range(100):
            masks = _random_graph(rng, rng.randint(0, 7), rng.choice((0.2, 0.5, 0.8)))
            _assert_ao_history_free(masks)

    def test_threads_sharing_a_fresh_memo(self, monkeypatch):
        # The memos are process-wide, so any threads a caller runs share
        # them; a race may compute an entry twice but must never hand out a
        # wrong or partial value.
        monkeypatch.setattr(kernels, "_memo", {})
        monkeypatch.setattr(kernels, "_ao_memo", {})
        graphs = [InversionGraph.of(w).adjacency_masks() for w in all_perms(6)]
        expected = [(kernels._chi(m, {}), kernels._ao(m, {})) for m in graphs]

        def both(m):
            return kernels.chromatic_coeffs(m), kernels.acyclic_orientation_count(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: [both(m) for m in graphs])
                    for _ in range(4)
                ]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)
