"""Acceptance suite: each test prints one PASS/FAIL line and enforces the
stated exactness and time budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The exhaustive sweeps here are the verification contract: the statements
are universally quantified, so small-n exhaustion plus the per-module
invariant tests constitute the acceptance evidence.
"""

import time

import pytest

from interval_oracle import filter_interval, hull_rows, ryser_permanent
from invlat.bruhat import interval_size
from invlat.chromatic import (
    acyclic_orientations,
    chromatic_of,
    opy_chromatic,
)
from invlat.cli import analyze
from invlat.golden import compare
from invlat.patterns import is_chromobruhatic, is_smooth
from invlat.permutation import InversionGraph, Permutation
from invlat.verify import run_check
from util import acyclic_orientations_brute, all_perms, region_count


def _report(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} ({elapsed:.2f}s)")


def test_criterion_1_golden_reproduction():
    started = time.perf_counter()
    ok, diffs, _ = compare(analyze(Permutation((4, 1, 3, 2))))
    elapsed = time.perf_counter() - started
    _report(1, "golden 4132 reproduction", ok and elapsed < 1.0, elapsed)
    assert ok, diffs
    assert elapsed < 1.0


def test_criterion_2_region_count_at_most_interval_size():
    started = time.perf_counter()
    ok = True
    for n in range(2, 8):
        report = run_check("conjectureA", n)
        ok = ok and report.passed
        assert report.passed, report.counterexamples
    elapsed = time.perf_counter() - started
    _report(2, "re <= br for all of S_2..S_7", ok and elapsed < 120, elapsed)
    assert elapsed < 120


def test_criterion_3_equality_iff_avoidance():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        report = run_check("conjectureB", n)
        ok = ok and report.passed
        assert report.passed, report.counterexamples
    elapsed = time.perf_counter() - started
    _report(3, "re = br iff four-pattern avoiding, n <= 6", ok and elapsed < 60, elapsed)
    assert elapsed < 60


def test_criterion_4_injectivity():
    started = time.perf_counter()
    canonical = run_check("phi-injective", 6)
    assert canonical.passed, canonical.counterexamples
    every_expr = run_check("phi-injective", 4, expr="all")
    assert every_expr.passed, every_expr.counterexamples
    elapsed = time.perf_counter() - started
    _report(
        4,
        "chain map injective: S_6 canonical, S_4 all expressions",
        canonical.passed and every_expr.passed,
        elapsed,
    )


def test_criterion_5_going_down_and_characterization():
    started = time.perf_counter()
    ok = True
    for n in range(1, 6):
        down = run_check("going-down", n)
        char = run_check("characterization", n)
        ok = ok and down.passed and char.passed
        assert down.passed, down.counterexamples
        assert char.passed, char.counterexamples
    elapsed = time.perf_counter() - started
    _report(5, "going-down and distance characterization, n <= 5", ok, elapsed)


def test_criterion_6_reduction_recurrences():
    started = time.perf_counter()
    report = run_check("recurrences", 6)
    elapsed = time.perf_counter() - started
    covered = report.payload.get("light", 0) + report.payload.get("heavy", 0)
    ok = report.passed and covered == 476  # every non-identity avoiding w in S_6
    _report(6, "interval/orientation/coloring recurrences on S_6 avoiders", ok, elapsed)
    assert report.passed, report.counterexamples
    assert covered == 476


def test_criterion_7_smooth_product_formula():
    started = time.perf_counter()
    smooth_count = 0
    ok = True
    for w in all_perms(7):
        if not is_smooth(w):
            continue
        smooth_count += 1
        if opy_chromatic(w) != chromatic_of(w):
            ok = False
            break
    elapsed = time.perf_counter() - started
    _report(7, "record-exponent product = chromatic for smooth S_7", ok, elapsed)
    assert ok
    assert smooth_count == 1552


def test_criterion_8_betti_inequalities():
    started = time.perf_counter()
    report = run_check("betti", 5)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.payload["avoiding"] == 101
    _report(8, "Betti partial-sum inequalities with maximal-r equality, S_5", ok, elapsed)
    assert report.passed, report.counterexamples
    assert report.payload["avoiding"] == 101


def test_criterion_9_cross_oracle_coherence():
    started = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for w in all_perms(n):
            g = InversionGraph.of(w)
            via_mobius = region_count(w)
            via_kernel = acyclic_orientations(g)
            via_orientations = acyclic_orientations_brute(g)
            if not via_mobius == via_kernel == via_orientations:
                ok = False
                break
    for w in all_perms(6):
        if is_chromobruhatic(w):
            br = interval_size(w)
            if not br == ryser_permanent(hull_rows(w), 6) == len(
                filter_interval(w)
            ):
                ok = False
                break
    elapsed = time.perf_counter() - started
    _report(9, "region/orientation/permanent oracle coherence", ok, elapsed)
    assert ok


@pytest.mark.parametrize("n", [8])
def test_note_10_larger_n_not_required(n):
    # Larger boards are out of the verification contract; the bound n <= 12
    # in the permutation type is the only hard ceiling.
    assert n <= 12
