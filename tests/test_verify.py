import importlib
import inspect
import math
import pkgutil
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from interval_oracle import hull_fillings, hull_rows, rank_leq
import invlat
from invlat import bruhat, chromatic, verify
from invlat.bruhat import _dominated_sets, interval_size
from invlat.chromatic import IntPoly
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation
from util import all_perms
from walk_oracle import two_level_walk


class TestRunCheck:
    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify.run_check("nonsense", 3)

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError, match="accepts"):
            verify.run_check("characterization", 9)
        with pytest.raises(ValueError):
            verify.run_check("conjectureA", 0)

    def test_expr_all_only_for_injectivity(self):
        with pytest.raises(ValueError, match="expr all"):
            verify.run_check("conjectureA", 3, expr="all")
        with pytest.raises(ValueError, match="accepts"):
            verify.run_check("phi-injective", 5, expr="all")

    def test_expr_is_canonical_or_all(self):
        # Any other value is refused before the scan, so it can neither
        # slip past ALL_EXPR_CEILING nor land in the payload.
        with pytest.raises(ValueError, match="expr must be"):
            verify.run_check("conjectureA", 3, expr="bogus")
        with pytest.raises(ValueError, match="expr must be"):
            verify.run_check("phi-injective", 6, expr="All")

    def test_jobs_and_cap_bounds(self):
        with pytest.raises(ValueError, match="cap"):
            verify.run_check("opy", 3, cap=-1)

    @pytest.mark.parametrize("check", sorted(verify.CHECKS))
    def test_all_checks_pass_small(self, check):
        report = verify.run_check(check, 4)
        assert report.passed
        assert report.population == 24
        assert report.counterexamples == []
        assert report.payload["failure_count"] == 0

    def test_payload_counts(self):
        report = verify.run_check("conjectureB", 4)
        assert report.payload["avoiding"] == 23
        report = verify.run_check("opy", 4)
        assert report.payload["smooth"] == 22
        report = verify.run_check("recurrences", 4)
        assert report.payload["light"] + report.payload["heavy"] == 22

    # Every check's full payload at n = 5, key order included, as the
    # reports had it before the per-w data was computed once per check.
    PAYLOADS_N5 = {
        "betti": {"avoiding": 101, "failure_count": 0},
        "characterization": {"failure_count": 0},
        "chromatic-identity": {"failure_count": 0},
        "conjectureA": {"equal": 101, "failure_count": 0},
        "conjectureB": {"avoiding": 101, "failure_count": 0},
        "going-down": {"failure_count": 0},
        "hull-vs-standard": {"failure_count": 0},
        "opy": {"smooth": 88, "failure_count": 0},
        "phi-injective": {"failure_count": 0},
        "phi-surjective-iff": {"avoiding": 101, "failure_count": 0},
        "recurrences": {"heavy": 20, "light": 80, "failure_count": 0},
        "weak-chain": {"chromobruhatic": 101, "failure_count": 0},
    }

    def test_payload_pins_cover_every_check(self):
        assert set(self.PAYLOADS_N5) == set(verify.CHECKS)

    @pytest.mark.parametrize("check", sorted(PAYLOADS_N5))
    def test_full_payload_at_n5(self, check):
        report = verify.run_check(check, 5)
        assert report.passed
        assert list(report.payload.items()) == list(self.PAYLOADS_N5[check].items())

    @pytest.mark.parametrize(
        "check", ["phi-injective", "phi-surjective-iff", "going-down"]
    )
    def test_chain_checks_need_no_lattice_and_no_bfs(self, monkeypatch, check):
        # Every w of S_4 passes, so phi-surjective-iff lists no missed
        # elements either: the chains come from the walk alone.
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{check} called a lattice build or a BFS")

        for name, module in list(sys.modules.items()):
            if name.startswith("invlat"):
                for attr in ("build_lattice", "IntersectionLattice", "distances_from"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, forbidden)
        report = verify.run_check(check, 4)
        assert report.passed

    def test_phi_injective_reads_bubble_rows_once_per_w(self, monkeypatch):
        # The 3,651 images over S_5 are each tested against their w with
        # the rows read once for that w, so a lookup per image fails here.
        calls = []
        real = verify._bubble_rows

        def counted(w):
            calls.append(w)
            return real(w)

        for module in (verify, bruhat):
            monkeypatch.setattr(module, "_bubble_rows", counted)
        outcomes = list(verify._check_phi_injective(5, "canonical"))
        assert all(failure is None for failure, _ in outcomes)
        assert len(calls) == len(set(calls)) == 120

    def test_conjecture_a_equal_count_at_n7(self):
        report = verify.run_check("conjectureA", 7)
        assert report.passed
        assert report.payload == {"equal": 2343, "failure_count": 0}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_walk_work(self, monkeypatch, n):
        # The walk builds the children of every prefix shorter than n - 4
        # and reads the 24 leaves of a prefix of length n - 4 from its DPs:
        # one _grow per prefix of length 0..n-5 and one _colour_step per
        # prefix of length 1..n-4.  A walk that builds the children of a
        # prefix of length n - 4, or anything below them, fails here.
        calls = dict.fromkeys(("_grow", "_colour_step"), 0)
        for name in calls:

            def counted(*args, real=getattr(verify, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(verify, name, counted)
        assert sum(1 for _ in verify._count_walk(n)) == math.factorial(n)
        prefixes = [
            math.factorial(n) // math.factorial(n - k) for k in range(max(0, n - 3))
        ]
        assert calls == {
            "_grow": sum(prefixes[:-1]),
            "_colour_step": sum(prefixes[1:]),
        }
        if n == 8:
            assert calls == {"_grow": 401, "_colour_step": 2080}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_walk_matches_the_two_level_walk(self, n):
        # Folding the last four levels from packed tables yields exactly
        # the stream of the walk that folds the last two in closed form.
        assert list(verify._count_walk(n)) == list(two_level_walk(n))

    def test_count_walk_memory(self):
        # The packed tables are kept per value set of length n - 4 (70 of
        # them at n = 8) and dropped with the walk, never per w.
        tracemalloc.start()
        try:
            assert sum(1 for _ in verify._count_walk(8)) == 40320
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MiB"

    def test_count_walk_at_n9(self):
        # Theorem A over all of S_9, one size above conjectureA's ceiling:
        # re <= br everywhere, with equality on the 59,786 avoiders of the
        # four patterns, and br = re = 9! at the longest element.
        equal = 0
        for word, br, ao in verify._count_walk(9):
            assert ao <= br, word
            equal += ao == br
        assert equal == 59786
        assert (word, br, ao) == ((9, 8, 7, 6, 5, 4, 3, 2, 1), 362880, 362880)
        with pytest.raises(ValueError, match="accepts"):
            verify.run_check("conjectureA", 9)

    def test_expr_all_mode(self):
        report = verify.run_check("phi-injective", 3, expr="all")
        assert report.passed
        assert report.payload["expression_mode"] == "all"

    def test_all_backends_agree_at_n5(self):
        report = verify.run_check("hull-vs-standard", 5)
        assert report.passed, report.counterexamples

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_hull_counts_against_the_oracles(self, n):
        # br and the bubble count are |[e, w]|; the set-form hull count is
        # the number of permutation matrices inside the hull rows.
        def dominated(top):
            return _dominated_sets(top, n)

        for w in all_perms(n):
            br, bubble, hull = verify._hull_counts(w, dominated)
            assert br == bubble == interval_size(w)
            assert hull == sum(1 for _ in hull_fillings(hull_rows(w)))

    def test_hull_overcounts_exactly_off_the_avoiders(self):
        def dominated(top):
            return _dominated_sets(top, 6)

        over = set()
        for w in all_perms(6):
            br, bubble, hull = verify._hull_counts(w, dominated)
            assert hull >= br == bubble
            if hull > br:
                over.add(w.word)
        containing = {w.word for w in all_perms(6) if not is_chromobruhatic(w)}
        assert over == containing and len(over) == 243

    def test_hull_vs_standard_checks_the_converse(self, monkeypatch):
        # Were 4231 taken for an avoider, its hull's 24 fillings against
        # br = 20 must be reported.
        monkeypatch.setattr(verify, "is_chromobruhatic", lambda w: True)
        report = verify.run_check("hull-vs-standard", 4)
        assert report.counterexamples == [
            {"w": "4231", "br": 20, "bubble": 20, "hull": 24, "avoiding": True}
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_absolute_length_from_the_words(self, n):
        # characterization reads the absolute length of u w^-1 off the two
        # words; the product's cycles must give the same number.
        for w in all_perms(n):
            winv = w.inverse()
            for u in all_perms(n):
                if rank_leq(u, w):
                    assert verify._absolute_length(u.word, w.word) == (
                        u * winv
                    ).absolute_length(), (u, w)

    def test_report_json_shape(self):
        report = verify.run_check("conjectureA", 3)
        data = report.to_json_dict()
        assert data["schema_version"] == 1
        assert data["check"] == "conjectureA"
        assert data["pass"] is True
        assert data["population"] == 6
        assert "elapsed_s" in data

    def test_deterministic_and_job_independent(self):
        a = verify.run_check("conjectureB", 5).to_json_dict()
        b = verify.run_check("conjectureB", 5).to_json_dict()
        for d in (a, b):
            d.pop("elapsed_s")
        assert a == b

    def test_counterexample_cap(self, monkeypatch):
        def failing_scan(n, expr):
            return (({"w": str(i)}, {}) for i in range(25))

        monkeypatch.setitem(verify.CHECKS, "synthetic", (4, failing_scan))
        report = verify.run_check("synthetic", 3)
        assert not report.passed
        assert len(report.counterexamples) == verify.DEFAULT_COUNTEREXAMPLE_CAP
        assert report.truncated
        assert report.payload["failure_count"] == 25
        full = verify.run_check("synthetic", 3, cap=None)
        assert len(full.counterexamples) == 25
        assert not full.truncated

    @pytest.mark.parametrize("check", ["conjectureA", "conjectureB"])
    def test_walk_counterexamples(self, monkeypatch, check):
        # A walk over S_4 whose every other word has re = br + 1.
        words = [w.word for w in all_perms(4)]
        bad = set(words[::2])

        def walk(n):
            assert n == 4
            for word in words:
                yield word, 10, 10 + (word in bad)

        monkeypatch.setattr(verify, "_count_walk", walk)
        if check == "conjectureA":
            failing = [w for w in words if w in bad]
        else:
            failing = [
                w for w in words if (w in bad) == is_chromobruhatic(Permutation(w))
            ]
        expected = [str(Permutation(w)) for w in failing]
        assert expected == sorted(expected) and len(expected) > 10

        full = verify.run_check(check, 4, cap=None)
        assert [f["w"] for f in full.counterexamples] == expected
        assert not full.passed and not full.truncated
        assert full.payload["failure_count"] == len(expected)
        keys = ["w", "re", "br"] + (["avoiding"] if check == "conjectureB" else [])
        for word, failure in zip(failing, full.counterexamples):
            assert list(failure) == keys
            assert (failure["br"], failure["re"]) == (10, 10 + (word in bad))

        capped = verify.run_check(check, 4, cap=3)
        assert capped.counterexamples == full.counterexamples[:3]
        assert capped.truncated
        assert capped.payload == full.payload

    def test_summary_line(self):
        report = verify.run_check("weak-chain", 3)
        assert report.summary().startswith("PASS weak-chain n=3")

    def test_readme_ceilings_match_checks(self):
        # The "max n" column of the README's check table, with
        # phi-injective's "--expr all" ceiling in parentheses.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = r"^\| `([\w-]+)` .*\| (\d+)(?: \((\d+)\))? \|$"
        rows = re.findall(row, readme, re.M)
        assert {name: int(n) for name, n, _ in rows} == {
            name: ceiling for name, (ceiling, _) in verify.CHECKS.items()
        }
        assert {name: int(n) for name, _, n in rows if n} == {
            "phi-injective": verify.ALL_EXPR_CEILING
        }

    def test_readme_layout_lists_every_module(self):
        # The module column of the README's Layout table.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `invlat\.(\w+)` +\|", readme, re.M)
        modules = [info.name for info in pkgutil.iter_modules(invlat.__path__)]
        assert sorted(rows) == sorted(modules)


class TestRecurrenceFailures:
    """The exact counterexamples of the recurrences check at n = 4 when the
    walk's (br, ao) on S_3 are moved: every reduction of an avoider of S_4
    reads some word of S_3, so each recurrence over a moved value breaks."""

    # (w, target, kind) of the 22 avoiders of S_4 other than e, in order.
    PAIRS = [
        ("1243", "w", "light"),
        ("1324", "w", "light"),
        ("1342", "w", "light"),
        ("1423", "inverse", "light"),
        ("1432", "w", "light"),
        ("2134", "w", "light"),
        ("2143", "w", "light"),
        ("2314", "w", "light"),
        ("2341", "w", "light"),
        ("2413", "inverse", "heavy"),
        ("2431", "w", "light"),
        ("3124", "inverse", "light"),
        ("3142", "w", "heavy"),
        ("3214", "w", "light"),
        ("3241", "w", "light"),
        ("3412", "w", "heavy"),
        ("3421", "w", "light"),
        ("4123", "inverse", "light"),
        ("4132", "inverse", "light"),
        ("4213", "inverse", "light"),
        ("4312", "w", "light"),
        ("4321", "w", "light"),
    ]

    # (br change, ao change) on S_3 -> violations by pair kind.
    CASES = {
        (0, 1): {
            "light": ["light orientation recurrence"],
            "heavy": ["heavy orientation recurrence"],
        },
        (1, 0): {
            "light": ["light interval recurrence"],
            "heavy": ["heavy interval recurrence"],
        },
        (1, 1): {
            "light": ["light interval recurrence", "light orientation recurrence"],
            "heavy": ["heavy interval recurrence", "heavy orientation recurrence"],
        },
    }

    @pytest.mark.parametrize("moved", sorted(CASES))
    def test_violations_with_s3_moved(self, monkeypatch, moved):
        real = verify._count_walk

        def walk(m):
            for word, br, ao in real(m):
                if m == 3:
                    br, ao = br + moved[0], ao + moved[1]
                yield word, br, ao

        monkeypatch.setattr(verify, "_count_walk", walk)
        report = verify.run_check("recurrences", 4, cap=None)
        violations = self.CASES[moved]
        assert report.counterexamples == [
            {"w": w, "target": target, "kind": kind, "violations": violations[kind]}
            for w, target, kind in self.PAIRS
        ]
        assert report.payload == {"heavy": 3, "light": 19, "failure_count": 22}


class TestBettiFailures:
    """The exact violation strings of the betti check, on 4132 with one
    interval length count moved: lengths (1, 3, 4, 3, 1) against Betti
    numbers (1, 4, 5, 2), so the top-down partial sums are tight at r = 0
    and at the last index of each line."""

    W = Permutation((4, 1, 3, 2))

    # (length moved, change) -> violations, in the order they are reported.
    # Length 4 = l(w) - 0 feeds line2, length 3 = l(w) - 1 feeds line3,
    # and every length feeds line1.
    CASES = {
        (4, 1): [
            "line1 r=0: 2 > 1",
            "line1 r=4: 13 > 12",
            "line1 equality at r=4: 13 != 12",
            "line2 r=0: 2 > 1",
            "line2 r=2: 7 > 6",
            "line2 equality at r=2: 7 != 6",
        ],
        (3, 1): [
            "line1 r=4: 13 > 12",
            "line1 equality at r=4: 13 != 12",
            "line3 r=1: 7 > 6",
            "line3 equality at r=1: 7 != 6",
        ],
        (4, -1): [
            "line1 equality at r=4: 11 != 12",
            "line2 equality at r=2: 5 != 6",
        ],
        (3, -1): [
            "line1 equality at r=4: 11 != 12",
            "line3 equality at r=1: 5 != 6",
        ],
    }

    @pytest.mark.parametrize("moved", sorted(CASES))
    def test_violations_with_one_count_moved(self, monkeypatch, moved):
        length, change = moved
        counts = list(verify.interval_length_counts(self.W))
        assert counts == [1, 3, 4, 3, 1]
        counts[length] += change
        monkeypatch.setattr(
            verify, "interval_length_counts", lambda w: tuple(counts)
        )
        assert verify._betti_failures(self.W) == {
            "w": "4132",
            "violations": self.CASES[moved],
        }


class TestPlantedDefects:
    """Every check can fail: one defect planted in a check's input for one
    w of S_4 makes the check report exactly that w, with the
    counterexample's keys.  The avoider 4132 is also smooth."""

    W = Permutation((4, 1, 3, 2))

    # The test that plants a defect for each check, as (module, name).
    TESTS = {
        "conjectureA": ("test_verify", "TestRunCheck.test_walk_counterexamples"),
        "conjectureB": ("test_verify", "TestRunCheck.test_walk_counterexamples"),
        "phi-injective": (
            "test_cli",
            "TestVerifyCommand.test_chain_check_reports_image_not_below_w",
        ),
        "phi-surjective-iff": (
            "test_cli",
            "TestVerifyCommand.test_chain_check_reports_image_not_below_w",
        ),
        "going-down": (
            "test_cli",
            "TestVerifyCommand.test_chain_check_reports_image_not_below_w",
        ),
        "characterization": (
            "test_phimap",
            "TestCharacterization.test_4231_biconditional",
        ),
        "betti": ("test_verify", "TestPlantedDefects.test_betti"),
        "chromatic-identity": (
            "test_verify",
            "TestPlantedDefects.test_chromatic_identity",
        ),
        "opy": ("test_verify", "TestPlantedDefects.test_opy"),
        "recurrences": (
            "test_verify",
            "TestRecurrenceFailures.test_violations_with_s3_moved",
        ),
        "hull-vs-standard": (
            "test_verify",
            "TestRunCheck.test_hull_vs_standard_checks_the_converse",
        ),
        "weak-chain": ("test_verify", "TestPlantedDefects.test_weak_chain"),
    }

    def test_planted_defects_cover_every_check(self):
        assert set(self.TESTS) == set(verify.CHECKS)
        for check, (module, name) in self.TESTS.items():
            test = importlib.import_module(module)
            for part in name.split("."):
                test = getattr(test, part)
            assert f'"{check}"' in inspect.getsource(test), (check, name)

    def moved(self, real):
        # real(w), moved by one coefficient at W alone.
        def poly(w):
            return real(w) + IntPoly.monomial(1) if w == self.W else real(w)

        return poly

    def run(self, check, expected):
        # The counterexamples over S_4, key order included; the payload.
        report = verify.run_check(check, 4, cap=None)
        assert [list(f.items()) for f in report.counterexamples] == [
            list(f.items()) for f in expected
        ]
        return report.payload

    def test_betti(self, monkeypatch):
        # One interval length count of W moved up: lengths (1, 3, 4, 3, 2).
        real = verify.interval_length_counts

        def lengths(w):
            counts = real(w)
            return counts[:4] + (counts[4] + 1,) if w == self.W else counts

        monkeypatch.setattr(verify, "interval_length_counts", lengths)
        violations = TestBettiFailures.CASES[(4, 1)]
        payload = self.run("betti", [{"w": "4132", "violations": violations}])
        assert payload == {"avoiding": 23, "failure_count": 1}

    def test_chromatic_identity(self, monkeypatch):
        moved = self.moved(chromatic.chromatic_of)
        monkeypatch.setattr(chromatic, "chromatic_of", moved)
        payload = self.run(
            "chromatic-identity", [{"w": "4132", "identity": False, "avoiding": True}]
        )
        assert payload == {"failure_count": 1}

    def test_opy(self, monkeypatch):
        monkeypatch.setattr(verify, "chromatic_of", self.moved(verify.chromatic_of))
        failure = {
            "w": "4132",
            "product": "t^4-4t^3+5t^2-2t",
            "chromatic": "t^4-4t^3+5t^2-t",
        }
        assert self.run("opy", [failure]) == {"smooth": 22, "failure_count": 1}

    def test_weak_chain(self, monkeypatch):
        # The longest element loses its covers, so it alone is unreachable:
        # nothing lies above it.
        real = verify.two_sided_weak_covers
        top = Permutation((4, 3, 2, 1))
        monkeypatch.setattr(
            verify, "two_sided_weak_covers", lambda w: set() if w == top else real(w)
        )
        payload = self.run("weak-chain", [{"w": "4321"}])
        assert payload == {"chromobruhatic": 23, "failure_count": 1}
