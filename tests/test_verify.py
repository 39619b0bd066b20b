import sys

import pytest

from interval_oracle import hull_fillings, hull_rows
from invlat import verify
from invlat.bruhat import _dominated_sets, interval_size
from invlat.patterns import is_chromobruhatic
from invlat.permutation import Permutation
from util import all_perms


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

    def test_conjecture_a_equal_count_at_n7(self):
        report = verify.run_check("conjectureA", 7)
        assert report.passed
        assert report.payload == {"equal": 2343, "failure_count": 0}

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
        def failing_check(n, options):
            scan = verify._Scan()
            scan.failures = [{"w": str(i)} for i in range(25)]
            return scan

        monkeypatch.setitem(verify.CHECKS, "synthetic", failing_check)
        monkeypatch.setitem(verify.CHECK_CEILINGS, "synthetic", 4)
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
