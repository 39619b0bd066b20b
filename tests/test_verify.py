import pytest

from invlat import verify


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

    def test_hull_vs_standard_computes_each_hull_once(self, monkeypatch):
        import invlat.bruhat

        hulls = []
        real = invlat.bruhat.right_hull

        def counting(w):
            hulls.append(w)
            return real(w)

        monkeypatch.setattr(invlat.bruhat, "right_hull", counting)
        invlat.bruhat._avoiding_hull.cache_clear()
        report = verify.run_check("hull-vs-standard", 4)
        assert report.passed
        assert len(hulls) == len(set(hulls)) == report.population - 1

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

    def test_summary_line(self):
        report = verify.run_check("weak-chain", 3)
        assert report.summary().startswith("PASS weak-chain n=3")
