import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invlat import verify
from invlat.bruhat import distances_from
from invlat.cli import analyze, main
from invlat.permutation import Permutation, parse_permutation
from util import all_perms, corrupt_second_hyperplane


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "1234", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["br"] == 1 and data["re"] == 1
        assert data["chromatic"]["text"] == "t^4"

    def test_4132_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "4132", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["br"] == 12 and data["re"] == 12 and data["ao"] == 12
        assert data["chromatic"]["text"] == "t^4-4t^3+5t^2-2t"
        assert data["distance_poly"]["text"] == "2q^3+5q^2+4q+1"
        assert data["identity_holds"] is True
        assert data["betti"] == [1, 4, 5, 2]
        assert data["opy_exponents"] == [0, 1, 1, 2]
        assert len(data["phi_table"]) == 12
        assert len(data["lattice"]["elements"]) == 10
        assert data["phi_injective"] and data["phi_surjective"]

    def test_4231_flags_inequality(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "4231", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["br"] == 20 and data["re"] == 18
        assert data["br_equals_re"] is False
        assert data["witness"]["u"] == "1324"
        assert data["witness"]["directed_distance"] > data["witness"]["absolute_length"]
        assert data["reduction_pair"] is None
        assert data["phi_missed"] == ["1324", "2314"]

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "4231")
        assert code == 0
        assert "br = 20, re = 18" in out
        assert "[br != re]" in out
        assert "witness below: u = 1324" in out

    def test_parse_failure_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "41x2")
        assert code == 2
        assert "'x'" in err

    def test_analyze_function_matches_cli(self):
        report = analyze(Permutation((4, 1, 3, 2)))
        assert report["re"] == 12

    def test_analyze_builds_one_lattice(self, monkeypatch):
        # One lattice, which walks the decreasing chains once and keeps
        # them for the chain map and the Mobius cross-check both.
        import invlat.cli
        import invlat.lattice

        builds, walks = [], []
        real_build = invlat.cli.build_lattice
        real_walk = invlat.lattice._chain_walk

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        def counting_walk(*args):
            walks.append(args)
            return real_walk(*args)

        monkeypatch.setattr(invlat.cli, "build_lattice", counting_build)
        for name, module in list(sys.modules.items()):
            if name.startswith("invlat") and hasattr(module, "_chain_walk"):
                monkeypatch.setattr(module, "_chain_walk", counting_walk)
        report = analyze(Permutation((4, 2, 3, 1)))
        assert len(builds) == len(walks) == 1
        assert report["re"] == len(report["phi_table"]) == 18

    def test_analyze_runs_one_bfs(self):
        # 4231 contains a pattern, so the distance polynomial, the missed
        # elements and the witness all read the interval's distances.
        distances_from.cache_clear()
        report = analyze(Permutation((4, 2, 3, 1)))
        assert report["witness"] is not None and report["phi_missed"]
        info = distances_from.cache_info()
        assert info.misses == 1 and info.hits >= 2

    @pytest.mark.parametrize(
        "population, expected",
        [
            ("S_1..S_5", "2ba3fa135b821fb34711a0baab8eca04962e299e5fe37e68ab2429e4439985a2"),
            ("918273645", "53267672a341b997ecf55b97a60d12747661948392adba9463f216ce4f92a1e2"),
            # All 4140 set partitions of 8 points and 40320 chains.
            ("87654321", "56b49112cc5154ccbe0bd4341d283ecedae933e35de6a93523aac2984686405c"),
            # n >= 10: points print with commas between them.
            ("2,1,3,4,5,6,7,8,10,9", "aa28b5509c71e0bb24d56732d6a6cb348caabbf280fa1f7c8650f2aa8a620e8e"),
        ],
    )
    def test_json_is_pinned(self, population, expected):
        # SHA-256 of each report's `analyze --format json` text plus a
        # newline, in lexicographic order: any change to a value, a key or
        # their order shows here.
        if population == "S_1..S_5":
            perms = [w for n in range(1, 6) for w in all_perms(n)]
        else:
            perms = [parse_permutation(population)]
        digest = hashlib.sha256()
        for w in perms:
            digest.update(json.dumps(analyze(w), indent=2).encode() + b"\n")
        assert digest.hexdigest() == expected


class TestVerifyCommand:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "conjectureA", "--n", "4")
        assert code == 0
        assert out.startswith("PASS conjectureA n=4")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "conjectureB", "--n", "4", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["pass"] is True
        assert data["payload"]["avoiding"] == 23

    def test_jobs_flag(self, capsys):
        # Still parsed so existing command lines work, and ignored.
        args = ("verify", "--check", "going-down", "--n", "4", "--format", "json")
        code, out, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code == 0
        _, plain, _ = run_cli(capsys, *args)
        a, b = json.loads(out), json.loads(plain)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b

    def test_expr_all(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "phi-injective", "--n", "3", "--expr", "all",
        )
        assert code == 0

    def test_unknown_check_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "bogus", "--n", "3"])
        assert exc.value.code == 2

    def test_ceiling_exceeded_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--check", "characterization", "--n", "9"
        )
        assert code == 2
        assert "accepts" in err

    def test_failure_exit_1(self, capsys, monkeypatch):
        def failing_scan(n, expr):
            return [({"w": "none"}, {})]

        monkeypatch.setitem(verify.CHECKS, "conjectureA", (8, failing_scan))
        code, out, _ = run_cli(capsys, "verify", "--check", "conjectureA", "--n", "3")
        assert code == 1
        assert out.startswith("FAIL")

    @pytest.mark.parametrize(
        "check, reason",
        [
            ("phi-injective", "image 3412 is not below w"),
            ("phi-surjective-iff", "image 3412 is not below w"),
            ("going-down", "t2 does not go down from 4132"),
        ],
    )
    def test_chain_check_reports_image_not_below_w(
        self, capsys, monkeypatch, check, reason
    ):
        # A counterexample and exit 1, not a traceback.
        corrupt_second_hyperplane(monkeypatch)
        code, out, _ = run_cli(
            capsys, "verify", "--check", check, "--n", "4", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["payload"]["failure_count"] == 1
        failure = report["counterexamples"][0]
        assert failure["w"] == "4132" and failure["labels"] == [1, 2]
        assert failure["reason"] == reason

    def test_reproducible_json(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "--check", "betti", "--n", "4", "--format", "json"
        )
        _, out2, _ = run_cli(
            capsys, "verify", "--check", "betti", "--n", "4", "--format", "json"
        )
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b


    @pytest.mark.parametrize(
        "flag, value",
        [("--jobs", "0"), ("--jobs", "-3"), ("--jobs", "two"),
         ("--max-counterexamples", "-1"), ("--max-counterexamples", "1.5")],
    )
    def test_bad_integer_flag_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "opy", "--n", "3", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_cap_passing_run_not_truncated(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "opy", "--n", "3",
            "--max-counterexamples", "0", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["counterexamples"] == []
        assert data["counterexamples_truncated"] is False


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv",
    [["analyze", "4132"], ["verify", "--check", "opy", "--n", "3"], ["golden"]],
)
def test_closed_pipe_exits_quietly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "invlat.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # Closed before the child has written anything, so its first write fails.
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 141
    assert err == ""


class TestGoldenCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "golden")
        assert code == 0
        assert out.startswith("PASS golden")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["payload"]["chains"] == 12
        assert data["payload"]["lattice_elements"] == 10
        assert data["schema_version"] == 1


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_phi_checks_flag_is_gone(self):
        # The table always tests each image against w.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "4132", "--no-phi-checks"])
        assert exc.value.code == 2

    def test_bad_format_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "4132", "--format", "xml"])
        assert exc.value.code == 2
