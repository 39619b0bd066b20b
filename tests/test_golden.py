import copy

from invlat import cli
from invlat.golden import GOLDEN, compare, fixture_view
from invlat.permutation import Permutation

W4132 = Permutation((4, 1, 3, 2))


def test_fixture_shape():
    assert len(GOLDEN["lattice_elements"]) == 10
    assert len(GOLDEN["lattice_covers"]) == 17
    assert len(GOLDEN["chain_table"]) == 12
    assert GOLDEN["br"] == GOLDEN["re"] == 12


def test_regenerated_data_matches_fixture():
    ok, diffs, actual = compare(cli.analyze(W4132))
    assert ok, diffs
    assert actual == GOLDEN


def test_fixture_view_is_deterministic():
    assert fixture_view(cli.analyze(W4132)) == fixture_view(cli.analyze(W4132))


def test_chain_images_cover_interval():
    images = {row["image"] for row in GOLDEN["chain_table"]}
    assert len(images) == 12


def _run_golden_with(monkeypatch, capsys, alter):
    """Run ``invlat golden`` on an ``analyze`` whose report ``alter`` edits."""
    real = cli.analyze

    def altered(w):
        report = copy.deepcopy(real(w))
        alter(report)
        return report

    monkeypatch.setattr(cli, "analyze", altered)
    code = cli.main(["golden"])
    return code, capsys.readouterr().out


def test_golden_command_diffs_the_analyze_report(monkeypatch, capsys):
    def relabel_first_cover(report):
        assert report["lattice"]["covers"][0] == ["1|2|3|4", "1|2|34", 4]
        report["lattice"]["covers"][0][2] = 3

    code, out = _run_golden_with(monkeypatch, capsys, relabel_first_cover)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL golden 4132 reference")
    assert len(lines) == 2
    assert lines[1].startswith("  mismatch lattice_covers: expected ")
    assert "['1|2|3|4', '1|2|34', 3]" in lines[1]


def test_golden_command_cross_pins_the_product_formula(monkeypatch, capsys):
    def perturb_chromatic(report):
        report["chromatic"]["coeffs"] = [0, -2, 5, -3, 1]

    code, out = _run_golden_with(monkeypatch, capsys, perturb_chromatic)
    assert code == 1
    mismatches = [line.split(":")[0] for line in out.splitlines()[1:]]
    assert mismatches == [
        "  mismatch chromatic_coeffs",
        "  mismatch smooth product formula disagrees with the chromatic polynomial",
    ]
