"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["INVLAT_FORCE_PYTHON"] = "1"

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    RankMatrixOracle,
    Sample,
    Sweep,
    acyclic_orientations,
    inversion_graph,
)

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE = {
    "sweep-count": Sweep("conjectureA", 4),
    "chain-map": Sweep("phi-injective", 4),
    "analyze-sample": Sample(6, 3),
}

COUNT_SUFFIXES = (".calls", ".polys", ".dc_runs", ".permanents", ".table_entries",
                  ".interval_elements", ".builds", ".elements", ".chains",
                  ".images", ".containment_tests", ".output_bytes")


def test_self_times_clip_and_merge_children():
    # parent 0..10; children 1..4 and 3..6 overlap; child 9..12 is clipped.
    starts = [0.0, 1.0, 3.0, 9.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracer.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 0.5, 3, 3, 0.5])


def test_self_time_of_synthetic_nested_call():
    ticks = iter(range(100))
    t = tracer.Tracer(layers=(), clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = t._wrap("inner", "leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    t._wrap("outer", "outer", outer)()
    metrics = t.summary()["metrics"]
    # outer spans ticks 0..5, each leaf call one tick of it.
    assert metrics["outer.calls"] == 1 and metrics["inner.calls"] == 2
    assert metrics["inner.self_s"] == 2.0
    assert metrics["outer.self_s"] == 5.0 - 2.0


def namespaces() -> dict[str, dict[str, int]]:
    return {
        name: {attr: id(obj) for attr, obj in vars(module).items()}
        for name, module in sys.modules.items()
        if name == "invlat" or name.startswith("invlat.")
    }


def test_traced_run_restores_every_rebound_name():
    import invlat.bruhat
    import invlat.cli

    before = namespaces()
    t = tracer.Tracer()
    with t:
        # Aliases made by ``from invlat.bruhat import ...`` are wrapped too.
        assert invlat.cli.interval_size is invlat.bruhat.interval_size
        assert hasattr(invlat.cli.interval_size, "__wrapped__")
    code, output = tracer.traced_main(["analyze", "4132", "--format", "json"], t)
    assert code == 0 and json.loads(output)["br"] == 12
    assert namespaces() == before
    assert not hasattr(invlat.cli.interval_size, "__wrapped__")


def test_vanished_layer_is_reported_absent():
    t = tracer.Tracer(layers=("no_such_layer", "bruhat"))
    with t:
        pass
    summary = t.summary()
    assert summary["absent_layers"] == ["no_such_layer"]
    assert summary["metrics"]["no_such_layer.calls"] == 0


def test_own_counts_match_invlat():
    from invlat.bruhat import interval_size
    from invlat.chromatic import acyclic_orientations as ao
    from invlat.permutation import InversionGraph, all_permutations

    for n in (3, 5):
        oracle = RankMatrixOracle(n)
        for w in all_permutations(n):
            assert oracle.br(w.word) == interval_size(w)
            assert acyclic_orientations(inversion_graph(w.word)) == ao(InversionGraph.of(w))


def smoke_run(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, SMOKE[name])
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    return result


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_meets_the_contract(name, trace, monkeypatch, capsys):
    result = smoke_run(name, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for spec in listed:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "sweep-count":
        assert values["lattice.calls"] == values["phimap.calls"] == 0
        assert values["chromatic.polys"] > 0
    elif name == "chain-map":
        assert values["chromatic.calls"] == values["kernels.calls"] == 0
        assert values["phimap.images"] == values["lattice.chains"] > 0


def test_traced_counts_repeat_exactly(monkeypatch, capsys):
    counts = []
    for _ in range(2):
        metrics = smoke_run("analyze-sample", 1, monkeypatch, capsys)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["lattice.builds"] == 3 * 3


def test_doctored_analyze_report_is_caught():
    workload = Sample(4, 1)
    argv = ["analyze", "4132", "--format", "json"]
    child = run.run_child(["-m", "invlat.cli", *argv])
    report = json.loads(child.stdout)
    assert workload.check_output(argv, child.code, child.stdout) is None

    def doctored(**changes):
        return json.dumps({**report, **changes})

    bad = [
        doctored(br=report["br"] + 1),
        doctored(re=report["re"] - 1),
        doctored(betti=report["betti"][:-1]),
        doctored(phi_table=report["phi_table"][1:]),
        doctored(phi_injective=False),
        doctored(identity_holds=not report["identity_holds"]),
        doctored(w="1234"),
        "not json",
    ]
    for text in bad:
        assert run.checked(workload, argv, 0, text, "") is not None
    assert run.checked(workload, argv, 1, child.stdout, "boom") is not None


def test_sweep_output_checks_pin_the_payload():
    workload = Sweep("conjectureA", 4)
    argv = workload.commands(0)[0]
    child = run.run_child(["-m", "invlat.cli", *argv])
    assert workload.check_output(argv, child.code, child.stdout) is None
    report = json.loads(child.stdout)
    report["payload"]["equal"] += 1
    assert workload.check_output(argv, 0, json.dumps(report)) is not None


def test_missing_sources_exit_nonzero_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    code = run.main(["--workload", "chain-map", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
