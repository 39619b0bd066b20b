"""End-to-end and per-layer benchmark of the invlat CLI.

    python3 perfbench/run.py --workload sweep-count --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout, with nothing else running.  Every
CLI invocation is a child process run from ``src/`` on the pure-Python
kernel lane, one at a time on one CPU, and every output is checked (see
``workloads.py``).  Times are in nominal seconds (see ``SpeedProbe``).

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics.  ``--trace 1`` runs it once untraced and once under
``tracer.py`` and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, every metric with its unit and sample count, and the
failure ratio.  The exit code is nonzero if any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Interpreter start plus ``import invlat.cli``, the cost of every CLI call.
SETUP_ARGV = [
    "-c",
    "import sys, invlat.cli; "
    "print(getattr(sys.modules.get('invlat.kernels'), 'IMPLEMENTATION', 'absent'))",
]
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0

PROBE_PERIOD_S = 0.01
PROBE_LOOP = 5_000
# The probe loop's time on an uncontended core of the machine the benchmark
# was written on (2 vCPUs, Python 3.11): a nominal second is a wall second
# there.  Elsewhere the two differ by a constant factor, which cancels when
# two commits are compared on one machine.
PROBE_NOMINAL_S = 0.165e-3


@dataclass
class Child:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    started: float
    ended: float
    maxrss_mb: float

    @property
    def raw_s(self) -> float:
        return self.ended - self.started


def _spin(count: int) -> int:
    total = 0
    for i in range(count):
        total += i
    return total


class SpeedProbe:
    """How fast the CPU that runs the children is going, sampled while they run.

    On a shared host a vCPU runs Python up to ~1.9x slower, for seconds or
    minutes at a time, while another tenant shares its core, so the raw wall
    time of one CLI call varies by up to half from run to run.  A thread
    pinned to the children's CPU times a fixed loop every ``PROBE_PERIOD_S``
    (costing the child ~2%).  A call's slowdown is the mean loop time during
    the call over ``PROBE_NOMINAL_S``; its time in nominal seconds is its wall
    time divided by that slowdown.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PROBE_PERIOD_S):
            # CPU time of this thread, so that a loop preempted by a child
            # does not count the child's time slice.
            started, cpu = time.perf_counter(), time.thread_time()
            _spin(PROBE_LOOP)
            self.samples.append((started, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, started: float, ended: float) -> float:
        inside = [d for t, d in self.samples if started <= t <= ended]
        if not inside:  # shorter than one probe period: take the nearest
            middle = (started + ended) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.mean(inside) / PROBE_NOMINAL_S

    def seconds(self, child: Child) -> float:
        """The child's time in nominal seconds."""
        return child.raw_s / self.slowdown(child.started, child.ended)


@contextlib.contextmanager
def pinned(cpu: int):
    """Run this thread, and every child it starts, on one CPU."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        INVLAT_FORCE_PYTHON="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` from the checkout root, read all of its output,
    then reap it with ``wait4`` for its own peak RSS."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        argv=args,
        code=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=b"".join(errors).decode(errors="replace"),
        started=started,
        ended=ended,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, argv: list[str], problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"invlat {' '.join(argv)}: {problem}")


def checked(workload, argv: list[str], code: int, stdout: str, stderr: str) -> Optional[str]:
    try:
        problem = workload.check_output(argv, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable or malformed report
        problem = f"malformed output: {exc!r}"
    if problem is not None and stderr.strip():
        problem += " | stderr: " + stderr.strip().splitlines()[-1]
    return problem


def run_cli(workload, argv: list[str], tally: Tally) -> Child:
    child = run_child(["-m", "invlat.cli", *argv])
    tally.record(argv, checked(workload, argv, child.code, child.stdout, child.stderr))
    return child


def run_pass(workload, commands, tally: Tally) -> list[Child]:
    return [run_cli(workload, argv, tally) for argv in commands]


def quartiles(values: list[float]) -> tuple[float, float]:
    """Median and upper quartile; a single value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def measure_setup() -> tuple[list[Child], str]:
    """Several cold starts, and the kernel lane they report."""
    runs = [run_child(SETUP_ARGV) for _ in range(SETUP_REPEATS)]
    for run in runs:
        if run.code != 0:
            raise SystemExit(f"cannot import invlat.cli: {run.stderr.strip()}")
    return runs, runs[0].stdout.strip()


def run_passes(workload, commands, seconds: float, tally: Tally) -> list[list[Child]]:
    """Whole passes over the workload while another one fits in ``seconds``
    (at least one)."""
    passes: list[list[Child]] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(workload, commands, tally))
        last = time.perf_counter() - pass_started
        if time.perf_counter() - started + last > seconds:
            return passes


def end_to_end_metrics(workload, passes, setup: list[Child], probe: SpeedProbe) -> dict:
    """Medians over passes; per call, the median over passes of each
    command, then quantiles over commands."""
    walls = [sum(probe.seconds(c) for c in p) for p in passes]
    wall = statistics.median(walls)
    ncall = len(passes[0])
    per_call = [statistics.median(probe.seconds(p[k]) for p in passes) for k in range(ncall)]
    p50, p75 = quartiles(per_call)
    raw = statistics.median(sum(c.raw_s for c in p) for p in passes)
    npass = len(passes)
    perms = workload.perms()
    return {
        "wall_s": (wall, "s", f"median of {npass} passes; {raw:.6g} s of wall time"),
        "perms_per_s": (perms / wall, "1/s", f"{perms} perms / median pass"),
        "peak_rss_mb": (
            max(c.maxrss_mb for p in passes for c in p),
            "MB",
            f"max over {npass * ncall} children",
        ),
        "call_p50_s": (p50, "s", f"{ncall} calls"),
        "call_p75_s": (p75, "s", f"{ncall} calls"),
        "setup_s": (
            statistics.median(probe.seconds(r) for r in setup),
            "s",
            f"median of {len(setup)} starts",
        ),
    }


def run_traced(workload, commands, tally: Tally, span_dir: Path):
    """One untraced pass, then one pass with each call under ``tracer.py``."""
    untraced = run_pass(workload, commands, tally)
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced = []
    for k, argv in enumerate(commands):
        path = span_dir / f"{k:04d}.jsonl.gz"
        child = run_child([str(HERE / "tracer.py"), "--spans", str(path), "--", *argv])
        try:
            result = json.loads(child.stdout)
        except ValueError:
            tally.record(argv, f"tracer failed (exit {child.code}): {child.stderr.strip()[-300:]}")
            continue
        tally.record(argv, checked(workload, argv, result["exit_code"], result["output"], ""))
        traced.append((child, result))
    return untraced, traced


def traced_metrics(untraced: list[Child], traced, probe: SpeedProbe) -> dict:
    """Per-layer metrics summed over the traced calls (times in nominal
    seconds like every other time), and the tracing overhead."""
    totals: dict[str, float] = {}
    traced_wall = 0.0
    for child, result in traced:
        slowdown = probe.slowdown(child.started, child.ended)
        traced_wall += (child.raw_s - result["write_s"]) / slowdown
        for name, value in result["metrics"].items():
            if name.endswith("_s"):
                value /= slowdown
            totals[name] = totals.get(name, 0) + value
    units = {"calls": "count", "self_s": "s", "output_bytes": "B"}
    samples = f"{len(traced)} traced calls"
    metrics = {
        name: (value, units.get(name.split(".", 1)[1], "count"), samples)
        for name, value in totals.items()
    }
    polys = totals.get("chromatic.polys", 0)
    hits = polys - totals.get("kernels.dc_runs", 0)
    metrics["chromatic.memo_hit_ratio"] = (
        hits / polys if polys else 0.0,
        "ratio",
        f"base chromatic.polys = {polys}",
    )
    untraced_wall = sum(probe.seconds(c) for c in untraced)
    metrics["trace.overhead_ratio"] = (
        traced_wall / untraced_wall,
        "ratio",
        f"traced {traced_wall:.3f} s / untraced {untraced_wall:.3f} s",
    )
    return metrics


def environment(workload_name: str, workload, seed: int, kernels: str, cpu: int) -> dict:
    git_head = None
    if (ROOT / ".git").exists():
        try:
            git_head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
        except FileNotFoundError:
            pass
    return {
        "workload": workload_name,
        "git_sha": git_head,
        "python": platform.python_version(),
        "kernels": kernels,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
        "seed_used": workload.uses_seed,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="invlat end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invlat" / "cli.py").is_file():
        print(f"error: no invlat sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    tally = Tally()
    cpu = max(os.sched_getaffinity(0))
    with pinned(cpu), SpeedProbe(cpu) as probe:
        setup, kernels = measure_setup()
        print("env", json.dumps(environment(args.workload, workload, args.seed, kernels, cpu)))
        if not workload.uses_seed:
            print("env: the seed is not used; this workload is exhaustive over S_n")
        if args.trace:
            span_dir = OUT / "spans" / args.workload
            untraced, traced = run_traced(workload, commands, tally, span_dir)
        else:
            passes = run_passes(workload, commands, args.seconds, tally)
    if args.trace:
        metrics = traced_metrics(untraced, traced, probe)
        results = [result for _, result in traced]
        absent = sorted({a for r in results for a in r["absent_layers"] + r["absent_functions"]})
        print(f"trace: {sum(r['spans'] for r in results)} spans in {span_dir.relative_to(ROOT)}")
        print(f"trace: {results[0]['note'] if results else ''}")
        print(f"trace: absent layers or functions: {absent or 'none'}")
    else:
        metrics = end_to_end_metrics(workload, passes, setup, probe)
    loop = statistics.median(d for _, d in probe.samples)
    print(
        f"probe: cpu {cpu}, {len(probe.samples)} loops, median {loop * 1e3:.4f} ms "
        f"against {PROBE_NOMINAL_S * 1e3:.4f} ms nominal; times are in nominal seconds"
    )

    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({samples})")
    ratio = tally.failed / tally.attempted
    print(f"fail_ratio = {ratio:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
