"""Per-layer tracing of the invlat CLI from outside the program.

``Tracer`` wraps every public module-level function of each layer module,
found by introspection, and rebinds every alias of it across the
``invlat.*`` namespaces, so ``from invlat.bruhat import interval`` in another
module is traced too.  Leaving the ``with`` block restores every name.

Each call (and each resume of a generator) is a span: name, layer, start,
end and parent span.  Spans are kept in memory in flat arrays and written
out at the end.  A layer's self time is the time its spans cover minus the
time their child spans cover.

Methods (``Permutation.__mul__``, ``SetPartition.join``, ...), private
helpers and classes are not wrapped: their time counts toward the layer of
the function that called them.

Run as a script, it traces one CLI invocation in a fresh process, the way
the benchmark's traced run uses it:

    PYTHONPATH=src python perfbench/tracer.py --spans OUT.jsonl.gz -- verify --check conjectureA --n 4
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from typing import Any, Callable, Optional

PACKAGE = "invlat"

# The modules of src/invlat that workloads exercise; golden is not one.
LAYERS = (
    "permutation",
    "patterns",
    "bruhat",
    "chromatic",
    "kernels",
    "lattice",
    "phimap",
    "verify",
    "cli",
)

NOT_WRAPPED_NOTE = (
    "methods, private helpers and classes are not wrapped; their time counts "
    "toward the layer of the calling function"
)


def _one(result) -> int:
    return 1


def _len(result) -> int:
    return len(result)


def _lattice_size(result) -> int:
    return len(result.elements)


def _interval_elements(result) -> int:
    return result if isinstance(result, int) else len(result)


# Counter hooks: (layer, function) -> [(metric, value of one call, count only
# the outermost call into the layer)].  A function that no longer exists
# leaves its metrics at 0 and is listed as absent.
COUNTERS: dict[tuple[str, str], list[tuple[str, Callable[[Any], int], bool]]] = {
    ("chromatic", "chromatic_polynomial"): [("chromatic.polys", _one, False)],
    ("kernels", "chromatic_coeffs"): [("kernels.dc_runs", _one, False)],
    ("kernels", "ryser_permanent"): [("kernels.permanents", _one, False)],
    ("bruhat", "ideal_size_table"): [("bruhat.table_entries", _len, False)],
    ("bruhat", "interval"): [("bruhat.interval_elements", _interval_elements, True)],
    ("bruhat", "distances_from"): [
        ("bruhat.interval_elements", _interval_elements, True)
    ],
    ("bruhat", "interval_size"): [
        ("bruhat.interval_elements", _interval_elements, True)
    ],
    ("lattice", "build_lattice"): [
        ("lattice.builds", _one, False),
        ("lattice.elements", _lattice_size, False),
    ],
    ("lattice", "decreasing_chains"): [("lattice.chains", _len, False)],
    ("phimap", "phi"): [("phimap.images", _one, False)],
    ("patterns", "find_occurrence"): [("patterns.containment_tests", _one, False)],
}

COUNT_METRICS = tuple(
    dict.fromkeys(metric for specs in COUNTERS.values() for metric, _, _ in specs)
)


def _is_lane(module_name: Optional[str]) -> bool:
    """A private submodule (``invlat._kernels_py``) behind a public layer."""
    return bool(module_name) and module_name.startswith(PACKAGE + "._")


def layer_functions(module) -> dict[str, Callable]:
    """Public module-level callables a layer module defines or re-exports
    from one of its private lanes; classes are excluded."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        owner = getattr(obj, "__module__", None)
        if owner == module.__name__ or _is_lane(owner):
            found[name] = obj
    return found


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and merged where they overlap, so
    the result never goes negative.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Context manager that wraps the layers, records spans and restores
    every rebound name on exit."""

    def __init__(self, layers=LAYERS, clock: Callable[[], float] = time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        self.fn_names: list[str] = []  # fid -> "layer.function"
        self.fn_layers: list[str] = []
        self.calls: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.fids = array("q")
        self.values: dict[int, tuple[int, ...]] = {}  # span -> hook values
        self.stack: list[int] = []
        self.absent_layers: list[str] = []
        self.absent_functions: list[str] = []
        self._rebound: list[tuple[Any, str, Any]] = []

    def _open(self, fid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.fids.append(fid)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        fid = len(self.fn_names)
        self.fn_names.append(f"{layer}.{name}")
        self.fn_layers.append(layer)
        self.calls.append(0)
        calls, values = self.calls, self.values
        hooks = [hook for _, hook, _ in COUNTERS.get((layer, name), ())]

        if inspect.isgeneratorfunction(fn):
            # One call, and one span per resume: iterating is the work.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hooks:
                values[idx] = tuple(hook(result) for hook in hooks)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = {}
        for layer in self.layers:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                self.absent_layers.append(layer)
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, module in modules.items():
            for name, fn in layer_functions(module).items():
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        present = set(self.fn_names)
        self.absent_functions = sorted(
            f"{layer}.{name}"
            for layer, name in COUNTERS
            if f"{layer}.{name}" not in present
        )
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, obj in list(vars(module).items()):
                    pair = wrappers.get(id(obj))
                    if pair is not None and pair[0] is obj:
                        setattr(module, attr, pair[1])
                        self._rebound.append((module, attr, obj))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    def summary(self) -> dict[str, Any]:
        """Per-layer calls and self time, plus the counter metrics."""
        metrics: dict[str, float] = {}
        for layer in dict.fromkeys(self.layers + tuple(self.fn_layers)):
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_s"] = 0.0
        for metric in COUNT_METRICS:
            metrics[metric] = 0
        for fid, count in enumerate(self.calls):
            metrics[f"{self.fn_layers[fid]}.calls"] += count
        selfs = self_times(self.starts, self.ends, self.parents)
        for idx, fid in enumerate(self.fids):
            metrics[f"{self.fn_layers[fid]}.self_s"] += selfs[idx]
        specs = [
            COUNTERS.get((self.fn_layers[fid], name.split(".", 1)[1]), ())
            for fid, name in enumerate(self.fn_names)
        ]
        for idx, values in self.values.items():
            fid = self.fids[idx]
            parent = self.parents[idx]
            nested = parent >= 0 and self.fn_layers[self.fids[parent]] == self.fn_layers[fid]
            for (metric, _, outer_only), value in zip(specs[fid], values):
                if not (outer_only and nested):
                    metrics[metric] += value
        return {
            "metrics": metrics,
            "spans": len(self.starts),
            "absent_layers": self.absent_layers,
            "absent_functions": self.absent_functions,
            "note": NOT_WRAPPED_NOTE,
        }

    def write_spans(self, path) -> None:
        """One JSON list per span: id, name, layer, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for idx, fid in enumerate(self.fids):
                row = [
                    idx,
                    self.fn_names[fid],
                    self.fn_layers[fid],
                    self.starts[idx],
                    self.ends[idx],
                    self.parents[idx],
                ]
                out.write(json.dumps(row) + "\n")


def traced_main(argv: list[str], tracer: Tracer) -> tuple[int, str]:
    """Run ``invlat.cli.main(argv)`` in process under the tracer; returns the
    exit code and the captured standard output."""
    from invlat import cli

    buffer = io.StringIO()
    with tracer, contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="gzip JSON-lines span file")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    code, output = traced_main(argv, tracer)
    result = tracer.summary()
    result["metrics"]["cli.output_bytes"] = len(output.encode())
    write_started = time.perf_counter()
    tracer.write_spans(args.spans)
    result.update(
        exit_code=code,
        output=output,
        write_s=time.perf_counter() - write_started,
    )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
