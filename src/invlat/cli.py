"""Command-line front end: analyze one permutation, verify a property over
all of S_n, or replay the frozen 4132 reference data.

Exit codes: 0 all pass, 1 property failure, 2 usage error, 141 when the
reader of standard output goes away (as the shell reports a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Optional

from invlat import golden as golden_mod
from invlat import verify as verify_mod
from invlat.bruhat import (
    _prefix_sets,
    _word_leq,
    distances_from,
    interval_size,
    missed_elements,
)
from invlat.chromatic import (
    betti_numbers,
    chi_distance_transform,
    chromatic_of,
    distance_poly,
)
from invlat.lattice import build_lattice, mobius_values, partition_text
from invlat.patterns import (
    CHROMOBRUHATIC_PATTERNS,
    find_reduction_pair,
    is_smooth,
    witness_below,
    contains,
)
from invlat.permutation import (
    Permutation,
    format_one_line,
    opy_exponents,
    parse_permutation,
    record_positions,
    reduced_expression,
)


def analyze(w: Permutation) -> dict[str, Any]:
    """Everything this package knows about one permutation, as a JSON-ready
    dict with pinned key order.

    The lattice walks the decreasing chains once and keeps them, each with
    its image under the chain map and its top as an element index; the phi
    table and the Mobius cross-check both read those chains.  Each image
    is tested as a word against w's prefix sets (Ehresmann's criterion),
    read once for w, and raises when it is not below w, as a labelling bug.
    """
    expr = reduced_expression(w)
    lattice = build_lattice(w, expr)
    names = [partition_text(w.n, x) for x in lattice.elements]
    # The chains are in depth-first preorder, so a chain of length m extends
    # the first m + 1 elements of the last chain of length m - 1.  A chain
    # C's product p(C) is its image times w^-1.
    w_inverse = w.inverse().word
    prefix_sets = _prefix_sets(w)
    rows, images, path = [], set(), []
    for labels, image, top in lattice.chains:
        if not _word_leq(image, prefix_sets):
            raise RuntimeError(
                f"phi image {format_one_line(image)} of the chain {labels} "
                f"is not below {w}"
            )
        images.add(image)
        del path[len(labels) :]
        path.append(names[top])
        product = Permutation._trusted(tuple(w_inverse[v - 1] for v in image))
        rows.append(
            {
                "labels": list(labels),
                "chain": list(path),
                "product": product.cycle_string(),
                "image": format_one_line(image),
            }
        )
    mu = mobius_values(lattice)
    re = sum(mu)
    chi = chromatic_of(w)
    dpoly = distance_poly(w)
    ao = abs(chi(-1))
    br = interval_size(w)
    smooth = is_smooth(w)
    contained = [str(p) for p in CHROMOBRUHATIC_PATTERNS if contains(w, p)]
    injective = len(images) == len(rows)
    missed = missed_elements(w, images)
    surjective = not missed

    report: dict[str, Any] = {
        "schema_version": 1,
        "w": str(w),
        "n": w.n,
        "length": w.length(),
        "absolute_length": w.absolute_length(),
        "inversions": [[t.i, t.j] for t in w.inversions()],
        "reduced_expression": list(expr),
        "record_positions": list(record_positions(w)),
        "chromobruhatic": not contained,
        "smooth": smooth,
        "contained_patterns": contained,
        "br": br,
        "re": re,
        "ao": ao,
        "br_equals_re": br == re,
        "chromatic": {"text": chi.text("t"), "coeffs": chi.to_json()},
        "distance_poly": {"text": dpoly.text("q"), "coeffs": dpoly.to_json()},
        "identity_holds": dpoly == chi_distance_transform(chi, w.n),
        "betti": list(betti_numbers(chi)),
        "opy_exponents": list(opy_exponents(w)) if smooth else None,
        "lattice": {
            "elements": names,
            "covers": [
                [names[i], names[j], label]
                for i, ups in enumerate(lattice.covers_up)
                for j, label in ups
            ],
            "mobius": dict(zip(names, mu)),
        },
        "phi_table": rows,
        "phi_injective": injective,
        "phi_surjective": surjective,
        "phi_missed": [str(u) for u in missed],
    }

    pair = find_reduction_pair(w)
    report["reduction_pair"] = (
        None
        if pair is None
        else {
            "target": pair[0],
            "target_word": str(pair[1]),
            "kind": pair[2].kind,
            "x": list(pair[2].x),
            "y": list(pair[2].y),
        }
    )

    witness = witness_below(w)
    if witness is None:
        report["witness"] = None
    else:
        dist = distances_from(w)
        uwinv = witness.u * w.inverse()
        report["witness"] = {
            "u": str(witness.u),
            "pattern": str(witness.pattern),
            "positions": list(witness.positions),
            "absolute_length": uwinv.absolute_length(),
            "directed_distance": dist[witness.u.word],
        }
    return report


def _render_analysis(report: dict[str, Any]) -> str:
    lines = [
        f"w = {report['w']}  (n = {report['n']})",
        f"length = {report['length']}, absolute length = {report['absolute_length']}",
        "inversions = "
        + (
            " ".join(f"({i} {j})" for i, j in report["inversions"])
            if report["inversions"]
            else "none"
        ),
        "reduced expression = "
        + (
            " ".join(f"s{a}" for a in report["reduced_expression"])
            if report["reduced_expression"]
            else "e"
        ),
        f"avoids 4231/35142/42513/351624: {report['chromobruhatic']}"
        + (
            ""
            if not report["contained_patterns"]
            else f"  (contains {', '.join(report['contained_patterns'])})"
        ),
        f"smooth (avoids 3412/4231): {report['smooth']}",
        f"br = {report['br']}, re = {report['re']}, ao = {report['ao']}"
        + ("" if report["br_equals_re"] else "  [br != re]"),
        f"chromatic polynomial = {report['chromatic']['text']}",
        f"distance polynomial  = {report['distance_poly']['text']}",
        f"distance identity holds: {report['identity_holds']}",
        f"betti numbers = {report['betti']}",
    ]
    if report["opy_exponents"] is not None:
        lines.append(f"record exponents = {report['opy_exponents']}")
    lines.append(
        f"lattice: {len(report['lattice']['elements'])} elements, "
        f"{len(report['lattice']['covers'])} covers"
    )
    lines.append(
        f"phi: injective={report['phi_injective']} surjective={report['phi_surjective']}"
        + (
            ""
            if not report["phi_missed"]
            else f" missed={','.join(report['phi_missed'])}"
        )
    )
    if report["reduction_pair"] is not None:
        p = report["reduction_pair"]
        lines.append(
            f"reduction pair: {p['kind']} at x={tuple(p['x'])} y={tuple(p['y'])} "
            f"in {p['target']} = {p['target_word']}"
        )
    else:
        lines.append("reduction pair: none")
    if report["witness"] is not None:
        v = report["witness"]
        lines.append(
            f"witness below: u = {v['u']} from pattern {v['pattern']} at "
            f"{tuple(v['positions'])}; distance {v['directed_distance']} > "
            f"absolute length {v['absolute_length']}"
        )
    lines.append("phi table (labels | product | image):")
    for row in report["phi_table"]:
        word = "".join(f"t{j}" for j in row["labels"]) or "-"
        lines.append(f"  {word:<10} {row['product']:<14} {row['image']}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    try:
        w = parse_permutation(args.permutation)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = analyze(w)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_render_analysis(report))
    return 0


def _cmd_verify(args) -> int:
    try:
        report = verify_mod.run_check(
            args.check,
            args.n,
            expr=args.expr,
            cap=None if args.all_counterexamples else args.max_counterexamples,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.summary())
        for key, value in report.payload.items():
            print(f"  {key} = {value}")
        for item in report.counterexamples:
            print(f"  counterexample: {item}")
        if report.truncated:
            print("  (counterexample list truncated; use --all-counterexamples)")
    return 0 if report.passed else 1


def _cmd_golden(args) -> int:
    started = time.perf_counter()
    w = parse_permutation(golden_mod.GOLDEN["w"])
    ok, diffs, actual = golden_mod.compare(analyze(w))
    elapsed = time.perf_counter() - started
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema_version": 1,
                    "check": "golden",
                    "n": 4,
                    "population": 1,
                    "pass": ok,
                    "counterexamples": diffs,
                    "payload": {
                        "w": actual["w"],
                        "br": actual["br"],
                        "re": actual["re"],
                        "chains": len(actual["chain_table"]),
                        "lattice_elements": len(actual["lattice_elements"]),
                    },
                    "elapsed_s": elapsed,
                },
                indent=2,
            )
        )
    else:
        status = "PASS" if ok else "FAIL"
        print(f"{status} golden 4132 reference ({elapsed:.3f}s)")
        for diff in diffs:
            print(f"  mismatch {diff}")
    return 0 if ok else 1


EXIT_BROKEN_PIPE = 141


def _int_at_least(low: int):
    """argparse type for an integer flag that must be >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlat",
        description=(
            "Bruhat intervals, inversion arrangements and chromatic identities "
            "for permutations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="full report for one permutation in one-line notation"
    )
    p_analyze.add_argument("permutation", help="e.g. 4132, or 10,1,2,... for n >= 10")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="exhaustive check over all of S_n")
    p_verify.add_argument(
        "--check", required=True, choices=sorted(verify_mod.CHECKS)
    )
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="ignored: checks run on one thread; kept so existing command "
        "lines that pass it still work",
    )
    p_verify.add_argument(
        "--expr",
        choices=("canonical", "all"),
        default="canonical",
        help="which reduced expressions seed the hyperplane order (phi-injective)",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--max-counterexamples",
        type=_int_at_least(0),
        default=verify_mod.DEFAULT_COUNTEREXAMPLE_CAP,
    )
    p_verify.add_argument("--all-counterexamples", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_golden = sub.add_parser(
        "golden", help="diff the report of analyze 4132 against the frozen data"
    )
    p_golden.add_argument("--format", choices=("text", "json"), default="text")
    p_golden.set_defaults(func=_cmd_golden)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at /dev/null so the flush at
        # interpreter exit cannot raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
