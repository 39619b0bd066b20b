"""Frozen reference data for the permutation 4132, and its comparison with
the report that ``invlat analyze 4132`` prints.

Every value below is pinned: the hyperplane order comes from the expression
s1 s2 s3 s2, the lattice has ten elements with exactly these cover labels,
and the twelve decreasing chains map onto the whole interval.  No value is
computed again here: ``compare`` reads each one off the report of
``cli.analyze`` (the reflections via the report's reduced expression), so
the golden check pins what ``invlat analyze 4132`` prints.
"""

from __future__ import annotations

from typing import Any

from invlat.chromatic import IntPoly
from invlat.permutation import reflection_sequence

GOLDEN = {
    "w": "4132",
    "expression": [1, 2, 3, 2],
    "reflections": [[1, 2], [1, 3], [1, 4], [3, 4]],
    "br": 12,
    "re": 12,
    "lattice_elements": [
        "1|2|3|4",
        "1|2|34",
        "12|3|4",
        "13|2|4",
        "14|2|3",
        "12|34",
        "123|4",
        "124|3",
        "134|2",
        "1234",
    ],
    "lattice_covers": [
        ["1|2|3|4", "1|2|34", 4],
        ["1|2|3|4", "12|3|4", 1],
        ["1|2|3|4", "13|2|4", 2],
        ["1|2|3|4", "14|2|3", 3],
        ["1|2|34", "12|34", 1],
        ["1|2|34", "134|2", 3],
        ["12|3|4", "12|34", 4],
        ["12|3|4", "123|4", 2],
        ["12|3|4", "124|3", 3],
        ["13|2|4", "123|4", 1],
        ["13|2|4", "134|2", 4],
        ["14|2|3", "124|3", 1],
        ["14|2|3", "134|2", 4],
        ["12|34", "1234", 3],
        ["123|4", "1234", 4],
        ["124|3", "1234", 4],
        ["134|2", "1234", 1],
    ],
    "mobius": {
        "1|2|3|4": 1,
        "1|2|34": 1,
        "12|3|4": 1,
        "13|2|4": 1,
        "14|2|3": 1,
        "12|34": 1,
        "123|4": 1,
        "124|3": 1,
        "134|2": 2,
        "1234": 2,
    },
    "betti": [1, 4, 5, 2],
    "chain_table": [
        {"labels": [], "top": "1|2|3|4", "product": "e", "image": "4132"},
        {"labels": [1], "top": "12|3|4", "product": "(1 2)", "image": "1432"},
        {"labels": [1, 2], "top": "123|4", "product": "(1 2 3)", "image": "1342"},
        {"labels": [1, 2, 4], "top": "1234", "product": "(1 2 4 3)", "image": "1243"},
        {"labels": [1, 3], "top": "124|3", "product": "(1 2 4)", "image": "1234"},
        {"labels": [1, 3, 4], "top": "1234", "product": "(1 2 3 4)", "image": "1324"},
        {"labels": [1, 4], "top": "12|34", "product": "(1 2)(3 4)", "image": "1423"},
        {"labels": [2], "top": "13|2|4", "product": "(1 3)", "image": "3142"},
        {"labels": [2, 4], "top": "134|2", "product": "(1 4 3)", "image": "2143"},
        {"labels": [3], "top": "14|2|3", "product": "(1 4)", "image": "2134"},
        {"labels": [3, 4], "top": "134|2", "product": "(1 3 4)", "image": "3124"},
        {"labels": [4], "top": "1|2|34", "product": "(3 4)", "image": "4123"},
    ],
    "chromatic_text": "t^4-4t^3+5t^2-2t",
    "chromatic_coeffs": [0, -2, 5, -4, 1],
    "opy_exponents": [0, 1, 1, 2],
    "distance_text": "2q^3+5q^2+4q+1",
    "distance_coeffs": [1, 4, 5, 2],
    "identity_holds": True,
    "injective": True,
    "surjective": True,
}


def fixture_view(report: dict[str, Any]) -> dict[str, Any]:
    """The fields of an ``analyze`` report that the fixture pins, in its
    shape."""
    lattice = report["lattice"]
    return {
        "w": report["w"],
        "expression": report["reduced_expression"],
        "reflections": [
            [t.i, t.j]
            for t in reflection_sequence(report["n"], report["reduced_expression"])
        ],
        "br": report["br"],
        "re": report["re"],
        "lattice_elements": lattice["elements"],
        "lattice_covers": lattice["covers"],
        "mobius": lattice["mobius"],
        "betti": report["betti"],
        "chain_table": [
            {
                "labels": row["labels"],
                "top": row["chain"][-1],
                "product": row["product"],
                "image": row["image"],
            }
            for row in report["phi_table"]
        ],
        "chromatic_text": report["chromatic"]["text"],
        "chromatic_coeffs": report["chromatic"]["coeffs"],
        "opy_exponents": report["opy_exponents"],
        "distance_text": report["distance_poly"]["text"],
        "distance_coeffs": report["distance_poly"]["coeffs"],
        "identity_holds": report["identity_holds"],
        "injective": report["phi_injective"],
        "surjective": report["phi_surjective"],
    }


def compare(report: dict[str, Any]) -> tuple[bool, list[str], dict[str, Any]]:
    """Diff the ``analyze`` report of 4132 against the fixture; also
    cross-pins the smooth product formula against the chromatic polynomial."""
    actual = fixture_view(report)
    diffs = []
    for key in GOLDEN:
        if actual.get(key) != GOLDEN[key]:
            diffs.append(f"{key}: expected {GOLDEN[key]!r}, got {actual.get(key)!r}")
    product = IntPoly.from_roots(report["opy_exponents"] or ())
    if product.to_json() != report["chromatic"]["coeffs"]:
        diffs.append("smooth product formula disagrees with the chromatic polynomial")
    return (not diffs, diffs, actual)
