"""Frozen reference data for the permutation 4132 and the comparison that
the ``golden`` CLI command runs.

Every value below is pinned: the hyperplane order comes from the expression
s1 s2 s3 s2, the lattice has ten elements with exactly these cover labels,
and the twelve decreasing chains map onto the whole interval.
"""

from __future__ import annotations

from typing import Any

from invlat.bruhat import interval_size
from invlat.chromatic import (
    chi_distance_transform,
    chromatic_of,
    distance_poly,
    opy_chromatic,
)
from invlat.lattice import betti_numbers, build_lattice, mobius_values
from invlat.permutation import Permutation, opy_exponents, reduced_expression
from invlat.phimap import is_injective, missed_elements, phi_table

GOLDEN_WORD = "4132"
GOLDEN_EXPRESSION = (1, 2, 3, 2)

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


def generate() -> dict[str, Any]:
    """Recompute every golden quantity from scratch, in the fixture's shape."""
    w = Permutation((4, 1, 3, 2))
    lattice = build_lattice(w, GOLDEN_EXPRESSION)
    mu = mobius_values(lattice)
    table = phi_table(w, lattice=lattice)
    chi = chromatic_of(w)
    dpoly = distance_poly(w)
    return {
        "w": str(w),
        "expression": list(GOLDEN_EXPRESSION),
        "reflections": [[t.i, t.j] for t in lattice.hyperplanes],
        "br": interval_size(w),
        "re": sum(mu.values()),
        "lattice_elements": [str(x) for x in lattice.elements],
        "lattice_covers": [
            [str(a), str(b), label] for a, b, label in lattice.cover_labels()
        ],
        "mobius": {str(x): value for x, value in mu.items()},
        "betti": list(betti_numbers(lattice)),
        "chain_table": [
            {
                "labels": list(entry.chain.labels),
                "top": str(entry.chain.top),
                "product": entry.product.cycle_string(),
                "image": str(entry.image),
            }
            for entry in table
        ],
        "chromatic_text": chi.text("t"),
        "chromatic_coeffs": chi.to_json(),
        "opy_exponents": list(opy_exponents(w)),
        "distance_text": dpoly.text("q"),
        "distance_coeffs": dpoly.to_json(),
        "identity_holds": dpoly == chi_distance_transform(chi, w.n),
        "injective": is_injective(table),
        "surjective": not missed_elements(w, table),
    }


def compare() -> tuple[bool, list[str], dict[str, Any]]:
    """Regenerate and diff against the fixture; also cross-pins the canonical
    expression and the smooth product formula for 4132."""
    actual = generate()
    diffs = []
    for key in GOLDEN:
        if actual.get(key) != GOLDEN[key]:
            diffs.append(f"{key}: expected {GOLDEN[key]!r}, got {actual.get(key)!r}")
    w = Permutation((4, 1, 3, 2))
    if reduced_expression(w) != GOLDEN_EXPRESSION:
        diffs.append(
            f"canonical expression {reduced_expression(w)!r} != {GOLDEN_EXPRESSION!r}"
        )
    if opy_chromatic(w) != chromatic_of(w):
        diffs.append("smooth product formula disagrees with deletion-contraction")
    if len(GOLDEN["chain_table"]) != 12:
        diffs.append("fixture chain table must have 12 rows")
    return (not diffs, diffs, actual)
