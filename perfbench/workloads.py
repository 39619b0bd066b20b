"""The benchmark's workloads: the CLI invocations each one makes and the
checks each output must pass.

The checks rest on the theorems and on counters pinned from a run of the
code, never on invlat itself: ``RankMatrixOracle`` and
``acyclic_orientations`` are the benchmark's own counts of br(w) and re(w).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

# Payload counters of passing sweeps, pinned from the code the benchmark was
# written against.  A sweep must reproduce them exactly.
SWEEP_PAYLOADS = {
    ("conjectureA", 4): {"equal": 23, "failure_count": 0},
    ("conjectureA", 8): {"equal": 11762, "failure_count": 0},
    ("phi-injective", 4): {"failure_count": 0},
    ("phi-injective", 6): {"failure_count": 0},
}


@dataclass(frozen=True)
class Sweep:
    """One exhaustive ``invlat verify`` over S_n; the seed is not used."""

    check: str
    n: int

    uses_seed = False

    def perms(self) -> int:
        return math.factorial(self.n)

    def commands(self, seed: int) -> list[list[str]]:
        return [
            [
                "verify",
                "--check",
                self.check,
                "--n",
                str(self.n),
                "--jobs",
                "1",
                "--format",
                "json",
            ]
        ]

    def check_output(self, argv: list[str], code: int, stdout: str) -> Optional[str]:
        """None if the output is right, else what is wrong with it."""
        if code != 0:
            return f"exit code {code}"
        report = json.loads(stdout)
        expected = {
            "check": self.check,
            "n": self.n,
            "population": self.perms(),
            "pass": True,
            "counterexamples": [],
            "payload": SWEEP_PAYLOADS[(self.check, self.n)],
        }
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key} = {report.get(key)!r}, expected {value!r}"
        return None


def packed_rank_matrix(word, width: int) -> int:
    """The rank matrix R[i][j] = #{m <= i : w(m) >= j}, one ``width``-bit
    field per entry with the field's top bit left free as a guard."""
    packed = 0
    n = len(word)
    for i in range(1, n + 1):
        prefix = word[:i]
        for j in range(1, n + 1):
            packed = (packed << width) | sum(1 for v in prefix if v >= j)
    return packed


class RankMatrixOracle:
    """br(w) = #{u in S_n : R_u <= R_w entrywise}, by brute force over S_n.

    One subtraction compares all entries at once: with every guard bit of
    R_w set, R_u <= R_w exactly when no field borrows from its guard.
    """

    def __init__(self, n: int):
        self.width = n.bit_length() + 1
        self.guards = 0
        for _ in range(n * n):
            self.guards = (self.guards << self.width) | (1 << (self.width - 1))
        self.packed = [
            packed_rank_matrix(p, self.width)
            for p in itertools.permutations(range(1, n + 1))
        ]

    def br(self, word) -> int:
        top = packed_rank_matrix(word, self.width) | self.guards
        guards = self.guards
        return sum(1 for u in self.packed if (top - u) & guards == guards)


def inversion_graph(word) -> list[int]:
    """Neighbour bitmasks of the inversion graph: positions i < j adjacent
    when word[i] > word[j]."""
    n = len(word)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] > word[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def acyclic_orientations(adj: list[int]) -> int:
    """re(w) = ao(w) for the graph, by inclusion-exclusion over the source
    sets of an acyclic orientation: a(S) = sum over nonempty independent
    I in S of (-1)^(|I|+1) a(S minus I)."""
    size = 1 << len(adj)
    independent = [True] * size
    signed = []
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        independent[s] = independent[rest] and not adj[low.bit_length() - 1] & rest
        if independent[s]:
            signed.append((s, 1 if s.bit_count() % 2 else -1))
    count = [1] + [0] * (size - 1)
    for s in range(1, size):
        count[s] = sum(sign * count[s ^ i] for i, sign in signed if i & s == i)
    return count[-1]


def stratified_sample(n: int, size: int, seed: int) -> list[tuple[int, ...]]:
    """``size`` permutations of S_n, one drawn uniformly from each of
    ``size`` equal strata of S_n ordered by re(w), ties in random order.

    Every permutation is equally likely to be drawn, as in a plain uniform
    sample, but the sample always spans few and many regions in the same
    proportions.  ``analyze`` maps one chain per region through phi, twice,
    so re(w) predicts its cost better than br(w) or the length; this keeps
    the sample's cost from depending on the seed.
    """
    rng = random.Random(seed)
    regions = {
        p: acyclic_orientations(inversion_graph(p))
        for p in itertools.permutations(range(1, n + 1))
    }
    order = sorted(regions, key=lambda p: (regions[p], rng.random()))
    return [
        order[rng.randrange(k * len(order) // size, (k + 1) * len(order) // size)]
        for k in range(size)
    ]


@dataclass(frozen=True)
class Sample:
    """One ``invlat analyze`` process per permutation of a seeded sample of
    S_n (n <= 9, so one-line notation is plain digits), run one after
    another."""

    n: int
    size: int

    uses_seed = True

    def perms(self) -> int:
        return self.size

    def commands(self, seed: int) -> list[list[str]]:
        return [
            ["analyze", "".join(map(str, word)), "--format", "json"]
            for word in stratified_sample(self.n, self.size, seed)
        ]

    @functools.cached_property
    def oracle(self) -> RankMatrixOracle:
        return RankMatrixOracle(self.n)

    def check_output(self, argv: list[str], code: int, stdout: str) -> Optional[str]:
        """None if the report agrees with the theorems, else the first
        disagreement."""
        if code != 0:
            return f"exit code {code}"
        report = json.loads(stdout)
        if report.get("w") != argv[1] or report.get("n") != self.n:
            return f"report is for w={report.get('w')!r}, n={report.get('n')!r}"
        word = tuple(map(int, argv[1]))
        br = self.oracle.br(word)
        if report["br"] != br:
            return f"br = {report['br']}, rank-matrix count gives {br}"
        re = acyclic_orientations(inversion_graph(word))
        counts = {
            "acyclic orientations": re,
            "re": report["re"],
            "ao": report["ao"],
            "len(phi_table)": len(report["phi_table"]),
            "sum(betti)": sum(report["betti"]),
        }
        if len(set(counts.values())) != 1:
            return f"region counts disagree: {counts}"
        if re > br:
            return f"re = {re} > br = {br}"
        if report["phi_injective"] is not True:
            return "phi is not injective"
        flags = {
            key: report[key]
            for key in ("br_equals_re", "phi_surjective", "identity_holds", "chromobruhatic")
        }
        if len(set(flags.values())) != 1 or flags["br_equals_re"] != (br == re):
            return f"equivalent conditions disagree: {flags}, br={br}, re={re}"
        return None


WORKLOADS = {
    "sweep-count": Sweep("conjectureA", 8),
    "chain-map": Sweep("phi-injective", 6),
    "analyze-sample": Sample(7, 60),
}
