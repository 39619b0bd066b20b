"""Exhaustive desk-scale verification checks over all of S_n.

Each check scans the whole symmetric group in lexicographic order and
reports counterexamples.  Each check computes its per-permutation data once,
for the failure test and the payload counters together.  The count-only
sweeps (``conjectureA``, ``conjectureB``, ``recurrences``) read br(w) from
``ideal_size_table``, one prefix-set DP walk over all of S_n, and share the
process-wide deletion-contraction memo of ``invlat.kernels`` for ao(w).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from invlat.bruhat import (
    bruhat_leq,
    ideal_size_table,
    interval_length_counts,
    two_sided_weak_covers,
)
from invlat.chromatic import (
    IntPoly,
    acyclic_orientations,
    chromatic_identity_holds,
    chromatic_of,
    opy_chromatic,
)
from invlat.lattice import betti_numbers, build_lattice
from invlat.patterns import (
    classify_pair,
    find_reduction_pair,
    first_descent_rooks,
    is_chromobruhatic,
    is_smooth,
    reduction_step,
)
from invlat.permutation import (
    InversionGraph,
    Permutation,
    all_permutations,
    all_reduced_expressions,
)
from invlat.phimap import (
    phi_table,
    verify_characterization,
    verify_going_down,
    verify_injective,
    verify_surjective,
)

DEFAULT_COUNTEREXAMPLE_CAP = 10

# Largest n each check accepts; interval-heavy checks stop earlier than the
# count-only conjecture sweeps.
CHECK_CEILINGS = {
    "conjectureA": 8,
    "conjectureB": 8,
    "phi-injective": 6,
    "phi-surjective-iff": 6,
    "going-down": 6,
    "characterization": 6,
    "betti": 6,
    "chromatic-identity": 6,
    "opy": 8,
    "recurrences": 7,
    "hull-vs-standard": 6,
    "weak-chain": 7,
}

# phi-injective over every reduced expression is exponential in n.
ALL_EXPR_CEILING = 4


@dataclass
class Report:
    """Outcome of one check: deterministic given (check, n, expression rule)."""

    check: str
    n: int
    population: int
    passed: bool
    counterexamples: list[dict[str, Any]]
    payload: dict[str, Any]
    elapsed_s: float = 0.0
    truncated: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        # elapsed_s sits outside the reproducible comparison payload.
        return {
            "schema_version": 1,
            "check": self.check,
            "n": self.n,
            "population": self.population,
            "pass": self.passed,
            "counterexamples": self.counterexamples,
            "counterexamples_truncated": self.truncated,
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check} n={self.n} population={self.population} "
            f"({self.elapsed_s:.2f}s)"
        )


@dataclass
class _Scan:
    """Per-permutation results plus commutative payload counters."""

    failures: list[dict[str, Any]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _run_per_w(
    n: int,
    one: Callable[[Permutation], tuple[Optional[dict], dict[str, int]]],
) -> _Scan:
    """Scan S_n with ``one(w) -> (failure or None, payload counts)``."""
    scan = _Scan()
    for failure, counts in map(one, all_permutations(n)):
        if failure is not None:
            scan.failures.append(failure)
        for key, amount in counts.items():
            scan.bump(key, amount)
    return scan


def _check_conjecture_a(n: int, options: dict) -> _Scan:
    sizes = ideal_size_table(n)

    def one(w: Permutation):
        re = acyclic_orientations(InversionGraph.of(w))
        br = sizes[w.word]
        failure = {"w": str(w), "re": re, "br": br} if re > br else None
        return failure, {"equal": int(re == br)}

    return _run_per_w(n, one)


def _check_conjecture_b(n: int, options: dict) -> _Scan:
    sizes = ideal_size_table(n)

    def one(w: Permutation):
        re = acyclic_orientations(InversionGraph.of(w))
        br = sizes[w.word]
        avoiding = is_chromobruhatic(w)
        failure = None
        if (re == br) != avoiding:
            failure = {"w": str(w), "re": re, "br": br, "avoiding": avoiding}
        return failure, {"avoiding": int(avoiding)}

    return _run_per_w(n, one)


def _check_phi_injective(n: int, options: dict) -> _Scan:
    expr_mode = options.get("expr", "canonical")

    def failure(w: Permutation):
        if expr_mode == "canonical":
            if not verify_injective(w):
                return {"w": str(w), "expression": "canonical"}
            return None
        for expr in all_reduced_expressions(w):
            if not verify_injective(w, expr):
                return {"w": str(w), "expression": list(expr)}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _check_phi_surjective_iff(n: int, options: dict) -> _Scan:
    def one(w: Permutation):
        surjective, missed = verify_surjective(w)
        avoiding = is_chromobruhatic(w)
        failure = None
        if surjective != avoiding:
            failure = {
                "w": str(w),
                "surjective": surjective,
                "avoiding": avoiding,
                "missed": [str(u) for u in missed[:5]],
            }
        return failure, {"avoiding": int(avoiding)}

    return _run_per_w(n, one)


def _check_going_down(n: int, options: dict) -> _Scan:
    def failure(w: Permutation):
        if not verify_going_down(w):
            return {"w": str(w)}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _check_characterization(n: int, options: dict) -> _Scan:
    def failure(w: Permutation):
        if not verify_characterization(w):
            return {"w": str(w), "avoiding": is_chromobruhatic(w)}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _betti_failures(w: Permutation) -> Optional[dict]:
    """Partial-sum inequalities between interval length counts (top down)
    and lattice Betti numbers, with equality at the maximal index."""
    ell = w.length()
    lengths = interval_length_counts(w)
    betti = list(betti_numbers(build_lattice(w)))

    def b(i: int) -> int:
        return lengths[i] if 0 <= i < len(lengths) else 0

    def beta(i: int) -> int:
        return betti[i] if 0 <= i < len(betti) else 0

    bad: list[str] = []
    for r in range(ell + 1):
        lhs = sum(b(ell - i) for i in range(r + 1))
        rhs = sum(beta(i) for i in range(r + 1))
        if lhs > rhs:
            bad.append(f"line1 r={r}: {lhs} > {rhs}")
        if r == ell and lhs != rhs:
            bad.append(f"line1 equality at r={r}: {lhs} != {rhs}")
    for r in range(ell // 2 + 1):
        lhs = sum(b(ell - 2 * j) for j in range(r + 1))
        rhs = sum(beta(2 * j) for j in range(r + 1))
        if lhs > rhs:
            bad.append(f"line2 r={r}: {lhs} > {rhs}")
        if r == ell // 2 and lhs != rhs:
            bad.append(f"line2 equality at r={r}: {lhs} != {rhs}")
    for r in range((ell - 1) // 2 + 1):
        lhs = sum(b(ell - 2 * j - 1) for j in range(r + 1))
        rhs = sum(beta(2 * j + 1) for j in range(r + 1))
        if lhs > rhs:
            bad.append(f"line3 r={r}: {lhs} > {rhs}")
        if r == (ell - 1) // 2 and lhs != rhs:
            bad.append(f"line3 equality at r={r}: {lhs} != {rhs}")
    if bad:
        return {"w": str(w), "violations": bad}
    return None


def _check_betti(n: int, options: dict) -> _Scan:
    def one(w: Permutation):
        avoiding = is_chromobruhatic(w)
        failure = _betti_failures(w) if avoiding else None
        return failure, {"avoiding": int(avoiding)}

    return _run_per_w(n, one)


def _check_chromatic_identity(n: int, options: dict) -> _Scan:
    def failure(w: Permutation):
        holds = chromatic_identity_holds(w)
        avoiding = is_chromobruhatic(w)
        if holds != avoiding:
            return {"w": str(w), "identity": holds, "avoiding": avoiding}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _check_opy(n: int, options: dict) -> _Scan:
    def one(w: Permutation):
        if not is_smooth(w):
            return None, {"smooth": 0}
        product = opy_chromatic(w)
        chi = chromatic_of(w)
        failure = None
        if product != chi:
            failure = {
                "w": str(w),
                "product": product.text("t"),
                "chromatic": chi.text("t"),
            }
        return failure, {"smooth": 1}

    return _run_per_w(n, one)


def _recurrence_failures(w: Permutation, found, tables) -> Optional[dict]:
    """Check the recurrences at ``found``, the reduction pair of ``w`` (or
    None when ``find_reduction_pair`` found none)."""
    if found is None:
        if not w.is_identity():
            return {"w": str(w), "reason": "no reduction pair found"}
        return None
    # The guarantee is about the first descents of w and its inverse.
    x_y = first_descent_rooks(w)
    xbar_ybar = first_descent_rooks(w.inverse())
    direct = (
        x_y is not None and classify_pair(w, *x_y) is not None
    ) or (
        xbar_ybar is not None and classify_pair(w.inverse(), *xbar_ybar) is not None
    )
    if not direct:
        return {"w": str(w), "reason": "no pair at the first descents of w or inverse"}

    name, v, pair = found
    step = reduction_step(v, pair)
    if not is_chromobruhatic(step.rho):
        return {"w": str(w), "reason": f"swap of {name} left the avoidance class"}
    if not (bruhat_leq(step.rho, v) and step.rho != v):
        return {"w": str(w), "reason": "swap did not go down in Bruhat order"}

    def br(u: Permutation) -> int:
        return tables[u.n][u.word]

    def ao(u: Permutation) -> int:
        return acyclic_orientations(InversionGraph.of(u))

    bad = []
    if pair.kind == "light":
        if br(v) != br(step.rho) + br(step.minus_y):
            bad.append("light interval recurrence")
        if ao(v) != ao(step.rho) + ao(step.minus_y):
            bad.append("light orientation recurrence")
    else:
        assert step.minus_x is not None and step.minus_xy is not None
        if br(v) != br(step.rho) + br(step.minus_x) + br(step.minus_y) - br(
            step.minus_xy
        ):
            bad.append("heavy interval recurrence")
        if ao(v) != ao(step.rho) + ao(step.minus_x) + ao(step.minus_y) - ao(
            step.minus_xy
        ):
            bad.append("heavy orientation recurrence")
        lhs = chromatic_of(step.rho) - chromatic_of(v)
        rhs = (
            chromatic_of(step.minus_x)
            + chromatic_of(step.minus_y)
            - IntPoly.monomial(1) * chromatic_of(step.minus_xy)
        )
        if lhs != rhs:
            bad.append("heavy coloring identity")
    if bad:
        return {"w": str(w), "target": name, "kind": pair.kind, "violations": bad}
    return None


def _check_recurrences(n: int, options: dict) -> _Scan:
    tables = {m: ideal_size_table(m) for m in range(max(1, n - 2), n + 1)}

    def one(w: Permutation):
        if w.is_identity() or not is_chromobruhatic(w):
            return None, {}
        found = find_reduction_pair(w)
        counts = {} if found is None else {found[2].kind: 1}
        return _recurrence_failures(w, found, tables), counts

    return _run_per_w(n, one)


def _check_hull_vs_standard(n: int, options: dict) -> _Scan:
    population = list(all_permutations(n))

    def failure(w: Permutation):
        avoiding = is_chromobruhatic(w)
        for u in population:
            rank = bruhat_leq(u, w, method="rank")
            bubble = bruhat_leq(u, w, method="bubble")
            if rank != bubble:
                return {"w": str(w), "u": str(u), "rank": rank, "bubble": bubble}
            if avoiding:
                hull = bruhat_leq(u, w, method="hull")
                if hull != rank:
                    return {"w": str(w), "u": str(u), "rank": rank, "hull": hull}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _check_weak_chain(n: int, options: dict) -> _Scan:
    chromo = [w for w in all_permutations(n) if is_chromobruhatic(w)]
    chromo_words = {w.word for w in chromo}
    reachable: set[tuple[int, ...]] = {Permutation.identity(n).word}
    for w in sorted(chromo, key=lambda u: u.length()):
        if w.is_identity():
            continue
        if any(
            u.word in chromo_words and u.word in reachable
            for u in two_sided_weak_covers(w)
        ):
            reachable.add(w.word)

    def one(w: Permutation):
        chromo = is_chromobruhatic(w)
        failure = {"w": str(w)} if chromo and w.word not in reachable else None
        return failure, {"chromobruhatic": int(chromo)}

    return _run_per_w(n, one)


CHECKS: dict[str, Callable[[int, dict], _Scan]] = {
    "conjectureA": _check_conjecture_a,
    "conjectureB": _check_conjecture_b,
    "phi-injective": _check_phi_injective,
    "phi-surjective-iff": _check_phi_surjective_iff,
    "going-down": _check_going_down,
    "characterization": _check_characterization,
    "betti": _check_betti,
    "chromatic-identity": _check_chromatic_identity,
    "opy": _check_opy,
    "recurrences": _check_recurrences,
    "hull-vs-standard": _check_hull_vs_standard,
    "weak-chain": _check_weak_chain,
}


def run_check(
    check: str,
    n: int,
    expr: str = "canonical",
    cap: Optional[int] = DEFAULT_COUNTEREXAMPLE_CAP,
) -> Report:
    """Run one named check over all of S_n and wrap the outcome in a Report.

    ``cap`` bounds the counterexample list (None keeps everything); the
    population size and payload are unaffected by it.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; options: {sorted(CHECKS)}")
    if cap is not None and cap < 0:
        raise ValueError(f"the counterexample cap must be >= 0, got {cap}")
    ceiling = CHECK_CEILINGS[check]
    if expr == "all":
        if check != "phi-injective":
            raise ValueError("--expr all applies only to phi-injective")
        ceiling = min(ceiling, ALL_EXPR_CEILING)
    if not 1 <= n <= ceiling:
        raise ValueError(f"check {check!r} accepts 1 <= n <= {ceiling}, got {n}")
    started = time.perf_counter()
    scan = CHECKS[check](n, {"expr": expr})
    elapsed = time.perf_counter() - started
    population = 1
    for i in range(2, n + 1):
        population *= i
    failures = scan.failures
    truncated = cap is not None and len(failures) > cap
    payload = dict(sorted(scan.counts.items()))
    payload["failure_count"] = len(failures)
    if expr != "canonical":
        payload["expression_mode"] = expr
    return Report(
        check=check,
        n=n,
        population=population,
        passed=not failures,
        counterexamples=failures[:cap] if cap is not None else failures,
        payload=payload,
        elapsed_s=elapsed,
        truncated=truncated,
    )
