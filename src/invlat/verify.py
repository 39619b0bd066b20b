"""Exhaustive desk-scale verification checks over all of S_n.

Each check scans the whole symmetric group in lexicographic order and
reports counterexamples.  Each check computes its per-permutation data once,
for the failure test and the payload counters together.  The count-only
sweeps (``conjectureA``, ``conjectureB``, ``recurrences``) read br(w) and
ao(w) off ``_count_walk``: one depth-first walk over the prefixes of S_n
that carries the prefix-set DP for br and the colouring DP for ao side by
side, so words that share a prefix share its work and no table of n!
entries is kept.  The chain checks (``phi-injective``,
``phi-surjective-iff``, ``going-down``) read the decreasing chains off the
chain walk of ``invlat.lattice`` and build no lattice; a chain that breaks
the chain map is reported as a counterexample (w, labels, reason).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import starmap
from math import factorial
from typing import Any, Callable, Iterable, Iterator, Optional

from invlat.bruhat import (
    _bubble_rows,
    _dominated_sets,
    _grow,
    _word_leq,
    bruhat_leq,
    interval_length_counts,
    interval_size,
    two_sided_weak_covers,
)
from invlat.chromatic import (
    IntPoly,
    _colour_step,
    betti_numbers,
    chromatic_identity_holds,
    chromatic_of,
    opy_chromatic,
)
from invlat.lattice import _chain_walk, _hyperplanes
from invlat.patterns import (
    classify_pair,
    find_reduction_pair,
    first_descent_rooks,
    is_chromobruhatic,
    is_smooth,
    reduction_step,
)
from invlat.permutation import (
    Permutation,
    all_permutations,
    all_reduced_expressions,
    format_one_line,
    reduced_expression,
)
from invlat.phimap import _images, missed_elements, verify_characterization

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


def _scan(results: Iterable[tuple[Optional[dict], dict[str, int]]]) -> _Scan:
    """Collect ``(failure or None, payload counts)`` pairs, in order."""
    scan = _Scan()
    for failure, counts in results:
        if failure is not None:
            scan.failures.append(failure)
        for key, amount in counts.items():
            scan.bump(key, amount)
    return scan


def _run_per_w(
    n: int,
    one: Callable[[Permutation], tuple[Optional[dict], dict[str, int]]],
) -> _Scan:
    """Scan S_n with ``one(w) -> (failure or None, payload counts)``."""
    return _scan(map(one, all_permutations(n)))


def _count_walk(n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(word, br, ao)`` for every w of S_n, in lexicographic order.

    A depth-first walk over the prefixes of w carries two DPs down: the
    prefix sets of the u <= w so far (``interval_length_counts`` with plain
    counts), and the colourings of the prefix's inversion graph by their
    classes' maxima (``chromatic._colour_step``).  The last value is
    forced, so the leaves are read one level early: every surviving prefix
    set of u completes to one u <= w, and the last value opens a class or
    takes over one of the maxima below it.
    """
    full = (1 << n) - 1
    # sf[j] is the weight (-1)^(n+j) j! of a colouring with j classes in ao.
    sf = [(-1) ** (n + j) * factorial(j) for j in range(n + 1)]
    dominated = functools.cache(lambda top: _dominated_sets(top, n))

    def walk(word, top, ideals, colours):
        if len(word) == n - 1:
            v = (full ^ top).bit_length()
            below = (1 << (v - 1)) - 1
            ao = 0
            for s, count in colours.items():
                j = s.bit_count()
                ao += count * (sf[j + 1] + (s & below).bit_count() * sf[j])
            yield word + (v,), sum(ideals.values()), ao
            return
        grown = _grow(ideals, n, 0)
        for v in range(1, n + 1):
            child = top | 1 << (v - 1)
            if child != top:
                keep = dominated(child)
                yield from walk(
                    word + (v,),
                    child,
                    {t: c for t, c in grown.items() if t in keep},
                    _colour_step(colours, v),
                )

    yield from walk((), 0, {0: 1}, {0: 1})


def _check_conjecture_a(n: int, options: dict) -> _Scan:
    def one(word, br, re):
        failure = None
        if re > br:
            failure = {"w": str(Permutation(word)), "re": re, "br": br}
        return failure, {"equal": int(re == br)}

    return _scan(starmap(one, _count_walk(n)))


def _check_conjecture_b(n: int, options: dict) -> _Scan:
    def one(word, br, re):
        w = Permutation(word)
        avoiding = is_chromobruhatic(w)
        failure = None
        if (re == br) != avoiding:
            failure = {"w": str(w), "re": re, "br": br, "avoiding": avoiding}
        return failure, {"avoiding": int(avoiding)}

    return _scan(starmap(one, _count_walk(n)))


def _phi_images(
    w: Permutation, expression: Optional[tuple[int, ...]] = None
) -> tuple[Optional[dict], dict[tuple[int, ...], tuple[int, ...]]]:
    """Map every decreasing chain of w through phi, walked with no lattice.

    Returns the first chain whose image is not below w or repeats an
    earlier chain's image, as a counterexample (w, labels, reason), or
    None; and the image words met, each with its chain's labels.
    """
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    for labels, _, _, image in _images(w, expression):
        reason = None
        if not _word_leq(image, w):
            reason = f"image {format_one_line(image)} is not below w"
        elif image in images:
            reason = (
                f"image {format_one_line(image)} is also the image of the "
                f"chain {list(images[image])}"
            )
        if reason is not None:
            return {"w": str(w), "labels": list(labels), "reason": reason}, images
        images[image] = labels
    return None, images


def _check_phi_injective(n: int, options: dict) -> _Scan:
    expr_mode = options.get("expr", "canonical")

    def failure(w: Permutation):
        canonical = expr_mode == "canonical"
        for expr in [None] if canonical else all_reduced_expressions(w):
            found, _ = _phi_images(w, expr)
            if found is not None:
                found["expression"] = "canonical" if canonical else list(expr)
                return found
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _check_phi_surjective_iff(n: int, options: dict) -> _Scan:
    """The chain map is onto [e, w] exactly when w avoids the four patterns.

    The images are checked to be distinct and below w, so they fill [e, w]
    exactly when there are br(w) chains; the interval is enumerated only to
    list the missed elements of a failing w.  Given injectivity, the count
    test is Theorem B (re(w) = br(w) iff avoiding): what this check adds on
    its own is that the images really are distinct and below w.
    """

    def one(w: Permutation):
        found, images = _phi_images(w)
        avoiding = is_chromobruhatic(w)
        if found is None:
            surjective = len(images) == interval_size(w)
            if surjective != avoiding:
                missed = missed_elements(w, images)
                found = {
                    "w": str(w),
                    "surjective": surjective,
                    "avoiding": avoiding,
                    "missed": [str(u) for u in missed[:5]],
                }
        return found, {"avoiding": int(avoiding)}

    return _run_per_w(n, one)


def _going_down_failure(w: Permutation) -> Optional[dict]:
    """The first decreasing chain, labels j_1 < ... < j_m, whose walk
    w > t_{j_m} w > t_{j_(m-1)} t_{j_m} w > ... fails to descend strictly
    in Bruhat order, as a counterexample (w, labels, reason); None when
    every walk descends.

    Each walk ends at the chain's image u = p(C) w, which then lies at
    directed distance exactly m from w, so no breadth-first search is
    needed.  A directed path of k steps from u to w writes u w^-1 = p(C)
    as a product of k reflections, so k is at least the absolute length of
    p(C), which is m: every label of the chain walk joins two different
    orbits.  The walk itself, read upwards, is such a path with m steps.
    """
    hyperplanes = _hyperplanes(w, reduced_expression(w))
    for labels, _, _ in _chain_walk(w.n, hyperplanes):
        current = list(w.word)
        for j in reversed(labels):
            a, b = hyperplanes[j - 1]
            # With a < b, (a b) * x swaps positions a and b, and lies
            # strictly below x exactly when x(a) > x(b).
            if current[a - 1] < current[b - 1]:
                reason = f"t{j} does not go down from {format_one_line(current)}"
                return {"w": str(w), "labels": list(labels), "reason": reason}
            current[a - 1], current[b - 1] = current[b - 1], current[a - 1]
    return None


def _check_going_down(n: int, options: dict) -> _Scan:
    return _run_per_w(n, lambda w: (_going_down_failure(w), {}))


def _check_characterization(n: int, options: dict) -> _Scan:
    def failure(w: Permutation):
        if not verify_characterization(w):
            return {"w": str(w), "avoiding": is_chromobruhatic(w)}
        return None

    return _run_per_w(n, lambda w: (failure(w), {}))


def _betti_failures(w: Permutation) -> Optional[dict]:
    """Partial-sum inequalities between interval length counts (top down)
    and the arrangement's Betti numbers, with equality at the maximal index."""
    ell = w.length()
    lengths = interval_length_counts(w)
    betti = betti_numbers(chromatic_of(w))
    bad: list[str] = []
    for name, first, step in (("line1", 0, 1), ("line2", 0, 2), ("line3", 1, 2)):
        # Partial sums over the indices first, first + step, ... <= ell.
        last = (ell - first) // step
        lhs = rhs = 0
        for r in range(last + 1):
            i = first + step * r
            lhs += lengths[ell - i]
            rhs += betti[i] if i < len(betti) else 0
            if lhs > rhs:
                bad.append(f"{name} r={r}: {lhs} > {rhs}")
            if r == last and lhs != rhs:
                bad.append(f"{name} equality at r={r}: {lhs} != {rhs}")
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
    None when ``find_reduction_pair`` found none); ``tables[m][word]`` holds
    (br, ao) for the words of S_m."""
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
        return tables[u.n][u.word][0]

    def ao(u: Permutation) -> int:
        return tables[u.n][u.word][1]

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
    # (br, ao) of every word of S_n, S_(n-1) and S_(n-2).
    tables = {
        m: {word: (br, ao) for word, br, ao in _count_walk(m)}
        for m in range(max(1, n - 2), n + 1)
    }

    def one(w: Permutation):
        if w.is_identity() or not is_chromobruhatic(w):
            return None, {}
        found = find_reduction_pair(w)
        counts = {} if found is None else {found[2].kind: 1}
        return _recurrence_failures(w, found, tables), counts

    return _run_per_w(n, one)


def _prefix_count(n: int, keeps: Iterable[Callable[[int], bool]]) -> int:
    """The number of words of S_n whose first i values form a set that
    ``keeps[i - 1]`` accepts, for every i: the prefix-set DP of
    ``interval_length_counts`` with plain counts and any filter."""
    level = {0: 1}
    for keep in keeps:
        level = {s: c for s, c in _grow(level, n, 0).items() if keep(s)}
    return sum(level.values())


def _hull_counts(
    w: Permutation, dominated: Callable[[int], frozenset[int]]
) -> tuple[int, int, int]:
    """``(br, bubble, hull)``: the number of u that Ehresmann's criterion
    puts below w, that pass the rank test at w's bubbles, and that fit in
    w's right hull.  ``dominated(top)`` is ``_dominated_sets(top, n)``.

    u fits in the hull when, at every position i, u(i) lies between the
    smallest value of w at positions >= i and the largest at positions
    <= i.  Both bounds grow with i, so this holds exactly when every set S
    of u's first i values lies in [1, max of w's first i values] and holds
    [1, m - 1], where m is the smallest value of w after position i.
    """
    n = w.n
    word = w.word
    rows = _bubble_rows(w)
    ehresmann, bubble, hull = [], [], []
    top = 0
    for i in range(1, n + 1):
        top |= 1 << (word[i - 1] - 1)
        within = (1 << max(word[:i])) - 1
        need = (1 << (min(word[i:]) - 1 if i < n else n)) - 1
        ehresmann.append(dominated(top).__contains__)
        bubble.append(
            lambda s, row=rows[i - 1]: all((s >> j).bit_count() <= b for j, b in row)
        )
        hull.append(
            lambda s, within=within, need=need: s | within == within
            and s & need == need
        )
    return tuple(_prefix_count(n, keeps) for keeps in (ehresmann, bubble, hull))


def _check_hull_vs_standard(n: int, options: dict) -> _Scan:
    """The bubble test and Sjöstrand's right-hull criterion, as counts.

    The bubbles are a subset of the rank squares, so the bubble test
    accepts every u <= w: equal counts prove the two sets equal.  [e, w]
    always fits in the hull, so hull = br exactly when the hull's fillings
    are [e, w], and that must hold exactly when w avoids the four patterns.
    """
    dominated = functools.cache(lambda top: _dominated_sets(top, n))

    def failure(w: Permutation):
        br, bubble, hull = _hull_counts(w, dominated)
        avoiding = is_chromobruhatic(w)
        if bubble != br or hull < br or (hull == br) != avoiding:
            return {
                "w": str(w),
                "br": br,
                "bubble": bubble,
                "hull": hull,
                "avoiding": avoiding,
            }
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
        chromo = w.word in chromo_words
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
