"""Exhaustive desk-scale verification checks over all of S_n.

``CHECKS`` holds each check's largest n and its scan.  A scan walks S_n in
lexicographic order and yields, for each w or block of consecutive w, a
counterexample or None and the payload counts, both from one computation
of w's data, and ``run_check`` collects them in one loop.  Five scans read
br(w) off the count walk ``_count_blocks``, the only source of br in the
sweeps: the count-only sweeps (``conjectureA``, ``conjectureB``,
``recurrences``), which read ao(w) off it too, and ``phi-surjective-iff``
and ``hull-vs-standard``.  It is one depth-first walk over the prefixes of
S_n that carries the DPs for br and ao side by side, so words that share a
prefix share its work and no table of n! entries is kept, and it yields br
and ao of the 24 words that complete each prefix of length n - 4 as one
packed block.  ``conjectureA`` reads the blocks whole; the other scans
read them one word at a time from ``_count_walk``.  ``hull-vs-standard``
reads its bubble and hull counts off a second prefix walk, ``_hull_walk``.
The chain checks (``phi-injective``, ``phi-surjective-iff``,
``going-down``) read the decreasing chains, each with its image under the
chain map as ``bytes``, off the chain walk of ``invlat.lattice`` and build
no lattice, and share one test per chain, a step down from the image of
its suffix (``_phi_images``); a chain that breaks the chain map is
reported as a counterexample (w, labels, reason).
"""

from __future__ import annotations

import functools
import time
from contextlib import closing
from dataclasses import dataclass
from itertools import permutations, starmap
from math import factorial
from typing import Any, Callable, Iterable, Iterator, Optional

from invlat.bruhat import (
    _dominated_sets,
    _grow,
    bruhat_leq,
    distances_from,
    interval_length_counts,
    missed_elements,
    two_sided_weak_covers,
)
from invlat.chromatic import (
    IntPoly,
    _colour_step,
    betti_numbers,
    chromatic_identity_holds,
    chromatic_of,
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
    opy_exponents,
    reduced_expression,
)

DEFAULT_COUNTEREXAMPLE_CAP = 10

# A scan yields (failure or None, payload counts) per w, or per block of
# consecutive w that has no failure, in order.
_Outcomes = Iterable[tuple[Optional[dict[str, Any]], dict[str, int]]]


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


def _count_blocks(n: int) -> Iterator[tuple[tuple[int, ...], list, int, int]]:
    """Yield ``(prefix, tails, br, ao)`` for every prefix of length n - 4 of
    S_n (for n <= 4, one block at the root), in lexicographic order: the
    tails that complete it, in lexicographic order, and br and ao of the
    words they make, each packed into one integer with one
    ``factorial(n).bit_length()``-bit field per tail, the first lowest.

    A depth-first walk over the prefixes carries two DPs down: the prefix
    sets of the u <= w so far (``interval_length_counts`` with plain
    counts), and the colourings of the prefix's inversion graph by their
    classes' maxima (``chromatic._colour_step``).  At a prefix of length
    n - 4, whose missing values are m_1 < m_2 < m_3 < m_4, it builds no
    child: each DP state s weighs one packed integer, taken from a table
    built once per value set of the prefix, and one multiply-add pass over
    the states reads all 24 leaves.

    Both weights depend on s only through its gap counts, the numbers of
    values of a bitmask in [m_g, m_(g+1)) for g = 0..4 (m_0 = 1,
    m_5 = n + 1): of u's missing values ``full ^ s`` for br, of the class
    maxima ``s`` for ao.  One memoised fold per DP places sigma's values
    one at a time; a step that takes a value out of a gap is counted once
    per value in that gap.  ``fields`` packs the 24 results per gap tuple:

    - br.  full - R is dominated by full - R' (|R| = |R'|) exactly when R,
      sorted, is elementwise >= R', sorted.  So a step takes one of u's
      missing values, and is allowed only while u's values still missing
      stay elementwise >= w's; a finished state weighs 1.
    - ao.  x = m_i becomes a maximum just above m_i, as a new class or in
      place of a maximum in a gap below m_i; a finished state with j
      classes weighs sf[j] = (-1)^(n+j) j!.  The memo of (gaps, values
      left) is dropped once each value set's table is built.

    Every final field lies in [1, n!], so the packed sums unpack exactly
    even though the ao weights of single states are signed.  At n = 3 a
    field is 3 bits wide, one octal digit, and the first word is the last
    digit:

    >>> [(prefix, len(tails), oct(br), oct(ao))
    ...  for prefix, tails, br, ao in _count_blocks(3)]
    [((), 6, '0o644221', '0o644221')]
    """
    k = min(n, 4)  # values left at the prefixes whose leaves are read
    full = (1 << n) - 1
    # sf[j] is the weight (-1)^(n+j) j! of a colouring with j classes in ao.
    sf = [(-1) ** (n + j) * factorial(j) for j in range(n + 1)]
    width = factorial(n).bit_length()
    # The completions in lexicographic order, as orders of 0..k-1 standing
    # for m_1 < ... < m_k.
    orders = list(permutations(range(k)))

    @functools.cache
    def br_fold(gaps, rest):
        # rest lists w's values still missing; a value in gap g is
        # >= m_(i+1) exactly when g > i.
        left = [g for g, c in enumerate(gaps) for _ in range(c)]
        if not all(map(int.__gt__, left, sorted(rest))):
            return 0
        if not rest:
            return 1
        return sum(
            c * br_fold(gaps[:g] + (c - 1,) + gaps[g + 1 :], rest[1:])
            for g, c in enumerate(gaps)
            if c
        )

    @functools.cache
    def ao_fold(gaps, rest):
        # x = m_(i+1) joins gaps[i + 1].
        if not rest:
            return sf[sum(gaps)]
        i, rest = rest[0], rest[1:]
        raised = gaps[: i + 1] + (gaps[i + 1] + 1,) + gaps[i + 2 :]
        total = ao_fold(raised, rest)
        for g in range(i + 1):
            if gaps[g]:
                taken = raised[:g] + (gaps[g] - 1,) + raised[g + 1 :]
                total += gaps[g] * ao_fold(taken, rest)
        return total

    @functools.cache
    def fields(fold, gaps):
        return sum(fold(gaps, sigma) << (width * f) for f, sigma in enumerate(orders))

    @functools.cache
    def tables(top):
        missing = [v for v in range(1, n + 1) if not top >> (v - 1) & 1]

        def gaps(mask):
            under = [(mask & ((1 << (v - 1)) - 1)).bit_count() for v in missing]
            under.append(mask.bit_count())
            return tuple(b - a for a, b in zip([0] + under, under))

        brt = {s: fields(br_fold, gaps(full ^ s)) for s in _dominated_sets(top, n)}
        # Every colouring state's class maxima are values of the prefix.
        aot = {s: fields(ao_fold, gaps(s)) for s in range(top + 1) if s & top == s}
        ao_fold.cache_clear()
        return list(permutations(missing)), brt, aot

    def walk(word, top, ideals, colours):
        if len(word) == n - k:
            tails, brt, aot = tables(top)
            br = sum(c * brt[s] for s, c in ideals.items())
            ao = sum(c * aot[s] for s, c in colours.items())
            yield word, tails, br, ao
            return
        grown = _grow(ideals, n, 0)
        for v in range(1, n + 1):
            child = top | 1 << (v - 1)
            if child != top:
                keep = _dominated_sets(child, n)
                yield from walk(
                    word + (v,),
                    child,
                    {t: c for t, c in grown.items() if t in keep},
                    _colour_step(colours, v),
                )

    # The memos refer to themselves: empty them even if the walk is abandoned.
    try:
        yield from walk((), 0, {0: 1}, {0: 1})
    finally:
        for memo in (br_fold, ao_fold, fields, tables):
            memo.cache_clear()


def _unpack(n: int, count: int, packed: int) -> list[int]:
    """The first ``count`` fields of a packed sum of ``_count_blocks(n)``,
    lowest first."""
    width = factorial(n).bit_length()
    field = (1 << width) - 1
    return [packed >> shift & field for shift in range(0, width * count, width)]


def _count_walk(n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(word, br, ao)`` for every w of S_n, in lexicographic order:
    the blocks of ``_count_blocks``, one leaf at a time.

    >>> list(_count_walk(3))  # doctest: +NORMALIZE_WHITESPACE
    [((1, 2, 3), 1, 1), ((1, 3, 2), 2, 2), ((2, 1, 3), 2, 2),
     ((2, 3, 1), 4, 4), ((3, 1, 2), 4, 4), ((3, 2, 1), 6, 6)]
    """
    with closing(_count_blocks(n)) as blocks:
        for prefix, tails, br, ao in blocks:
            brs, aos = (_unpack(n, len(tails), packed) for packed in (br, ao))
            yield from zip(map(prefix.__add__, tails), brs, aos)


def _check_conjecture_a(n: int, expr: str) -> _Outcomes:
    # One outcome per block of 24 words, unless one of them fails.
    for prefix, tails, br, ao in _count_blocks(n):
        brs, res = (_unpack(n, len(tails), packed) for packed in (br, ao))
        if all(map(int.__le__, res, brs)):
            yield None, {"equal": sum(map(int.__eq__, res, brs))}
            continue
        for tail, br, re in zip(tails, brs, res):
            failure = {"w": str(Permutation(prefix + tail)), "re": re, "br": br}
            yield failure if re > br else None, {"equal": int(re == br)}


def _check_conjecture_b(n: int, expr: str) -> _Outcomes:
    def one(word, br, re):
        w = Permutation(word)
        avoiding = is_chromobruhatic(w)
        failure = None
        if (re == br) != avoiding:
            failure = {"w": str(w), "re": re, "br": br, "avoiding": avoiding}
        return failure, {"avoiding": int(avoiding)}

    return starmap(one, _count_walk(n))


def _phi_images(
    w: Permutation, expression: Optional[tuple[int, ...]] = None
) -> tuple[Optional[dict], Optional[dict], dict[tuple[int, ...], bytes]]:
    """Read every decreasing chain of w with its image under phi off the
    chain walk, with no lattice, and test each chain against its suffix.

    Dropping the smallest label of a decreasing chain C = (j_1, ..., j_m)
    leaves a decreasing chain C' = (j_2, ..., j_m), as Björner's NBC sets
    (1980) are closed under subsets: each top of C' is finer than C's top
    at the same step, so each later t_(j_i) still joins two different
    blocks, inside the two it joins in C, and every edge crossing them
    crosses those, so j_i is still the largest index crossing them.  The
    walk of C, w > t_(j_m) w > ... > p(C) w, is that of C' and one more
    step, by t_(j_1) = (a b) with a < b, which swaps positions a and b and
    goes strictly down exactly when image(C')[a] > image(C')[b]: each
    chain's one test.  By induction every walk then descends, so every
    image lies below w, at directed distance exactly m: a directed path of
    k steps from u = p(C) w to w writes u w^-1 = p(C) as a product of k
    reflections, so k is at least the absolute length of p(C), which is m,
    as every label joins two different orbits; the walk, read upwards,
    takes m steps.  The walk builds image(C) from C minus its largest
    label, so that image(C) is image(C') with positions a and b swapped is
    an invariant of the walk, which the tests check and this does not.

    Returns ``(down, found, images)``: the first chain, in walk order,
    whose suffix is not walked or whose step does not go down, and the
    first that does either or repeats an earlier image (as a chain walked
    twice does), each as a counterexample (w, labels, reason), or None;
    and every chain's ``(labels, image)`` in walk order, image as ``bytes``.
    """
    expr = expression if expression is not None else reduced_expression(w)
    hyperplanes = _hyperplanes(w, expr)
    images = [(labels, image) for labels, image, _ in _chain_walk(w, hyperplanes)]
    by_labels = dict(images)
    down = found = None
    first: dict[bytes, tuple[int, ...]] = {}
    for labels, image in images:
        reason = None
        if labels:
            suffix = by_labels.get(labels[1:])
            a, b = hyperplanes[labels[0] - 1]
            if suffix is None:
                reason = f"the suffix {list(labels[1:])} is not a decreasing chain"
            elif suffix[a - 1] < suffix[b - 1]:
                reason = f"t{labels[0]} does not go down from {format_one_line(suffix)}"
        if reason is not None:
            down = down or {"w": str(w), "labels": list(labels), "reason": reason}
        elif image in first:
            reason = (
                f"image {format_one_line(image)} is also the image of the "
                f"chain {list(first[image])}"
            )
        else:
            first[image] = labels
        if reason is not None and found is None:
            found = {"w": str(w), "labels": list(labels), "reason": reason}
    return down, found, images


def _check_phi_injective(n: int, expr: str) -> _Outcomes:
    canonical = expr == "canonical"

    def one(w: Permutation):
        for expression in [None] if canonical else all_reduced_expressions(w):
            _, found, _ = _phi_images(w, expression)
            if found is not None:
                found["expression"] = "canonical" if canonical else list(expression)
                return found, {}
        return None, {}

    return map(one, all_permutations(n))


def _check_phi_surjective_iff(n: int, expr: str) -> _Outcomes:
    """The chain map is onto [e, w] exactly when w avoids the four patterns.

    The images are checked to be distinct and below w, so they fill [e, w]
    exactly when there are br(w) chains, with br(w) read off the count
    walk; the interval is enumerated only to list the missed elements of a
    failing w.  Given injectivity, the count test is Theorem B (re(w) =
    br(w) iff avoiding): what this check adds on its own is that the images
    really are distinct and below w.
    """

    def one(word, br, ao):
        w = Permutation(word)
        _, found, images = _phi_images(w)
        avoiding = is_chromobruhatic(w)
        if found is None:
            surjective = len(images) == br
            if surjective != avoiding:
                missed = missed_elements(w, {tuple(image) for _, image in images})
                found = {
                    "w": str(w),
                    "surjective": surjective,
                    "avoiding": avoiding,
                    "missed": [str(u) for u in missed[:5]],
                }
        return found, {"avoiding": int(avoiding)}

    return starmap(one, _count_walk(n))


def _check_going_down(n: int, expr: str) -> _Outcomes:
    return map(lambda w: (_phi_images(w)[0], {}), all_permutations(n))


def _absolute_length(u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """The absolute length of u w^-1, for two words of one length: n minus
    the number of cycles of the map w(i) -> u(i).

    >>> _absolute_length((1, 2, 3), (3, 2, 1))
    1
    >>> _absolute_length((2, 3, 1), (1, 2, 3))
    2
    """
    step = dict(zip(w, u))
    cycles = 0
    for x in w:
        if x in step:
            cycles += 1
            while x in step:
                x = step.pop(x)
    return len(w) - cycles


def _check_characterization(n: int, expr: str) -> _Outcomes:
    """For every u <= w, the directed distance from u to w equals the
    absolute length of u w^-1 exactly when w avoids the four patterns."""

    def one(w: Permutation):
        equal_everywhere = all(
            d == _absolute_length(word, w.word)
            for word, d in distances_from(w).items()
        )
        avoiding = is_chromobruhatic(w)
        failure = None
        if equal_everywhere != avoiding:
            failure = {"w": str(w), "avoiding": avoiding}
        return failure, {}

    return map(one, all_permutations(n))


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


def _check_betti(n: int, expr: str) -> _Outcomes:
    def one(w: Permutation):
        avoiding = is_chromobruhatic(w)
        failure = _betti_failures(w) if avoiding else None
        return failure, {"avoiding": int(avoiding)}

    return map(one, all_permutations(n))


def _check_chromatic_identity(n: int, expr: str) -> _Outcomes:
    def one(w: Permutation):
        holds = chromatic_identity_holds(w)
        avoiding = is_chromobruhatic(w)
        failure = None
        if holds != avoiding:
            failure = {"w": str(w), "identity": holds, "avoiding": avoiding}
        return failure, {}

    return map(one, all_permutations(n))


def _check_opy(n: int, expr: str) -> _Outcomes:
    def one(w: Permutation):
        if not is_smooth(w):
            return None, {"smooth": 0}
        product = IntPoly.from_roots(opy_exponents(w))
        chi = chromatic_of(w)
        failure = None
        if product != chi:
            failure = {
                "w": str(w),
                "product": product.text("t"),
                "chromatic": chi.text("t"),
            }
        return failure, {"smooth": 1}

    return map(one, all_permutations(n))


def _recurrence_failures(w: Permutation, found, tables) -> Optional[dict]:
    """Check the recurrences at ``found``, the reduction pair of ``w`` (or
    None when ``find_reduction_pair`` found none); ``tables[m][word]`` holds
    (br, ao) for the words of S_m."""
    if found is None:
        return {"w": str(w), "reason": "no reduction pair found"}
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

    # br(v) and ao(v) each equal the signed sum of their values over these.
    terms = [(1, step.rho), (1, step.minus_y)]
    if pair.kind == "heavy":
        assert step.minus_x is not None and step.minus_xy is not None
        terms += [(1, step.minus_x), (-1, step.minus_xy)]
    bad = []
    for column, quantity in enumerate(("interval", "orientation")):
        total = sum(sign * tables[u.n][u.word][column] for sign, u in terms)
        if tables[v.n][v.word][column] != total:
            bad.append(f"{pair.kind} {quantity} recurrence")
    if pair.kind == "heavy":
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


def _check_recurrences(n: int, expr: str) -> _Outcomes:
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

    return map(one, all_permutations(n))


def _hull_walk(n: int) -> Iterator[tuple[int, int]]:
    """Yield ``(bubble, hull)`` for every w of S_n, in lexicographic order:
    the numbers of u that pass the rank test at w's bubbles, and that fit
    in w's right hull.

    A depth-first walk over the prefixes of w carries both prefix-set DPs,
    one ``_grow`` each per prefix.  Each keeps the sets S of u's first i
    values by the set ``top`` of w's first i values alone, where w(i) = v:

    - bubble: at each bubble (i, j), a j > v missing from ``top``, S holds
      no more values >= j than ``top`` does;
    - hull: u(i) lies between the smallest value of w at positions >= i
      and the largest at positions <= i.  Both bounds grow with i, so S
      lies in [1, max of ``top``] (``within``) and holds [1, m - 1]
      (``need``), where m is the smallest value missing from ``top``.

    The last value is forced and both DPs keep the full set, so the walk
    stops at the prefixes of length n - 1.

    >>> list(_hull_walk(3))
    [(1, 1), (2, 2), (2, 2), (4, 4), (4, 4), (6, 6)]
    """

    def walk(top, bubble, hull):
        if top.bit_count() == n - 1:
            yield sum(bubble.values()), sum(hull.values())
            return
        bubble, hull = _grow(bubble, n, 0), _grow(hull, n, 0)
        for v in range(1, n + 1):
            child = top | 1 << (v - 1)
            if child == top:
                continue
            kept = bubble
            for j in range(v, n):
                if not child >> j & 1:
                    bound = (child >> j).bit_count()
                    kept = {
                        s: c for s, c in kept.items() if (s >> j).bit_count() <= bound
                    }
            within = (1 << child.bit_length()) - 1
            need = child & ~(child + 1)
            yield from walk(
                child,
                kept,
                {
                    s: c
                    for s, c in hull.items()
                    if s | within == within and s & need == need
                },
            )

    yield from walk(0, {0: 1}, {0: 1})


def _check_hull_vs_standard(n: int, expr: str) -> _Outcomes:
    """The bubble test and Sjöstrand's right-hull criterion, as counts off
    the hull walk against br(w) read off the count walk.

    The bubbles are a subset of the rank squares, so the bubble test
    accepts every u <= w: a bubble count of br(w) proves the two sets
    equal.  [e, w] always fits in the hull, so hull = br exactly when the
    hull's fillings are [e, w], and that must hold exactly when w avoids
    the four patterns.
    """

    def one(walked, counts):
        (word, br, _), (bubble, hull) = walked, counts
        w = Permutation(word)
        avoiding = is_chromobruhatic(w)
        failure = None
        if bubble != br or hull < br or (hull == br) != avoiding:
            failure = {
                "w": str(w),
                "br": br,
                "bubble": bubble,
                "hull": hull,
                "avoiding": avoiding,
            }
        return failure, {}

    return map(one, _count_walk(n), _hull_walk(n))


def _check_weak_chain(n: int, expr: str) -> _Outcomes:
    chromo = [w for w in all_permutations(n) if is_chromobruhatic(w)]
    chromo_words = {w.word for w in chromo}
    reachable: set[tuple[int, ...]] = {Permutation.identity(n).word}
    for w in sorted(chromo, key=lambda u: u.length()):
        if w.is_identity():
            continue
        if any(u.word in reachable for u in two_sided_weak_covers(w)):
            reachable.add(w.word)

    def one(w: Permutation):
        chromo = w.word in chromo_words
        failure = {"w": str(w)} if chromo and w.word not in reachable else None
        return failure, {"chromobruhatic": int(chromo)}

    return map(one, all_permutations(n))


# Each check's largest n and its scan; interval-heavy checks stop earlier
# than the count-only conjecture sweeps.
CHECKS: dict[str, tuple[int, Callable[[int, str], _Outcomes]]] = {
    "conjectureA": (8, _check_conjecture_a),
    "conjectureB": (8, _check_conjecture_b),
    "phi-injective": (6, _check_phi_injective),
    "phi-surjective-iff": (6, _check_phi_surjective_iff),
    "going-down": (6, _check_going_down),
    "characterization": (6, _check_characterization),
    "betti": (6, _check_betti),
    "chromatic-identity": (6, _check_chromatic_identity),
    "opy": (8, _check_opy),
    "recurrences": (7, _check_recurrences),
    "hull-vs-standard": (6, _check_hull_vs_standard),
    "weak-chain": (7, _check_weak_chain),
}

# phi-injective over every reduced expression is exponential in n.
ALL_EXPR_CEILING = 4


def run_check(
    check: str,
    n: int,
    expr: str = "canonical",
    cap: Optional[int] = DEFAULT_COUNTEREXAMPLE_CAP,
) -> Report:
    """Run one named check over all of S_n and wrap the outcome in a Report.

    ``expr`` is "canonical" (the canonical reduced expression) or "all"
    (every reduced expression, phi-injective only).  ``cap`` bounds the
    counterexample list (None keeps everything); the population size and
    payload are unaffected by it.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; options: {sorted(CHECKS)}")
    if expr not in ("canonical", "all"):
        raise ValueError(f"expr must be 'canonical' or 'all', got {expr!r}")
    if cap is not None and cap < 0:
        raise ValueError(f"the counterexample cap must be >= 0, got {cap}")
    ceiling, scan = CHECKS[check]
    if expr == "all":
        if check != "phi-injective":
            raise ValueError("--expr all applies only to phi-injective")
        ceiling = min(ceiling, ALL_EXPR_CEILING)
    if not 1 <= n <= ceiling:
        raise ValueError(f"check {check!r} accepts 1 <= n <= {ceiling}, got {n}")
    started = time.perf_counter()
    failures = []
    counts: dict[str, int] = {}
    for failure, found in scan(n, expr):
        if failure is not None:
            failures.append(failure)
        for key, amount in found.items():
            counts[key] = counts.get(key, 0) + amount
    elapsed = time.perf_counter() - started
    truncated = cap is not None and len(failures) > cap
    payload = dict(sorted(counts.items()))
    payload["failure_count"] = len(failures)
    if expr != "canonical":
        payload["expression_mode"] = expr
    return Report(
        check=check,
        n=n,
        population=factorial(n),
        passed=not failures,
        counterexamples=failures[:cap] if cap is not None else failures,
        payload=payload,
        elapsed_s=elapsed,
        truncated=truncated,
    )
