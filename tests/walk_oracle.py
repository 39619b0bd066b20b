"""The count walk that reads its leaves two levels early, in closed form:
the test oracle for ``invlat.verify._count_walk``, which reads them four
levels early from per-value-set tables, each built by a fold over the DP
states' gap counts.

Both walks carry the same two DPs down the prefixes of S_n (the prefix sets
of the u <= w, and the colourings by their classes' maxima) and must yield
the same ``(word, br, ao)`` stream; only the way the last levels are folded
differs.
"""

from __future__ import annotations

import functools
from math import factorial
from typing import Iterator

from invlat.bruhat import _dominated_sets, _grow
from invlat.chromatic import _colour_step


def two_level_walk(n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(word, br, ao)`` for every w of S_n, in lexicographic order.

    Once two values a < b are left, the leaves (..., a, b) and (..., b, a)
    are read off the prefix's DPs:

    - br.  Each surviving prefix set s of u misses two values; it grows to
      full - {z} for either value z it misses, which w's prefix of length
      n - 1, full - {y}, dominates exactly when z >= y.  So
      br(...ab) = sum c_s |miss_s >= b| and br(...ba) = sum c_s |miss_s >= a|.
    - ao.  A colouring state with j classes weighs sf[j] = (-1)^(n+j) j!
      once complete, and appending x opens a class or takes over one of the
      m_x class maxima below x.  Folding x then y into a state with m_a
      maxima below a and m_b below b gives
      sf[j+2] + (m_a + m_b + 1) sf[j+1] + m_a m_b sf[j] for (a, b), and
      sf[j+2] + (m_a + m_b) sf[j+1] + m_a (m_b - 1) sf[j] for (b, a).
    """
    if n == 1:
        yield (1,), 1, 1
        return
    full = (1 << n) - 1
    sf = [(-1) ** (n + j) * factorial(j) for j in range(n + 1)]
    dominated = functools.cache(lambda top: _dominated_sets(top, n))

    def walk(word, top, ideals, colours):
        if len(word) == n - 2:
            missing = full ^ top
            below_a = (missing & -missing) - 1
            a = below_a.bit_length() + 1
            b = missing.bit_length()
            below_b = (1 << (b - 1)) - 1
            br_ab = br_ba = 0
            for s, count in ideals.items():
                miss = full ^ s
                br_ab += count * (miss >> (b - 1)).bit_count()
                br_ba += count * (miss >> (a - 1)).bit_count()
            ao_ab = ao_ba = 0
            for s, count in colours.items():
                j = s.bit_count()
                m_a = (s & below_a).bit_count()
                m_b = (s & below_b).bit_count()
                ao_ab += count * (
                    sf[j + 2] + (m_a + m_b + 1) * sf[j + 1] + m_a * m_b * sf[j]
                )
                ao_ba += count * (
                    sf[j + 2] + (m_a + m_b) * sf[j + 1] + m_a * (m_b - 1) * sf[j]
                )
            yield word + (a, b), br_ab, ao_ab
            yield word + (b, a), br_ba, ao_ba
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
