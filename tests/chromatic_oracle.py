"""Deletion-contraction for chromatic polynomials and for acyclic-orientation
counts: the test oracle for the library's colouring DP.

Both recursions peel isolated and degree-1 vertices, split connected
components, short-circuit complete graphs and otherwise delete and contract
the same edge.  Unlike the DP they take any simple graph, not only an
inversion graph.  Each call keeps its own memo on labelled graphs.
"""

from __future__ import annotations

from math import factorial


def chromatic_coeffs(masks) -> tuple[int, ...]:
    """Chromatic polynomial of a simple graph, ascending coefficients.

    The graph is given by 0-based neighbor bitmasks.  Deletion-contraction
    with a memo on labelled graphs for this one call, after peeling isolated
    and degree-1 vertices, splitting connected components, and
    short-circuiting edgeless and complete graphs.
    """
    return _chi(tuple(masks), {})


def acyclic_orientation_count(masks) -> int:
    """Number of acyclic orientations of a simple graph given by 0-based
    neighbor bitmasks.

    Stanley's deletion-contraction a(G) = a(G - e) + a(G / e), with a factor
    1 per isolated vertex, 2 per pendant vertex, k! for K_k and the product
    over components, memoised on labelled graphs for this one call.
    """
    return _ao(tuple(masks), {})


def _chi(masks: tuple, memo: dict) -> tuple:
    if not masks:
        return (1,)
    cached = memo.get(masks)
    if cached is not None:
        return cached

    work, isolated, pendant = _peel(masks)
    if isolated or pendant:
        # Each isolated vertex gives a factor t, each pendant one t-1.
        res = _chi(work, memo)
        for _ in range(pendant):
            res = _sub(_shift(res), res)
        res = (0,) * isolated + res
    elif len(comps := _components(work)) > 1:
        res = (1,)
        for comp in comps:
            res = _mul(res, _chi(_induced(work, comp), memo))
    elif _is_complete(work):
        # t (t-1) ... (t-k+1).
        res = (1,)
        for r in range(len(work)):
            res = _sub(_shift(res), [c * r for c in res])
    else:
        deleted, contracted = _split_edge(work)
        res = _sub(_chi(deleted, memo), _chi(contracted, memo))
    memo[masks] = res
    return res


def _ao(masks: tuple, memo: dict) -> int:
    if not masks:
        return 1
    cached = memo.get(masks)
    if cached is not None:
        return cached

    work, isolated, pendant = _peel(masks)
    if isolated or pendant:
        # An isolated vertex has one orientation, a pendant edge two.
        res = _ao(work, memo) << pendant
    elif len(comps := _components(work)) > 1:
        res = 1
        for comp in comps:
            res *= _ao(_induced(work, comp), memo)
    elif _is_complete(work):
        # The acyclic orientations of K_k are its k! linear orders.
        res = factorial(len(work))
    else:
        # Stanley: a(G) = a(G - e) + a(G / e).
        deleted, contracted = _split_edge(work)
        res = _ao(deleted, memo) + _ao(contracted, memo)
    memo[masks] = res
    return res


def _peel(masks: tuple) -> tuple[tuple, int, int]:
    """Strip vertices of degree 0 and 1 until none is left; return the
    compacted core and how many isolated and pendant vertices went."""
    isolated = 0
    pendant = 0
    work = list(masks)
    changed = True
    while changed:
        changed = False
        for idx in range(len(work) - 1, -1, -1):
            deg = work[idx].bit_count()
            if deg <= 1:
                if deg == 0:
                    isolated += 1
                else:
                    pendant += 1
                    nb = work[idx].bit_length() - 1
                    work[nb] &= ~(1 << idx)
                # Drop vertex idx and compact the bit positions above it.
                del work[idx]
                low = (1 << idx) - 1
                for j in range(len(work)):
                    m = work[j]
                    work[j] = (m & low) | ((m >> 1) & ~low)
                changed = True
    return tuple(work), isolated, pendant


def _is_complete(masks: tuple) -> bool:
    full = (1 << len(masks)) - 1
    return all(m == full ^ (1 << i) for i, m in enumerate(masks))


def _split_edge(masks: tuple) -> tuple[tuple, tuple]:
    """Delete and contract the edge from a max-degree vertex to its
    highest-degree neighbour: (G - e, G / e)."""
    degrees = [m.bit_count() for m in masks]
    u = max(range(len(masks)), key=degrees.__getitem__)
    nbs = masks[u]
    best = -1
    wv = -1
    while nbs:
        b = nbs & -nbs
        nbs ^= b
        j = b.bit_length() - 1
        if degrees[j] > best:
            best = degrees[j]
            wv = j
    deleted = list(masks)
    deleted[u] &= ~(1 << wv)
    deleted[wv] &= ~(1 << u)
    return tuple(deleted), _contract(masks, min(u, wv), max(u, wv))


def _contract(masks, a: int, b: int) -> tuple:
    """Merge vertex b into a (a < b), drop b, compact bit positions."""
    merged = (masks[a] | masks[b]) & ~((1 << a) | (1 << b))
    out = []
    for i in range(len(masks)):
        if i == b:
            continue
        m = merged if i == a else masks[i]
        if i != a and (m >> b) & 1:
            m = (m & ~(1 << b)) | (1 << a)
        low = (1 << b) - 1
        out.append((m & low) | ((m >> 1) & ~low))
    return tuple(out)


def _components(masks) -> list:
    v = len(masks)
    seen = 0
    comps = []
    for s in range(v):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = frontier
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(comp)
    return comps


def _induced(masks, comp: int) -> tuple:
    keep = []
    m = comp
    while m:
        b = m & -m
        m ^= b
        keep.append(b.bit_length() - 1)
    pos = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        nm = 0
        mm = masks[old] & comp
        while mm:
            b = mm & -mm
            mm ^= b
            nm |= 1 << pos[b.bit_length() - 1]
        out.append(nm)
    return tuple(out)


def _shift(p: tuple) -> tuple:
    return (0,) + p


def _sub(p, q) -> tuple:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)
