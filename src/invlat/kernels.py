"""The hot kernel: memoised deletion-contraction chromatic polynomials."""

from __future__ import annotations

IMPLEMENTATION = "python"

# Chromatic coefficients of every graph the recursion has met, keyed by its
# labelled neighbour-mask tuple and shared by every call in the process: the
# inversion graphs of a sweep over S_n have many sub-graphs in common.
# Values are tuples, so no caller can alter an entry.
_memo: dict[tuple[int, ...], tuple[int, ...]] = {}


def chromatic_coeffs(masks) -> tuple[int, ...]:
    """Chromatic polynomial of a simple graph, ascending coefficients.

    The graph is given by 0-based neighbor bitmasks.  Deletion-contraction
    with the process-wide memo on labelled graphs, after peeling isolated and
    degree-1 vertices, splitting connected components, and short-circuiting
    edgeless and complete graphs.
    """
    return _chi(tuple(masks), _memo)


def _chi(masks: tuple, memo: dict) -> tuple:
    v = len(masks)
    if v == 0:
        return (1,)
    cached = memo.get(masks)
    if cached is not None:
        return cached

    # Peel vertices of degree 0 (factor t) and degree 1 (factor t-1).
    t_factors = 0
    t1_factors = 0
    work = list(masks)
    alive = list(range(v))
    changed = True
    while changed:
        changed = False
        for idx in range(len(alive) - 1, -1, -1):
            deg = work[idx].bit_count()
            if deg <= 1:
                if deg == 0:
                    t_factors += 1
                else:
                    t1_factors += 1
                    nb = work[idx].bit_length() - 1
                    work[nb] &= ~(1 << idx)
                # Drop vertex idx and compact the bit positions above it.
                del work[idx]
                del alive[idx]
                low = (1 << idx) - 1
                for k in range(len(work)):
                    m = work[k]
                    work[k] = (m & low) | ((m >> 1) & ~low)
                changed = True

    if t_factors or t1_factors:
        core = _chi(tuple(work), memo)
        res = core
        for _ in range(t1_factors):
            res = _sub(_shift(res), res)
        res = (0,) * t_factors + res
        memo[masks] = res
        return res

    k = len(work)
    if k == 0:
        res = (1,)
        memo[masks] = res
        return res

    comps = _components(work)
    if len(comps) > 1:
        res = (1,)
        for comp in comps:
            res = _mul(res, _chi(_induced(work, comp), memo))
        memo[masks] = res
        return res

    full = (1 << k) - 1
    if all(work[i] == full ^ (1 << i) for i in range(k)):
        # Complete graph: t (t-1) ... (t-k+1).
        res = (1,)
        for r in range(k):
            res = _sub(_shift(res), [c * r for c in res])
        memo[masks] = res
        return res

    # Delete/contract an edge at a max-degree vertex.
    u = max(range(k), key=lambda i: work[i].bit_count())
    nbs = work[u]
    best = -1
    wv = -1
    while nbs:
        b = nbs & -nbs
        nbs ^= b
        j = b.bit_length() - 1
        d = work[j].bit_count()
        if d > best:
            best = d
            wv = j
    deleted = list(work)
    deleted[u] &= ~(1 << wv)
    deleted[wv] &= ~(1 << u)
    contracted = _contract(work, min(u, wv), max(u, wv))
    res = _sub(_chi(tuple(deleted), memo), _chi(contracted, memo))
    memo[masks] = res
    return res


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
