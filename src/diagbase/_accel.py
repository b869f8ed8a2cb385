"""The diagonal-stabilizer scan: one vectorized numpy kernel.

(alpha, pi) fixes the point with canonical tuple t iff ``alpha[t[i]] ==
mul[inv[t[pi[0]]], t[pi[i]]]`` at every i (README, "The scan kernel");
a flat candidate list of up to one chunk of pairs skips the perm runs.
"""

from __future__ import annotations

import numpy as np

# entries per block of candidates, tuples or pairs, bounding the arrays
_CHUNK_PAIRS = 1 << 16
# tables are read flat, entry [r, c] of a w-column table at r * w + c: take
# reads many indices about twice as fast as fancy indexing


def _runs(lo, hi):
    """Yield blocks (i, pos) of every pos in [lo[i], hi[i]), in order."""
    n = hi - lo
    starts = (ends := np.cumsum(n)) - n
    cuts = [] if not len(n) or ends[-1] <= _CHUNK_PAIRS else np.searchsorted(
        ends, np.arange(_CHUNK_PAIRS, ends[-1], _CHUNK_PAIRS), "right")
    for s, e in zip([0, *cuts], [*cuts, len(n)]):
        if (i := np.repeat(np.arange(s, e), n[s:e])).size:
            yield i, (lo - starts).take(i) + np.arange(starts[s], ends[e - 1])


def _rhs(T, P, cols):
    """mul[inv[t[pi[0]]], t[pi[1]]] per perm row pi of P, tuple column t."""
    return T.mul.ravel().take(T.inv.take(cols.take(P[:, 0], axis=0)) *
                              T.order + cols.take(P[:, 1], axis=0))


def _holding(T, P, g, alpha, t, j, c, order=False):
    """Positions i at which (alpha[i], P[g[i]]) fixes tuple t[j[i]] at every
    coordinate from c on, or with ``order`` passes the element-order test."""
    i, (n, k), flat = np.arange(len(j)), (T.order, t.shape[1]), t.ravel()
    jk, gk, P = j * k, g * k, P.ravel()
    base = T.inv.take(flat.take(jk + P.take(gk))) * n if c < k else 0
    while c < k and len(i):
        y = flat.take((ji := jk.take(i)) + c)
        rhs = T.mul.ravel().take(base.take(i) + flat.take(
            ji + P.take(gk.take(i) + c)))
        i, c = i[T.order_of.take(y) == T.order_of.take(rhs) if order else
                 T.aut.rows.ravel().take(alpha.take(i) * n + y) == rhs], c + 1
    return i


def _scan(T, P, ident, a, tuples, lo, hi):
    """Index arrays (g, pos, j): candidate (aut row a[pos], top perm P[g]),
    lo[g] <= pos < hi[g], fixes tuple j; tuples canonical, k >= 2, run 0
    the identity's if ``ident``; a perm in several runs, or the identity
    heading a later one, gives the same pairs, only more slowly."""
    n, m, k, G = T.order, len(tuples), tuples.shape[1], len(P)
    rows, mul, (ptr, fixers) = T.aut.rows.ravel(), T.mul.ravel(), T.aut.fixers
    found = [(np.zeros(0, np.intp),) * 3]
    n_moved = int((sizes := hi - lo).sum()) - (n_id := ident and int(sizes[0]))
    # each test pays on a large scan of perms with many aut rows; P[d0:d1]
    # meet the tuples in blocks of candidates x tuples (README)
    ordered = k > 2 and n_moved * m > _CHUNK_PAIRS and \
        n_moved > 2 * (G - ident)
    indexed = n_id * m > _CHUNK_PAIRS and n_id * n > len(fixers)
    if indexed:    # the identity's position of each aut row, if distinct
        at, ids = np.full(T.aut.n_aut, -1), np.arange(lo[0], hi[0])
        at[a.take(ids)] = ids
        indexed = bool((at.take(a.take(ids)) == ids).all())
    d0, d1 = ident * indexed, ident - ident * indexed if ordered else G
    width = int(sizes[d0:d1].sum()) + (G - ident) * (ordered or indexed)
    for s in range(0, m, step := _CHUNK_PAIRS // max(width, 1) or 1):
        t = np.ascontiguousarray(tuples[s:s + step])
        cols, met = np.ascontiguousarray(t.T), []
        for g, pos in _runs(lo[d0:d1], hi[d0:d1]):
            u = _rhs(T, P[g[0] + d0:g[-1] + d0 + 1], cols).take(g - g[0], 0)
            c, j = np.divmod(np.flatnonzero(rows.take(
                a.take(pos)[:, None] * n + cols[1]) == u), len(t))
            met.append((g.take(c) + d0, pos.take(c), j, 2))
        x = t.ravel().take(np.arange(len(t)) * k + (f := (t != 0).argmax(
            axis=1))) if ordered or indexed else None
        if ordered:    # the order test, then u: each pair's rhs at x
            g, j = np.divmod(np.flatnonzero(T.order_of.take(_rhs(
                T, P[ident:], cols)) == T.order_of.take(cols[1])), len(t))
            ok = _holding(T, P[ident:], g, None, t, j, 2, order=True)
            g, j = g.take(ok) + ident, j.take(ok)
            u = mul.take(T.inv.take(t.take(j * k + P.take(g * k))) * n +
                         t.take(j * k + P.take(g * k + f.take(j))))
            for i, pos in _runs(lo.take(g), hi.take(g)):
                hit = rows.take(a.take(pos) * n + x.take(j.take(i))) == \
                    u.take(i)
                met.append((g.take(i[hit]), pos[hit], j.take(i[hit]), 1))
        for j, q in _runs(ptr.take(x), ptr.take(x + 1)) if indexed else ():
            pos = at.take(fixers.take(q))
            met.append((0 * j[pos >= 0], pos[pos >= 0], j[pos >= 0], 1))
        for g, pos, j, c in met:
            ok = _holding(T, P, g, a.take(pos), t, j, c)
            found.append((g.take(ok), pos.take(ok), j.take(ok) + s))
    return [np.concatenate(x) for x in zip(*found)]


def _fixing_pairs(T, perms, cand_a, cand_p, tuples):
    """Index arrays ``(c, j)``: candidate c, aut row cand_a[c] with top perm
    perms[cand_p[c]], fixes tuple j; perms row 0 the identity.  Up to one
    chunk of pairs, one block: alpha(t_1) against each pair's rhs; past
    it, ``_scan`` of the runs of equal cand_p as given: any order gives the
    same pairs, fastest perm-major, identity first, as G_D is listed."""
    if len(cand_a) * len(tuples) <= _CHUNK_PAIRS:
        # each perm's rhs, or each candidate's if fewer: at most one chunk
        P, g = (perms, cand_p) if len(perms) <= len(cand_a) else \
            (perms.take(cand_p, 0), np.arange(len(cand_p)))
        c, j = np.divmod(np.flatnonzero(T.aut.rows.ravel().take(
            cand_a[:, None] * T.order + tuples[:, 1]) == _rhs(
                T, P, tuples.T).take(g, 0)), len(tuples))
        ok = _holding(T, P, g.take(c), cand_a.take(c), tuples, j, 2)
        return c.take(ok), j.take(ok)
    # nonempty past one chunk; a run starts wherever the perm changes
    lo = np.flatnonzero(np.concatenate(([True], cand_p[1:] != cand_p[:-1])))
    _, pos, j = _scan(T, perms[cand_p.take(lo)], int(cand_p[0] == 0), cand_a,
                      tuples, lo, np.append(lo[1:], len(cand_p)))
    return pos, j


def filter_candidates(T, perms, cand_a, cand_p, tuples):
    """Mask of candidates fixing every tuple."""
    c, _ = _fixing_pairs(T, perms, cand_a, cand_p, tuples)
    return (np.bincount(c, minlength=len(cand_a)) == len(tuples)) \
        .astype(np.uint8)


def detect_per_tuple(T, perms, cand_a, cand_p, tuples):
    """Per tuple: 1 if any candidate fixes it."""
    _, j = _fixing_pairs(T, perms, cand_a, cand_p, tuples)
    return (np.bincount(j, minlength=len(tuples)) > 0).astype(np.uint8)


def count_per_tuple(T, perms, cand_a, cand_p, tuples):
    """Per tuple: number of candidates fixing it."""
    _, j = _fixing_pairs(T, perms, cand_a, cand_p, tuples)
    return np.bincount(j, minlength=len(tuples)).astype(np.int64)
