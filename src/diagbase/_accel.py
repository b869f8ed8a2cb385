"""The diagonal-stabilizer scan: one vectorized numpy kernel.

A diagonal pair ``(alpha, pi)`` fixes the point with canonical tuple ``t``
(``t[0]`` the identity) iff for every coordinate ``i``::

    alpha[t[i]] == mul[inv[t[pi[0]]], t[pi[i]]]

where ``mul``/``inv`` are the multiplication and inverse tables of T.
Candidates are given as parallel index arrays ``cand_a`` (rows into ``auts``)
and ``cand_p`` (rows into ``perms``).

``_fixing_pairs`` needs canonical tuples and k >= 2.  Coordinate 0 then
always holds (every automorphism fixes the identity, id 0, and
``inv[y] y`` is the identity), so it is skipped.  Coordinate 1 is tested as
one broadcast block per chunk of tuples, candidates x chunk rows, and
``np.nonzero`` of that block gives the surviving (candidate, tuple) pairs.
Its two sides depend on alpha alone and on pi alone, so each is looked up
once per aut row or perm in use and spread over the block by row copies.
Coordinates 2 on are then tested one at a time on the survivors only,
until none is left.  Most pairs fail at coordinate 1, so later coordinates
touch few pairs.
Chunks of about ``_CHUNK_PAIRS`` pairs keep the working arrays small
whatever the number of tuples.  The three public scans are reductions of
its output.

Before that, candidates whose perm fails an element-order test on every
tuple are dropped: automorphisms keep element order, so ``(alpha, pi)``
fixes ``t`` only if ``orders[t[i]] == orders[mul[inv[t[pi[0]]], t[pi[i]]]]``
for all ``i``.  The test needs pi and t alone and runs per (moved perm,
tuple) pair; it is skipped at k = 2, where it always holds, and when the
moved-perm candidates x tuples fit in one chunk.
"""

from __future__ import annotations

import numpy as np

# 2-CPU VM, the 56 kernel calls of a perfbench prob-sweep op list, best of 7
# each: 2^14 pairs per chunk 57 ms, 2^15 51, 2^16 47, 2^17 and 2^18 45 ms
# (base-search: 40 ms at each); peak RSS flat up to 2^18, +6 MB at 2^20.
_CHUNK_PAIRS = 1 << 16


def _distinct(index, n_rows):
    """(rows, of): the table rows to evaluate one side of coordinate 1 on,
    and each candidate's position among them.  That is the whole table when
    it has no more rows than there are candidates (no sort needed), else
    the distinct rows the candidates use."""
    if n_rows <= len(index):
        return np.arange(n_rows), index.astype(np.intp)
    return np.unique(index, return_inverse=True)


def _order_passes(perms, passed, tuples, orders, mul, inv):
    """Mask over the rows of ``perms``: the perm passes the element-order
    test on some tuple.  Rows already ``passed`` are not tested."""
    mul_flat, n_t = mul.ravel(), mul.shape[1]
    step = max(1, _CHUNK_PAIRS // len(perms))
    for start in range(0, len(tuples), step):
        cols = np.ascontiguousarray(tuples[start:start + step].T)
        ords, base_p = orders[cols], inv[cols[perms[:, 0]]]
        rhs = orders[mul_flat[base_p * n_t + cols[perms[:, 1]]]]
        p, j = np.nonzero((ords[1] == rhs) & ~passed[:, None])
        base = base_p[p, j]
        for i in range(2, len(cols)):
            if not len(p):
                break
            keep = ords[i, j] == orders[mul[base, cols[perms[p, i], j]]]
            p, j, base = p[keep], j[keep], base[keep]
        passed[p] = True
    return passed


def _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv, orders):
    """Index arrays ``(c, j)`` of the pairs where candidate ``c`` fixes
    tuple ``j``; tuples canonical, k >= 2, ``perms`` row 0 the identity."""
    m, live = len(tuples), None
    if tuples.shape[1] > 2 and np.count_nonzero(cand_p) * m > _CHUNK_PAIRS:
        rows, of = _distinct(cand_p, len(perms))
        live = np.flatnonzero(_order_passes(perms[rows], rows == 0, tuples,
                                            orders, mul, inv)[of])
        cand_a, cand_p = cand_a[live], cand_p[live]
    # coordinate 1 reads lhs(alpha) == rhs(pi, tuple)
    rows_a, of_a = _distinct(cand_a, len(auts))
    rows_p, of_p = _distinct(cand_p, len(perms))
    # flat indices into the tables read faster than 2-d fancy indexing
    auts_flat, at_a = auts.ravel(), (rows_a * auts.shape[1])[:, None]
    mul_flat, n_t = mul.ravel(), mul.shape[1]
    perms_p = perms[rows_p]
    step = max(1, _CHUNK_PAIRS // max(len(cand_a), 1))
    found = [(np.zeros(0, np.intp),) * 2]
    for start in range(0, m, step):
        cols = np.ascontiguousarray(tuples[start:start + step].T)
        base_p = inv[cols[perms_p[:, 0]]]
        lhs = auts_flat[at_a + cols[1]]
        rhs = mul_flat[base_p * n_t + cols[perms_p[:, 1]]]
        c, j = np.nonzero(lhs[of_a] == rhs[of_p])
        base = base_p[of_p[c], j]
        j += start
        for i in range(2, tuples.shape[1]):
            if not len(c):
                break
            keep = auts[cand_a[c], tuples[j, i]] == \
                mul[base, tuples[j, perms[cand_p[c], i]]]
            c, j, base = c[keep], j[keep], base[keep]
        found.append((c, j))
    c, j = (np.concatenate(x) for x in zip(*found))
    return (c if live is None else live[c]), j


def filter_candidates(auts, perms, cand_a, cand_p, tuples, mul, inv, orders):
    """Mask of candidates fixing every tuple."""
    c, _ = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv,
                         orders)
    return (np.bincount(c, minlength=len(cand_a)) == len(tuples)) \
        .astype(np.uint8)


def detect_per_tuple(auts, perms, cand_a, cand_p, tuples, mul, inv, orders):
    """Per tuple: 1 if any candidate fixes it."""
    _, j = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv,
                         orders)
    return (np.bincount(j, minlength=len(tuples)) > 0).astype(np.uint8)


def count_per_tuple(auts, perms, cand_a, cand_p, tuples, mul, inv, orders):
    """Per tuple: number of candidates fixing it."""
    _, j = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv,
                         orders)
    return np.bincount(j, minlength=len(tuples)).astype(np.int64)
