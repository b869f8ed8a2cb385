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
"""

from __future__ import annotations

import numpy as np

# On a 2-CPU VM, for A6 k=37 dihedral (4,515 candidates x 200 tuples), 2^16
# was the fastest of 2^14, 2^16, 2^18 and 2^20 pairs per chunk and left peak
# RSS flat (2^18: +9 MB, 2^20: +38 MB).
_CHUNK_PAIRS = 1 << 16


def _distinct(index, n_rows):
    """(rows, of): the table rows to evaluate one side of coordinate 1 on,
    and each candidate's position among them.  That is the whole table when
    it has no more rows than there are candidates (no sort needed), else
    the distinct rows the candidates use."""
    if n_rows <= len(index):
        return np.arange(n_rows), index.astype(np.intp)
    return np.unique(index, return_inverse=True)


def _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv):
    """Index arrays ``(c, j)`` of the pairs where candidate ``c`` fixes
    tuple ``j``; the tuples must be canonical, with k >= 2."""
    n, m = len(cand_a), len(tuples)
    # coordinate 1 reads lhs(alpha) == rhs(pi, tuple)
    rows_a, of_a = _distinct(cand_a, len(auts))
    rows_p, of_p = _distinct(cand_p, len(perms))
    # flat indices into the tables read faster than 2-d fancy indexing
    auts_flat, at_a = auts.ravel(), (rows_a * auts.shape[1])[:, None]
    mul_flat, n_t = mul.ravel(), mul.shape[1]
    perms_p = perms[rows_p]
    step = max(1, _CHUNK_PAIRS // max(n, 1))
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
    c, j = zip(*found)
    return np.concatenate(c), np.concatenate(j)


def filter_candidates(auts, perms, cand_a, cand_p, tuples, mul, inv):
    """Mask of candidates fixing every tuple."""
    c, _ = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv)
    return (np.bincount(c, minlength=len(cand_a)) == len(tuples)) \
        .astype(np.uint8)


def detect_per_tuple(auts, perms, cand_a, cand_p, tuples, mul, inv):
    """Per tuple: 1 if any candidate fixes it."""
    _, j = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv)
    return (np.bincount(j, minlength=len(tuples)) > 0).astype(np.uint8)


def count_per_tuple(auts, perms, cand_a, cand_p, tuples, mul, inv):
    """Per tuple: number of candidates fixing it."""
    _, j = _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv)
    return np.bincount(j, minlength=len(tuples)).astype(np.int64)


def as_tuple_matrix(tuples, k):
    """Stack point tuples into a contiguous (n, k) int32 matrix."""
    arr = np.asarray(list(tuples), dtype=np.int32)
    if arr.size == 0:
        arr = arr.reshape(0, k)
    return np.ascontiguousarray(arr)
