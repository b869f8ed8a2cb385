"""The diagonal-stabilizer scan: one vectorized numpy kernel.

A diagonal pair ``(alpha, pi)`` fixes the point with canonical tuple ``t``
(``t[0]`` the identity) iff for every coordinate ``i``::

    alpha[t[i]] == mul[inv[t[pi[0]]], t[pi[i]]]

where ``mul``/``inv`` are the multiplication and inverse tables of T.
Candidates are given as parallel index arrays ``cand_a`` (rows into ``auts``)
and ``cand_p`` (rows into ``perms``).

``_fixing_pairs`` tests every (candidate, tuple) pair of a chunk of tuples
one coordinate at a time, keeping only the pairs that still hold; most pairs
fail within the first coordinates, so later ones touch few pairs.  Chunks of
about ``_CHUNK_PAIRS`` pairs keep the working arrays small whatever the
number of tuples.  The three public scans are reductions of its output.
"""

from __future__ import annotations

import numpy as np

# On a 2-CPU VM, for A6 k=37 dihedral (4,515 candidates x 200 tuples), 2^16
# was the fastest of 2^14, 2^16, 2^18 and 2^20 pairs per chunk and left peak
# RSS flat (2^18: +9 MB, 2^20: +38 MB).
_CHUNK_PAIRS = 1 << 16


def _fixing_pairs(auts, perms, cand_a, cand_p, tuples, mul, inv):
    """Index arrays ``(c, j)`` of the pairs where candidate ``c`` fixes
    tuple ``j``."""
    n, m = len(cand_a), len(tuples)
    pi = perms[cand_p]
    step = max(1, _CHUNK_PAIRS // max(n, 1))
    found = [(np.zeros(0, np.intp),) * 2]
    for start in range(0, m, step):
        rows = np.arange(start, min(start + step, m))
        c, j = np.tile(np.arange(n), len(rows)), np.repeat(rows, n)
        base = inv[tuples[j, pi[c, 0]]]
        for i in range(tuples.shape[1]):
            keep = auts[cand_a[c], tuples[j, i]] == \
                mul[base, tuples[j, pi[c, i]]]
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
