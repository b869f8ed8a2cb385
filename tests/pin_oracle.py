"""Brute-force twin of ``baseengine._pinned_pairs``, kept as its oracle.

Given the distinct columns ``D`` of a tuple matrix (x_0 first), their class
codes ``cls`` and the columns ``ys`` of x_0's class, pick K, the smallest
class with x_0 not counted (ties to the least code), and z, the first column
of K other than x_0.  Then try every pair (alpha index, y index) and keep it
when y * alpha(z), entry by entry, is one of K's columns.  No pinning, no
column codes: K is a set of tuples.
"""

import numpy as np


def pinned_pairs(g, D, cls, ys):
    """Ascending flat indices (alpha index * n_y + y index) of the pairs
    (alpha, y) with y * alpha(z) a column of K; every pair when x_0 is the
    only column."""
    T, n_y = g.T, ys.shape[1]
    classes = sorted(set(cls.tolist()))
    size = {c: int((cls == c).sum()) - (c == cls[0]) for c in classes}
    size = {c: s for c, s in size.items() if s > 0}
    if not size:
        return np.arange(len(g.aut_rows) * n_y)
    k_cls = min(size, key=lambda c: (size[c], c))
    members = np.flatnonzero(cls == k_cls)
    z = D[:, members[members > 0][0]]
    columns = set(zip(*D[:, members].tolist()))
    found = []
    for i, a in enumerate(g.aut_rows.tolist()):
        image = T.mul[ys, T.aut.rows[a][z][:, None]]
        found += [i * n_y + j for j, col in enumerate(zip(*image.tolist()))
                  if col in columns]
    return np.array(found, dtype=np.intp)
