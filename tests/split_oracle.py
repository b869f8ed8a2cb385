"""The listing evaluation of the bound's split, kept as the oracle of
``prob.r_split_formula``.

Every prime-order element (alpha,...,alpha)pi of G_D is listed by
``prime_order_candidates`` and tagged by the fixed points of pi (1 = none,
2 = all: pi trivial, 3 = some).  The listing is grouped by (tag, fixed
points f, order p, label for tag 1 and |C_Inn(alpha)| otherwise), and each
group adds its size times the closed-form term of ``r_split_formula``:
    tag 1:  N(alpha) |C_O(label)| |T|^(k/p) / (|X| |T|^(k-1))
    else:   |C_Inn(alpha)|^(f-1) |T|^((k-f)/p) / |T|^(k-1)
with |C_Inn(alpha)| counted by comparing each listed aut row with the
identity map of T, and N(alpha) by ``fpf_diagonal_count`` over the
out-part aut rows.
"""

from fractions import Fraction

import numpy as np

from diagbase.prob import _out_centralizer_order, prime_order_candidates


def fpf_diagonal_count(g, label, p):
    """N = #{beta in X : beta^p = 1, label of beta in label^O}, over the
    out-part aut rows one by one: the oracle of
    ``prob._fpf_diagonal_count``."""
    aut = g.T.aut
    out = np.asarray(g.out_labels)
    lm = aut.label_mul
    in_class = np.zeros(aut.out_order, dtype=bool)
    in_class[lm[lm[out, label], aut.label_inv[out]]] = True
    rows = g.aut_rows
    return int(np.count_nonzero((p % aut.orders[rows] == 0)
                                & in_class[aut.labels[rows]]))


def r_split(g):
    """(fpf, trivial, mixed) contributions, each an exact rational."""
    cand_a, cand_p = prime_order_candidates(g)
    aut, n, k = g.T.aut, g.T.order, g.k
    top = g.top.table
    fixed = (top.arrays() == np.arange(k)).sum(axis=1)[cand_p]
    tags = np.where(fixed == 0, 1, np.where(fixed == k, 2, 3))
    order = np.maximum(aut.orders[cand_a], top.element_orders()[cand_p])
    rows, of = np.unique(cand_a, return_inverse=True)
    c_inn = (aut.rows[rows] == np.arange(n)).sum(axis=1)[of]
    value = np.where(tags == 1, aut.labels[cand_a], c_inn)
    keys, counts = np.unique(np.stack([tags, fixed, order, value], axis=1),
                             axis=0, return_counts=True)
    num = {1: 0, 2: 0, 3: 0}
    for (tag, f, p, v), c in zip(keys.tolist(), counts.tolist()):
        if tag == 1:
            num[1] += (c * fpf_diagonal_count(g, v, p)
                       * _out_centralizer_order(g, v) * n ** (k // p))
        else:
            num[tag] += c * v ** (f - 1) * n ** ((k - f) // p)
    den = n ** (k - 1)
    return (Fraction(num[1], len(g.aut_rows) * den),
            Fraction(num[2], den), Fraction(num[3], den))
