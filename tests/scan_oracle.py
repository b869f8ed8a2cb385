"""The candidate x tuple broadcast, kept as the oracle of the scan kernel.

``fixes[c, j]`` says whether candidate ``c``, aut row ``cand_a[c]`` with top
perm ``perms[cand_p[c]]``, fixes the canonical tuple ``j``: the fixing
condition ``alpha[t[i]] == mul[inv[t[pi[0]]], t[pi[i]]]`` evaluated for
every candidate, tuple and coordinate at once, with no pruning.
"""

import numpy as np


def fixes(T, perms, cand_a, cand_p, tuples):
    """Boolean candidates x tuples matrix of the fixing condition."""
    lhs = T.aut.rows[cand_a[:, None, None], tuples[None]]
    image = tuples[np.arange(len(tuples))[None, :, None],
                   perms[cand_p][:, None, :]]      # t[pi[i]]
    return (lhs == T.mul[T.inv[image[:, :, :1]], image]).all(axis=2)
