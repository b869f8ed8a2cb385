"""The literal coset oracle: general elements of W(k,T) and their action on
the points, by composing automorphism rows.  The library acts with diagonal
elements only (``diag.act_diag``); tests check that convention against
right-coset multiplication here.
"""

from __future__ import annotations

from dataclasses import dataclass

from diagbase.catalog import SimpleGroup
from diagbase.diag import OmegaPoint
from diagbase.errors import PreconditionError
from diagbase.perm import Perm


@dataclass(frozen=True)
class WElement:
    """A general element (a_1,...,a_k)pi of W(k,T): k aut rows plus a Perm."""

    aut_rows: tuple
    perm: Perm

    @property
    def k(self) -> int:
        return len(self.aut_rows)


def act(T: SimpleGroup, point: OmegaPoint, w: WElement) -> OmegaPoint:
    """Image of a point under a general W element, canonicalized.

    Lifts the point to its inner-tuple coset representative, multiplies in W,
    absorbs the permutation part into the stabilized coset, reduces the
    automorphism tuple to inner maps, and renormalizes the first coordinate.
    """
    aut = T.aut
    labels = {int(aut.labels[int(r)]) for r in w.aut_rows}
    if len(labels) != 1:
        raise PreconditionError(
            "W element coordinates must share one Inn-coset")
    k = point.k
    pinv = w.perm.inverse().images
    # g_i = phi_{t_{i pi^-1}} . a_{i pi^-1}  (apply the inner map first)
    g_rows = [aut.compose_rows(aut.inn_of(point.tuple_ids[int(pinv[i])]),
                               int(w.aut_rows[int(pinv[i])]))
              for i in range(k)]
    # left-divide by g_1 so every coordinate becomes inner
    g1_inv = aut.invert_row(g_rows[0])
    ids = []
    for i in range(k):
        row = aut.compose_rows(g1_inv, g_rows[i])
        ids.append(aut.recover_conjugator(row))
    return OmegaPoint(tuple(ids))


def w_multiply(T: SimpleGroup, v: WElement, w: WElement) -> WElement:
    """Product in W(k,T): (a, pi)(b, sigma) = ((a_i b_{i pi}), pi sigma)."""
    aut = T.aut
    pi = v.perm.images
    rows = tuple(aut.compose_rows(int(v.aut_rows[i]),
                                  int(w.aut_rows[int(pi[i])]))
                 for i in range(v.k))
    return WElement(rows, v.perm * w.perm)


def w_inverse(T: SimpleGroup, w: WElement) -> WElement:
    aut = T.aut
    pinv = w.perm.inverse()
    rows = tuple(aut.invert_row(int(w.aut_rows[int(pinv.images[i])]))
                 for i in range(w.k))
    return WElement(rows, pinv)


def w_identity(T: SimpleGroup, k: int) -> WElement:
    return WElement((T.aut.identity_row,) * k, Perm.identity(k))
