"""Diagonal-type groups G <= W(k,T) and their action on the coset space.

A group here is determined by the quadruple (T, k, O, P): the simple group T,
the number of factors k, a subgroup O of the outer label group (always
containing the inner label), and a top group P which is either an explicit
permutation group on k points or the symbolic tag Alt/Sym.  G consists of the
elements (a_1,...,a_k)pi with all a_i in a common Inn-coset whose label lies
in O and pi in P.  The stabilized coset D is the diagonal, and a point is
a canonical k-tuple over T with first entry the identity.  The whole point
set is one (degree, k) int32 matrix, ``omega_tuples``, whose row order is
the point order everywhere; the orbit representatives of G_D, and the
size of each orbit, are read off it by applying each generator to every row
at once.

The right action on canonical tuples: for w = (a_1,...,a_k)pi and a point
with tuple t, the image point has tuple

    s_i = g_1^-1 g_i   where   g_i = (t_{i pi^-1}) a_{i pi^-1}-ish

computed concretely by composing each coordinate's inner map with a_i,
permuting coordinates by pi, and renormalizing the first coordinate to the
identity.  The diagonal fast path reduces to pure index arithmetic in T.
The convention is pinned by the explicit-coset oracle test against literal
right-coset multiplication in W(2, A5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .catalog import SimpleGroup, _closure_ids
from .errors import (BudgetExceededError, InvalidTopError, PreconditionError,
                     UnsupportedEnumerationError)
from .perm import (GroupTable, Perm, alternating_table, cyclic_table,
                   dihedral_table, orbit_labels, symmetric_table)
from .report import int_str

OMEGA_BUDGET = 10**7
# largest k of a sym-table/alt-table top; a gens: top may have at most
# TOP_TABLE_MAX_K! elements, the order of that largest table
TOP_TABLE_MAX_K = 8


class TopGroup:
    """Top group descriptor: an explicit table or a symbolic Alt/Sym tag."""

    def __init__(self, k: int, table: GroupTable | None = None,
                 symbolic: str | None = None):
        if (table is None) == (symbolic is None):
            raise PreconditionError("top group needs a table or a tag")
        if symbolic is not None and symbolic not in ("alt", "sym"):
            raise PreconditionError(f"unknown symbolic top {symbolic!r}")
        if table is not None and table.degree != k:
            raise PreconditionError("top table degree differs from k")
        self.k = k
        self.table = table
        self.symbolic = symbolic

    @property
    def is_symbolic(self) -> bool:
        return self.symbolic is not None

    @property
    def order(self) -> int:
        if self.is_symbolic:
            half = factorial(self.k) // 2
            return half if self.symbolic == "alt" else 2 * half
        return self.table.order

    def is_trivial(self) -> bool:
        return not self.is_symbolic and self.table.order == 1

    def contains_alternating(self) -> bool:
        if self.is_symbolic:
            return True
        return self.table.contains_alternating()

    def is_symmetric(self) -> bool:
        if self.is_symbolic:
            return self.symbolic == "sym"
        return self.table.is_symmetric()

    def accepts_parity(self, sign: int) -> bool:
        if self.symbolic == "alt":
            return sign == 1
        return True

    def describe(self) -> str:
        if self.is_symbolic:
            return f"{self.symbolic.capitalize()}({self.k})"
        if self.table.order == 1:
            return "trivial"
        return f"table[order {self.table.order}]"

    def __repr__(self):
        return f"TopGroup({self.describe()})"


def make_top(spec, k: int) -> TopGroup:
    """Build a top group from a descriptor string.

    Accepted: ``trivial``, ``sym``/``alt`` (symbolic), ``sym-table`` /
    ``alt-table`` (explicit; small k only), ``cyclic``, ``dihedral``, or
    ``gens:<cycles>|<cycles>|...``.
    """
    if isinstance(spec, TopGroup):
        return spec
    if isinstance(spec, GroupTable):
        return TopGroup(k, table=spec)
    name = spec.strip().lower()
    if name == "trivial":
        return TopGroup(k, table=GroupTable.from_elements([Perm.identity(k)]))
    if name in ("sym", "alt"):
        return TopGroup(k, symbolic=name)
    if name in ("sym-table", "alt-table"):
        if k > TOP_TABLE_MAX_K:
            raise PreconditionError(
                f"explicit {name} table unreasonable for k={k}; use the "
                f"symbolic form")
        table = symmetric_table(k) if name == "sym-table" else \
            alternating_table(k)
        return TopGroup(k, table=table)
    if name == "cyclic":
        return TopGroup(k, table=cyclic_table(k))
    if name == "dihedral":
        return TopGroup(k, table=dihedral_table(k))
    if name.startswith("gens:"):
        try:
            gens = [Perm.parse(part, k)
                    for part in spec.strip()[5:].split("|")]
        except ValueError as exc:
            raise PreconditionError(f"bad top generator: {exc}") from None
        return TopGroup(k, table=GroupTable.generate(
            gens, factorial(TOP_TABLE_MAX_K)))
    raise PreconditionError(f"unknown top descriptor {spec!r}")


def resolve_out_part(T: SimpleGroup, spec) -> tuple:
    """Subgroup of outer labels from 'inner', 'full', 'g<i>' refs, or labels."""
    aut = T.aut
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "inner":
            seeds = set()
        elif name == "full":
            return tuple(range(aut.out_order))
        else:
            seeds = set()
            for part in name.split(","):
                part = part.strip()
                if not (part.startswith("g") and part[1:].isdecimal()):
                    raise PreconditionError(
                        f"unknown out-part descriptor {spec!r}")
                idx = int(part[1:]) - 1
                if not 0 <= idx < len(T.record.aut_generators):
                    raise PreconditionError(
                        f"out-part generator g{idx + 1} not in catalog entry")
                images = T.record.aut_generators[idx]
                row = aut.row_of(aut._resolve_aut_images(images))
                seeds.add(int(aut.labels[row]))
    else:
        seeds = set(int(v) for v in spec)
    return tuple(_closure_ids(aut.label_mul, list(seeds)).tolist())


@dataclass(frozen=True)
class OmegaPoint:
    """Canonical representative of a coset in the point set: a k-tuple of
    element ids of T whose first entry is the identity."""

    tuple_ids: tuple

    @classmethod
    def from_tuple(cls, T: SimpleGroup, ids) -> "OmegaPoint":
        ids = np.asarray(ids, dtype=np.int64)
        return cls(tuple(T.mul[T.inv[ids[0]], ids].tolist()))

    @classmethod
    def diagonal(cls, k: int) -> "OmegaPoint":
        return cls((0,) * k)

    @property
    def k(self) -> int:
        return len(self.tuple_ids)

    def is_diagonal(self) -> bool:
        return all(v == 0 for v in self.tuple_ids)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.tuple_ids, dtype=np.int32)

    def serialize(self) -> str:
        return " ".join(map(str, self.tuple_ids))

    @classmethod
    def parse(cls, text: str, T: SimpleGroup) -> "OmegaPoint":
        try:
            ids = [int(tok) for tok in text.split()]
        except ValueError:
            raise PreconditionError(
                f"tuple entries must be integers: {text!r}") from None
        if not ids:
            raise PreconditionError("empty tuple")
        if any(not 0 <= v < T.order for v in ids):
            raise PreconditionError("tuple entry out of range for |T|")
        if ids[0] != 0:
            raise PreconditionError("canonical tuple must start with 0")
        return cls(tuple(ids))

    def __str__(self):
        return self.serialize()


@dataclass(frozen=True)
class WElement:
    """A general element (a_1,...,a_k)pi of W(k,T): k aut rows plus a Perm."""

    aut_rows: tuple
    perm: Perm

    @property
    def k(self) -> int:
        return len(self.aut_rows)


class DiagTypeGroup:
    """A diagonal-type group determined by (T, k, out labels, top)."""

    def __init__(self, T: SimpleGroup, k: int, out_labels: tuple,
                 top: TopGroup):
        self.T = T
        self.k = k
        self.out_labels = out_labels
        self.top = top
        self.aut_rows = T.aut.rows_with_labels(out_labels)
        self.degree = T.order ** (k - 1)
        self.gd_order = T.order * len(out_labels) * top.order
        self.order = self.degree * self.gd_order

    def describe(self) -> dict:
        return {
            "group": self.T.name,
            "k": self.k,
            "out_labels": list(self.out_labels),
            "top": self.top.describe(),
            "degree": int_str(self.degree),
            "order": int_str(self.order),
        }

    def __repr__(self):
        return (f"DiagTypeGroup({self.T.name}, k={self.k}, "
                f"out={list(self.out_labels)}, top={self.top.describe()})")

    # -- membership-ish helpers ------------------------------------------------

    def diagonal_point(self) -> OmegaPoint:
        return OmegaPoint.diagonal(self.k)

    @cached_property
    def gd_candidates(self):
        """G_D as parallel index arrays (aut row ids, perm ids into the top
        table), aut-row-major; explicit tops only.  aut_rows[0] is the
        identity row and elements[0] the identity, so candidate 0 is the
        identity."""
        if self.top.is_symbolic:
            raise UnsupportedEnumerationError(
                "explicit G_D scan requested for a symbolic top")
        n_a, n_p = len(self.aut_rows), self.top.table.order
        return (np.repeat(self.aut_rows, n_p),
                np.tile(np.arange(n_p, dtype=np.int32), n_a))

    def contains_diag(self, aut_row: int, perm: Perm) -> bool:
        if int(self.T.aut.labels[aut_row]) not in self.out_labels:
            return False
        if self.top.is_symbolic:
            return self.top.accepts_parity(perm.sign())
        return perm in self.top.table


def build_group(T: SimpleGroup, k: int, out_part="full",
                top="sym") -> DiagTypeGroup:
    """Construct and validate a diagonal-type group.

    The top must be primitive on k points, or trivial with k = 2; anything
    else raises InvalidTopError.  Groups not expressible by (out part, top)
    pairs are outside this artifact's scope by design.
    """
    if k < 2:
        raise PreconditionError("diagonal type needs k >= 2")
    top = make_top(top, k)
    labels = resolve_out_part(T, out_part)
    if top.is_trivial():
        if k != 2:
            raise InvalidTopError("trivial top group only allowed at k = 2")
    elif not top.is_symbolic:
        if not top.table.is_primitive():
            raise InvalidTopError("top group is not primitive on k points")
    else:
        if k < 3:
            raise InvalidTopError("symbolic tops need k >= 3")
    return DiagTypeGroup(T, k, labels, top)


# ---------------------------------------------------------------------------
# the action


def act_diag(T: SimpleGroup, point: OmegaPoint, aut_row: int,
             perm: Perm) -> OmegaPoint:
    """Image of a point under the diagonal element (a,...,a)pi.

    Pure index arithmetic: s_i = (t_{1 pi^-1}^-1 t_{i pi^-1}) alpha, then the
    first coordinate is renormalized to the identity (it already is).
    """
    t = point.tuple_ids
    pinv = perm.inverse().images
    alpha = T.aut.rows[aut_row]
    t0 = t[int(pinv[0])]
    t0inv = int(T.inv[t0])
    return OmegaPoint(tuple(
        int(alpha[T.mul[t0inv, t[int(pinv[i])]]]) for i in range(len(t))))


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


# ---------------------------------------------------------------------------
# stabilizer and point-set enumeration


def stab_of_D(g: DiagTypeGroup):
    """All (aut row, pi) pairs of the point stabilizer G_D, explicit tops only."""
    if g.top.is_symbolic:
        raise UnsupportedEnumerationError(
            "symbolic top groups cannot be enumerated explicitly; route the "
            "computation through the column-set test instead")
    return [(int(a), p) for a in g.aut_rows for p in g.top.table.elements]


def omega_tuples(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """The point set as one (degree, k) int32 matrix, refusing oversized
    point sets: row i is the canonical tuple of point i, a leading 0 and
    then the base-|T| digits of i, most significant first."""
    if g.degree > budget:
        raise BudgetExceededError(
            f"point set of size {g.degree} exceeds budget {budget}")
    tuples = np.zeros((g.degree, g.k), dtype=np.int32)
    tuples[:, 1:] = np.indices((g.T.order,) * (g.k - 1), dtype=np.int32) \
        .reshape(g.k - 1, -1).T
    return tuples


def omega_iter(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """All canonical tuples as points, in omega_tuples order."""
    for row in omega_tuples(g, budget).tolist():
        yield OmegaPoint(tuple(row))


def gd_generators(g: DiagTypeGroup):
    """A small generating set of G_D as (aut row, Perm) pairs; explicit
    tops only."""
    if g.top.is_symbolic:
        raise UnsupportedEnumerationError(
            "G_D generators requested for a symbolic top")
    aut = g.T.aut
    ident_k = Perm.identity(g.k)
    pairs = [(aut.inn_of(gid), ident_k) for gid in g.T.gen_ids]
    pairs += [(int(aut.label_reps[lab]), ident_k) for lab in g.out_labels
              if lab]
    return pairs + [(aut.identity_row, p) for p in g.top.table.generators]


def gd_orbit_reps(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """One representative per orbit of G_D on the point set, the first in
    omega_tuples order."""
    tuples = omega_tuples(g, budget)
    return [OmegaPoint(tuple(row))
            for row in tuples[_orbit_rows_and_sizes(g, tuples)[0]].tolist()]


def _orbit_rows_and_sizes(g: DiagTypeGroup, tuples):
    """(rows, sizes): the index of the first point of each G_D orbit,
    ascending, and the number of points in that orbit.  A label is the
    first index of its orbit, so the labels that occur are the rows, each
    once per point of its orbit."""
    sizes = np.bincount(_orbit_labels(g, tuples))
    rows = np.flatnonzero(sizes)
    return rows, sizes[rows]


def _orbit_labels(g: DiagTypeGroup, tuples):
    """Per point of ``tuples``, the index of the first point of its G_D
    orbit: ``orbit_labels`` of the generators, each acting on all points at
    once (act_diag on the tuple matrix) as an index array of images.
    Indices below 2^31 are held as int32, half the memory of int64.
    """
    T = g.T
    dtype = np.int32 if g.degree < 2**31 else np.int64
    images = []
    for a, perm in gd_generators(g):
        alpha, pinv = T.aut.rows[a], perm.inverse().images
        t0inv = T.inv[tuples[:, pinv[0]]]
        image = np.zeros(g.degree, dtype=dtype)
        for col in pinv:
            image *= T.order
            image += alpha[T.mul[t0inv, tuples[:, col]]]
        images.append(image)
    return orbit_labels(images)
