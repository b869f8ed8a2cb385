"""Diagonal-type groups G <= W(k,T) and their action on the coset space.

A group here is determined by the quadruple (T, k, O, P): the simple group T,
the number of factors k, a subgroup O of the outer label group (always
containing the inner label), and a top group P which is either an explicit
permutation group on k points or the symbolic tag Alt/Sym.  G consists of the
elements (a_1,...,a_k)pi with all a_i in a common Inn-coset whose label lies
in O and pi in P.  The stabilized coset D is the diagonal, and a point is
a canonical k-tuple over T with first entry the identity.  The whole point
set is one (degree, k) int32 matrix, ``omega_tuples``, whose row order is
the point order everywhere; the orbits of G_D are read off it one
representative at a time, each mapped through all of G_D at once.

The right action on canonical tuples: for w = (a_1,...,a_k)pi and a point
with tuple t, the image point has tuple

    s_i = g_1^-1 g_i   where   g_i = (t_{i pi^-1}) a_{i pi^-1}-ish

computed concretely by composing each coordinate's inner map with a_i,
permuting coordinates by pi, and renormalizing the first coordinate to the
identity.  The library acts by diagonal elements only, for which this
reduces to pure index arithmetic in T (``act_diag``).  The convention is
pinned against literal right-coset multiplication in W(2, A5) by the
coset oracle that the tests keep (``tests/coset_oracle.py``).

``build_group`` is memoized per process.  The key is (T by identity, k,
the resolved out-label tuple, the normalized top spec), so every caller of
one spec shares one validated group and with it the top table, the
prime-order candidates and the ``describe()`` digits,
each built once.  A group weighs |G_D| for an explicit top and the digit
count of its degree and order for a symbolic one; least-recently-used
groups are dropped once the summed weight passes ``GROUP_MEMO_CAP``, and a
group heavier than the cap is built but not kept.  Failing specs are never
kept.  Shared groups are never changed after they are built, so reports are
the same as from a fresh build.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from math import factorial, isqrt, lgamma, log, log10

import numpy as np

from .catalog import ELEMENT_BUDGET, SimpleGroup, _closure_ids
from .errors import (BudgetExceededError, InvalidTopError, PreconditionError,
                     UnsupportedEnumerationError)
from .perm import (GroupTable, Perm, alternating_table, cyclic_table,
                   dihedral_table, symmetric_table)
from .report import int_str

OMEGA_BUDGET = 10**7
# most entries (rows x k) of a tuple matrix whose row count the caller
# picks: Monte Carlo samples, construction points.  `prob-mc` on A5 k=3000
# sym with 10^4 samples (3 x 10^7 entries) peaks at 294 MB RSS.
ENTRY_BUDGET = 10**8
# most decimal digits of a symbolic top's degree and order together
# (``group_weight``) that ``describe()`` writes out; the conversion is
# quadratic in the digits.  The heaviest benchmark spec, A5 k=5000 sym,
# weighs 34,107.
DIGIT_BUDGET = 10**5
# largest k of a sym-table/alt-table top; every explicit top table may have
# at most as many entries (order x k) as that largest table
TOP_TABLE_MAX_K = 8
TOP_TABLE_MAX_ENTRIES = factorial(TOP_TABLE_MAX_K) * TOP_TABLE_MAX_K
# decimal text of every element id, for OmegaPoint.serialize
_ID_STR = tuple(map(str, range(ELEMENT_BUDGET)))


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
    ``gens:<cycles>|<cycles>|...``.  ``cyclic``/``dihedral`` at a composite
    k (up to 10^12) raise InvalidTopError; those and ``gens:`` past
    TOP_TABLE_MAX_ENTRIES entries (order x k) raise BudgetExceededError.
    """
    if isinstance(spec, TopGroup):
        return spec
    if isinstance(spec, GroupTable):
        return TopGroup(k, table=spec)
    name = spec.strip().lower()
    if name == "trivial":
        return TopGroup(k, table=GroupTable.generate([Perm.identity(k)]))
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
    if name in ("cyclic", "dihedral"):
        # primitive iff k is prime (residues mod a divisor of k form blocks);
        # factors past 10^6 go unsought, as such a k is over budget anyway
        if any(k % d == 0 for d in range(2, min(isqrt(k), 10**6) + 1)):
            raise InvalidTopError("top group is not primitive on k points")
        order = k if name == "cyclic" else 2 * k
        if order * k > TOP_TABLE_MAX_ENTRIES:
            raise BudgetExceededError(
                f"{name} top table of {order} x {k} entries exceeds "
                f"{TOP_TABLE_MAX_ENTRIES}")
        table = cyclic_table(k) if name == "cyclic" else dihedral_table(k)
        return TopGroup(k, table=table)
    if name.startswith("gens:"):
        try:
            gens = [Perm.parse(part, k)
                    for part in spec.strip()[5:].split("|")]
        except ValueError as exc:
            raise PreconditionError(f"bad top generator: {exc}") from None
        return TopGroup(k, table=GroupTable.generate(
            gens, TOP_TABLE_MAX_ENTRIES // k))
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
        return " ".join([_ID_STR[v] for v in self.tuple_ids])

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


class DiagTypeGroup:
    """A diagonal-type group determined by (T, k, out labels, top).

    ``build_group`` shares one instance between all callers of the same
    spec, so everything here is computed once and never changed after: its
    index arrays are read-only, and ``prime_candidates`` is the slot that
    ``prob.prime_order_candidates`` fills on first use."""

    def __init__(self, T: SimpleGroup, k: int, out_labels: tuple,
                 top: TopGroup):
        self.T = T
        self.k = k
        self.out_labels = out_labels
        self.top = top
        self.aut_rows = _read_only(T.aut.rows_with_labels(out_labels))
        self.prime_candidates = None

    # the orders are worked out on first use: at a huge k a symbolic top's
    # |T|^(k-1) and k! take minutes, and some commands refuse it unread

    @cached_property
    def degree(self) -> int:
        return self.T.order ** (self.k - 1)

    @cached_property
    def gd_order(self) -> int:
        return self.T.order * len(self.out_labels) * self.top.order

    @cached_property
    def order(self) -> int:
        return self.degree * self.gd_order

    @cached_property
    def _digits(self) -> tuple:
        if self.top.is_symbolic and group_weight(self) > DIGIT_BUDGET:
            raise BudgetExceededError(
                f"degree and order of about {group_weight(self)} digits "
                f"exceed the budget {DIGIT_BUDGET}")
        return int_str(self.degree), int_str(self.order)

    def describe(self) -> dict:
        degree, order = self._digits
        return {
            "group": self.T.name,
            "k": self.k,
            "out_labels": list(self.out_labels),
            "top": self.top.describe(),
            "degree": degree,
            "order": order,
        }

    def __repr__(self):
        return (f"DiagTypeGroup({self.T.name}, k={self.k}, "
                f"out={list(self.out_labels)}, top={self.top.describe()})")

    # -- membership-ish helpers ------------------------------------------------

    def diagonal_point(self) -> OmegaPoint:
        return OmegaPoint.diagonal(self.k)

    def contains_diag(self, aut_row: int, perm: Perm) -> bool:
        if int(self.T.aut.labels[aut_row]) not in self.out_labels:
            return False
        if self.top.is_symbolic:
            return self.top.symbolic == "sym" or perm.sign() == 1
        return perm in self.top.table


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Retention cap of the build_group memo, in weight units (group_weight).
# The distinct specs of one seed of each benchmark workload weigh 14,544
# (base-search, 12 specs), 299,880 (prob-sweep, 22 specs; A6 k=37 dihedral
# alone 106,560) and 186,590 (symbolic-sweep, 62 specs), so each workload's
# groups all stay.  Retained bytes per unit (tracemalloc, top table and
# prime candidates filled): 1.5 for A5 k=7 inner sym-table (302,400 units,
# 0.45 MB), 0.7 for A6 k=37 dihedral, 1.7 for A5 k=5000 sym; so a full memo
# holds at most about 1 MB.  A5 sym-table at k=8 (4,838,400) is never held.
GROUP_MEMO_CAP = 2**19


def group_weight(g: DiagTypeGroup) -> int:
    """What the memo counts a group as: |G_D| for an explicit top, which
    bounds its prime-order candidates, and for a symbolic top the number of
    decimal digits of its degree and order, which bound its ``describe()``
    strings.  The digits are counted (to within one) from logarithms, as
    the orders themselves may be too large to work out."""
    if g.top.is_symbolic:
        log_degree = (g.k - 1) * log10(g.T.order)
        log_top = (lgamma(g.k + 1) - log(2) * (g.top.symbolic == "alt")) \
            / log(10)
        log_gd = log10(g.T.order * len(g.out_labels)) + log_top
        return int(2 * log_degree + log_gd) + 2
    return len(g.aut_rows) * g.top.table.order


class GroupMemo:
    """Least-recently-used map of built groups whose summed weight stays
    at most ``cap``; a group heavier than the cap is never retained."""

    def __init__(self, cap: int):
        self.cap = cap
        self.weight = 0
        self._entries = OrderedDict()    # key -> (group, weight)

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def put(self, key, g: DiagTypeGroup):
        weight = group_weight(g)
        if weight > self.cap:
            return
        self._entries[key] = (g, weight)
        self.weight += weight
        while self.weight > self.cap:
            _key, (_g, old) = self._entries.popitem(last=False)
            self.weight -= old

    def clear(self):
        self._entries.clear()
        self.weight = 0


_GROUP_MEMO = GroupMemo(GROUP_MEMO_CAP)


def _top_key(top):
    """A top spec as a memo key: descriptor strings as ``make_top`` reads
    them, any other object (a TopGroup or GroupTable) by identity."""
    if isinstance(top, str):
        name = top.strip().lower()
        return ("gens", top.strip()[5:]) if name.startswith("gens:") \
            else name
    return ("object", id(top))


def build_group(T: SimpleGroup, k: int, out_part="full",
                top="sym") -> DiagTypeGroup:
    """Construct and validate a diagonal-type group.

    The top must be primitive on k points, or trivial with k = 2; anything
    else raises InvalidTopError.  Groups not expressible by (out part, top)
    pairs are outside this artifact's scope by design.

    Memoized per process (``_GROUP_MEMO``): the same (T by identity, k,
    resolved out labels, top spec) returns the same instance.  A failing
    spec is never retained and raises on every call.  Keys by identity are
    safe, since a retained group holds its T and its top.
    """
    if k < 2:
        raise PreconditionError("diagonal type needs k >= 2")
    try:
        labels = resolve_out_part(T, out_part)
    except Exception:
        make_top(top, k)    # a bad top is reported before a bad out part
        raise
    key = (id(T), k, labels, _top_key(top))
    g = _GROUP_MEMO.get(key)
    if g is not None:
        return g
    top = make_top(top, k)
    if top.is_trivial():
        if k != 2:
            raise InvalidTopError("trivial top group only allowed at k = 2")
    elif not top.is_symbolic:
        if not top.table.is_primitive():
            raise InvalidTopError("top group is not primitive on k points")
    else:
        if k < 3:
            raise InvalidTopError("symbolic tops need k >= 3")
    g = DiagTypeGroup(T, k, labels, top)
    _GROUP_MEMO.put(key, g)
    return g


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


# ---------------------------------------------------------------------------
# stabilizer and point-set enumeration


def stab_of_D(g: DiagTypeGroup):
    """All (aut row, pi) pairs of the point stabilizer G_D, aut-row-major,
    made one at a time; explicit tops only."""
    if g.top.is_symbolic:
        raise UnsupportedEnumerationError(
            "symbolic top groups cannot be enumerated explicitly; route the "
            "computation through the column-set test instead")
    return ((int(a), p) for a in g.aut_rows for p in g.top.table)


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


def check_entries(rows: int, k: int, what: str) -> None:
    """Refuse a rows x k tuple matrix past ``ENTRY_BUDGET`` entries."""
    if rows * k > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{what}: {rows} x {k} entries exceed the budget {ENTRY_BUDGET}")


def omega_iter(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """All canonical tuples as points, in omega_tuples order."""
    for row in omega_tuples(g, budget).tolist():
        yield OmegaPoint(tuple(row))


def gd_orbits(g: DiagTypeGroup, tuples):
    """Yield (row, stab) per G_D orbit on the rows of ``omega_tuples``: the
    index of its first point, ascending, and the stabilizer of that point
    in G_D as indices a * |P| + p of the pairs (``g.aut_rows[a]``, top perm
    p), ascending (the identity, index 0, first).  The orbit has
    ``g.gd_order // len(stab)`` points (orbit-stabilizer).

    Lazily: a step maps the next unseen row through all of G_D in one block
    and marks the images seen, so a caller that stops early touches no
    later orbit.  The block is act_diag on every candidate (alpha, pi),
    which indexes the tuple by pi^-1; the candidates whose image is the
    row itself are its stabilizer, the set the scan kernel finds fixing it.
    """
    if g.top.is_symbolic:
        raise UnsupportedEnumerationError(
            "G_D orbits requested for a symbolic top")
    T = g.T
    perms = np.argsort(g.top.table.arrays(), axis=1)    # the inverses
    auts_flat = T.aut.rows.ravel()
    at_a = (g.aut_rows.astype(np.intp) * T.order)[:, None, None]
    unseen = np.ones(len(tuples) + 1, dtype=bool)  # the last: a sentinel
    j = 0
    while j < len(tuples):
        moved = tuples[j][perms]
        images = auts_flat[at_a + T.mul[T.inv[moved[:, :1]], moved[:, 1:]]]
        codes = images[..., 0].astype(np.intp)
        for col in range(1, g.k - 1):
            codes *= T.order
            codes += images[..., col]
        unseen[codes] = False
        yield j, np.flatnonzero(codes == j)
        j += int(np.argmax(unseen[j:]))


def gd_orbit_reps(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """One representative per orbit of G_D on the point set, the first in
    omega_tuples order."""
    tuples = omega_tuples(g, budget)
    return [OmegaPoint(tuple(tuples[row].tolist()))
            for row, _stab in gd_orbits(g, tuples)]
