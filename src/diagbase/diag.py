"""Diagonal-type groups G <= W(k,T) and their action on the coset space.

A group here is determined by the quadruple (T, k, O, P): the simple group T,
the number of factors k, a subgroup O of the outer label group (always
containing the inner label), and a top group P which is either an explicit
permutation group on k points or the symbolic tag Alt/Sym.  G consists of the
elements (a_1,...,a_k)pi with all a_i in a common Inn-coset whose label lies
in O and pi in P.  The stabilized coset D is the diagonal, and a point is
a canonical k-tuple over T with first entry the identity.  Point i has the
tuple of a leading 0 and the base-|T| digits of i (``point_tuple``, with
inverse ``digit_codes``), so the orbits of G_D are walked one decoded
representative at a time, each mapped through all of G_D at once.

The right action on canonical tuples: the library acts by diagonal
elements only (``act_diag``), and w = (alpha,...,alpha)pi sends the point
with tuple t to the point with tuple

    s_i = alpha(t_{1 pi^-1}^-1 t_{i pi^-1})

the coordinates permuted by pi, renormalized so that the first entry is
the identity, and mapped by alpha: pure index arithmetic in T.  The
convention is pinned against literal right-coset multiplication in
W(2, A5) by the coset oracle that the tests keep
(``tests/coset_oracle.py``).

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

import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from math import factorial, isqrt, lgamma, log, log10

import numpy as np

from .catalog import ELEMENT_BUDGET, SimpleGroup, _closure_ids
from .errors import (BudgetExceededError, InvalidTopError, PreconditionError,
                     UnsupportedEnumerationError)
from .perm import (GroupTable, Perm, _is_prime, alternating_table,
                   cyclic_table, dihedral_table, symmetric_table)
from .report import int_str

OMEGA_BUDGET = 10**7
# most entries (rows x k) of the points whose row count the caller picks:
# construction points, held as one tuple matrix, and Monte Carlo samples,
# drawn and tested a block at a time, so for them the cap bounds the work.
# `prob-mc` on A5 k=3000 sym with 10^4 samples (3 x 10^7 entries) peaks at
# 33 MB RSS.
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
    """Top group as ``make_top`` admits it, with its facts fixed on
    admission: ``name``, ``symmetric`` (P is Sym(k)) and ``alternating``
    (P contains Alt(k)).  A symbolic top is Sym(k) or Alt(k) and has no
    ``table``: reading it raises UnsupportedEnumerationError, the one
    refusal of a symbolic top.  A table top's order decides both facts, as
    Alt(k) is the only subgroup of index 2 in Sym(k)."""

    def __init__(self, k: int, table: GroupTable | None = None,
                 symmetric: bool = True):
        self.k = k
        self._table = table
        if table is None:
            self.name = f"{'Sym' if symmetric else 'Alt'}({k})"
            self.symmetric, self.alternating = symmetric, True
        else:
            full = factorial(k)
            self.name = "trivial" if table.order == 1 else \
                f"table[order {table.order}]"
            self.symmetric = table.order == full
            self.alternating = table.order in (full // 2, full)

    @property
    def table(self) -> GroupTable:
        if self.is_symbolic:
            raise UnsupportedEnumerationError(
                f"the {self.name} top has no table; this computation "
                f"needs an explicit top")
        return self._table

    @property
    def is_symbolic(self) -> bool:
        return self._table is None

    @property
    def order(self) -> int:
        if self.is_symbolic:
            return factorial(self.k) // (1 if self.symmetric else 2)
        return self._table.order

    def __repr__(self):
        return f"TopGroup({self.name})"


def _descriptor(spec, what: str) -> str:
    """A descriptor string stripped and lower-cased; anything else raises
    PreconditionError."""
    if not isinstance(spec, str):
        raise PreconditionError(
            f"{what} must be a descriptor string, not "
            f"{type(spec).__name__}")
    return spec.strip().lower()


_TRIVIAL_ONLY_AT_2 = "trivial top group only allowed at k = 2"
_NOT_PRIMITIVE = "top group is not primitive on k points"


def make_top(spec: str, k: int) -> TopGroup:
    """Build an admissible top group from a descriptor string.

    Accepted: ``trivial`` (k = 2 only), ``sym``/``alt`` (symbolic, k >= 3),
    ``sym-table`` / ``alt-table`` (explicit; small k only), ``cyclic``,
    ``dihedral`` (prime k only), or ``gens:<cycles>|<cycles>|...``, primitive
    or trivial at k = 2.  Other tops raise InvalidTopError; ``cyclic``,
    ``dihedral`` and ``gens:`` past TOP_TABLE_MAX_ENTRIES entries (order x
    k) raise BudgetExceededError.
    """
    name = _descriptor(spec, "top")
    if name == "trivial":
        if k != 2:
            raise InvalidTopError(_TRIVIAL_ONLY_AT_2)
        return TopGroup(k, table=GroupTable.generate([Perm.identity(k)]))
    if name in ("sym", "alt"):
        if k < 3:
            raise InvalidTopError("symbolic tops need k >= 3")
        return TopGroup(k, symmetric=name == "sym")
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
            raise InvalidTopError(_NOT_PRIMITIVE)
        order = k if name == "cyclic" else 2 * k
        if order * k > TOP_TABLE_MAX_ENTRIES:
            raise BudgetExceededError(
                f"{name} top table of {order} x {k} entries exceeds "
                f"{TOP_TABLE_MAX_ENTRIES}")
        table = cyclic_table(k) if name == "cyclic" else dihedral_table(k)
        return TopGroup(k, table=table)
    if name.startswith("gens:"):
        if k > TOP_TABLE_MAX_ENTRIES:    # the identity row alone is past it
            raise BudgetExceededError(
                f"gens: top table of 1 x {k} entries or more exceeds "
                f"{TOP_TABLE_MAX_ENTRIES}")
        try:
            gens = [Perm.parse(part, k)
                    for part in spec.strip()[5:].split("|")]
        except ValueError as exc:
            raise PreconditionError(f"bad top generator: {exc}") from None
        most = TOP_TABLE_MAX_ENTRIES // k
        try:
            table = GroupTable.generate(gens, most)
        except BudgetExceededError:
            raise BudgetExceededError(
                f"gens: top table of more than {most} x {k} entries exceeds "
                f"{TOP_TABLE_MAX_ENTRIES}") from None
        if table.order == 1 and k == 2 or table.is_primitive():
            return TopGroup(k, table=table)
        raise InvalidTopError(
            _TRIVIAL_ONLY_AT_2 if table.order == 1 else _NOT_PRIMITIVE)
    raise PreconditionError(f"unknown top descriptor {spec!r}")


def resolve_out_part(T: SimpleGroup, spec: str) -> tuple:
    """Subgroup of outer labels from 'inner', 'full' or 'g<i>' refs."""
    aut, name = T.aut, _descriptor(spec, "out-part")
    if name == "full":
        return tuple(range(aut.out_order))
    seeds = []
    for part in name.split(",") if name != "inner" else ():
        part = part.strip()
        # isdecimal() would also admit the digits of other scripts
        if not re.fullmatch(r"g[0-9]+", part):
            raise PreconditionError(f"unknown out-part descriptor {spec!r}")
        idx = int(part[1:]) - 1
        if not 0 <= idx < len(aut.generator_labels):
            raise PreconditionError(
                f"out-part generator g{idx + 1} not in catalog entry")
        seeds.append(aut.generator_labels[idx])
    return tuple(_closure_ids(aut.label_mul, seeds).tolist())


@dataclass(frozen=True)
class OmegaPoint:
    """Canonical representative of a coset in the point set: a k-tuple of
    element ids of T whose first entry is the identity."""

    tuple_ids: tuple

    @classmethod
    def from_tuple(cls, T: SimpleGroup, ids) -> "OmegaPoint":
        ids = np.asarray(ids, dtype=np.int64)
        return cls(tuple(T.mul[T.inv[ids[0]], ids].tolist()))

    @property
    def k(self) -> int:
        return len(self.tuple_ids)

    def is_diagonal(self) -> bool:
        return not any(self.tuple_ids)     # entry ids are >= 0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.tuple_ids, dtype=np.int32)

    def serialize(self) -> str:
        return " ".join([_ID_STR[v] for v in self.tuple_ids])

    @classmethod
    def parse(cls, text: str, T: SimpleGroup) -> "OmegaPoint":
        try:
            # int() alone also reads '1_0', '+7' and the digits of other
            # scripts; past this check it reads only -?[0-9]+ tokens
            if not re.fullmatch(r"[-0-9\s]*", text):
                raise ValueError(text)
            ids = [int(tok) for tok in text.split()]
        except ValueError:
            raise PreconditionError(
                f"tuple entries must be integers: {text!r}") from None
        if not ids:
            raise PreconditionError("empty tuple")
        if min(ids) < 0 or max(ids) >= T.order:
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
    index arrays are read-only."""

    def __init__(self, T: SimpleGroup, k: int, out_labels: tuple,
                 top: TopGroup):
        self.T = T
        self.k = k
        self.out_labels = out_labels
        self.top = top
        self.aut_rows = _read_only(T.aut.rows_with_labels(out_labels))

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

    @cached_property
    def prime_candidates(self) -> tuple:
        """(cand_a, cand_p): the aut rows and top perm ids of the
        prime-order elements of G_D, the input of the scans and of the
        class oracle.  Explicit tops only.

        Perm-major: per perm order class, ascending, each perm of the class
        with every out-part aut row whose order has a prime lcm with the
        class's.  An explicit-top witness is the first candidate the scan
        keeps (``stabilizer_witness``): this order fixes each in a report."""
        top_orders = self.top.table.element_orders()
        a_orders, a_of = np.unique(self.T.aut.orders[self.aut_rows],
                                   return_inverse=True)
        cand_a, cand_p = [], []
        for q in np.flatnonzero(np.bincount(top_orders)).tolist():
            prime = np.array([_is_prime(v)
                              for v in np.lcm(a_orders, q).tolist()])
            rows = self.aut_rows[prime[a_of]]
            pids = np.flatnonzero(top_orders == q).astype(np.int32)
            cand_a.append(np.tile(rows, len(pids)))
            cand_p.append(np.repeat(pids, len(rows)))
        return tuple(_read_only(np.concatenate(c)) for c in (cand_a, cand_p))

    def describe(self) -> dict:
        degree, order = self._digits
        return {
            "group": self.T.name,
            "k": self.k,
            "out_labels": list(self.out_labels),
            "top": self.top.name,
            "degree": degree,
            "order": order,
        }

    def __repr__(self):
        return (f"DiagTypeGroup({self.T.name}, k={self.k}, "
                f"out={list(self.out_labels)}, top={self.top.name})")

    # -- membership-ish helpers ------------------------------------------------

    def diagonal_point(self) -> OmegaPoint:
        return OmegaPoint((0,) * self.k)

    def contains_diag(self, aut_row: int, perm: Perm) -> bool:
        if int(self.T.aut.labels[aut_row]) not in self.out_labels:
            return False
        if self.top.is_symbolic:
            return self.top.symmetric or perm.sign() == 1
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
        log_top = (lgamma(g.k + 1) - log(2) * (not g.top.symmetric)) \
            / log(10)
        log_gd = log10(g.T.order * len(g.out_labels)) + log_top
        return int(2 * log_degree + log_gd) + 2
    return g.gd_order


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


def build_group(T: SimpleGroup, k: int, out_part="full",
                top="sym") -> DiagTypeGroup:
    """Construct a diagonal-type group.

    ``make_top`` admits the top, and a bad top is reported before a bad out
    part.  Groups not expressible by (out part, top) pairs are outside this
    artifact's scope by design.

    Memoized per process (``_GROUP_MEMO``): the same (T by identity, k,
    resolved out labels, top descriptor) returns the same instance.  A
    failing spec is never retained and raises on every call.  Keying T by
    identity is safe, since a retained group holds its T.
    """
    if k < 2:
        raise PreconditionError("diagonal type needs k >= 2")
    try:
        labels = resolve_out_part(T, out_part)
    except Exception:
        make_top(top, k)    # a bad top is reported before a bad out part
        raise
    # the descriptor names what make_top reads from it (cycle notation has
    # no letters to fold)
    key = (id(T), k, labels, _descriptor(top, "top"))
    g = _GROUP_MEMO.get(key)
    if g is not None:
        return g
    g = DiagTypeGroup(T, k, labels, make_top(top, k))
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
    """All (aut row, pi) pairs of G_D, perm-major as in ``gd_orbits``, made
    one at a time; explicit tops only, refused on the call."""
    table, rows = g.top.table, g.aut_rows.tolist()
    return ((a, p) for p in table for a in rows)


def point_tuple(g: DiagTypeGroup, i: int) -> tuple:
    """The canonical tuple of point i: a leading 0, then the base-|T|
    digits of i, most significant first."""
    n, ids = g.T.order, [0] * g.k
    for col in range(g.k - 1, 0, -1):
        i, ids[col] = divmod(i, n)
    return tuple(ids)


def digit_codes(digits, n: int, dtype=np.intp) -> np.ndarray:
    """Base-n code of each column of ``digits``, row 0 most significant.
    Over the last k - 1 entries of point tuples, with n = |T|, these are
    the point numbers: the inverse of ``point_tuple``."""
    code = digits[0].astype(dtype)
    for row in digits[1:]:
        code *= n
        code += row
    return code


def omega_tuples(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """The point set as one (degree, k) int32 matrix, row i the tuple of
    point i, refusing oversized point sets."""
    check_points(g, budget)
    tuples = np.zeros((g.degree, g.k), dtype=np.int32)
    tuples[:, 1:] = np.indices((g.T.order,) * (g.k - 1), dtype=np.int32) \
        .reshape(g.k - 1, -1).T
    return tuples


def check_points(g: DiagTypeGroup, budget: int) -> None:
    """Refuse a point set of more than ``budget`` points."""
    if g.degree > budget:
        raise BudgetExceededError(
            f"point set of size {g.degree} exceeds budget {budget}")


def check_entries(rows: int, k: int, what: str) -> None:
    """Refuse a rows x k tuple matrix past ``ENTRY_BUDGET`` entries."""
    if rows * k > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{what}: {rows} x {k} entries exceed the budget {ENTRY_BUDGET}")


def omega_iter(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """All canonical tuples as points, in omega_tuples order."""
    for row in omega_tuples(g, budget).tolist():
        yield OmegaPoint(tuple(row))


def gd_orbits(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """Yield (row, stab) per G_D orbit on the point set, refusing more than
    ``budget`` points: the number of its first point, ascending, and the
    stabilizer of that point in G_D as indices p * |A| + a, ascending, of
    the pairs (``g.aut_rows[a]``, top perm p), |A| = ``len(g.aut_rows)``;
    0, the identity, first.  The orbit has ``g.gd_order // len(stab)`` points.

    Lazily: a step decodes the next unseen point, maps it through all of
    G_D in one block (act_diag on every (alpha, pi): the tuple indexed by
    pi^-1) and marks the images seen, so a caller that stops early touches
    no later orbit; the walk keeps one byte per point, the unseen mask.
    The candidates mapping the point to itself are its stabilizer.  A
    symbolic top is refused before the degree is worked out.
    """
    perms = np.argsort(g.top.table.arrays(), axis=1)    # the inverses
    check_points(g, budget)
    T = g.T
    auts_flat = T.aut.rows.ravel()
    at_a = (g.aut_rows.astype(np.intp) * T.order)[:, None, None]
    unseen = np.ones(g.degree + 1, dtype=bool)    # the last: a sentinel
    j = 0
    while j < g.degree:
        moved = np.array(point_tuple(g, j), dtype=np.int32)[perms]
        images = auts_flat[at_a + T.mul[T.inv[moved[:, :1]], moved[:, 1:]]]
        # gathered aut row by aut row (the faster read), coded perm-major
        codes = digit_codes(images.transpose(2, 1, 0), T.order)
        unseen[codes] = False
        yield j, np.flatnonzero(codes == j)
        j += int(np.argmax(unseen[j:]))


def gd_orbit_reps(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """One representative per orbit of G_D on the point set, the first in
    point order."""
    return [OmegaPoint(point_tuple(g, row))
            for row, _stab in gd_orbits(g, budget)]
