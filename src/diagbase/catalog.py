"""Simple-group catalog: materialized groups T with full Aut(T) tables.

A catalog record supplies generators of T, images of those generators under
outer automorphism representatives, two distinguished generating pairs, and
the minimal index of a proper subgroup.  Everything else is computed and
verified here: the element list and multiplication table of T, the full
automorphism group as index bijections of T, inner/outer coset labels, and
the catalog invariants (simplicity, generation, the |Out|^3 < |T| bound,
minimal-index consistency).  Permutation objects appear
only where the record is read: the closure of the generators of T
(``GroupTable.generate``) runs on rows, and the group theory after it on
integer tables: ``mul`` follows from the closure's derivations and its
element array, one breadth-first level at a time.  Aut(T) is laid out as
the Inn(T)-cosets of its outer label reps, as in the paper (``AutTable``),
so finding and composing rows is coset arithmetic.  Subgroup closures
(simplicity, generating pairs) are breadth-first walks over ``mul``, and
Aut(T) element orders are read off powers of the generator images alone,
two entries per row a step.

Automorphisms are stored as rows over the element index of T, so applying
one is a single array lookup.  Element ids are below ``ELEMENT_BUDGET``, so
``mul`` and the Aut rows are int16, and codes made from them are widened
first (an int16 id times |T| wraps).  Composition is left-to-right throughout:
``compose(a, b)[x] = b[a[x]]``, under which ``phi_s . phi_t = phi_{s t}``
for the conjugation maps ``phi_t : x -> t^-1 x t``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from math import factorial

import numpy as np

from .errors import BudgetExceededError, MembershipError, ValidationError
from .perm import GroupTable, Perm

ELEMENT_BUDGET = 2520  # largest |T| the catalog materializes
assert ELEMENT_BUDGET < 1 << 16  # Monte Carlo draws ids as 16-bit words
_ID = np.int16          # element ids, all below ELEMENT_BUDGET
assert ELEMENT_BUDGET <= np.iinfo(_ID).max + 1


# ---------------------------------------------------------------------------
# catalog file parsing

_FIELD_RE = re.compile(r"^\s*([a-z_]+)\s*:\s*(.*?)\s*$")

_REQUIRED_FIELDS = (
    "natural_degree", "generators", "gen_pair_distinct_orders",
    "involution_pair", "min_index",
)


@dataclass
class CatalogRecord:
    """Parsed (unvalidated) catalog entry."""

    name: str
    natural_degree: int
    generators: list
    aut_generators: list        # list of (image_of_gen1, image_of_gen2)
    gen_pair_distinct_orders: tuple
    involution_pair: tuple
    min_index: int
    sources: list = field(default_factory=list)


def _parse_perm_pair(value, degree, name, fieldname, lineno):
    parts = value.split("|")
    if len(parts) != 2:
        raise ValidationError("expected two cycle expressions separated by '|'",
                              spec=name, field=fieldname, line=lineno)
    try:
        return tuple(Perm.parse(p, degree) for p in parts)
    except ValueError as exc:
        raise ValidationError(str(exc), spec=name, field=fieldname,
                              line=lineno) from None


def parse_catalog(text: str):
    """Parse the catalog grammar; raises ValidationError with line context."""
    records = []
    current = None
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("group "):
            if current is not None:
                raise ValidationError("nested group block", line=lineno)
            current = stripped.split(None, 1)[1]
            fields = {"aut_generator": [], "source": []}
            continue
        if stripped == "end":
            if current is None:
                raise ValidationError("'end' outside a group block", line=lineno)
            records.append(_finish_record(current, fields))
            current = None
            continue
        if current is None:
            raise ValidationError(f"unexpected line {stripped!r}", line=lineno)
        m = _FIELD_RE.match(line)
        if not m:
            raise ValidationError(f"unparsable line {stripped!r}",
                                  spec=current, line=lineno)
        key, value = m.group(1), m.group(2)
        if key in ("aut_generator", "source"):
            fields[key].append((value, lineno))
        elif key in fields:
            raise ValidationError("duplicate field", spec=current, field=key,
                                  line=lineno)
        else:
            fields[key] = (value, lineno)
    if current is not None:
        raise ValidationError(f"group {current!r} not closed with 'end'")
    return records


def _finish_record(name, fields):
    for req in _REQUIRED_FIELDS:
        if req not in fields:
            raise ValidationError("missing required field", spec=name, field=req)
    if not fields["aut_generator"]:
        raise ValidationError("at least one aut_generator required",
                              spec=name, field="aut_generator")

    def intval(key):
        value, lineno = fields[key]
        # int() alone also reads '1_2', '+12' and the digits of other scripts
        if not re.fullmatch(r"-?[0-9]+", value):
            raise ValidationError("expected an integer", spec=name, field=key,
                                  line=lineno)
        return int(value)

    degree = intval("natural_degree")
    if degree < 1:
        raise ValidationError("degree must be positive", spec=name,
                              field="natural_degree")

    def pair(key):
        value, lineno = fields[key]
        return _parse_perm_pair(value, degree, name, key, lineno)

    return CatalogRecord(
        name=name,
        natural_degree=degree,
        generators=list(pair("generators")),
        aut_generators=[_parse_perm_pair(v, degree, name, "aut_generator", ln)
                        for v, ln in fields["aut_generator"]],
        gen_pair_distinct_orders=pair("gen_pair_distinct_orders"),
        involution_pair=pair("involution_pair"),
        min_index=intval("min_index"),
        sources=[v for v, _ in fields["source"]],
    )


# ---------------------------------------------------------------------------
# materialized group with Aut table


def _closure_ids(mul, gen_ids):
    """Element ids of the subgroup generated by gen_ids (breadth-first over
    the multiplication table, one whole frontier per step, until no new id
    is reached or every id is).

    Reached ids are marked on a boolean mask rather than listed with a
    plain ``np.unique``: besides sorting every step, numpy 2 runs
    ``np.ma.is_masked`` inside a plain ``np.unique``, and that imports all
    of ``numpy.ma`` (up to 15 ms) on first use."""
    gens = np.asarray(gen_ids, dtype=np.intp)
    seen = np.zeros(mul.shape[0], dtype=bool)
    seen[0] = True
    frontier, found = np.zeros(1, dtype=np.intp), 1
    while frontier.size and found < len(seen):
        reached = np.zeros_like(seen)
        reached[mul.ravel()[(frontier * mul.shape[1])[:, None] + gens]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
        found += frontier.size
    return np.flatnonzero(seen)


def _levels(parents):
    """Slices of one breadth-first closure level each, after the identity.
    A closure lists every element after its parent, and parents in
    nondecreasing order, so the children of the level [lo, hi) are the
    elements from hi up to the first one whose parent is hi or later."""
    lo, hi = 0, 1
    while hi < len(parents):
        lo, hi = hi, int(np.searchsorted(parents, hi))
        yield slice(lo, hi)


class AutTable:
    """Aut(T) as int16 rows over the element index of T, one Inn-coset a
    block: row ``l |T| + t`` applies phi_t, then the label rep r_l, so rows
    0..|T|-1 are Inn(T) in element order (r_0 is the identity) and the
    label of a row is its block.  A row is found by its coset: f is phi_t,
    then r_l, exactly when f, then r_l^-1, has the code of phi_t, looked up
    among the |T| sorted inner codes (``_inner``)."""

    def __init__(self, group: "SimpleGroup"):
        self.T = T = group
        n = T.order
        mul, inv = T.mul, T.inv
        ts = np.arange(n)
        # phi_t[x] = t^-1 x t at the generators of T; codes ascending, and
        # the t of each
        codes = self._code(mul[mul[inv[:, None], T.gen_ids], ts[:, None]])
        by_code = np.argsort(codes)
        self._inner = codes[by_code], by_code
        if np.any(self._inner[0][1:] == self._inner[0][:-1]):
            raise ValidationError("inner automorphisms not distinct; "
                                  "center is nontrivial", spec=T.name)
        outer = [self._resolve_aut_images(images)
                 for images in T.record.aut_generators]
        # label reps, breadth-first modulo Inn(T): each rep, then each
        # outer generator, kept when no coset found so far holds it
        reps, self._rep_invs = [ts.astype(_ID)], [ts]
        for rep in reps:
            for g in outer:
                if self._lookup(g[rep]) < 0:
                    reps.append(f := g[rep])
                    self._rep_invs.append(np.argsort(f))
        self.out_order, reps = len(reps), np.array(reps)
        self.n_aut = self.out_order * n
        # [l, m] the row of (apply r_l, then r_m)
        self._rep_mul = self._lookup(reps[:, reps]).T
        # phi_t, 2^14 entries at a time; row l n + t is r_l read at phi_t
        self.rows = rows = np.empty((self.n_aut, n), dtype=_ID)
        step = max(1, (1 << 14) // n)
        for s in range(0, n, step):
            t = ts[s:s + step]
            rows[t] = np.take(mul, mul[inv[t]].astype(np.intp) * n
                              + t[:, None])
            for l, rep in enumerate(reps[1:], start=1):
                rows[l * n + t] = rep[rows[t]]
        self.identity_row = 0  # phi of the identity element
        self.labels = np.repeat(np.arange(self.out_order, dtype=np.int32), n)
        self.label_reps = list(range(0, self.n_aut, n))
        # multiplication table of the (small) outer label group
        self.label_mul = (self._rep_mul // n).astype(np.int32)
        self.label_inv = np.argmin(self.label_mul, axis=1).astype(np.int32)
        # the label of each record.aut_generators entry, for 'g<i>' out parts
        self.generator_labels = tuple(
            (self._lookup(np.array(outer)) // n).tolist())
        self._group = self._comp = None
        self._image_index = {}
        self._out_tally = {}

    def _code(self, at):
        """Codes of the automorphisms with images ``at[..., :2]`` of g1, g2."""
        return at[..., 0].astype(np.intp) * self.T.order + at[..., 1]

    def _lookup(self, images):
        """Row ids of automorphisms given as image arrays (last axis), -1
        for none."""
        n, (keys, ts) = self.T.order, self._inner
        at = np.asarray(images)[..., self.T.gen_ids]
        found = np.full(at.shape[:-1], -1, dtype=np.intp)
        for l, back in enumerate(self._rep_invs):
            codes = self._code(back[at])
            i = np.minimum(np.searchsorted(keys, codes), n - 1)
            found = np.where(keys[i] == codes, l * n + ts[i], found)
        return found

    def _resolve_aut_images(self, images):
        """Bijection of T induced by generator images, via derivation words,
        one breadth-first level at a time."""
        T = self.T
        try:
            img_ids = np.array([T.table.position(im) for im in images])
        except MembershipError:
            raise ValidationError(
                "aut_generator image is not an element of the group",
                spec=T.name, field="aut_generator") from None
        parents, gis = T.table.deriv
        f = np.zeros(T.order, dtype=_ID)
        for level in _levels(parents):
            f[level] = T.mul[f[parents[level]], img_ids[gis[level]]]
        if not np.all(np.bincount(f, minlength=T.order) == 1):
            raise ValidationError(
                "aut_generator images do not induce a bijection",
                spec=T.name, field="aut_generator")
        for g, fg in zip(T.gen_ids, img_ids):
            if not np.array_equal(f[T.mul[:, g]], T.mul[f, fg]):
                raise ValidationError(
                    "aut_generator images do not normalize the group "
                    "structure (homomorphism law fails)",
                    spec=T.name, field="aut_generator")
        return f

    # -- queries -------------------------------------------------------------

    def inn_of(self, t: int) -> int:
        """Row index of phi_t: the rows start with Inn in element order."""
        return int(t)

    def invert_row(self, a: int) -> int:
        return int(self._lookup(np.argsort(self.rows[a])))

    def composition_table(self) -> np.ndarray:
        """Full n_aut x n_aut composition table, [a, b] the row of (apply
        a, then b); built lazily, 2^20 entries at a time, by coset
        arithmetic.  For a = phi_s, then r_l and b = phi_t, then r_m:
        r_l, then phi_t is phi_u, then r_l for u = r_l^-1(t), and r_l, then
        r_m is row l' |T| + c, so a, then b is row l' |T| + s u c."""
        if self._comp is None:
            n, mul = self.T.order, self.T.mul
            self._comp = np.empty((self.n_aut, self.n_aut), dtype=np.int32)
            blocks = self._comp.reshape(self.out_order, n, self.out_order, n)
            step = max(1, (1 << 20) // n)
            for l, back in enumerate(self._rep_invs):
                for m, lc in enumerate(self._rep_mul[l].tolist()):
                    for s in range(0, n, step):
                        su = mul[s:s + step, back]
                        blocks[l, s:s + step, m] = \
                            mul[su, lc % n] + (lc - lc % n)
        return self._comp

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[r] is the order of the automorphism in row r.  An
        automorphism is known by its images of the two generators of T, so
        only those images are powered: each step reads two entries (at the
        current images) of each row not yet back at the generators."""
        gens = np.asarray(self.T.gen_ids)
        orders = np.zeros(self.n_aut, dtype=np.int64)
        open_ids, images, step = np.arange(self.n_aut), self.rows[:, gens], 1
        while open_ids.size:
            done = np.all(images == gens, axis=1)
            orders[open_ids[done]] = step
            open_ids, images = open_ids[~done], images[~done]
            images = self.rows[open_ids[:, None], images]
            step += 1
        return orders

    @cached_property
    def fixers(self):
        """(ptr, rows): rows[ptr[x]:ptr[x + 1]] fix element x, ascending."""
        n = self.T.order
        rows, x = np.divmod(np.flatnonzero(self.rows == np.arange(n)), n)
        by_x = np.argsort(x, kind="stable")
        return np.searchsorted(x[by_x], np.arange(n + 1)), rows[by_x]

    def rows_with_labels(self, labels) -> np.ndarray:
        wanted = np.zeros(self.out_order, dtype=bool)
        wanted[list(labels)] = True
        return np.flatnonzero(wanted[self.labels]).astype(np.int32)

    def image_index(self, labels: tuple):
        """``order[t]``: the indices into ``rows_with_labels(labels)`` sorted
        by alpha(t), those with alpha(t) = u from ``bounds[t, u]`` up to
        ``bounds[t, u + 1]``.  Built on first use, once per label tuple,
        2^20 entries at a time."""
        if labels not in self._image_index:
            n, ids = self.T.order, self.rows_with_labels(labels)
            order = np.empty((n, len(ids)), dtype=np.int16)
            bounds = np.zeros((n, n + 1), dtype=np.int16)
            step = max(1, (1 << 20) // len(ids))
            for s in range(0, n, step):
                img = np.ascontiguousarray(self.rows[ids, s:s + step].T)
                order[s:s + step] = np.argsort(img, axis=1, kind="stable")
                hist = np.bincount(
                    (img + n * np.arange(len(img))[:, None]).ravel(),
                    minlength=len(img) * n).reshape(-1, n)
                np.cumsum(hist, axis=1, dtype=np.int16,
                          out=bounds[s:s + step, 1:])
            self._image_index[labels] = order, bounds
        return self._image_index[labels]

    def out_tally(self, labels: tuple) -> tuple:
        """((order, |C_Inn(alpha)|, label), count) over the alpha in
        ``rows_with_labels(labels)``; T has trivial centre, so |C_Inn(alpha)|
        is the number of elements of T that alpha fixes.  Built on first
        use, once per label tuple."""
        if labels not in self._out_tally:
            rows = self.rows_with_labels(labels)
            c_inn = np.bincount(self.fixers[1], minlength=self.n_aut)[rows]
            self._out_tally[labels] = tuple(Counter(zip(
                self.orders[rows].tolist(), c_inn.tolist(),
                self.labels[rows].tolist())).items())
        return self._out_tally[labels]

    def group_table(self) -> GroupTable:
        """Aut(T) wrapped as a GroupTable on |T| points, generated by the
        phi_g of the generators g of T and the outer label reps."""
        if self._group is None:
            gens = list(self.T.gen_ids) + self.label_reps[1:]
            self._group = GroupTable(self.rows, self.rows[gens])
        return self._group

    def inn_group_table(self) -> GroupTable:
        """Inn(T) as a subgroup of the Aut table (same |T|-point domain)."""
        return GroupTable(self.rows[:self.T.order],
                          self.rows[self.T.gen_ids])


class SimpleGroup:
    """A catalog group T, fully materialized.  Validation sets the ids that
    the base constructions place: the record's pairs ``distinct_order_ids``
    and ``involution_ids``, and ``third_order_ids``, ascending, of the
    elements whose order is neither 1 nor a distinct-order pair order."""

    def __init__(self, record: CatalogRecord):
        self.record = record
        self.name = record.name
        self.natural_degree = record.natural_degree
        self.min_index = record.min_index
        gens = record.generators
        try:
            self.table = GroupTable.generate(gens, ELEMENT_BUDGET)
        except BudgetExceededError:
            raise ValidationError(
                f"closure exceeded element budget {ELEMENT_BUDGET}",
                spec=self.name) from None
        self.order = self.table.order
        self.gen_ids = [self.table.position(g) for g in gens]
        self._build_tables()
        self.aut = AutTable(self)
        self.out_order = self.aut.out_order
        self.min_index_status = "literature"
        self.validate()

    def _build_tables(self):
        # left[gi, j] = index of generator gi times element j
        arr = self.table.arrays()
        left = np.stack([self.table.positions(arr[:, g])
                         for g in self.table.gen_rows])
        # the closure's derivations: e_i = e_parents[i] * generator gis[i]
        parents, gis = self.table.deriv
        # mul[i, j] = index of (apply element i, then element j); with
        # e_i = e_parent * g, row i is row parent read at g * e_j, filled
        # one closure level at a time
        n = self.order
        self.mul = mul = np.empty((n, n), dtype=_ID)
        mul[0] = np.arange(n)
        for level in _levels(parents):
            mul[level] = mul.ravel()[(parents[level] * n)[:, None]
                                     + left[gis[level]]]
        # a row of mul is a permutation of the ids, so 0 is its minimum
        self.inv = np.argmin(self.mul, axis=1).astype(np.int32)
        self.order_of = self.table.element_orders()

    # -- validated invariants -------------------------------------------------

    def validate(self):
        self._check_simplicity()
        self._check_pairs()
        self._check_out_bound(self.order, self.out_order, self.name)
        self._check_min_index()

    def _check_simplicity(self):
        if self.order < 60:
            raise ValidationError("group too small to be non-abelian simple",
                                  spec=self.name)
        # class of x = its images under the inner rows; a class generates
        # its own normal closure, which must be all of T
        inner = self.aut.rows[:self.order]
        classified = np.zeros(self.order, dtype=bool)
        classified[0] = True
        for x in range(1, self.order):
            if classified[x]:
                continue
            cls = np.flatnonzero(np.bincount(inner[:, x],
                                             minlength=self.order))
            classified[cls] = True
            if len(_closure_ids(self.mul, cls)) != self.order:
                raise ValidationError(
                    "normal closure of a nonidentity element is proper; "
                    "group is not simple", spec=self.name)

    def _generating_pair_ids(self, field_name):
        try:
            ids = tuple(self.table.position(p)
                        for p in getattr(self.record, field_name))
        except MembershipError:
            raise ValidationError("pair element is not in the group",
                                  spec=self.name, field=field_name) from None
        if len(_closure_ids(self.mul, ids)) != self.order:
            raise ValidationError("pair does not generate the group",
                                  spec=self.name, field=field_name)
        return ids

    def _check_pairs(self):
        orders = self.order_of
        self.distinct_order_ids = x, y = \
            self._generating_pair_ids("gen_pair_distinct_orders")
        if orders[x] == orders[y]:
            raise ValidationError("gen_pair_distinct_orders have equal orders",
                                  spec=self.name,
                                  field="gen_pair_distinct_orders")
        # never empty: T is nonabelian simple, so by Burnside and Cauchy it
        # has elements of three prime orders, and the pair names only two
        self.third_order_ids = np.flatnonzero(
            (orders != 1) & (orders != orders[x]) & (orders != orders[y])
        ).tolist()
        self.involution_ids = _, y = \
            self._generating_pair_ids("involution_pair")
        if orders[y] != 2:
            raise ValidationError("second element of involution_pair is not "
                                  "an involution", spec=self.name,
                                  field="involution_pair")

    @staticmethod
    def _check_out_bound(order, out_order, name):
        if out_order ** 3 >= order:
            raise ValidationError(
                f"|Out|^3 = {out_order ** 3} is not < |T| = {order}",
                spec=name)

    def _check_min_index(self):
        # index-d subgroup <=> faithful transitive action on d points, so
        # |T| | d! is necessary; d < p ruled out whenever d! fails that test
        p = self.min_index
        lower_ok = all(factorial(d) % self.order for d in range(1, p))
        upper_ok = (self.natural_degree == p and self.table.is_transitive())
        if factorial(p) % self.order:
            raise ValidationError(
                f"min_index {p} impossible: |T| does not divide {p}!",
                spec=self.name, field="min_index")
        if lower_ok and upper_ok:
            self.min_index_status = "verified"
        elif lower_ok:
            self.min_index_status = "lower-verified"
        else:
            self.min_index_status = "literature"

    def __repr__(self):
        return f"SimpleGroup({self.name}, order={self.order}, " \
               f"out={self.out_order})"


# ---------------------------------------------------------------------------
# default catalog access


def default_catalog_text() -> str:
    return resources.files("diagbase").joinpath("data/catalog.txt") \
        .read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _default_records() -> dict:
    return {rec.name: rec for rec in parse_catalog(default_catalog_text())}


def load_catalog(source: str | None = None):
    """Every catalog group, built and validated.

    The default catalog comes from the ``get_group`` cache; an explicit
    ``source`` text is parsed and built afresh."""
    if source is None:
        return [get_group(name) for name in catalog_names()]
    return [SimpleGroup(rec) for rec in parse_catalog(source)]


@lru_cache(maxsize=None)
def get_group(name: str) -> SimpleGroup:
    """Build (and cache) one catalog group by name."""
    if name not in _default_records():
        raise ValidationError(f"no catalog entry named {name!r}")
    return SimpleGroup(_default_records()[name])


def catalog_names():
    return list(_default_records())
