"""Simple-group catalog: materialized groups T with full Aut(T) tables.

A catalog record supplies generators of T, images of those generators under
outer automorphism representatives, two distinguished generating pairs, and
the minimal index of a proper subgroup.  Everything else is computed and
verified here: the element list and multiplication table of T, the full
automorphism group as index bijections of T, inner/outer coset labels, and
the catalog invariants (simplicity, generation, the |Out|^3 < |T| bound,
prime divisors, minimal-index consistency).  Only the closure of the
generators of T (``GroupTable.generate``) uses permutation objects; the
group theory after it runs on integer tables: ``mul`` follows from the
closure's derivations and its element array, an
automorphism is keyed by its images of the two generators, subgroup
closures (simplicity, generating pairs) are breadth-first walks over
``mul``, and Aut(T) element orders are powers of the Aut rows.

Automorphisms are stored as rows over the element index of T, so applying
one is a single array lookup.  Composition is left-to-right throughout:
``compose(a, b)[x] = b[a[x]]``, under which ``phi_s . phi_t = phi_{s t}``
for the conjugation maps ``phi_t : x -> t^-1 x t``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from math import factorial

import numpy as np

from .errors import BudgetExceededError, NotInnerError, ValidationError
from .perm import GroupTable, Perm

ELEMENT_BUDGET = 2520  # largest |T| the catalog materializes


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
        try:
            return int(value)
        except ValueError:
            raise ValidationError("expected an integer", spec=name, field=key,
                                  line=lineno) from None

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
    the multiplication table, one whole frontier per step)."""
    gens = np.unique(np.asarray(gen_ids, dtype=np.int64))
    seen = np.zeros(mul.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.unique(mul[frontier[:, None], gens])
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return np.flatnonzero(seen)


class AutTable:
    """Aut(T) as bijections of the element index of T."""

    def __init__(self, group: "SimpleGroup"):
        self.T = T = group
        n = T.order
        mul, inv = T.mul, T.inv
        # an automorphism is known by its images of the two generators of T:
        # _row_of_code[img(g1) * n + img(g2)] is its row, -1 if none yet
        self._row_of_code = np.full(n * n, -1, dtype=np.int32)
        self.n_aut = 0
        # inner automorphisms: phi_t[x] = t^-1 x t, one row per t
        left = mul[inv]                       # left[t, x] = t^-1 * x
        rows = mul[left, np.arange(n, dtype=np.int32)[:, None]]
        if len(self._add_new(rows)) != n:
            raise ValidationError("inner automorphisms not distinct; "
                                  "center is nontrivial", spec=T.name)
        outer = np.array([self._resolve_aut_images(images)
                          for images in T.record.aut_generators])
        gens = np.concatenate([rows[T.gen_ids], outer])
        frontier = self._add_new(outer)
        blocks = [rows, frontier]
        while len(frontier):
            # apply a frontier row, then a generator; a-major order
            frontier = self._add_new(
                gens[:, frontier].transpose(1, 0, 2).reshape(-1, n))
            blocks.append(frontier)
        self.rows = np.ascontiguousarray(np.concatenate(blocks))
        if self.n_aut % n:
            raise ValidationError(
                f"|Aut| = {self.n_aut} is not a multiple of |T| = {n}",
                spec=T.name)
        self.out_order = self.n_aut // n
        # t -> row of phi_t; rows were seeded with Inn in element order
        self.inn_row_of = np.arange(n, dtype=np.int32)
        self.conjugator_of_row = np.full(self.n_aut, -1, dtype=np.int32)
        self.conjugator_of_row[:n] = np.arange(n, dtype=np.int32)
        self.identity_row = 0  # phi of the identity element
        self._assign_labels()
        self._group = None
        self._comp = None

    def _codes(self, images):
        g1, g2 = self.T.gen_ids
        return images[..., g1] * self.T.order + images[..., g2]

    def _lookup(self, images):
        """Row ids of automorphisms given as image arrays (last axis)."""
        return self._row_of_code[self._codes(images)]

    def _add_new(self, candidates):
        """Number the candidates not in the table yet, in order of first
        occurrence, after the rows already there; returns those rows."""
        codes = self._codes(candidates)
        first = np.sort(np.unique(codes, return_index=True)[1])
        first = first[self._row_of_code[codes[first]] < 0]
        self._row_of_code[codes[first]] = self.n_aut + np.arange(len(first))
        self.n_aut += len(first)
        return candidates[first]

    def _resolve_aut_images(self, images):
        """Bijection of T induced by generator images, via derivation words."""
        T = self.T
        img_ids = []
        for im in images:
            if im._key not in T.table.index:
                raise ValidationError(
                    "aut_generator image is not an element of the group",
                    spec=T.name, field="aut_generator")
            img_ids.append(T.table.index[im._key])
        f = np.zeros(T.order, dtype=np.int32)
        for i, (parent, gi) in enumerate(T.table.deriv):
            if parent >= 0:
                f[i] = T.mul[f[parent], img_ids[gi]]
        if len(np.unique(f)) != T.order:
            raise ValidationError(
                "aut_generator images do not induce a bijection",
                spec=T.name, field="aut_generator")
        for g, fg in zip(T.gen_ids, img_ids):
            if not np.array_equal(f[T.mul[:, g]], T.mul[f, fg]):
                raise ValidationError(
                    "aut_generator images do not normalize the group "
                    "structure (homomorphism law fails)",
                    spec=T.name, field="aut_generator")
        return np.ascontiguousarray(f)

    def _assign_labels(self):
        n = self.T.order
        labels = np.full(self.n_aut, -1, dtype=np.int32)
        reps = []
        for r in range(self.n_aut):
            if labels[r] < 0:
                # the Inn-coset of r: apply phi_t, then r, for every t
                labels[self._lookup(self.rows[r][self.rows[:n]])] = len(reps)
                reps.append(r)
        self.labels = labels
        self.label_reps = reps
        counts = np.bincount(labels, minlength=len(reps))
        if len(reps) != self.out_order or not np.all(counts == n):
            raise ValidationError(
                "Inn-coset partition is not out_order parts of size |T|",
                spec=self.T.name)
        # multiplication table of the (small) outer label group
        rep_rows = self.rows[reps]
        # [b, a]: apply rep a, then rep b
        self.label_mul = labels[self._lookup(rep_rows[:, rep_rows])].T
        self.label_inv = np.argmin(self.label_mul, axis=1).astype(np.int32)

    # -- queries -------------------------------------------------------------

    def inn_of(self, t: int) -> int:
        """Row index of phi_t."""
        return int(self.inn_row_of[t])

    def row_of(self, bijection) -> int:
        arr = np.asarray(bijection, dtype=np.int32)
        n = self.T.order
        if arr.shape == (n,) and 0 <= arr.min() and arr.max() < n:
            r = int(self._lookup(arr))
            if r >= 0 and np.array_equal(self.rows[r], arr):
                return r
        raise ValidationError("bijection is not an automorphism in the table")

    def recover_conjugator(self, a) -> int:
        """The unique t with a = phi_t; NotInnerError if a is outer."""
        r = a if isinstance(a, (int, np.integer)) else self.row_of(a)
        t = int(self.conjugator_of_row[r])
        if t < 0:
            raise NotInnerError("automorphism is not inner")
        return t

    def compose_rows(self, a: int, b: int) -> int:
        """Row id of (apply a, then b)."""
        if self._comp is not None:
            return int(self._comp[a, b])
        return int(self._lookup(self.rows[b][self.rows[a]]))

    def invert_row(self, a: int) -> int:
        row = self.rows[a]
        rinv = np.empty(len(row), dtype=np.int32)
        rinv[row] = np.arange(len(row), dtype=np.int32)
        return int(self._lookup(rinv))

    def composition_table(self) -> np.ndarray:
        """Full n_aut x n_aut composition table (built lazily); a row is
        known by its images of the two generators of T."""
        if self._comp is None:
            n, (g1, g2), rows = self.T.order, self.T.gen_ids, self.rows
            # [b, a]: code of (apply a, then b)
            codes = rows[:, rows[:, g1]] * n + rows[:, rows[:, g2]]
            self._comp = np.ascontiguousarray(self._row_of_code[codes].T)
        return self._comp

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[r] is the order of the automorphism in row r.  An
        automorphism is known by its images of the two generators of T, so
        only those images are powered: the rows not yet back at the
        generators are applied to their images once more per step."""
        gens = np.asarray(self.T.gen_ids)
        orders = np.zeros(self.n_aut, dtype=np.int64)
        open_ids, images, step = np.arange(self.n_aut), self.rows[:, gens], 1
        while open_ids.size:
            done = np.all(images == gens, axis=1)
            orders[open_ids[done]] = step
            open_ids, images = open_ids[~done], images[~done]
            images = np.take_along_axis(self.rows[open_ids], images, axis=1)
            step += 1
        return orders

    def rows_with_labels(self, labels) -> np.ndarray:
        labels = set(int(v) for v in labels)
        return np.array([r for r in range(self.n_aut)
                         if int(self.labels[r]) in labels], dtype=np.int32)

    def group_table(self) -> GroupTable:
        """Aut(T) wrapped as a GroupTable on |T| points."""
        if self._group is None:
            elements = [Perm(r) for r in self.rows]
            gens = [Perm(self.rows[self.label_reps[lab]])
                    for lab in range(self.out_order) if lab] or []
            gens = [elements[self.inn_of(g)] for g in self.T.gen_ids] + gens
            self._group = GroupTable.from_elements(elements, gens)
        return self._group

    def inn_group_table(self) -> GroupTable:
        """Inn(T) as a subgroup of the Aut table (same |T|-point domain)."""
        full = self.group_table()
        elements = full.elements[:self.T.order]
        gens = [full.elements[self.inn_of(g)] for g in self.T.gen_ids]
        return GroupTable.from_elements(elements, gens)


class SimpleGroup:
    """A catalog group T, fully materialized."""

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
        # right[gi, i] = index of element i times generator gi
        arr = self.table.arrays()
        right = [self.table.positions(g.images[arr])
                 for g in self.table.generators]
        # mul[i, j] = index of (apply element i, then element j); with
        # e_j = e_parent * g, column j is column parent times g
        cols = np.empty((self.order, self.order), dtype=np.int32)
        cols[0] = np.arange(self.order)
        for j, (parent, gi) in enumerate(self.table.deriv[1:], start=1):
            cols[j] = right[gi][cols[parent]]
        self.mul = np.ascontiguousarray(cols.T)
        self.inv = np.nonzero(self.mul == 0)[1].astype(np.int32)
        self.order_of = self.table.element_orders()

    # -- validated invariants -------------------------------------------------

    def validate(self):
        self._check_simplicity()
        self._check_pairs()
        self._check_out_bound(self.order, self.out_order, self.name)
        self._check_prime_divisors()
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
            cls = np.unique(inner[:, x])
            classified[cls] = True
            if len(_closure_ids(self.mul, cls)) != self.order:
                raise ValidationError(
                    "normal closure of a nonidentity element is proper; "
                    "group is not simple", spec=self.name)

    def _generating_pair_ids(self, field_name):
        ids = []
        for p in getattr(self.record, field_name):
            if p._key not in self.table.index:
                raise ValidationError("pair element is not in the group",
                                      spec=self.name, field=field_name)
            ids.append(self.table.index[p._key])
        if len(_closure_ids(self.mul, ids)) != self.order:
            raise ValidationError("pair does not generate the group",
                                  spec=self.name, field=field_name)
        return ids

    def _check_pairs(self):
        x, y = self._generating_pair_ids("gen_pair_distinct_orders")
        if self.order_of[x] == self.order_of[y]:
            raise ValidationError("gen_pair_distinct_orders have equal orders",
                                  spec=self.name,
                                  field="gen_pair_distinct_orders")
        _, y = self._generating_pair_ids("involution_pair")
        if self.order_of[y] != 2:
            raise ValidationError("second element of involution_pair is not "
                                  "an involution", spec=self.name,
                                  field="involution_pair")

    @staticmethod
    def _check_out_bound(order, out_order, name):
        if out_order ** 3 >= order:
            raise ValidationError(
                f"|Out|^3 = {out_order ** 3} is not < |T| = {order}",
                spec=name)

    def _check_prime_divisors(self):
        n, primes, d = self.order, set(), 2
        while d * d <= n:
            if n % d == 0:
                primes.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            primes.add(n)
        if len(primes) < 3:
            raise ValidationError(
                "order is divisible by fewer than 3 distinct primes",
                spec=self.name)

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

    # -- convenience ----------------------------------------------------------

    def distinct_order_pair_ids(self):
        x, y = self.record.gen_pair_distinct_orders
        return self.table.position(x), self.table.position(y)

    def involution_pair_ids(self):
        x, y = self.record.involution_pair
        return self.table.position(x), self.table.position(y)

    def third_order_element(self):
        """Smallest-index nontrivial element whose order differs from both
        distinct-order pair members."""
        xi, yi = self.distinct_order_pair_ids()
        ox, oy = int(self.order_of[xi]), int(self.order_of[yi])
        for t in range(1, self.order):
            if int(self.order_of[t]) not in (1, ox, oy):
                return t
        raise ValidationError("no element of a third order exists",
                              spec=self.name)

    def elements_with_orders_excluding(self, excluded):
        """Ids of nontrivial elements whose orders avoid the excluded set."""
        excluded = set(excluded) | {1}
        return [t for t in range(self.order)
                if int(self.order_of[t]) not in excluded]

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
