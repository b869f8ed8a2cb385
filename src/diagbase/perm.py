"""Permutation arithmetic and brute-force group machinery.

Permutations are bijections of {0..m-1} stored as image arrays and composed
left-to-right (``p * q`` applies ``p`` first), matching the right-action
convention used everywhere in this package.  External (serialized) cycle
notation is 1-based; the identity prints as ``()``.

A :class:`GroupTable` is a fully enumerated permutation group, held as its
(order, degree) element array.  Everything here is exhaustive by design:
closure is breadth-first on rows, and every other fact is a reduction over
the element array: conjugacy classes are orbit labels of conjugation, orbits
on points are column minima, a centralizer's order is one comparison, and a
base is one greedy pass over stabilizer orbits.  Cyclic and dihedral tables
skip the closure: their rows and orders are closed-form.  Groups too large
to enumerate must never reach this module; ``Perm`` objects are made from
rows only on request.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import BudgetExceededError, MembershipError, PreconditionError

DEFAULT_CLOSURE_BUDGET = 10**7

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _is_bijection(arr) -> bool:
    n = len(arr)
    if n == 0:
        return False
    if int(arr.min()) < 0 or int(arr.max()) >= n:
        return False
    return int(np.bincount(arr, minlength=n).max()) == 1


class Perm:
    """A permutation of {0..m-1}; immutable and hashable."""

    __slots__ = ("images", "_key")

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1 or not _is_bijection(arr):
            raise ValueError("images must be a bijection of 0..m-1")
        arr.setflags(write=False)
        self.images = arr
        self._key = arr.tobytes()

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "Perm":
        """Wrap an int32 image array already known to be a bijection, such
        as a row of a GroupTable; nothing may write to it afterwards."""
        p = object.__new__(cls)
        arr.setflags(write=False)
        p.images = arr
        p._key = arr.tobytes()
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(np.arange(degree, dtype=np.int32))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        """Parse 1-based cycle notation, e.g. ``(1 2 3)(4 5)`` or ``()``."""
        stripped = text.strip()
        if not re.fullmatch(r"(\([0-9\s,]*\)\s*)+", stripped):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles, seen = [], set()
        for body in _CYCLE_RE.findall(stripped):
            entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if not entries:
                continue
            if min(entries) < 1 or max(entries) > degree:
                raise ValueError(f"cycle entry out of range 1..{degree}: {text!r}")
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated point in cycle: {text!r}")
            # disjoint cycles only: from_cycles would overwrite, not compose
            if seen.intersection(entries):
                raise ValueError(f"point in two cycles: {text!r}")
            seen.update(entries)
            cycles.append([e - 1 for e in entries])
        return cls.from_cycles(cycles, degree)

    def cycles(self):
        """Nontrivial cycles as lists of 0-based points."""
        images, seen, out = self.images.tolist(), [False] * self.degree, []
        for start, j in enumerate(images):
            if seen[start] or j == start:
                continue
            cyc = [start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = images[j]
            out.append(cyc)
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in cycs
        )

    def __repr__(self) -> str:
        return f"Perm({self})"

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other; a product of bijections is one
        if len(other.images) != len(self.images):
            raise ValueError("cannot multiply permutations of different "
                             "degrees")
        return Perm._unchecked(other.images[self.images])

    def inverse(self) -> "Perm":
        inv = np.empty(self.degree, dtype=np.int32)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Perm._unchecked(inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def fixed_points(self):
        return [i for i in range(self.degree) if self.images[i] == i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass
class ClassPartition:
    """Conjugation-orbit partition of a GroupTable."""

    reps: list
    class_of: np.ndarray
    sizes: list

    def __len__(self) -> int:
        return len(self.reps)


def orbit_labels(images) -> np.ndarray:
    """Per point, the least point of its orbit under the maps ``images``
    (the rows of a 2-D index array, each a permutation of the points; with
    no rows, every point is its own orbit).

    Every point carries a label, at first itself; a pass takes each label's
    own label and then, map by map, the smaller of a point's label and its
    image's.  The maps generate a finite group, so forward images reach the
    whole orbit: labels stay in their orbit, never rise, and stop changing
    once every point carries its orbit's least point.  Labels have the
    dtype of the maps.
    """
    label = np.arange(images.shape[1], dtype=images.dtype)
    while True:
        new = label[label]
        for image in images:
            np.minimum(new, new[image], out=new)
        if np.array_equal(new, label):
            return label
        label = new


class GroupTable:
    """A fully enumerated permutation group: ``arrays()``, the (order,
    degree) int32 element array with the identity first, and ``gen_rows``,
    the generators' rows.  ``position``, ``positions`` and ``in`` search
    one sorted index of exact row keys (``_row_keys``).  A table built by
    ``generate``, ``cyclic_table`` or ``dihedral_table`` also records ``deriv =
    (parents, gis)``: element i is element ``parents[i]`` times generator
    ``gis[i]`` (-1 for the identity); other tables have ``deriv`` None.
    ``orders`` presets ``element_orders()``.  Immutable once built.
    """

    def __init__(self, rows, gen_rows, deriv=None, *, orders=None):
        self._rows = rows
        self.gen_rows = gen_rows
        self.deriv = deriv
        self.degree = self._rows.shape[1]
        self._orders = orders
        self._classes = self._tally = None
        self._keys = self._at = None

    @classmethod
    def generate(cls, gens, budget: int = DEFAULT_CLOSURE_BUDGET) -> "GroupTable":
        """Breadth-first closure of the generated group, one level at a
        time: each element of the level times each generator in turn
        (element-major), the first occurrence of each new row kept, in that
        order.  More than ``budget`` elements raise BudgetExceededError."""
        gens = list(gens)
        if not gens:
            raise PreconditionError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise PreconditionError("generators must share a degree")
        gen_rows = np.stack([g.images for g in gens])
        level = np.arange(degree, dtype=np.int32)[None]
        rows, deriv = [level], [np.full((1, 2), -1)]
        keys = _row_keys(level)     # the rows so far, sorted
        while len(level):
            order = len(keys)
            # level[h] times generator gi is gen_rows[gi] read at level[h]
            cand = gen_rows[:, level].swapaxes(0, 1).reshape(-1, degree)
            # each distinct candidate key, in key order, at its first
            # occurrence
            ck, first = np.unique(_row_keys(cand), return_index=True)
            where = np.searchsorted(keys, ck)
            new = keys[np.minimum(where, order - 1)] != ck
            if order + np.count_nonzero(new) > budget:
                raise BudgetExceededError(
                    f"group closure exceeded budget {budget}")
            found = np.sort(first[new])
            keys = np.insert(keys, where[new], ck[new])
            deriv.append(np.stack(np.divmod(found, len(gens)), axis=1)
                         + [order - len(level), 0])
            level = cand[found]
            rows.append(level)
        return cls(np.concatenate(rows), gen_rows,
                   tuple(np.concatenate(deriv, dtype=np.int32).T))

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def generators(self) -> list:
        return [Perm._unchecked(row) for row in self.gen_rows]

    def arrays(self) -> np.ndarray:
        """All elements as one (order, degree) int32 array."""
        return self._rows

    def element(self, i: int) -> Perm:
        return Perm._unchecked(self._rows[i])

    def __iter__(self):
        return map(Perm._unchecked, self._rows)

    def _find(self, images):
        """For each row of ``images``, a position in the table and whether
        the row is there at all (if not, the position is meaningless)."""
        if self._keys is None:
            keys = _row_keys(self._rows)
            self._at = np.argsort(keys, kind="stable").astype(np.int32)
            self._keys = keys[self._at]
        probe = _row_keys(images)
        i = np.minimum(np.searchsorted(self._keys, probe), self.order - 1)
        return self._at[i], self._keys[i] == probe

    def __contains__(self, p: Perm) -> bool:
        return p.degree == self.degree and bool(self._find(p.images[None])[1])

    def position(self, p: Perm) -> int:
        return int(self.positions(p.images[None])[0])

    def positions(self, images) -> np.ndarray:
        """Positions of the elements given as the rows of an int32 image
        array; MembershipError if a row is not one of them."""
        if np.shape(images)[-1] != self.degree:
            raise MembershipError("element of the wrong degree for the "
                                  "group table")
        at, found = self._find(images)
        if not found.all():
            raise MembershipError("element not in group table")
        return at

    # -- conjugacy machinery ------------------------------------------------

    def conjugacy_classes(self) -> ClassPartition:
        """Orbits of conjugation by the generators on element positions,
        ordered by their least position, which is each class's rep."""
        if self._classes is None:
            arr = self._rows
            # g^-1 x g for every x at once: apply g^-1, then x, then g
            images = np.stack([self.positions(g[arr[:, np.argsort(g)]])
                               for g in self.gen_rows])
            reps, class_of, sizes = np.unique(
                orbit_labels(images), return_inverse=True, return_counts=True)
            self._classes = ClassPartition(reps.tolist(), class_of,
                                           sizes.tolist())
        return self._classes

    def centralizer_order(self, x: Perm) -> int:
        """The number of rows y with y[x] = x[y], that is, xy = yx."""
        self.position(x)    # MembershipError unless x is in the group
        arr, im = self._rows, x.images
        return np.count_nonzero((arr[:, im] == im[arr]).all(axis=1))

    def element_orders(self) -> np.ndarray:
        """Order of every element, in element order: the lcm of its cycle
        lengths, with all rows powered together.  Squaring the rows j times
        lets each point's label, at first the point itself, become the least
        point among its first 2^j images, so once 2^j reaches the degree it
        names the point's cycle; a cycle's length is the number of points
        in the row carrying its label.  Cached, like ``arrays()``."""
        if self._orders is None:
            arr = self.arrays()
            n, d = arr.shape
            rows = np.arange(n)[:, None]
            label = np.tile(np.arange(d, dtype=arr.dtype), (n, 1))
            power, span = arr, 1
            while span < d:
                label = np.minimum(label, label[rows, power])
                power, span = power[rows, power], 2 * span
            at = label + rows * d
            self._orders = np.lcm.reduce(
                np.bincount(at.ravel(), minlength=n * d)[at], axis=1)
        return self._orders

    def order_fixed_tally(self) -> tuple:
        """((order, fixed points), count) over the elements; cached."""
        if self._tally is None:
            fixed = (self._rows == np.arange(self.degree)).sum(axis=1)
            self._tally = tuple(Counter(zip(self.element_orders().tolist(),
                                            fixed.tolist())).items())
        return self._tally

    # -- actions on points --------------------------------------------------

    def is_transitive(self) -> bool:
        return bool((self.arrays().min(axis=0) == 0).all())

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system (Atkinson's test)."""
        if not self.is_transitive():
            return False
        if _is_prime(self.degree):
            # block sizes divide the degree
            return True
        return all(_minimal_block_size(self.gen_rows, self.degree, 0, a)
                   == self.degree for a in range(1, self.degree))

    # -- bases --------------------------------------------------------------

    def base(self):
        """An irredundant base, greedily: while the running stabilizer is
        nontrivial, the least point of its largest orbit (each orbit's
        least point is its column minimum).  Each point moves under the
        stabilizer of the points before it, so each cuts that stabilizer
        down."""
        arr = self.arrays()
        stab, base = np.arange(self.order), []
        while len(stab) > 1:
            point = int(np.bincount(arr[stab].min(axis=0)).argmax())
            base.append(point)
            stab = stab[arr[stab, point] == point]
        return base


def _minimal_block_size(gen_arrays, degree, a, b) -> int:
    """Size of the minimal block containing {a, b} (union-find congruence)."""
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    union(a, b)
    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        for g in gen_arrays:
            gx, gy = int(g[x]), int(g[y])
            if union(gx, gy):
                queue.append((gx, gy))
    root = find(a)
    return sum(1 for p in range(degree) if find(p) == root)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def symmetric_table(k: int) -> GroupTable:
    """S_k as an explicit table."""
    if k == 1:
        return GroupTable.generate([Perm.identity(1)])
    gens = [Perm.from_cycles([[0, 1]], k)] if k == 2 else [
        Perm.from_cycles([[0, 1]], k),
        Perm.from_cycles([list(range(k))], k),
    ]
    return GroupTable.generate(gens)


def alternating_table(k: int) -> GroupTable:
    """A_k as an explicit table."""
    if k <= 2:
        return GroupTable.generate([Perm.identity(max(k, 1))])
    if k == 3:
        gens = [Perm.from_cycles([[0, 1, 2]], 3)]
    else:
        gens = [Perm.from_cycles([[0, 1, 2]], k),
                Perm.from_cycles([list(range(k))], k) if k % 2
                else Perm.from_cycles([list(range(1, k))], k)]
    return GroupTable.generate(gens)


def cyclic_table(k: int) -> GroupTable:
    """C_k generated by a k-cycle."""
    return dihedral_table(k, reflections=False)


def dihedral_table(k: int, reflections: bool = True) -> GroupTable:
    """D_k (order 2k) on k points, generated by x -> x + 1 and x -> -x
    (mod k); C_k, from the first alone, without ``reflections``.

    Its maps are x -> s*x + r, s = +-1, listed as ``GroupTable.generate``
    lists them for those generators, with no row product: (s, r) times
    them is (s, r + 1) and (-s, -r), so closing the pairs breadth-first
    gives the closure's order; at k <= 2, -x = x, so s stays 1.  A
    rotation has order k / gcd(r, k), a reflection order 2."""
    pairs, deriv = [(1, 0)], {(1, 0): (-1, -1)}
    for head, (s, r) in enumerate(pairs):     # grows while it is walked
        steps = [(s, (r + 1) % k), (-s if k > 2 else 1, -r % k)]
        for gi, pair in enumerate(steps[:1 + reflections]):
            if pair not in deriv:
                deriv[pair] = (head, gi)
                pairs.append(pair)
    s, r = np.array(pairs).T
    points = np.arange(k)
    rows = ((s[:, None] * points + r[:, None]) % k).astype(np.int32)
    gen_rows = np.array([(points + 1) % k, -points % k], dtype=np.int32)
    return GroupTable(rows, gen_rows[:1 + reflections],
                      tuple(np.array(list(deriv.values()), dtype=np.int32).T),
                      orders=np.where(s < 0, 2, k // np.gcd(r, k)))


def _row_keys(rows) -> np.ndarray:
    """Each row of a 2-D array, as int32, as one opaque bytes value: equal
    keys are equal rows at every degree, and keys sort and search like any
    array.  A view when the rows are C-contiguous int32 already."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[1])))[:, 0]
