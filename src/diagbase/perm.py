"""Permutation arithmetic and brute-force group machinery.

Permutations are bijections of {0..m-1} stored as image arrays and composed
left-to-right (``p * q`` applies ``p`` first), matching the right-action
convention used everywhere in this package.  External (serialized) cycle
notation is 1-based; the identity prints as ``()``.

A :class:`GroupTable` is a fully enumerated permutation group.  Everything
here is exhaustive by design: closure is breadth-first, and every other fact
is a reduction over the (order, degree) element array: conjugacy classes are
orbit labels of conjugation, orbits on points are column minima, centralizers
are one comparison, and minimal bases come from backtracking.  Groups too
large to enumerate must never reach this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import factorial, gcd

import numpy as np

from .errors import BudgetExceededError, MembershipError, PreconditionError

DEFAULT_CLOSURE_BUDGET = 10**7
# distinguishing_subset: every subset up to this degree, seeded random
# subsets beyond it
DISTINGUISHING_FULL_SEARCH_DEGREE = 24
DISTINGUISHING_SAMPLES = 10**5
DISTINGUISHING_SEED = 0x5EED

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
        """Wrap a fresh int32 image array already known to be a bijection."""
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
        if not re.fullmatch(r"(\([\d\s,]*\)\s*)+", stripped):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
            entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if not entries:
                continue
            if min(entries) < 1 or max(entries) > degree:
                raise ValueError(f"cycle entry out of range 1..{degree}: {text!r}")
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated point in cycle: {text!r}")
            cycles.append([e - 1 for e in entries])
        return cls.from_cycles(cycles, degree)

    def cycles(self):
        """Nontrivial cycles as lists of 0-based points."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = int(self.images[start])
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = int(self.images[j])
            if len(cyc) > 1:
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

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def order(self) -> int:
        return reduce(lambda a, c: a * c // gcd(a, c),
                      (len(c) for c in self.cycles()), 1)

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
    (index arrays of one length, each a permutation of the points).

    Every point carries a label, at first itself; a pass takes each label's
    own label and then, map by map, the smaller of a point's label and its
    image's.  The maps generate a finite group, so forward images reach the
    whole orbit: labels stay in their orbit, never rise, and stop changing
    once every point carries its orbit's least point.  Labels have the
    dtype of the maps.
    """
    label = np.arange(len(images[0]), dtype=images[0].dtype)
    while True:
        new = label[label]
        for image in images:
            np.minimum(new, new[image], out=new)
        if np.array_equal(new, label):
            return label
        label = new


class GroupTable:
    """A fully enumerated permutation group.

    ``elements[0]`` is always the identity; ``index`` maps an image-array key
    to its position.  A table built by ``generate`` also records, in
    ``deriv[i]``, the (parent position, generator index) that element i was
    first reached by (``(-1, -1)`` for the identity); other tables have
    ``deriv`` None.  Instances are immutable once built and safe to share.
    """

    def __init__(self, elements, generators, deriv=None):
        self.elements = elements
        self.generators = generators
        self.deriv = deriv
        self.index = {e._key: i for i, e in enumerate(elements)}
        self.degree = elements[0].degree
        self._arrays = None
        self._classes = None

    @classmethod
    def generate(cls, gens, budget: int = DEFAULT_CLOSURE_BUDGET) -> "GroupTable":
        """Breadth-first closure of the generated group: elements in order
        of discovery, each element times each generator in turn.  More than
        ``budget`` elements raise BudgetExceededError."""
        gens = list(gens)
        if not gens:
            raise PreconditionError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise PreconditionError("generators must share a degree")
        ident = Perm.identity(degree)
        elements, deriv = [ident], [(-1, -1)]
        index = {ident._key: 0}
        for head, e in enumerate(elements):     # grows while it is walked
            for gi, g in enumerate(gens):
                f = e * g
                if f._key not in index:
                    if len(elements) >= budget:
                        raise BudgetExceededError(
                            f"group closure exceeded budget {budget}")
                    index[f._key] = len(elements)
                    elements.append(f)
                    deriv.append((head, gi))
        return cls(elements, gens, deriv)

    @classmethod
    def from_elements(cls, elements, generators=None) -> "GroupTable":
        """Wrap an already-closed element list (identity must be first)."""
        if not elements[0].is_identity():
            elements = sorted(elements, key=lambda e: not e.is_identity())
        return cls(list(elements), list(generators or elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def arrays(self) -> np.ndarray:
        """All elements as one (order, degree) int32 array."""
        if self._arrays is None:
            self._arrays = np.stack([e.images for e in self.elements])
        return self._arrays

    def __contains__(self, p: Perm) -> bool:
        return p._key in self.index

    def __iter__(self):
        return iter(self.elements)

    def position(self, p: Perm) -> int:
        try:
            return self.index[p._key]
        except KeyError:
            raise MembershipError("element not in group table") from None

    def positions(self, images) -> np.ndarray:
        """Positions of the elements given as the rows of an int32 image
        array."""
        return np.fromiter((self.index[row.tobytes()] for row in images),
                           dtype=np.int64, count=len(images))

    def is_subgroup_of(self, other: "GroupTable") -> bool:
        return self.degree == other.degree and all(
            e._key in other.index for e in self.elements)

    # -- conjugacy machinery ------------------------------------------------

    def conjugacy_classes(self) -> ClassPartition:
        """Orbits of conjugation by the generators on element positions,
        ordered by their least position, which is each class's rep."""
        if self._classes is None:
            arr = self.arrays()
            # g^-1 x g for every x at once: apply g^-1, then x, then g
            images = [self.positions(g.images[arr[:, g.inverse().images]])
                      for g in self.generators]
            reps, class_of, sizes = np.unique(
                orbit_labels(images), return_inverse=True, return_counts=True)
            self._classes = ClassPartition(reps.tolist(), class_of,
                                           sizes.tolist())
        return self._classes

    def centralizer(self, x: Perm) -> "GroupTable":
        """All y in the group with xy = yx: the rows y with y[x] = x[y]."""
        if x._key not in self.index:
            raise MembershipError("centralizer: element not in group")
        arr = self.arrays()
        members = np.flatnonzero((arr[:, x.images] == x.images[arr])
                                 .all(axis=1))
        return GroupTable.from_elements([self.elements[i] for i in members])

    def prime_order_class_count(self) -> int:
        """f_p: number of conjugacy classes of prime-order elements."""
        part = self.conjugacy_classes()
        return sum(1 for r in part.reps if _is_prime(self.elements[r].order()))

    def element_orders(self) -> np.ndarray:
        """Order of every element, in element order: the lcm of its cycle
        lengths, with all rows powered together.  Squaring the rows j times
        lets each point's label, at first the point itself, become the least
        point among its first 2^j images, so once 2^j reaches the degree it
        names the point's cycle; a cycle's length is the number of points
        in the row carrying its label."""
        arr = self.arrays()
        n, d = arr.shape
        rows = np.arange(n)[:, None]
        label = np.tile(np.arange(d, dtype=arr.dtype), (n, 1))
        power, span = arr, 1
        while span < d:
            label = np.minimum(label, label[rows, power])
            power, span = power[rows, power], 2 * span
        at = label + rows * d
        return np.lcm.reduce(np.bincount(at.ravel(), minlength=n * d)[at],
                             axis=1)

    # -- actions on points --------------------------------------------------

    def orbits(self):
        """Orbits on {0..degree-1} as sorted lists, by least point.  The
        orbit of p is the column ``arrays()[:, p]``, so its minimum labels
        the orbit."""
        label = self.arrays().min(axis=0)
        return [np.flatnonzero(label == p).tolist() for p in np.unique(label)]

    def is_transitive(self) -> bool:
        return bool((self.arrays().min(axis=0) == 0).all())

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system (Atkinson's test)."""
        if self.degree == 1:
            return True
        if not self.is_transitive():
            return False
        if _is_prime(self.degree):
            # block sizes divide the degree
            return True
        gens = [g.images for g in self.generators]
        for a in range(1, self.degree):
            if _minimal_block_size(gens, self.degree, 0, a) != self.degree:
                return False
        return True

    def contains_alternating(self) -> bool:
        """Whether A_degree <= group (order test; index-2 subgroup is unique)."""
        half = factorial(self.degree) // 2
        return self.order == half or self.order == 2 * half

    def is_symmetric(self) -> bool:
        return self.order == factorial(self.degree)

    # -- bases and distinguishing subsets ------------------------------------

    def pointwise_stabilizer_elements(self, points):
        """Positions of elements fixing every point; scan of the full table."""
        pts = list(points)
        return np.flatnonzero((self.arrays()[:, pts] == pts).all(axis=1)) \
            .tolist()

    def minimal_base(self):
        """Exact minimal base via iterative-deepening backtracking.

        Candidate points are explored in descending orbit size of the running
        stabilizer, ties lexicographic; at each level only one representative
        per stabilizer orbit is tried (conjugate continuations are isomorphic).
        """
        if self.order == 1:
            return 0, []
        arr = self.arrays()

        def orbit_reps_desc(stab):
            # each orbit's least point (its column minimum) stands for it;
            # fixed points never cut the stabilizer down
            sizes = np.bincount(arr[stab].min(axis=0), minlength=self.degree)
            reps = np.flatnonzero(sizes > 1)
            return reps[np.argsort(-sizes[reps], kind="stable")].tolist()

        def dfs(stab, depth, chosen):
            if len(stab) == 1:
                return list(chosen)
            if depth == 0:
                return None
            for p in orbit_reps_desc(stab):
                found = dfs(stab[arr[stab, p] == p], depth - 1, chosen + [p])
                if found is not None:
                    return found
            return None

        for size in range(1, self.degree + 1):
            base = dfs(np.arange(self.order), size, [])
            if base is not None:
                return len(base), base
        raise PreconditionError("group is not faithful on its domain")

    def setwise_stabilizer_is_trivial(self, subset) -> bool:
        """Whether the identity is the only element mapping ``subset`` into
        (hence onto) itself."""
        idx = np.fromiter(set(subset), dtype=np.int64)
        return int(np.isin(self.arrays()[:, idx], idx).all(axis=1).sum()) == 1

    def distinguishing_subset(self):
        """A proper subset with trivial setwise stabilizer and |D| >= |complement|.

        Exhaustive (lexicographic within ascending size, sizes from ceil(k/2))
        up to degree DISTINGUISHING_FULL_SEARCH_DEGREE; beyond it,
        DISTINGUISHING_SAMPLES random subsets from DISTINGUISHING_SEED.
        Returns (subset or None, exhaustive_flag).
        """
        if not self.is_transitive():
            raise PreconditionError("distinguishing subset needs a transitive group")
        k = self.degree
        lo = (k + 1) // 2
        if k <= DISTINGUISHING_FULL_SEARCH_DEGREE:
            for size in range(lo, k):
                for combo in combinations(range(k), size):
                    if self.setwise_stabilizer_is_trivial(combo):
                        return frozenset(combo), True
            return None, True
        rng = np.random.default_rng(DISTINGUISHING_SEED)
        for _ in range(DISTINGUISHING_SAMPLES):
            size = int(rng.integers(lo, k))
            combo = rng.choice(k, size=size, replace=False)
            if self.setwise_stabilizer_is_trivial(combo.tolist()):
                return frozenset(int(v) for v in combo), False
        return None, False


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
        return GroupTable.from_elements([Perm.identity(1)])
    gens = [Perm.from_cycles([[0, 1]], k)] if k == 2 else [
        Perm.from_cycles([[0, 1]], k),
        Perm.from_cycles([list(range(k))], k),
    ]
    return GroupTable.generate(gens)


def alternating_table(k: int) -> GroupTable:
    """A_k as an explicit table."""
    if k <= 2:
        return GroupTable.from_elements([Perm.identity(max(k, 1))])
    if k == 3:
        gens = [Perm.from_cycles([[0, 1, 2]], 3)]
    else:
        gens = [Perm.from_cycles([[0, 1, 2]], k),
                Perm.from_cycles([list(range(k))], k) if k % 2
                else Perm.from_cycles([list(range(1, k))], k)]
    return GroupTable.generate(gens)


def cyclic_table(k: int) -> GroupTable:
    """C_k generated by a k-cycle."""
    return GroupTable.generate([Perm.from_cycles([list(range(k))], k)])


def dihedral_table(k: int) -> GroupTable:
    """D_k (order 2k) on k points: k-cycle plus a reflection."""
    reflection = Perm([(-i) % k for i in range(k)])
    return GroupTable.generate(
        [Perm.from_cycles([list(range(k))], k), reflection])
