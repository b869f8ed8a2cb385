"""Fixed-point counting bounds and class/centralizer formulas, exactly.

Everything enumerable is an exact rational.  The second-moment bound on the
proportion of non-base pairs is evaluated by double counting: summing, over
the points, the number of prime-order diagonal-stabilizer elements fixing
each point, divided by the degree.  That count is constant on each orbit of
the diagonal stabilizer, so the scan visits one representative per orbit
and weights its count by the orbit's size.  The same per-point counts give
the exact non-base proportion (the points with a nonzero count), so one
scan yields both.  The bound decomposes over conjugacy classes into three
contributions split by the permutation part (fixed-point-free, trivial, or
mixed), and the class data itself is computed twice: by the displayed
product formulas and by brute-force orbit enumeration in a row-coded copy
of the full group.  That enumeration packs each element into one int64
code and walks each conjugacy class level by level, conjugating the whole
frontier by every generator at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import _accel, baseengine
from .diag import DiagTypeGroup, _orbit_rows_and_sizes, omega_tuples
from .errors import BudgetExceededError, PreconditionError
from .perm import Perm, _is_prime
from .report import int_str

DEFAULT_SEED = 0x5EED


# ---------------------------------------------------------------------------
# prime-order diagonal candidates and their R-tags


def prime_order_candidates(g: DiagTypeGroup):
    """(cand_a, cand_p, tags) for the prime-order elements of G_D.

    Tags: 1 = permutation part fixed-point-free, 2 = trivial permutation
    part, 3 = nontrivial with a fixed point.  Explicit tops only.
    """
    cache = getattr(g, "_prime_cache", None)
    if cache is not None:
        return cache
    if g.top.is_symbolic:
        raise PreconditionError(
            "prime-order candidate listing needs an explicit top")
    top = g.top.table
    top_orders = top.element_orders()
    arr = top.arrays()
    fixed_point_free = ~(arr == np.arange(top.degree)).any(axis=1)
    # the lcm over the distinct orders only, read back per (row, perm)
    a_orders, a_of = np.unique(g.T.aut.orders[g.aut_rows],
                               return_inverse=True)
    p_orders, p_of = np.unique(top_orders, return_inverse=True)
    lcm = np.lcm.outer(a_orders, p_orders)
    prime = np.array([_is_prime(v) for v in lcm.ravel().tolist()]) \
        .reshape(lcm.shape)
    ia, pid = np.nonzero(prime[a_of[:, None], p_of])  # by row, then perm
    tag_of_perm = np.where(top_orders == 1, 2,
                           np.where(fixed_point_free, 1, 3))
    cache = (g.aut_rows[ia].astype(np.int32), pid.astype(np.int32),
             tag_of_perm[pid].astype(np.int8))
    g._prime_cache = cache
    return cache


# ---------------------------------------------------------------------------
# exact bounds over the whole point set


def nonbase_fraction_and_q2_bound(g: DiagTypeGroup, budget: int = 10**7):
    """The exact proportion of ordered point pairs that are not bases and
    the second-moment bound at b = 2, both exact rationals, from one scan.

    By transitivity both are averages over the points of the pair with D.
    Per point, the scan counts the prime-order diagonal-stabilizer elements
    fixing it.  A nontrivial stabilizer always contains an element of prime
    order, so the points with a nonzero count are exactly the non-bases;
    the bound is (1/n) * the sum of the counts.

    The count is constant on each G_D orbit: if h in G_D fixes the point x,
    then for any s in G_D the conjugate s^-1 h s fixes x s, and conjugation
    by s permutes the prime-order elements of G_D.  So the scan visits one
    representative per orbit (``budget`` still bounds the point set the
    orbits are read from) and weights each count by its orbit's size: the
    fraction is the summed size of the orbits with a nonzero count over n,
    the bound the sum of size * count over n.
    """
    cand_a, cand_p, _tags = prime_order_candidates(g)
    tuples = omega_tuples(g, budget)
    rows, sizes = _orbit_rows_and_sizes(g, tuples)
    counts = _accel.count_per_tuple(
        g.T.aut.rows, g.top.table.arrays(), cand_a, cand_p,
        tuples[rows], g.T.mul, g.T.inv)
    return (Fraction(int(sizes[counts > 0].sum()), g.degree),
            Fraction(int(sizes @ counts), g.degree))


def exact_nonbase_pair_proportion(g: DiagTypeGroup,
                                  budget: int = 10**7) -> Fraction:
    """Exact proportion of ordered point pairs that are not bases."""
    return nonbase_fraction_and_q2_bound(g, budget)[0]


def q2_bound_exact(g: DiagTypeGroup, budget: int = 10**7) -> Fraction:
    """The second-moment bound at b = 2, as an exact rational."""
    return nonbase_fraction_and_q2_bound(g, budget)[1]


def monte_carlo_nonbase(g: DiagTypeGroup, samples: int,
                        seed: int = DEFAULT_SEED):
    """Monte-Carlo estimate of the non-base pair proportion.

    Points are sampled uniformly (independent coordinates past the first);
    the per-sample test runs G_D-side only, so large point sets cost nothing.
    The result depends only on (samples, seed).
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    # drawing from the one spawned child, not from the seed itself, keeps
    # the hit counts of a given seed equal to those of earlier versions
    (stream,) = np.random.SeedSequence(seed).spawn(1)
    rng = np.random.default_rng(stream)
    tuples = np.zeros((samples, g.k), dtype=np.int32)
    tuples[:, 1:] = rng.integers(0, g.T.order, size=(samples, g.k - 1),
                                 dtype=np.int32)
    hits = int(_detect_nonbase(g, tuples).sum())
    return {
        "fraction": hits / samples,
        "hits": hits,
        "samples": samples,
        "seed": seed,
    }


def _detect_nonbase(g: DiagTypeGroup, tuples):
    if g.top.is_symbolic:
        return _detect_symbolic(g, tuples)
    cand_a, cand_p, _tags = prime_order_candidates(g)
    return _accel.detect_per_tuple(
        g.T.aut.rows, g.top.table.arrays(), cand_a, cand_p,
        np.ascontiguousarray(tuples), g.T.mul, g.T.inv)


def _detect_symbolic(g: DiagTypeGroup, tuples):
    """Non-base verdicts of single points for a symbolic top, in blocks of
    samples.  For one point the columns are the entries, so the column-set
    test is the row-histogram test: a repeated entry is a hit for Sym, a
    triple or two pairs for Alt; otherwise a hit needs a nonidentity
    (alpha, y) preserving the histogram, which settles Sym, and only Alt
    samples with such a survivor go to the solver for the parity of pi."""
    alt = g.top.symbolic == "alt"
    ident = g.T.aut.identity_row
    block = max(1, baseengine.SOLVER_CHUNK_PAIRS // len(g.aut_rows))
    out = np.zeros(len(tuples), dtype=np.uint8)
    for start in range(0, len(tuples), block):
        X = tuples[start:start + block]
        hist = baseengine._row_histograms(X, g.T.order)
        repeated = (hist >= 2).sum(axis=1)
        hit = (hist.max(axis=1) >= 3) | (repeated >= 2) if alt else \
            repeated >= 1
        open_rows = np.flatnonzero(~hit)
        r, a, y = baseengine._histogram_survivors(g, hist[open_rows])
        moved = (g.aut_rows[a] != ident) | (y != 0)
        for s in np.unique(open_rows[r[moved]]).tolist():
            hit[s] = not alt or bool(baseengine._solve_symbolic(
                g, X[s:s + 1], mode="witness"))
        out[start:start + len(X)] = hit
    return out


# ---------------------------------------------------------------------------
# class and centralizer formulas (full outer part)


def _out_centralizer_order(g, aut_row: int) -> int:
    aut = g.T.aut
    lab = int(aut.labels[aut_row])
    lm = aut.label_mul
    return sum(1 for b in g.out_labels if lm[lab, b] == lm[b, lab])


def _relative_aut_centralizers(g, aut_row: int):
    """(|C_X(alpha)|, |C_Inn(alpha)|) where X is the out-part preimage."""
    aut = g.T.aut
    row = aut.rows[aut_row]
    sub = aut.rows[g.aut_rows]
    eq = np.all(sub[:, row] == row[sub], axis=1)
    inn_mask = g.aut_rows < g.T.order
    return int(eq.sum()), int(eq[inn_mask].sum())


def centralizer_order_formula(g: DiagTypeGroup, aut_row: int,
                              perm: Perm) -> int:
    """|C_G(x)| for a prime-order diagonal x = (alpha,...,alpha)pi.

    Fixed-point-free permutation part:
        |C_P(pi)| * |C_O(label)| * |T|^(k/p)
    otherwise:
        |C_P(pi)| * |C_X(alpha)| * |C_Inn(alpha)|^(f-1) * |T|^((k-f)/p)
    with f the number of fixed points of pi, X the preimage in Aut(T) of the
    group's out-part O (all of Aut(T) for a full out-part, Inn(T) for the
    inner one).  The identity is allowed as the degenerate case; composite
    orders are rejected.
    """
    T = g.T
    if int(T.aut.labels[aut_row]) not in g.out_labels:
        raise PreconditionError("automorphism label outside the out-part")
    o_a = int(T.aut.orders[aut_row])
    o_p = perm.order()
    order = o_a * o_p // gcd(o_a, o_p)
    if order == 1:
        return g.top.order * len(g.aut_rows) * T.order ** (g.k - 1)
    if not _is_prime(order):
        raise PreconditionError("element order is composite")
    p = order
    f = len(perm.fixed_points())
    cp = g.top.table.centralizer(perm).order
    if f == 0:
        return cp * _out_centralizer_order(g, aut_row) * T.order ** (g.k // p)
    c_x, c_inn = _relative_aut_centralizers(g, aut_row)
    return cp * c_x * c_inn ** (f - 1) * T.order ** ((g.k - f) // p)


def class_intersection_formula(g: DiagTypeGroup, aut_row: int,
                               perm: Perm) -> int:
    """|x^G intersect G_D| = |alpha^X| * |pi^P| (pi must fix a point);
    X is the out-part preimage in Aut(T)."""
    if not perm.fixed_points():
        raise PreconditionError(
            "intersection formula requires a permutation part with a "
            "fixed point")
    c_x, _ = _relative_aut_centralizers(g, aut_row)
    alpha_class = len(g.aut_rows) // c_x
    pi_class = g.top.order // g.top.table.centralizer(perm).order
    return alpha_class * pi_class


def class_count_inequality_check(pairs):
    """Assert f_p(Y) <= [X:Y] f_p(X) for each (Y, X) subgroup pair."""
    results = []
    for Y, X in pairs:
        if not Y.is_subgroup_of(X):
            raise PreconditionError("first table is not a subgroup of second")
        fy, fx = Y.prime_order_class_count(), X.prime_order_class_count()
        index = X.order // Y.order
        results.append({
            "f_p_sub": fy,
            "f_p_whole": fx,
            "index": index,
            "holds": fy <= index * fx,
        })
    return results


# ---------------------------------------------------------------------------
# brute-force oracle: a row-coded copy of the full group


class RowCodedGroup:
    """G = A_O(k,T) x| P materialized as (k aut-row ids, perm id) codes.

    Supports product and inverse through the automorphism composition
    table, and conjugation of whole arrays of elements; used as the
    independent oracle for the class and centralizer formulas.  Sized for
    full enumeration (millions of codes).
    """

    def __init__(self, g: DiagTypeGroup):
        if g.top.is_symbolic:
            raise PreconditionError("row-coded enumeration needs an explicit top")
        self.g = g
        self.T = g.T
        self.comp = self.T.aut.composition_table()
        self.inv_row = np.array(
            [self.T.aut.invert_row(r) for r in range(self.T.aut.n_aut)],
            dtype=np.int32)
        table = g.top.table
        self.n_top = table.order
        self.top_arr = table.arrays()
        self.tmul = np.array(
            [[table.position(p * q) for q in table.elements]
             for p in table.elements], dtype=np.int32)
        self.tinv = np.array([table.position(p.inverse())
                              for p in table.elements], dtype=np.int32)
        self.order = (self.T.order ** (g.k - 1)) * g.gd_order

    def multiply(self, x, y):
        xr, xp = x
        yr, yp = y
        pi = self.top_arr[xp]
        rows = tuple(int(self.comp[xr[i], yr[pi[i]]]) for i in range(self.g.k))
        return rows, int(self.tmul[xp, yp])

    def inverse(self, x):
        xr, xp = x
        pinv = int(self.tinv[xp])
        qi = self.top_arr[pinv]
        rows = tuple(int(self.inv_row[xr[qi[i]]]) for i in range(self.g.k))
        return rows, pinv

    def generators(self):
        T, k = self.T, self.g.k
        gens = []
        ident = tuple([int(T.aut.identity_row)] * k)
        for gid in T.gen_ids:
            r = int(T.aut.inn_of(gid))
            for pos in range(k):
                rows = list(ident)
                rows[pos] = r
                gens.append((tuple(rows), 0))
        for lab in self.g.out_labels:
            if lab:
                r = int(T.aut.label_reps[lab])
                gens.append((tuple([r] * k), 0))
        for p in self.g.top.table.generators:
            gens.append((ident, self.g.top.table.position(p)))
        return gens

    # -- enumeration (vectorized) -------------------------------------------

    def enumerate_arrays(self):
        """All elements as (rows array (N, k), perm id array (N,))."""
        T, k = self.T, self.g.k
        n = T.order
        base = self.g.aut_rows.astype(np.int64)          # alpha_1 choices
        inner = np.arange(n, dtype=np.int64)             # offsets per coord
        grids = np.meshgrid(base, *([inner] * (k - 1)), indexing="ij")
        a1 = grids[0].ravel()
        rows = np.empty((a1.size, k), dtype=np.int32)
        rows[:, 0] = a1
        for c in range(1, k):
            rows[:, c] = self.comp[grids[c].ravel(), a1]
        reps = np.repeat(rows, self.n_top, axis=0)
        pids = np.tile(np.arange(self.n_top, dtype=np.int32), rows.shape[0])
        return reps, pids

    def centralizer_count(self, x):
        """|C_G(x)| by direct scan of the full element arrays."""
        rows, pids = self.enumerate_arrays()
        xr, xp = x
        xr = np.asarray(xr, dtype=np.int64)
        xpi = self.top_arr[xp].astype(np.int64)
        total = 0
        for q in range(self.n_top):
            if self.tmul[xp, q] != self.tmul[q, xp]:
                continue
            sel = rows[pids == q]
            qarr = self.top_arr[q].astype(np.int64)
            ok = np.ones(len(sel), dtype=bool)
            for i in range(self.g.k):
                lhs = self.comp[xr[i], sel[:, xpi[i]]]
                rhs = self.comp[sel[:, i], xr[qarr[i]]]
                ok &= lhs == rhs
            total += int(ok.sum())
        return total

    # -- class orbits ---------------------------------------------------------

    def _encode(self, rows, pids):
        """int64 codes: the k aut-row ids as base-n_aut digits, most
        significant first, then the perm id."""
        code = np.zeros(len(pids), dtype=np.int64)
        for i in range(self.g.k):
            code = code * self.T.aut.n_aut + rows[:, i]
        return code * self.n_top + pids

    def _decode(self, codes):
        rest, pids = np.divmod(codes, self.n_top)
        rows = np.empty((len(codes), self.g.k), dtype=np.int64)
        for i in reversed(range(self.g.k)):
            rest, rows[:, i] = np.divmod(rest, self.T.aut.n_aut)
        return rows, pids

    def _conjugates(self, rows, pids, s, s_inv):
        """s^-1 x s for every element x = (rows[j], pids[j]): the two
        products of ``multiply``, applied to whole arrays."""
        (sr, sp), (ir, ip) = s, s_inv
        u = self.comp[np.asarray(ir), rows[:, self.top_arr[ip]]]
        up = self.tmul[ip, pids]
        return (self.comp[u, np.asarray(sr)[self.top_arr[up]]],
                self.tmul[up, sp])

    def class_data(self, budget: int = 10**7):
        """Conjugacy classes of the prime-order diagonal elements, by orbit
        walks under conjugation by the generators.

        Classes come in candidate order, each seeded from the first
        diagonal prime-order element not yet in a class.  A walk keeps its
        members as sorted int64 codes; each level conjugates the whole
        frontier by every generator and keeps the codes not yet seen.
        Returns a list of dicts: class size, the diagonal members (all k
        aut rows equal), the R-tag, and a representative.  Cached after the
        first call.  More than ``budget`` members walked in all raise
        BudgetExceededError; groups whose codes would not fit in int64 are
        refused.
        """
        cached = getattr(self, "_class_data", None)
        if cached is not None:
            return cached
        if self.T.aut.n_aut ** self.g.k * self.n_top > np.iinfo(np.int64).max:
            raise PreconditionError(
                "class walk codes would not fit in int64")
        gens = [(s, self.inverse(s)) for s in self.generators()]
        cand_a, cand_p, tags = prime_order_candidates(self.g)
        diag = self._encode(np.repeat(cand_a[:, None], self.g.k, axis=1),
                            cand_p)
        assigned = np.zeros(len(diag), dtype=bool)
        classes, walked = [], 0
        for i in range(len(diag)):
            if assigned[i]:
                continue
            members = frontier = diag[i:i + 1]
            while len(frontier):
                rows, pids = self._decode(frontier)
                images = np.concatenate(
                    [self._encode(*self._conjugates(rows, pids, s, s_inv))
                     for s, s_inv in gens])
                images = np.sort(images)
                at = np.searchsorted(members, images)
                new = members[np.minimum(at, len(members) - 1)] != images
                new[1:] &= images[1:] != images[:-1]
                frontier = images[new]
                members = np.insert(members, at[new], frontier)
                if walked + len(members) > budget:
                    raise BudgetExceededError(
                        f"class walk exceeds budget {budget} members")
            walked += len(members)
            rows, pids = self._decode(members)
            on_diag = np.all(rows == rows[:, :1], axis=1)
            assigned |= np.isin(diag, members[on_diag])
            classes.append({
                "rep": ((int(cand_a[i]),) * self.g.k, int(cand_p[i])),
                "size": len(members),
                "diag_members": [(tuple(r), p) for r, p in
                                 zip(rows[on_diag].tolist(),
                                     pids[on_diag].tolist())],
                "tag": int(tags[i]),
            })
        self._class_data = classes
        return classes


def r_split_exact(g: DiagTypeGroup, budget: int = 10**7):
    """The three class-sum contributions (fpf / trivial / mixed permutation
    part), each an exact rational; they sum to the second-moment bound.
    ``budget`` bounds the members walked by ``RowCodedGroup.class_data``."""
    rc = RowCodedGroup(g)
    split = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    for cls in rc.class_data(budget):
        contrib = Fraction(len(cls["diag_members"]) ** 2, cls["size"])
        split[cls["tag"]] += contrib
    return split[1], split[2], split[3]


def q2_bound_by_classes(g: DiagTypeGroup, budget: int = 10**7) -> Fraction:
    """Per-class evaluation of the bound: sum |x^G| (fix(x)/n)^2 over
    prime-order classes (those missing every point stabilizer contribute 0)."""
    rc = RowCodedGroup(g)
    tuples = omega_tuples(g, budget)
    total = Fraction(0)
    for cls in rc.class_data():
        a = cls["rep"][0][0]
        perm = g.top.table.elements[cls["rep"][1]]
        fix = int(_accel.count_per_tuple(
            g.T.aut.rows, g.top.table.arrays(),
            np.array([a], dtype=np.int32),
            np.array([g.top.table.position(perm)], dtype=np.int32),
            tuples, g.T.mul, g.T.inv).sum())
        total += cls["size"] * Fraction(fix, g.degree) ** 2
    return total


# ---------------------------------------------------------------------------
# report container


@dataclass
class ProbReport:
    group: dict
    n: int
    exact_nonbase_pair_fraction: Fraction | None = None
    q2_bound: Fraction | None = None
    r_split: tuple | None = None
    mc_estimate: dict | None = None

    def describe(self):
        # report.encode_value writes the rationals as {"num", "den"}
        return {
            "group": self.group,
            "n": int_str(self.n),
            "exact_nonbase_pair_fraction": self.exact_nonbase_pair_fraction,
            "q2_bound": self.q2_bound,
            "r_split": self.r_split,
            "mc_estimate": self.mc_estimate,
        }
