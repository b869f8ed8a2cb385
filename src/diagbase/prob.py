"""Fixed-point counting bounds and class/centralizer formulas, exactly.

Everything enumerable is an exact rational.  The exact proportion of
non-base pairs comes from the orbits of the diagonal stabilizer G_D on the
points: a point makes a base with D iff its stabilizer in G_D is trivial,
and that stabilizer has the same order on a whole orbit, so one walk that
yields each orbit's first point with its stabilizer gives the proportion.
The second-moment bound on that proportion decomposes over conjugacy
classes into three contributions split by the permutation part
(fixed-point-free, trivial, or mixed), and the class data itself is
computed twice: by the displayed product formulas, summed over a tally of
the out-part automorphisms and one of the top permutations, which give the
split and the bound at any k without listing an element; and by
brute-force orbit enumeration in a row-coded copy of the full group, the
oracle.  That enumeration packs each element into one int64 code and walks
each conjugacy class level by level, conjugating the whole frontier by
every generator at once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np

from . import _accel
from .baseengine import detect_symbolic
from .diag import (OMEGA_BUDGET, DiagTypeGroup, check_entries, gd_orbits,
                   omega_tuples)
from .errors import BudgetExceededError, PreconditionError
from .perm import Perm, _is_prime

DEFAULT_SEED = 0x5EED
# most members a class walk (RowCodedGroup.class_data) visits in all
CLASS_WALK_BUDGET = 10**7
# most top products (order^2 x degree): sym-table k=6 fits, k=7 (711 MB) not
ROW_CODED_TOP_MAX_ENTRIES = 4 * 10**6


# ---------------------------------------------------------------------------
# prime-order diagonal candidates


def prime_order_candidates(g: DiagTypeGroup):
    """``g.prime_candidates``, under the one name that callers go through."""
    return g.prime_candidates


# ---------------------------------------------------------------------------
# exact bounds over the whole point set


def exact_nonbase_pair_proportion(g: DiagTypeGroup,
                                  budget: int = OMEGA_BUDGET) -> Fraction:
    """Exact proportion of ordered point pairs that are not bases.

    By transitivity it is the share of the points x for which {D, x} is
    not a base, that is, whose stabilizer in G_D is nontrivial.  The walk
    ``gd_orbits`` (at most ``budget`` points) yields one point per G_D
    orbit with its stabilizer, so the proportion is the summed size of the
    orbits with a stabilizer of more than one element, over the degree.
    """
    return Fraction(sum(g.gd_order // len(stab)
                        for _row, stab in gd_orbits(g, budget)
                        if len(stab) > 1), g.degree)


def q2_bound_exact(g: DiagTypeGroup) -> Fraction:
    """The second-moment bound at b = 2, as an exact rational: the sum of
    ``r_split_formula``, which reads no point, so at any degree."""
    return sum(r_split_formula(g))


def monte_carlo_nonbase(g: DiagTypeGroup, samples: int,
                        seed: int = DEFAULT_SEED):
    """Monte-Carlo estimate of the non-base pair proportion.

    Points are drawn uniformly from ``random.Random(seed)`` and tested a
    block at a time; the per-sample test runs G_D-side only, so large point
    sets cost nothing.  The result depends only on (samples, seed).  More
    than ``ENTRY_BUDGET`` sample entries raise BudgetExceededError.
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    check_entries(samples, g.k, "Monte Carlo samples")
    hits = sum(int(_detect_nonbase(g, block).sum()) for block in
               _sample_tuples(random.Random(seed), g.T.order, samples, g.k))
    return {
        "fraction": hits / samples,
        "hits": hits,
        "samples": samples,
        "seed": seed,
    }


def _sample_tuples(rng, n: int, samples: int, k: int):
    """Yield ``samples`` points in all as (rows, k) int32 blocks of about
    ``_accel._CHUNK_PAIRS`` entries: 0, then k - 1 ids uniform in [0, n).
    A 16-bit half of a 32-bit ``rng.getrandbits`` word, low half first,
    below q * n, q = 2^16 // n, is the id half // q; the others are
    skipped (exact rejection).  Whole 32-bit words keep the stream of ids
    one sequence, the surplus carried into the next block, so the points
    do not depend on the block size."""
    q, rows = (1 << 16) // n, max(1, _accel._CHUNK_PAIRS // k)
    ids = np.empty(0, dtype=np.uint16)
    for r in range(0, samples, rows):
        block = np.zeros((min(rows, samples - r), k), dtype=np.int32)
        size = block.shape[0] * (k - 1)
        while (m := size - len(ids)) > 0:
            w = (m + 1) // 2
            halves = np.frombuffer(
                rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u2")
            ids = np.concatenate([ids, halves[halves < q * n] // q])
        block[:, 1:] = ids[:size].reshape(-1, k - 1)
        ids = ids[size:]
        yield block


def _detect_nonbase(g: DiagTypeGroup, tuples):
    if g.top.is_symbolic:
        return detect_symbolic(g, tuples)
    return _accel.detect_per_tuple(g.T, g.top.table.arrays(),
                                   *prime_order_candidates(g), tuples)


# ---------------------------------------------------------------------------
# class and centralizer formulas (full outer part)


def _out_centralizer_order(g, label: int) -> int:
    lm = g.T.aut.label_mul
    return sum(1 for b in g.out_labels if lm[label, b] == lm[b, label])


def _fpf_diagonal_count(g, label: int, p: int) -> int:
    """N = #{beta in X : beta^p = 1, label of beta in label^O}.

    For a fixed-point-free pi of prime order p and alpha^p = 1 with the
    given label, every cycle product of (beta,...,beta)pi' is beta^p = 1,
    so these elements, pi' running over pi^P, are all conjugate to
    (alpha,...,alpha)pi under Inn(T)^k, the diagonal X and P; and every
    diagonal conjugate has this form.  So |x^G intersect G_D| = |pi^P| * N.
    N is read off the out-part tally (``AutTable.out_tally``).
    """
    aut = g.T.aut
    out = np.asarray(g.out_labels)
    lm = aut.label_mul
    in_class = set(lm[lm[out, label], aut.label_inv[out]].tolist())
    return sum(m for (o, _c, b), m in aut.out_tally(g.out_labels)
               if p % o == 0 and b in in_class)


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
    order = lcm(o_a, o_p)
    if order == 1:
        return g.order
    if not _is_prime(order):
        raise PreconditionError("element order is composite")
    p = order
    f = len(perm.fixed_points())
    cp = g.top.table.centralizer(perm).order
    if f == 0:
        return (cp * _out_centralizer_order(g, int(T.aut.labels[aut_row]))
                * T.order ** (g.k // p))
    c_x, c_inn = _relative_aut_centralizers(g, aut_row)
    return cp * c_x * c_inn ** (f - 1) * T.order ** ((g.k - f) // p)


def class_intersection_formula(g: DiagTypeGroup, aut_row: int,
                               perm: Perm) -> int:
    """|x^G intersect G_D| for a diagonal x = (alpha,...,alpha)pi, with X
    the out-part preimage in Aut(T):
        pi with a fixed point:   |alpha^X| * |pi^P|
        pi fixed-point-free:     |pi^P| * N(alpha)
    where, for x of prime order p, N(alpha) counts the beta in X with
    beta^p = 1 whose label is O-conjugate to alpha's
    (``_fpf_diagonal_count``).  A fixed-point-free pi needs x of prime
    order."""
    pi_class = g.top.order // g.top.table.centralizer(perm).order
    if not perm.fixed_points():
        p = perm.order()
        if p % int(g.T.aut.orders[aut_row]) or not _is_prime(p):
            raise PreconditionError(
                "intersection formula for a fixed-point-free permutation "
                "part requires an element of prime order")
        return pi_class * _fpf_diagonal_count(
            g, int(g.T.aut.labels[aut_row]), p)
    c_x, _ = _relative_aut_centralizers(g, aut_row)
    return len(g.aut_rows) // c_x * pi_class


def r_split_formula(g: DiagTypeGroup):
    """The three contributions to the second-moment bound (fpf / trivial /
    mixed permutation part, as in ``r_split_exact``), each an exact
    rational, from the product formulas: no group element is built.

    The bound is the sum over the prime-order h = (alpha,...,alpha)pi of
    G_D of |h^G intersect G_D| * |C_G(h)| / |G|, with
    |G| = |T|^(k-1) |X| |P|.  With f the fixed points of pi and p = |h|,
    the product of ``class_intersection_formula`` and
    ``centralizer_order_formula`` over |G| is
        pi with a fixed point:   |C_Inn(alpha)|^(f-1) |T|^((k-f)/p)
                                 / |T|^(k-1)
        pi fixed-point-free:     N(alpha) |C_O(label)| |T|^(k/p)
                                 / (|X| |T|^(k-1))
    A term depends on alpha only through (order, |C_Inn(alpha)|, label)
    and on pi only through (order, f), so the sum runs over pairs of an
    out-part tally entry (``AutTable.out_tally``) and a top tally entry
    (``GroupTable.order_fixed_tally``), each term weighted by the two
    counts; p is the lcm of the two orders, and
    pairs where it is not prime add nothing.  Explicit tops only."""
    top_tally = g.top.table.order_fixed_tally()
    n, k = g.T.order, g.k
    num = {"fpf": 0, "trivial": 0, "mixed": 0}
    for (o_a, c, label), m_a in g.T.aut.out_tally(g.out_labels):
        for (o_p, f), m_p in top_tally:
            if not _is_prime(p := lcm(o_a, o_p)):
                continue
            if f == 0:
                num["fpf"] += (m_a * m_p * _fpf_diagonal_count(g, label, p)
                               * _out_centralizer_order(g, label)
                               * n ** (k // p))
            else:
                num["trivial" if f == k else "mixed"] += (
                    m_a * m_p * c ** (f - 1) * n ** ((k - f) // p))
    den = g.degree
    return (Fraction(num["fpf"], len(g.aut_rows) * den),
            Fraction(num["trivial"], den), Fraction(num["mixed"], den))


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

    Conjugates whole arrays of elements through the automorphism
    composition table; used as the independent oracle for the class and
    centralizer formulas.  Sized for full enumeration (millions of codes).
    """

    def __init__(self, g: DiagTypeGroup):
        table = g.top.table
        if table.order ** 2 * table.degree > ROW_CODED_TOP_MAX_ENTRIES:
            raise BudgetExceededError(
                f"top product table of {table.order}^2 x {table.degree} "
                f"entries exceeds {ROW_CODED_TOP_MAX_ENTRIES}")
        self.g = g
        self.T = g.T
        self.comp = self.T.aut.composition_table()
        self.n_top = table.order
        self.top_arr = arr = table.arrays()
        # p * q applies p, then q: row q read at row p, for every pair
        self.tmul = table.positions(
            arr[np.arange(self.n_top)[:, None], arr[:, None]]
            .reshape(-1, table.degree)).reshape(self.n_top, self.n_top)
        self.order = g.order

    def generators(self):
        """Yield (s, s^-1) for each generator s of G: phi_g, then
        phi_{g^-1}, at one coordinate for each generator g of T; a label rep
        on every coordinate, then its inverse row; a top generator, then its
        inverse perm."""
        aut, k = self.T.aut, self.g.k
        ident = (aut.identity_row,) * k
        for gid in self.T.gen_ids:
            pair = aut.inn_of(gid), aut.inn_of(self.T.inv[gid])
            for pos in range(k):
                yield tuple((ident[:pos] + (r,) + ident[pos + 1:], 0)
                            for r in pair)
        for r in (aut.label_reps[lab] for lab in self.g.out_labels if lab):
            yield ((r,) * k, 0), ((aut.invert_row(r),) * k, 0)
        table = self.g.top.table
        inverses = table.positions(np.argsort(table.gen_rows, axis=1))
        for pid, pinv in zip(table.positions(table.gen_rows).tolist(),
                             inverses.tolist()):
            yield (ident, pid), (ident, pinv)

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
        """s^-1 x s for every element x = (rows[j], pids[j]), by the product
        (a, pi)(b, sigma) = ((a_i b_{i pi}), pi sigma) on whole arrays."""
        (sr, sp), (ir, ip) = s, s_inv
        u = self.comp[np.asarray(ir), rows[:, self.top_arr[ip]]]
        up = self.tmul[ip, pids]
        return (self.comp[u, np.asarray(sr)[self.top_arr[up]]],
                self.tmul[up, sp])

    def class_data(self):
        """Conjugacy classes of the prime-order diagonal elements, by orbit
        walks under conjugation by the generators.

        Classes come in candidate order, each seeded from the first
        diagonal prime-order element not yet in a class.  A walk keeps its
        members as sorted int64 codes; each level conjugates the whole
        frontier by every generator and keeps the codes not yet seen.
        Returns a list of dicts: class size, the diagonal members (all k
        aut rows equal), the R-tag, and a representative.  The tag is read
        off the fixed points of the seed's perm: 1 = none, 2 = all (the
        identity), 3 = some.  Cached after the first call.  More than
        ``CLASS_WALK_BUDGET`` members walked in all raise
        BudgetExceededError; groups whose codes would not fit in int64 are
        refused.
        """
        if hasattr(self, "_class_data"):
            return self._class_data
        if self.T.aut.n_aut ** self.g.k * self.n_top > np.iinfo(np.int64).max:
            raise PreconditionError(
                "class walk codes would not fit in int64")
        gens = list(self.generators())
        cand_a, cand_p = prime_order_candidates(self.g)
        k = self.g.k
        fixed = (self.top_arr == np.arange(k)).sum(axis=1)
        diag = self._encode(np.repeat(cand_a[:, None], k, axis=1), cand_p)
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
                if walked + len(members) > CLASS_WALK_BUDGET:
                    raise BudgetExceededError(
                        f"class walk exceeds budget {CLASS_WALK_BUDGET} "
                        "members")
            walked += len(members)
            rows, pids = self._decode(members)
            on_diag = np.all(rows == rows[:, :1], axis=1)
            # members is sorted, so a binary search finds diag among them
            found = members[on_diag]
            at = np.minimum(np.searchsorted(found, diag), len(found) - 1)
            assigned |= found[at] == diag
            f = int(fixed[cand_p[i]])
            classes.append({
                "rep": ((int(cand_a[i]),) * k, int(cand_p[i])),
                "size": len(members),
                "diag_members": [(tuple(r), p) for r, p in
                                 zip(rows[on_diag].tolist(),
                                     pids[on_diag].tolist())],
                "tag": 1 if f == 0 else 2 if f == k else 3,
            })
        self._class_data = classes
        return classes


def r_split_exact(g: DiagTypeGroup):
    """The three class-sum contributions (fpf / trivial / mixed permutation
    part), each an exact rational; they sum to the second-moment bound."""
    rc = RowCodedGroup(g)
    split = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    for cls in rc.class_data():
        contrib = Fraction(len(cls["diag_members"]) ** 2, cls["size"])
        split[cls["tag"]] += contrib
    return split[1], split[2], split[3]


def q2_bound_by_classes(g: DiagTypeGroup) -> Fraction:
    """Per-class evaluation of the bound: sum |x^G| (fix(x)/n)^2 over
    prime-order classes (those missing every point stabilizer contribute 0)."""
    rc = RowCodedGroup(g)
    tuples = omega_tuples(g)
    total = Fraction(0)
    for cls in rc.class_data():
        rows, pid = cls["rep"]
        fix = int(_accel.count_per_tuple(g.T, g.top.table.arrays(), np.array(
            rows[:1], np.int32), np.array([pid], np.int32), tuples).sum())
        total += cls["size"] * Fraction(fix, g.degree) ** 2
    return total
