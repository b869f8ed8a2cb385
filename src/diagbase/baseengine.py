"""Pointwise stabilizers, explicit base constructions, exact minimal base
sizes, and the logarithmic and theorem 1 bound checkers.

All stabilizer computations are anchored at the diagonal point D (transitivity
loses nothing), and never touch the point set itself: a diagonal pair
``(alpha, pi)`` fixes the point with canonical tuple t iff

    alpha(t[i]) = t[pi(0)]^-1 * t[pi(i)]   for every coordinate i,

which is pure index arithmetic over the element table of T.  For explicit top
groups a nonidentity witness is the first of G_D's prime-order elements
(``DiagTypeGroup.prime_candidates``) that the scan kernel keeps, and the
stabilizer is G_D listed perm-major, filtered a few whole perms at a time.
For symbolic Alt/Sym tops the stabilizer is never listed, only a
nonidentity witness sought: the same condition says that x -> t[0 pi] *
alpha(x) permutes the multiset of columns of the points' tuple matrix.
Such a map keeps each distinct column's class (its count and its entries'
counts in their rows), so the image of one column of the smallest class
pins alpha (``AutTable.image_index``), an exact column-set test over
integer column codes checks the pairs left, and the permutation part of
the first surviving map is read off by matching equal columns.  Monte
Carlo decides single points from their row-histogram survivors alone,
pinned through difference-order classes: a map keeps each entry x's
multiset of (order of x^-1 x', count of x') over the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import _accel
from .diag import (OMEGA_BUDGET, DiagTypeGroup, OmegaPoint, act_diag,
                   check_entries, digit_codes, gd_orbits, omega_tuples,
                   point_tuple, stab_of_D)
from .errors import PreconditionError
from .perm import Perm

# pairs (alpha, y) per chunk of the column-set test, and the target size of
# every block of the symbolic tests (survivors x columns, runs, pins; a
# Monte Carlo block holds four times as many key entries).  On a
# 2-CPU VM (symbolic-sweep op lists of seeds 811-813 in one process, column-
# class pin) 2^10..2^14 ran alike, within the host's noise, at 40-41 MB.
SOLVER_CHUNK_PAIRS = 1 << 12


# ---------------------------------------------------------------------------
# scan plumbing for explicit tops


def _tuple_matrix(g: DiagTypeGroup, points) -> np.ndarray:
    """The points' tuples as int32 rows; a point not of length k refused."""
    if bad := [p for p in points if p.k != g.k]:
        raise PreconditionError(
            f"point {bad[0]} has {bad[0].k} entries, expected k = {g.k}")
    return np.array([p.tuple_ids for p in points], np.int32).reshape(-1, g.k)


def pointwise_stabilizer(g: DiagTypeGroup, points):
    """All (alpha, pi) in G_D fixing every point (D itself is implicit), as
    (aut row id, Perm) pairs in ascending perm-major G_D index (gd_orbits),
    G_D listed max(1, _CHUNK_PAIRS // |A|) whole perms at a time through
    ``filter_candidates``; explicit tops only: a symbolic top answers
    whether one is trivial (``stabilizer_witness``)."""
    tuples = _tuple_matrix(g, points)
    table, rows, found = g.top.table, g.aut_rows, []
    step = max(1, _accel._CHUNK_PAIRS // len(rows))
    for s in range(0, table.order, step):
        p = np.arange(s, min(s + step, table.order)).repeat(len(rows))
        a = np.tile(rows, len(p) // len(rows))
        kept = np.flatnonzero(_accel.filter_candidates(
            g.T, table.arrays(), a, p, tuples))
        found.extend(zip(a.take(kept).tolist(), p.take(kept).tolist()))
    return [(a, table.element(p)) for a, p in found]


def stabilizer_witness(g: DiagTypeGroup, points):
    """A nonidentity element of G_D fixing every point, or None.  On an
    explicit top the first of ``g.prime_candidates`` that fixes them: a
    nontrivial stabilizer holds an element of prime order (Cauchy)."""
    tuples = _tuple_matrix(g, points)
    if g.top.is_symbolic:
        if len(points) == 0:
            # any nontrivial inner diagonal pair lies in every diagonal-type G
            return (g.T.aut.inn_of(1), Perm.identity(g.k))
        return _solve_symbolic(g, tuples)
    cand_a, cand_p = g.prime_candidates
    kept = np.flatnonzero(_accel.filter_candidates(
        g.T, g.top.table.arrays(), cand_a, cand_p, tuples))
    return (int(cand_a[kept[0]]), g.top.table.element(int(cand_p[kept[0]]))) \
        if len(kept) else None


def pointwise_stabilizer_by_action(g: DiagTypeGroup, points):
    """Oracle twin of pointwise_stabilizer: scan G_D applying the group
    action to every point (explicit tops only)."""
    return [(a, p) for a, p in stab_of_D(g)
            if all(act_diag(g.T, pt, a, p) == pt for pt in points)]


# ---------------------------------------------------------------------------
# column-set test for symbolic Alt/Sym tops


def _row_histograms(X, n):
    """Count of every element of T in each row of X, an R x n matrix."""
    R = len(X)
    flat = np.asarray(X, dtype=np.int64) + n * np.arange(R)[:, None]
    return np.bincount(flat.ravel(), minlength=R * n).reshape(R, n)


def _runs(lengths):
    """(run, offset) of every slot of consecutive runs of these lengths."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


def _histogram_survivors(g, hist):
    """Row-histogram test: the triples (row, alpha index into g.aut_rows,
    y in T) for which t -> y * alpha(t) preserves the histogram ``hist[row]``
    of a row over T (every row nonempty).

    Such a map f keeps each support element x's key, the multiset of
    (order of x^-1 x', count of x') over the support (x' = x gives x's own
    count), as f(x)^-1 f(x') = alpha(x^-1 x'); the key is a sum of fixed
    hashes, and a collision only merges classes.  So y, the image of the
    identity, has its count and key: y lies in Y.  With t* the nonidentity
    support element of the smallest key class (the identity if alone) and
    C its class, y * alpha(t*) lies in C.  Each (y, c) in Y x C pins
    alpha(t*) = y^-1 c, one run of ``AutTable.image_index``, and the
    support is tested a block at a time."""
    T, n = g.T, g.T.order
    order, bounds = T.aut.image_index(g.out_labels)
    # flat tables: entry [i, j] of an n-column table sits at i * n + j
    rows, mul, counts = T.aut.rows.ravel(), T.mul.ravel(), hist.ravel()
    R = len(hist)
    # the support of each row, padded with the identity at count 0 (every
    # candidate maps it to an element as frequent)
    sr, st = np.nonzero(hist)
    n_s = np.bincount(sr, minlength=R)
    col = np.arange(len(sr)) - (np.cumsum(n_s) - n_s)[sr]
    support = np.zeros((R, int(n_s.max(initial=0))), dtype=np.intp)
    count = np.zeros(support.shape, dtype=np.intp)
    support[sr, col], count[sr, col] = st, counts.take(sr * n + st)
    # key[r, i], x the row's support entry i: a wrapping sum over the
    # support of a fixed hash of (order of x^-1 x', count of x'), coded
    # count * (order * base + 1), one-to-one as base exceeds every count,
    # and 0 at the pads, which hash to 0
    item = T.order_of.take(mul.take(
        (T.inv.take(support) * n)[:, :, None] + support[:, None, :]))
    item = ((item * (int(hist.max()) + 1) + 1) * count[:, None, :]) \
        .astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    item ^= item >> np.uint64(32)
    key = (item * np.uint64(0xBF58476D1CE4E5B9)).sum(axis=2)
    # t*: per row, the first nonidentity element of the smallest class
    size = (key[:, :, None] == key[:, None, :]).sum(axis=2)
    size[support == 0] = n + 1
    t = np.arange(R), size.argmin(axis=1)
    t_star = support[t]
    cr, i = np.nonzero((key == key[t][:, None]) & (count > 0))
    c = support[cr, i]
    # Y: as frequent as the identity, and in its key class on the support
    same = hist == hist[:, :1]
    same[sr, st] &= key[sr, col] == key[sr, 0]
    yr, y = np.nonzero(same)
    n_c = np.bincount(cr, minlength=R)
    i, j = _runs(n_c[yr])
    r, y, c = yr[i], y[i], c[(np.cumsum(n_c) - n_c)[yr[i]] + j]
    # alpha(t*) = y^-1 c: the alphas at run (t*, y^-1 c) of the index
    t, u = t_star[r], T.mul[T.inv[y], c]
    start = bounds[t, u]
    i, j = _runs(bounds[t, u + 1] - start)
    r, a, y = r[i], order[t[i], start[i] + j], y[i]
    j, width = 0, support.shape[1]
    while len(r) and j < width:
        stop = j + max(1, SOLVER_CHUNK_PAIRS // len(r))
        t = support[r, j:stop]
        image = mul[(y * n)[:, None] + rows[(g.aut_rows[a] * n)[:, None] + t]]
        row = (r * n)[:, None]
        keep = (counts[row + image] == counts[row + t]).all(axis=1)
        r, a, y = r[keep], a[keep], y[keep]
        j = stop
    return r, a, y


def _distinct_columns(X, n):
    """(codes, uniq, first, counts): the base-n code of each column
    of X, exact past int64, and ``np.unique``'s view of them."""
    dtype = np.int64 if n ** X.shape[0] < 2 ** 63 else object
    codes = digit_codes(X, n, dtype)
    return (codes, *np.unique(codes, return_index=True, return_counts=True))


def _pinned_pairs(g, D, uniq, cls, ys):
    """Ascending flat indices (alpha index * n_y + y index) of the pairs
    (alpha, y), y one of the n_y columns ``ys``, with y * alpha(z) in K, the
    smallest class of the codes ``cls`` of the distinct columns D (x_0 first,
    not counted; ties to the least code), z its first column past x_0;
    every pair when x_0 is alone.  At z's entry t of largest orbit, each
    distinct value v of K's columns there pins alpha(t) = y^-1 v, one run
    of ``AutTable.image_index``; the runs are disjoint, at most |A| alphas
    per y, and a pair is kept iff y * alpha(z) has a code in ``uniq[K]``."""
    T, n_y = g.T, ys.shape[1]
    if len(cls) == 1:
        return np.arange(len(g.aut_rows))               # x_0 alone
    codes, sizes = np.unique(cls, return_counts=True)
    x0 = np.searchsorted(codes, cls[0])
    sizes[x0] = sizes[x0] - 1 or len(cls)               # x_0 is not z
    K = np.flatnonzero(cls == codes[sizes.argmin()])
    z, keys = D[:, K[int(K[0] == 0)]], uniq[K]
    order, bounds = T.aut.image_index(g.out_labels)
    # each image of an entry t has as many alphas as fix t: |A| / orbit
    r = (runs := bounds[z, z + 1] - bounds[z, z]).argmin()
    run, order, bounds = int(runs[r]), order[z[r]], bounds[z[r]]
    v, found = np.flatnonzero(np.bincount(D[r, K])), []     # K's values at t
    step = max(1, SOLVER_CHUNK_PAIRS // (len(v) * run))
    for lo in range(0, n_y, step):
        # u[i]: alpha(t) for run i, the runs y-major over v
        u = T.mul[T.inv[ys[r, lo:lo + step, None]], v].ravel()
        start = bounds[u]
        i = np.flatnonzero(bounds[u + 1] > start)       # in t's orbit
        a = order[start[i, None] + np.arange(run)].ravel().astype(np.intp)
        y = lo + i.repeat(run) // len(v)
        image = T.mul[ys[:, y], T.aut.rows[g.aut_rows[a], z[:, None]]]
        code = digit_codes(image, T.order, keys.dtype)
        # side right, less 1: a code below every key reads keys[-1]
        ok = keys[np.searchsorted(keys, code, "right") - 1] == code
        found.append(a[ok] * n_y + y[ok])
    return np.sort(np.concatenate(found))


def _fixing_maps(g, X, columns):
    """Yield, chunk by chunk, (alpha rows, y columns) of the maps
    f(x) = y * alpha(x) other than the identity that permute the column
    multiset of X, given its ``_distinct_columns``.  f keeps each distinct
    column's class (its count and its entries' counts in their rows), so y
    is in x_0's class; the pairs ``_pinned_pairs`` leaves (<= |A| per y)
    map the columns past x_0, and f is kept if each image is as frequent."""
    rows, mul, n = g.T.aut.rows.ravel(), g.T.mul.ravel(), g.T.order
    _codes, uniq, first, counts = columns
    D, hist = X.take(first, axis=1), _row_histograms(X, n)
    # class codes; past int64 they wrap, merging classes: Y and K only grow
    cls, base = counts.astype(np.int64), int(hist.max()) + 1
    for h, row in zip(hist, D):
        cls *= base
        cls += h[row]
    ys, cols = D[:, cls == cls[0]], D[:, 1:]
    pairs = _pinned_pairs(g, D, uniq, cls, ys)
    # flat index 0, the identity pair, fixes all (and is pinned first)
    for s in range(1, len(pairs), SOLVER_CHUNK_PAIRS):
        p = pairs[s:s + SOLVER_CHUNK_PAIRS]
        a, y = g.aut_rows[p // ys.shape[1]], ys[:, p % ys.shape[1]]
        j = 0
        while len(a) and j < cols.shape[1]:
            # one column first, as most pairs fail there, then doubling
            stop = j + max(1, min(j + 1, SOLVER_CHUNK_PAIRS // len(a)))
            alpha_x = rows.take((a * n)[:, None] + cols[:, None, j:stop])
            code = digit_codes(mul.take((y * n)[:, :, None] + alpha_x), n,
                               uniq.dtype)
            pos = np.searchsorted(uniq, code).clip(max=len(uniq) - 1)
            ok = (uniq[pos] == code) & (counts[pos] == counts[1 + j:1 + stop])
            keep = ok.all(axis=1)
            a, y = a[keep], y[:, keep]
            j = stop
        yield a, y


def _solve_symbolic(g: DiagTypeGroup, tuples):
    """A nonidentity diagonal stabilizer element (aut row, Perm) of the
    points for a symbolic top, or None.

    Read the m x k tuple matrix as k columns x_j in T^m, x_0 the identity.
    A pair (alpha, pi) fixes D and the points iff x_{i pi} = y * alpha(x_i)
    for every i, where y = x_{0 pi}: the map f(x) = y * alpha(x) permutes
    the column multiset (``_fixing_maps``) and pi matches it.  A repeated
    column gives a transposition (Sym), a 3-cycle or a double
    transposition (Alt) outright; otherwise the first surviving f is
    matched, an odd pi fixed up with the one repeated pair, or (all columns
    distinct) skipped for Alt.
    """
    T, k, n, alt = g.T, g.k, g.T.order, not g.top.symmetric
    X = np.asarray(tuples, dtype=np.int64)
    columns = codes, uniq, _first, counts = _distinct_columns(X, n)
    # equal columns swap freely: a transposition for Sym; for Alt a 3-cycle
    # on a triple or a double transposition on two pairs
    repeated = [np.flatnonzero(codes == c) for c in uniq[counts > 1][:2]]
    if repeated and (not alt or len(repeated) > 1 or len(repeated[0]) > 2):
        cycles = [repeated[0][:3]] if alt and len(repeated[0]) > 2 else \
            [r[:2] for r in repeated[:1 + alt]]
        return (T.aut.identity_row,
                Perm.from_cycles([c.tolist() for c in cycles], k))
    order = None    # the columns sorted by code, once a map survives
    for a_s, y_s in _fixing_maps(g, X, columns):
        for a, y in zip(a_s.tolist(), y_s.T):
            if order is None:
                order = np.argsort(codes, kind="stable")
            # one pi with x_{i pi} = f(x_i): equal codes matched in order
            pi = np.empty(k, dtype=np.int32)
            img = digit_codes(T.mul[y[:, None], T.aut.rows[a][X]], n,
                              codes.dtype)
            pi[np.argsort(img, kind="stable")] = order
            perm = Perm(pi)
            if perm not in g.top:
                if not repeated:
                    continue
                swap = np.arange(k)         # the one repeated pair, swapped
                swap[repeated[0]] = repeated[0][::-1]
                perm = Perm(perm.images[swap])
            return a, perm
    return None


def detect_symbolic(g: DiagTypeGroup, tuples):
    """Non-base verdicts of single points for a symbolic top: the column
    test on one point is the row-histogram test.  Hits: a repeated entry
    for Sym, a triple or two pairs for Alt, and a row listing T equally
    often (every (alpha, y) keeps it).  The rest go to the row test in
    blocks: a nonidentity survivor is a hit for Sym, and for Alt with one
    repeated pair (its swap fixes an odd pi).  With distinct entries the
    survivors are a group whose even part has index <= 2: three or more
    are a hit, and two iff the other, an involution, moves 4j entries."""
    T, k, alt = g.T, g.k, not g.top.symmetric
    ordered = np.sort(tuples, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).sum(axis=1)
    uniform = k % T.order == 0 and (
        ordered == np.arange(k) // (k // T.order)).all(axis=1)
    out = ((repeats >= (2 if alt else 1)) | uniform).astype(np.uint8)
    open_rows = np.flatnonzero(out == 0)
    # k^2 key entries per sample, one per pair of its at most k support
    # elements; the pins (y, c) are few once the keys split the classes
    block = max(1, 4 * SOLVER_CHUNK_PAIRS // k ** 2)
    found = [(np.zeros(0, np.intp),) * 3]       # (sample, alpha, y)
    for start in range(0, len(open_rows), block):
        r, a, y = _histogram_survivors(g, _row_histograms(
            tuples[open_rows[start:start + block]], T.order))
        found.append((open_rows[start + r], a, y))
    s, a, y = (np.concatenate(v) for v in zip(*found))
    size = np.bincount(s, minlength=len(out))    # the identity included
    if not alt:
        return out | (size > 1)
    # the other survivor of each sample with distinct entries and two
    # (aut_rows[0] is the identity)
    pick = ((a != 0) | (y != 0)) & ((size == 2) & (repeats == 0))[s]
    s, a, y = s[pick], a[pick], y[pick]
    t = tuples[s]
    image = T.mul[y[:, None], T.aut.rows[g.aut_rows[a][:, None], t]]
    out[s] = (image != t).sum(axis=1) % 4 == 0
    return out | (size > 2) | (size == 2) & (repeats == 1)


# ---------------------------------------------------------------------------
# base certificates


@dataclass
class BaseCertificate:
    """Outcome of a base test; witness re-checkable through the action."""

    points: list                      # including D first
    verdict: bool
    method: str                       # "enumeration" | "constraint-solver"
    witness: tuple | None = None      # (aut row, Perm) fixing everything

    def describe(self):
        return {
            "points": [p.serialize() for p in self.points],
            "verdict": self.verdict,
            "method": self.method,
            "witness": None if self.witness is None else {
                "aut_row": self.witness[0],
                "perm": str(self.witness[1]),
            },
        }


def is_base(g: DiagTypeGroup, points) -> BaseCertificate:
    """Whether {D} + points has trivial pointwise stabilizer in G; D is
    dropped, but not a point of the wrong length (``_tuple_matrix``)."""
    pts = [p for p in points if p.k != g.k or not p.is_diagonal()]
    method = "constraint-solver" if g.top.is_symbolic else "enumeration"
    witness = stabilizer_witness(g, pts)
    return BaseCertificate(points=[g.diagonal_point(), *pts],
                           verdict=witness is None,
                           method=method, witness=witness)


def element_fixes_points(g: DiagTypeGroup, aut_row: int, perm: Perm,
                         points) -> bool:
    """Re-check a (alpha, pi) pair against the fixing condition."""
    T, alpha, pi = g.T, g.T.aut.rows[aut_row], perm.images
    return all(np.array_equal(alpha[t], T.mul[T.inv[t[pi[0]]], t[pi]])
               for t in (p.as_array() for p in points))


# ---------------------------------------------------------------------------
# explicit constructions


def construct_small_k_base(g: DiagTypeGroup):
    """The small-k explicit base point sets (k = 2, 3, 4).

    ``build_group`` admits at k <= 4 only the trivial top (k = 2) and the
    primitive tops, which are Sym(2), Alt(3), Sym(3), Alt(4) and Sym(4).
    Returns the point list including D; any other k raises
    PreconditionError.
    """
    T, k = g.T, g.k
    xi, yi = T.distinct_order_ids
    D = g.diagonal_point()

    def pt(ids):
        return OmegaPoint.from_tuple(T, ids)

    if k == 2:
        if not g.top.symmetric:
            return [D, pt((xi, 0)), pt((yi, 0))]
        return [D, pt((xi, 0)), pt((yi, 0)), pt((int(T.mul[xi, yi]), 0))]
    if k == 3:
        if g.top.symmetric:
            return [D, pt((xi, 0, 0)), pt((0, yi, 0))]
        ai, bi = T.involution_ids
        return [D, pt((ai, bi, 0))]
    if k == 4:
        if g.top.symmetric:
            return [D, pt((xi, T.third_order_ids[0], 0, 0)),
                    pt((0, 0, yi, 0))]
        return [D, pt((xi, yi, 0, 0))]
    raise PreconditionError("small-k construction needs k in {2, 3, 4}")


def construct_generator_base(g: DiagTypeGroup):
    """Base pair from an irredundant base of the top (k >= 4, top != Sym).

    Places the distinct-order generating pair x, y and distinct third-order
    elements on the top group's base (``TopGroup.base``), identity
    elsewhere; any irredundant base would do.  Returns [D, point].  A table
    top leaves enough third-order elements: each point of an irredundant
    base of m points at least halves the stabilizer, so the top has order
    2^m or more on k >= m + 2 points; within TOP_TABLE_MAX_ENTRIES m <= 14,
    and every catalog group has 15 or more.  Alt(k) past that is refused.
    """
    if g.k < 4:
        raise PreconditionError("generator construction needs k >= 4")
    if g.top.symmetric:
        raise PreconditionError("top group must not be Sym(k)")
    T, k = g.T, g.k
    # in an irredundant base of k - 1 points the stabilizer of the first
    # k - 2 is nontrivial and fixes k - 2 points: it holds a transposition,
    # and a primitive group holding one is Sym(k) (Jordan); so m <= k - 2
    base_pts = g.top.base()
    m = len(base_pts)
    if m > len(T.third_order_ids) + 2:
        raise PreconditionError(f"{T.name} has too few elements to place "
                                f"on the {m}-point base of the top")
    xi, yi = T.distinct_order_ids
    ids = [0] * k
    ids[base_pts[0]] = xi
    ids[base_pts[1] if m >= 2 else min(set(range(k)) - {base_pts[0]})] = yi
    for j, p in enumerate(base_pts[2:]):
        ids[p] = T.third_order_ids[j]
    return [g.diagonal_point(), OmegaPoint.from_tuple(T, ids)]


def digit_base_rows(g: DiagTypeGroup):
    """The raw u-table rows of the digit construction (before canonicalizing).

    Row 1 is all-identity (the point D).  Row 2 lists t_1..t_m; row 3 places
    x and z and, together with any further rows, spells out j - m - 1 in base
    |T| digits on the columns past m.  More than ``ENTRY_BUDGET`` entries
    raise BudgetExceededError.
    """
    T, k = g.T, g.k
    if k < 5:
        raise PreconditionError("digit construction needs k >= 5")
    nT = T.order
    xi, yi = T.distinct_order_ids
    zi = T.third_order_ids[0]
    # enumeration t_0 = 1, t_1 = x, t_2 = y, t_3 = z, rest by index
    rest = [t for t in range(1, nT) if t not in (xi, yi, zi)]
    enum = np.array([0, xi, yi, zi, *rest])
    m = min(nT - 1, k - 2)
    r = max(1, ceil_log(nT, k - nT + 1))
    check_entries(r + 2, k, "digit construction")
    rows = np.zeros((r + 2, k), dtype=np.int64)
    rows[1, :m] = enum[1:m + 1]
    rows[2, :2] = xi, zi
    # column j >= m holds j - m, least significant digit in row 2
    rows[2:, m:] = enum[np.arange(k - m) // nT ** np.arange(r)[:, None] % nT]
    return rows


def construct_digit_base(g: DiagTypeGroup):
    """Digit-style base of r + 2 distinct points (k >= 5), D first."""
    return [OmegaPoint.from_tuple(g.T, row) for row in digit_base_rows(g)]


# ---------------------------------------------------------------------------
# exact minimal base size


def construct_auto(g: DiagTypeGroup):
    """The applicable explicit construction for this group, smallest first.

    Small-k point sets for k <= 4; for tops without Alt(k) the pair placing
    the generators on a base of the top, a base with D on every admitted
    top (``construct_generator_base``); the digit construction otherwise.
    Returns (name, points).
    """
    if g.k <= 4:
        return "small-k", construct_small_k_base(g)
    if not g.top.alternating:
        return "generator", construct_generator_base(g)
    return "digit", construct_digit_base(g)


def minimal_base_size(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """Exact b(G) with a witness base, for explicit tops.

    No base has size 1: D alone is fixed by all of G_D.  A verified
    two-point construction (``construct_auto``) gives b = 2; else the G_D
    orbit walk (``gd_orbits``, within ``budget`` points) does, at the first
    representative with trivial stabilizer.  Else one bulk scan of each
    representative's nonidentity stabilizer over the point set gives b = 3
    at the first free point, exhaustively, as G_D maps a base {D, p, q} to
    one with p a representative.  Else b = 4 with the construction's
    verified points: a tabled Alt/Sym top has k <= 8 < |T|, so past k = 2
    a construction has at most 3 points.  The budget binds once the walk
    runs: past it, BudgetExceededError; a verified construction returns
    first at any budget.
    """
    perms = g.top.table.arrays()    # a symbolic top is refused first
    name, pts = construct_auto(g)
    if len(pts) == 2 and is_base(g, pts[1:]).verdict:
        return 2, pts
    # row 0, D, is its own orbit's first; the rest are read as needed
    seen = []
    for rep, stab in islice(gd_orbits(g, budget), 1, None):
        if len(stab) == 1:
            return 2, [g.diagonal_point(), OmegaPoint(point_tuple(g, rep))]
        seen.append((rep, stab[1:]))
    tuples = omega_tuples(g, budget)[1:]
    for rep, stab in seen:
        p, a = np.divmod(stab, len(g.aut_rows))
        free = np.flatnonzero(_accel.detect_per_tuple(
            g.T, perms, g.aut_rows.take(a), p, tuples) == 0)
        if len(free):
            return 3, [g.diagonal_point()] + [
                OmegaPoint(point_tuple(g, j)) for j in (rep, 1 + int(free[0]))]
    if len(pts) != 4 or not is_base(g, pts[1:]).verdict:
        raise PreconditionError(
            f"no base of size 3, and the {name} construction gives no "
            f"4-point base")
    return 4, pts


# ---------------------------------------------------------------------------
# logarithmic bound checkers and theorem 1's interval


def ceil_log(base: int, value: int) -> int:
    """Smallest m >= 0 with base^m >= value (exact integer arithmetic)."""
    m, power = 0, 1
    while power < value:
        power *= base
        m += 1
    return m


def pyber_check(g: DiagTypeGroup, known_b: int, exact: bool = True):
    """The +2 logarithmic upper bound, and the elementary lower bound when
    the value is exact.  Ceilings are computed by integer comparison."""
    c = ceil_log(g.degree, g.order)
    report = {
        "group": g.describe(),
        "known_b": known_b,
        "exact": exact,
        "ceil_log_order": c,
        "upper_bound": c + 2,
        "upper_holds": known_b <= c + 2,
    }
    if exact:
        report["lower_bound"] = c
        report["lower_holds"] = c <= known_b
    return report


def alt_formula_bounds(g: DiagTypeGroup):
    """Predicted interval for b(G) when the top contains Alt(k), k >= 3.

    With c = ceil(log k / log |T|) the interval is [c + 1, c + 2].  Each
    clause of the paper fires at one power |T|^l only: a lower-bound clause
    (k = |T|, or a symmetric top with k in {|T|^l - 1, |T|^l}) at l = c,
    pinning c + 2; the window |T|^l < k <= |T|^l + |T| - 1 at l = c - 1,
    pinning c + 1."""
    if g.k < 3:
        raise PreconditionError("formula applies for k >= 3")
    if not g.top.alternating:
        raise PreconditionError("top group must contain Alt(k)")
    n, k = g.T.order, g.k
    c = ceil_log(n, k)
    if k == n or (g.top.symmetric and k >= n ** c - 1):
        exact = c + 2
    elif c >= 2 and k <= n ** (c - 1) + n - 1:
        exact = c + 1
    else:
        exact = None
    return {"interval": (c + 1, c + 2), "exact": exact}
