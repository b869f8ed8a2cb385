"""Pointwise stabilizers, explicit base constructions, exact minimal base
sizes, lower-bound witnesses, and the logarithmic bound checkers.

All stabilizer computations are anchored at the diagonal point D (transitivity
loses nothing), and never touch the point set itself: a diagonal pair
``(alpha, pi)`` fixes the point with canonical tuple t iff

    alpha(t[i]) = t[pi(0)]^-1 * t[pi(i)]   for every coordinate i,

which is pure index arithmetic over the element table of T.  For explicit top
groups one pass over G_D, never listed (``_fixing_candidates``), gives both
the stabilizer and a nonidentity witness.
For symbolic Alt/Sym tops the stabilizer is never listed, only a
nonidentity witness sought: the same condition says that x -> t[0 pi] *
alpha(x) permutes the multiset of columns of the points' tuple matrix; a
column-set test over integer column codes checks that for every alpha and
every admissible image of the identity column at once, and the permutation
part of the first surviving map is read off by matching equal columns.  A
row-histogram prefilter runs first: such a map preserves every row's
histogram over T, so the images of the identity and of one rarest element
of a row pin alpha's image there, and only the pairs allowed by every row
reach the column test (none but the identity pair ends the search).  Monte
Carlo runs the prefilter on the samples without repeated entries, in
blocks sized by the k^2 pin pairs a sample can have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .diag import (OMEGA_BUDGET, DiagTypeGroup, OmegaPoint, act_diag,
                   check_entries, gd_orbits, omega_tuples, stab_of_D)
from .errors import (BudgetExceededError, PreconditionError,
                     UnsupportedEnumerationError, ValidationError)
from .perm import Perm

# most filters in one minimal_base_size search: a filter is one scan of
# the surviving candidates against one further point, or one orbit
# representative's stabilizer read off the G_D orbit walk
MIN_BASE_FILTER_BUDGET = 10**5
# pairs (alpha, y) per chunk of the column-set test, and the target size of
# survivors x columns per block.  On a 2-CPU VM (the symbolic-sweep op lists
# of seeds 811-813 run in one process, two-image pin) 2^12..2^14 ran equally
# fast at 40.0-40.6 MB peak RSS; 2^10 was about 25% slower, 2^16 about 20%
# slower at 42 MB.
SOLVER_CHUNK_PAIRS = 1 << 12


# ---------------------------------------------------------------------------
# scan plumbing for explicit tops


def _fixing_candidates(g: DiagTypeGroup, tuples, among=None):
    """Ascending G_D indices a * |P| + p (aut row ``g.aut_rows[a]``, top
    perm p; 0 is the identity) of the elements of ``among`` (default: all
    of G_D, never listed) that fix every tuple.  Coordinate 1 of the first
    tuple is an outer test, aut rows against perms a block at a time; its
    survivors are filtered a coordinate at a time."""
    T, perms = g.T, g.top.table.arrays()
    n_p, first = len(perms), 1
    if among is None:
        if not len(tuples):
            return range(g.gd_order)    # all of G_D, unlisted
        t = tuples[0]
        lhs = T.aut.rows[g.aut_rows, t[1]]
        rhs = T.mul[T.inv[t[perms[:, 0]]], t[perms[:, 1]]]
        step = max(1, _accel._CHUNK_PAIRS // n_p)
        among = np.concatenate([np.flatnonzero(lhs[a:a + step, None] == rhs)
                                + a * n_p for a in range(0, len(lhs), step)])
        first = 2
    alpha, p = g.aut_rows[among // n_p], among % n_p
    for t in tuples:
        if len(among) < 2 and not among.any():
            break           # none left, or the identity alone, which fixes all
        for i in range(first, g.k):
            keep = T.aut.rows[alpha, t[i]] == \
                T.mul[T.inv[t[perms[p, 0]]], t[perms[p, i]]]
            among, alpha, p = among[keep], alpha[keep], p[keep]
        first = 1
    return among


def _candidate(g: DiagTypeGroup, i):
    """G_D index ``i`` as an (aut row id, Perm) pair."""
    a, p = divmod(int(i), g.top.table.order)
    return int(g.aut_rows[a]), g.top.table.element(p)


def pointwise_stabilizer(g: DiagTypeGroup, points):
    """All (alpha, pi) in G_D fixing every point (D itself is implicit), as
    (aut row id, Perm) pairs read off G_D indices (``_fixing_candidates``);
    explicit tops only."""
    if g.top.is_symbolic:
        raise UnsupportedEnumerationError(
            "stabilizers are listed for explicit tops only; a symbolic top "
            "answers whether one is trivial (stabilizer_witness)")
    tuples = np.array([p.tuple_ids for p in points], np.int32).reshape(-1, g.k)
    return [_candidate(g, i) for i in _fixing_candidates(g, tuples)]


def stabilizer_witness(g: DiagTypeGroup, points):
    """A nonidentity element of G_D fixing every point, or None."""
    tuples = np.array([p.tuple_ids for p in points], np.int32).reshape(-1, g.k)
    if g.top.is_symbolic:
        if len(points) == 0:
            # any nontrivial inner diagonal pair lies in every diagonal-type G
            return (g.T.aut.inn_of(1), Perm.identity(g.k))
        return _solve_symbolic(g, tuples)
    fixing = _fixing_candidates(g, tuples)
    return _candidate(g, fixing[1]) if len(fixing) > 1 else None


def pointwise_stabilizer_by_action(g: DiagTypeGroup, points):
    """Oracle twin of pointwise_stabilizer: scan G_D applying the group
    action to every point (explicit tops only)."""
    return [(a, p) for a, p in stab_of_D(g)
            if all(act_diag(g.T, pt, a, p) == pt for pt in points)]


# ---------------------------------------------------------------------------
# column-set test for symbolic Alt/Sym tops


def _column_codes(digits, n, dtype):
    """Base-n code of each column of ``digits`` (row 0 most significant)."""
    code = np.zeros(digits.shape[1:], dtype=dtype)
    for row in digits:
        code = code * n + row.astype(dtype)
    return code


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
    of a row over T.

    Such a map sends each count class onto itself: y, the image of the
    identity, lies in Y, the class of the identity, and with C the rarest
    class and t* its last element, y * alpha(t*) lies in C.  Each (y, c) in
    Y x C pins alpha(t*) = y^-1 c, one run of ``AutTable.image_index``.
    The rest of the support is tested a block at a time, sized so that
    candidates x block stays near ``SOLVER_CHUNK_PAIRS``.
    """
    T, n = g.T, g.T.order
    order, bounds = T.aut.image_index(g.out_labels)
    # flat tables: entry [i, j] of an n-column table sits at i * n + j
    rows, mul, counts = T.aut.rows.ravel(), T.mul.ravel(), hist.ravel()
    R = len(hist)
    # sizes[row, c]: how many elements occur c times in the row
    sizes = _row_histograms(hist, int(hist.max(initial=0)) + 1)
    rare = np.where(sizes > 0, sizes, n + 1).argmin(axis=1)
    cr, c = np.nonzero(hist == rare[:, None])
    t_star = c[np.searchsorted(cr, np.arange(R), side="right") - 1]
    # every y as frequent as the identity, paired with every c of its row
    yr, y = np.nonzero(hist == hist[:, :1])
    n_c = np.bincount(cr, minlength=R)
    i, j = _runs(n_c[yr])
    r, y, c = yr[i], y[i], c[(np.cumsum(n_c) - n_c)[yr[i]] + j]
    # alpha(t*) = y^-1 c: the alphas at run (t*, y^-1 c) of the index
    t, u = t_star[r], T.mul[T.inv[y], c]
    start = bounds[t, u]
    i, j = _runs(bounds[t, u + 1] - start)
    r, a, y = r[i], order[t[i], start[i] + j], y[i]
    # support past the identity, padded with it: every candidate maps it
    sr, st = np.nonzero(hist[:, 1:])
    rank = np.arange(len(sr)) - np.searchsorted(sr, sr)
    support = np.zeros((R, int(rank.max(initial=-1)) + 1), dtype=np.intp)
    support[sr, rank] = st + 1
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


def _histogram_pairs(g, X, ys):
    """Flat indices (alpha index * n_y + y index) of the pairs (alpha, y)
    with y a column of ``ys`` that pass the row-histogram test on every row
    of X: if f(x) = y * alpha(x) permutes the column multiset, then
    t -> y_r * alpha(t) preserves the histogram of row r.  A row with one
    count class constrains nothing and is skipped."""
    n_a, n = len(g.aut_rows), g.T.order
    hist = _row_histograms(X, n)
    informative = np.flatnonzero((hist != hist[:, :1]).any(axis=1))
    allowed = np.zeros((len(informative), n_a, n), dtype=bool)
    allowed[_histogram_survivors(g, hist[informative])] = True
    # only the alphas with a survivor in every row are read per column
    alive = np.flatnonzero(allowed.any(axis=2).all(axis=0))
    mask = np.ones((len(alive), ys.shape[1]), dtype=bool)
    for i, r in enumerate(informative):
        mask &= allowed[i][alive][:, ys[r]]
    ia, iy = np.nonzero(mask)
    return alive[ia] * ys.shape[1] + iy


def _distinct_columns(X, n):
    """(codes, uniq, first, inverse, counts): the base-n code of each column
    of X, exact past int64, and ``np.unique``'s view of them."""
    dtype = np.int64 if n ** X.shape[0] < 2 ** 63 else object
    codes = _column_codes(X, n, dtype)
    return (codes, *np.unique(codes, return_index=True, return_inverse=True,
                              return_counts=True))


def _fixing_maps(g, X, columns):
    """Yield, chunk by chunk, (alpha rows, y columns) of the maps
    f(x) = y * alpha(x) other than the identity that permute the column
    multiset of X, given its ``_distinct_columns``.  The pairs (alpha, y),
    y a column as frequent as x_0, that pass the row-histogram test
    (``_histogram_pairs``) map the distinct columns past x_0 in blocks
    sized so that survivors x block stays near ``SOLVER_CHUNK_PAIRS``; f
    is kept when every image is a column as frequent as its preimage."""
    rows, mul, n = g.T.aut.rows, g.T.mul, g.T.order
    _codes, uniq, first, _inverse, counts = columns
    ys, cols = X[:, first[counts == counts[0]]], X[:, first[1:]]
    pairs = _histogram_pairs(g, X, ys)
    pairs = pairs[pairs > 0]    # flat index 0, the identity pair, fixes all
    for start in range(0, len(pairs), SOLVER_CHUNK_PAIRS):
        p = pairs[start:start + SOLVER_CHUNK_PAIRS]
        a, y = g.aut_rows[p // ys.shape[1]], ys[:, p % ys.shape[1]]
        j = 0
        while len(a) and j < cols.shape[1]:
            stop = j + max(1, SOLVER_CHUNK_PAIRS // len(a))
            alpha_x = rows[a[None, :, None], cols[:, None, j:stop]]
            code = _column_codes(mul[y[:, :, None], alpha_x], n, uniq.dtype)
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
    the column multiset and pi matches it.  Then t -> y_r * alpha(t)
    preserves the histogram of every row r, so the pairs (alpha, y), alpha
    in the out part and y a column as frequent as x_0, are first narrowed
    to those passing that row test on every row.  The exact test then maps
    the distinct columns past x_0 by f, for all remaining pairs at once in
    chunks, and keeps f when every image is a column as frequent as its
    preimage (``_fixing_maps``).

    A repeated column gives a transposition (Sym), a 3-cycle or a double
    transposition (Alt) outright; otherwise the first surviving f is
    matched, an odd pi fixed up with the one repeated pair, or (all columns
    distinct) skipped for Alt.
    """
    T, k, n = g.T, g.k, g.T.order
    alt = g.top.symbolic == "alt"
    X = np.asarray(tuples, dtype=np.int64)
    columns = codes, _uniq, _first, inverse, counts = _distinct_columns(X, n)
    # equal columns swap freely: a transposition for Sym; for Alt a 3-cycle
    # on a triple or a double transposition on two pairs
    repeated = [np.nonzero(inverse == c)[0]
                for c in np.nonzero(counts > 1)[0][:2]]
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
            img = _column_codes(T.mul[y[:, None], T.aut.rows[a][X]], n,
                                codes.dtype)
            pi[np.argsort(img, kind="stable")] = order
            perm = Perm(pi)
            if alt and perm.sign() != 1:
                if not repeated:
                    continue
                swap = np.arange(k)         # the one repeated pair, swapped
                swap[repeated[0]] = repeated[0][::-1]
                perm = Perm(perm.images[swap])
            return a, perm
    return None


def detect_symbolic(g: DiagTypeGroup, tuples):
    """Non-base verdicts of single points for a symbolic top.  For one
    point the columns are the entries, so the column-set test is the
    row-histogram test: a repeated entry is a hit for Sym, a triple or two
    pairs for Alt; the other samples, in blocks, survive if a nonidentity
    (alpha, y) preserves their histogram.  Survivors are hits for Sym, and
    for Alt go to the solver for the parity of pi."""
    alt = g.top.symbolic == "alt"
    ordered = np.sort(tuples, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).sum(axis=1)
    out = (repeats >= (2 if alt else 1)).astype(np.uint8)
    open_rows = np.flatnonzero(out == 0)
    # k^2 pin pairs (y, c) at most per sample, as |Y|, |C| <= k
    block = max(1, SOLVER_CHUNK_PAIRS // g.k ** 2)
    for start in range(0, len(open_rows), block):
        rows = open_rows[start:start + block]
        r, a, y = _histogram_survivors(
            g, _row_histograms(tuples[rows], g.T.order))
        moved = r[(a != 0) | (y != 0)]      # aut_rows[0] is the identity
        for s in rows[np.bincount(moved, minlength=len(rows)) > 0].tolist():
            out[s] = not alt or _solve_symbolic(g, tuples[s:s + 1]) \
                is not None
    return out


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
    """Whether {D} + points has trivial pointwise stabilizer in G."""
    pts = [p for p in points if not p.is_diagonal()]
    method = "constraint-solver" if g.top.is_symbolic else "enumeration"
    witness = stabilizer_witness(g, pts)
    return BaseCertificate(points=[g.diagonal_point(), *pts],
                           verdict=witness is None,
                           method=method, witness=witness)


def element_fixes_points(g: DiagTypeGroup, aut_row: int, perm: Perm,
                         points) -> bool:
    """Re-check a (alpha, pi) pair against the fixing condition."""
    T = g.T
    alpha = T.aut.rows[aut_row]
    pi = perm.images
    for p in points:
        t = p.as_array()
        tp = t[pi]
        rhs = T.mul[T.inv[tp[0]], tp]
        if not np.array_equal(alpha[t], rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# explicit constructions


def construct_small_k_base(g: DiagTypeGroup):
    """The small-k explicit base point sets (k = 2, 3, 4).

    Supported tops: trivial (k=2), Alt(k), Sym(k).  Returns the point list
    including D.  Unsupported combinations raise PreconditionError.
    """
    T, k = g.T, g.k
    xi, yi = T.distinct_order_pair_ids()
    D = g.diagonal_point()

    def pt(ids):
        return OmegaPoint.from_tuple(T, ids)

    if k == 2:
        if g.top.is_trivial():
            return [D, pt((xi, 0)), pt((yi, 0))]
        if g.top.order == 2:
            return [D, pt((xi, 0)), pt((yi, 0)),
                    pt((int(T.mul[xi, yi]), 0))]
        raise PreconditionError("k=2 tops are trivial or Sym(2)")
    if k == 3:
        if g.top.is_symmetric():
            return [D, pt((xi, 0, 0)), pt((0, yi, 0))]
        if g.top.contains_alternating():
            ai, bi = T.involution_pair_ids()
            return [D, pt((ai, bi, 0))]
        raise PreconditionError("k=3 tops are Alt(3) or Sym(3)")
    if k == 4:
        zi = T.third_order_element()
        if g.top.is_symmetric():
            return [D, pt((xi, zi, 0, 0)), pt((0, 0, yi, 0))]
        if g.top.contains_alternating():
            return [D, pt((xi, yi, 0, 0))]
        raise PreconditionError("k=4 tops are Alt(4) or Sym(4)")
    raise PreconditionError("small-k construction needs k in {2, 3, 4}")


def construct_generator_base(g: DiagTypeGroup):
    """Base pair from a minimal base of the top group (k >= 4, top != Sym).

    Places the distinct-order generating pair x, y and distinct third-order
    elements on a minimal base of the top group, identity elsewhere.  Returns
    [D, point], or None when too few third-order elements exist.
    """
    if g.top.is_symbolic or g.k < 4:
        raise PreconditionError("needs an explicit top and k >= 4")
    if g.top.is_symmetric():
        raise PreconditionError("top group must not be Sym(k)")
    T, k = g.T, g.k
    m, base_pts = g.top.table.minimal_base()
    if m > k - 2:
        return None
    xi, yi = T.distinct_order_pair_ids()
    ids = [0] * k
    ids[base_pts[0]] = xi
    if m >= 2:
        ids[base_pts[1]] = yi
    else:
        ids[min(set(range(k)) - {base_pts[0]})] = yi
    if m >= 3:
        ox, oy = int(T.order_of[xi]), int(T.order_of[yi])
        pool = T.elements_with_orders_excluding({ox, oy})
        if len(pool) < m - 2:
            return None
        for j, p in enumerate(base_pts[2:m]):
            ids[p] = pool[j]
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
    xi, yi = T.distinct_order_pair_ids()
    zi = T.third_order_element()
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
    """Digit-style base of size r + 2 (k >= 5); includes D as the first point."""
    rows = digit_base_rows(g)
    points = [OmegaPoint.from_tuple(g.T, row) for row in rows]
    if len({p.tuple_ids for p in points}) != len(points):
        raise ValidationError("digit construction produced coincident points")
    return points


def construct_distinguishing_base(g: DiagTypeGroup):
    """Base pair from a distinguishing subset of the top group.

    Needs an explicit primitive top not containing Alt(k).  Partitions the
    distinguishing subset so neither part matches the complement's size, and
    writes the generating pair onto the parts.  Returns [D, point] or None.
    """
    if g.top.is_symbolic or g.top.contains_alternating():
        return None
    table = g.top.table
    delta = table.distinguishing_subset()
    if delta is None:
        return None
    k = g.k
    delta = sorted(delta)
    gamma = [j for j in range(k) if j not in set(delta)]
    if len(delta) < 4:
        return None
    size_g = len(gamma)
    split = None
    for a in range(1, len(delta)):
        if a != size_g and len(delta) - a != size_g:
            split = a
            break
    if split is None:
        return None
    delta2 = delta[split:]
    T = g.T
    xi, yi = T.distinct_order_pair_ids()
    ids = [0] * k
    for j in delta2:
        ids[j] = xi
    for j in gamma:
        ids[j] = yi
    return [g.diagonal_point(), OmegaPoint.from_tuple(T, ids)]


# ---------------------------------------------------------------------------
# exact minimal base size


def construct_auto(g: DiagTypeGroup):
    """The applicable explicit construction for this group, smallest first.

    Small-k point sets for k <= 4; for tops without Alt(k) the
    distinguishing-subset pair, falling back to the generator-placement pair
    (the subset search is only guaranteed fruitful for k > 32); the digit
    construction otherwise.  Returns (name, points) or (None, None).
    """
    k = g.k
    if k <= 4:
        try:
            return "small-k", construct_small_k_base(g)
        except PreconditionError:
            return None, None
    if not g.top.contains_alternating():
        pts = construct_distinguishing_base(g)
        if pts is not None:
            return "distinguishing", pts
        pts = construct_generator_base(g)
        if pts is not None:
            return "generator", pts
    return "digit", construct_digit_base(g)


def minimal_base_size(g: DiagTypeGroup, budget: int = OMEGA_BUDGET):
    """Exact b(G) with a witness base, for explicit tops.

    A verified two-point construction settles the answer outright (no base
    of size 1 exists: the stabilizer of D alone is all of G_D).  Otherwise
    the point set must be enumerable: search over subsets containing D, the
    first non-anchor point ranging over orbit representatives of G_D, later
    points over the whole point set in ascending order.  Each
    representative's stabilizer is read off the orbit walk (``gd_orbits``);
    a size-2 base is the first representative whose stabilizer is the
    identity alone, and for larger sizes the nonidentity part of that
    stabilizer is filtered down one further point at a time, the last level
    tested in bulk.  More than ``MIN_BASE_FILTER_BUDGET`` filters raise
    BudgetExceededError.
    """
    if g.top.is_symbolic:
        raise PreconditionError("minimal_base_size needs an explicit top")
    try:
        _name, pts = construct_auto(g)
    except PreconditionError:
        pts = None
    if pts is not None and len(pts) == 2 and is_base(g, pts[1:]).verdict:
        return 2, pts
    tuples, T, perms = omega_tuples(g, budget), g.T, g.top.table.arrays()
    # row 0, D, is its own orbit's first; the rest are read as needed
    orbits, seen = gd_orbits(g, tuples), []
    next(orbits)

    def reps():
        yield from seen
        for orbit in orbits:
            seen.append(orbit)
            yield orbit

    filters = 0

    def count_filter():
        nonlocal filters
        filters += 1
        if filters > MIN_BASE_FILTER_BUDGET:
            raise BudgetExceededError(
                f"minimal base search exceeds {MIN_BASE_FILTER_BUDGET} "
                f"point filters")

    def extend(cand, start, depth):
        """DFS over rows from ``start`` on for a point set of the given
        depth killing all candidates; returns the row list or None."""
        if len(cand) == 0:
            return []
        if depth == 1:
            detected = _accel.detect_per_tuple(
                T.aut.rows, perms, g.aut_rows[cand // len(perms)],
                cand % len(perms), tuples[start:], T.mul, T.inv, T.order_of)
            free = np.flatnonzero(detected == 0)
            return [start + int(free[0])] if len(free) else None
        for j in range(start, g.degree):
            count_filter()
            found = extend(_fixing_candidates(g, tuples[j:j + 1], cand),
                           j + 1, depth - 1)
            if found is not None:
                return [j, *found]
        return None

    try:
        for size in range(2, g.degree + 2):
            for rep, stab in reps():
                count_filter()    # the stabilizer of rep, off the walk
                if size == 2:
                    found = [] if len(stab) == 1 else None
                else:
                    found = extend(stab[1:], 1, size - 2)
                if found is not None:
                    return size, [g.diagonal_point()] + \
                        [OmegaPoint(tuple(tuples[j].tolist()))
                         for j in (rep, *found)]
        raise PreconditionError("no base found; group not faithful?")
    finally:
        del extend  # it refers to itself, a cycle that holds tuples until gc


# ---------------------------------------------------------------------------
# lower-bound witnesses for Alt-containing tops


def nonbase_witness(g: DiagTypeGroup, points):
    """A nonidentity element fixing D and all points, which the
    alternating-top lower-bound hypotheses guarantee; found by the
    stabilizer test (for symbolic tops the column-set test; the paper's
    argument has repeated columns, or columns filling T^l but for at most
    one) and re-checked against the fixing condition.

    points: the l non-anchor points.  Requires the top to contain Alt(k) and
    one of: k > |T|^l; l = 1 and k = |T|; top symmetric and k in
    {|T|^l, |T|^l - 1}.  These hold iff ``alt_formula_bounds`` puts b(G)
    at l + 2 or more.
    """
    l = len(points)
    if l == 0 or any(p.is_diagonal() for p in points):
        raise PreconditionError("need l >= 1 non-diagonal points")
    bounds = alt_formula_bounds(g)
    if (bounds["exact"] or bounds["interval"][0]) < l + 2:
        raise PreconditionError(
            "hypotheses unmet: need k > |T|^l, or l=1 and k=|T|, or a "
            "symmetric top with k in {|T|^l, |T|^l - 1}")

    witness = stabilizer_witness(g, points)
    if witness is None:
        raise ValidationError("no witness although the hypotheses hold")
    aut_row, perm = witness
    if not element_fixes_points(g, aut_row, perm, points):
        raise ValidationError("witness does not fix the points")
    return witness


# ---------------------------------------------------------------------------
# logarithmic bound checkers


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

    Interval is [ceil(log k / log |T|) + 1, same + 2]; pinned to a point when
    the tight-upper clause or one of the lower-bound clauses fires.
    """
    if g.k < 3:
        raise PreconditionError("formula applies for k >= 3")
    if not g.top.contains_alternating():
        raise PreconditionError("top group must contain Alt(k)")
    T, k = g.T, g.k
    c = ceil_log(T.order, k)
    lo, hi = c + 1, c + 2
    clauses = []
    # upper pins: |T|^l < k <= |T|^l + |T| - 1 for some positive l
    l = 1
    exact = None
    while T.order ** l < k:
        if k <= T.order ** l + T.order - 1:
            exact = lo
            clauses.append(f"a=1 window at l={l}")
            break
        l += 1
    lower = None
    if k == T.order:
        lower = 3
        clauses.append("k = |T|")
    if g.top.is_symmetric():
        l = 1
        while T.order ** l <= k + 1:
            if k in (T.order ** l, T.order ** l - 1):
                lower = max(lower or 0, l + 2)
                clauses.append(f"symmetric with k near |T|^{l}")
            l += 1
    if lower is not None and lower >= hi:
        exact = hi
    return {
        "interval": (lo, hi),
        "exact": exact,
        "clauses": clauses,
    }
