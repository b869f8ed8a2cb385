"""Pointwise stabilizers, explicit base constructions, exact minimal base
sizes, lower-bound witnesses, and the logarithmic bound checkers.

All stabilizer computations are anchored at the diagonal point D (transitivity
loses nothing), and never touch the point set itself: a diagonal pair
``(alpha, pi)`` fixes the point with canonical tuple t iff

    alpha(t[i]) = t[pi(0)]^-1 * t[pi(i)]   for every coordinate i,

which is pure index arithmetic over the element table of T.  For explicit top
groups one scan of the candidate list G_D (``DiagTypeGroup.gd_candidates``,
the identity first) gives both the stabilizer and a nonidentity witness.
For symbolic Alt/Sym tops the same condition says that x -> t[0 pi] *
alpha(x) permutes the multiset of columns of the points' tuple matrix; a
column-set test over integer column codes checks that for every alpha and
every admissible image of the identity column at once, and the permutation
part is read off by matching equal columns.  A row-histogram prefilter runs
first: such a map preserves the histogram over T of every row, which pins
each row's entry of the image of the identity column to a few candidates
per alpha, so only the pairs allowed by every row reach the column test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod

import numpy as np

from . import _accel
from .diag import (DiagTypeGroup, OmegaPoint, _orbit_rows_and_sizes,
                   act_diag, omega_tuples, stab_of_D)
from .errors import (BudgetExceededError, PreconditionError,
                     UnsupportedEnumerationError, ValidationError)
from .perm import Perm

# most stabilizer elements listed for a symbolic top (mode="all")
SOLVER_NODE_BUDGET = 10**6
# most one-point candidate filters in one minimal_base_size search
MIN_BASE_FILTER_BUDGET = 10**5
# pairs (alpha, y) per chunk of the column-set test, and the target size of
# survivors x columns per block.  On a 2-CPU VM (perfbench symbolic-sweep,
# seeds 811-813) 2^10..2^12 ran equally fast at 43.2-43.6 MB peak RSS;
# 2^14 was about 10% slower at 45.1-45.3 MB, 2^16 25% slower at 51.7 MB.
SOLVER_CHUNK_PAIRS = 1 << 12


# ---------------------------------------------------------------------------
# scan plumbing for explicit tops


def _fixing_candidates(g: DiagTypeGroup, tuples):
    """Indices into ``g.gd_candidates`` of the elements of G_D fixing every
    tuple, ascending; index 0, the identity, is always the first."""
    cand_a, cand_p = g.gd_candidates
    return np.flatnonzero(_accel.filter_candidates(
        g.T.aut.rows, g.top.table.arrays(), cand_a, cand_p, tuples,
        g.T.mul, g.T.inv))


def _candidate(g: DiagTypeGroup, i):
    """Candidate ``i`` of ``g.gd_candidates`` as an (aut row id, Perm) pair."""
    cand_a, cand_p = g.gd_candidates
    return int(cand_a[i]), g.top.table.elements[int(cand_p[i])]


def pointwise_stabilizer(g: DiagTypeGroup, points,
                         node_budget: int = SOLVER_NODE_BUDGET):
    """All (alpha, pi) in G_D fixing every point (D itself is implicit).

    Explicit tops scan the candidate list; symbolic tops run the column-set
    test.  Returns a list of (aut row id, Perm) pairs.
    """
    tuples = _accel.as_tuple_matrix([p.as_array() for p in points], g.k)
    if g.top.is_symbolic:
        if len(points) == 0:
            raise UnsupportedEnumerationError(
                "stabilizer of D alone is all of G_D; not enumerable for a "
                "symbolic top")
        return _solve_symbolic(g, tuples, mode="all", node_budget=node_budget)
    return [_candidate(g, i) for i in _fixing_candidates(g, tuples)]


def stabilizer_witness(g: DiagTypeGroup, points):
    """A nonidentity element of G_D fixing every point, or None."""
    tuples = _accel.as_tuple_matrix([p.as_array() for p in points], g.k)
    if g.top.is_symbolic:
        if len(points) == 0:
            return _first_nonidentity_gd(g)
        found = _solve_symbolic(g, tuples, mode="witness")
        return found[0] if found else None
    fixing = _fixing_candidates(g, tuples)
    return _candidate(g, fixing[1]) if len(fixing) > 1 else None


def _first_nonidentity_gd(g: DiagTypeGroup):
    # any nontrivial inner diagonal pair lies in every diagonal-type G
    return (g.T.aut.inn_of(1), Perm.identity(g.k))


def pointwise_stabilizer_by_action(g: DiagTypeGroup, points):
    """Oracle twin of pointwise_stabilizer: scan G_D applying the group
    action to every point (explicit tops only)."""
    out = []
    for a, p in stab_of_D(g):
        if all(act_diag(g.T, pt, a, p) == pt for pt in points):
            out.append((a, p))
    return out


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


def _histogram_survivors(g, hist):
    """Row-histogram test: the triples (row, alpha index into g.aut_rows,
    y in T) for which t -> y * alpha(t) preserves the histogram ``hist[row]``
    of a row over T.

    Such a map sends each count class onto itself, so with C the rarest
    class of a row and t* its last element, y * alpha(t*) lies in C: the
    candidates are y = c * alpha(t*)^-1 for c in C, kept only if y, the
    image of the identity, is as frequent as the identity.  They are tested
    on the support of the row, a block of support elements at a time sized
    so that candidates x block stays near ``SOLVER_CHUNK_PAIRS``, and only
    the survivors go on.
    """
    T, n = g.T, g.T.order
    # flat tables: entry [i, j] of an n-column table sits at i * n + j
    rows, mul, counts = T.aut.rows.ravel(), T.mul.ravel(), hist.ravel()
    R = len(hist)
    # sizes[row, c]: how many elements occur c times in the row
    sizes = _row_histograms(hist, int(hist.max(initial=0)) + 1)
    rare = np.where(sizes > 0, sizes, n + 1).argmin(axis=1)
    cr, c = np.nonzero(hist == rare[:, None])
    t_star = c[np.searchsorted(cr, np.arange(R), side="right") - 1]
    # y * alpha(t*) = c, one row per c and one column per alpha; keep the y
    # as frequent as the identity, its image
    y = mul[(c * n)[:, None] +
            T.inv[rows[g.aut_rows * n + t_star[cr][:, None]]]]
    i, a = np.nonzero(counts[(cr * n)[:, None] + y] == hist[cr, :1])
    r, y = cr[i], y[i, a]
    # support of each row, padded by repeating its last element
    sr, st = np.nonzero(hist)
    first = np.searchsorted(sr, np.arange(R))
    last = np.searchsorted(sr, np.arange(R), side="right") - 1
    width = int((last - first).max(initial=-1)) + 1
    support = st[np.minimum(first[:, None] + np.arange(width), last[:, None])]
    j = 0
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


def _surviving_pairs(g, pairs, ys, cols, uniq, counts, dtype):
    """Yield, chunk by chunk, the pairs (alpha row, y index) among the flat
    indices ``pairs`` whose map x -> y * alpha(x) sends every column of
    ``cols``, the distinct columns past the identity (codes ``uniq[1:]``),
    to a code of ``uniq`` with the same count.  Columns are tested in
    blocks sized so that survivors x block stays near
    ``SOLVER_CHUNK_PAIRS``."""
    T, n = g.T, g.T.order
    rows, mul = T.aut.rows, T.mul
    n_y, n_cols = ys.shape[1], cols.shape[1]
    for start in range(0, len(pairs), SOLVER_CHUNK_PAIRS):
        p = pairs[start:start + SOLVER_CHUNK_PAIRS]
        a, y = g.aut_rows[p // n_y], ys[:, p % n_y]
        j = 0
        while len(a) and j < n_cols:
            stop = j + max(1, SOLVER_CHUNK_PAIRS // len(a))
            alpha_x = rows[a[None, :, None], cols[:, None, j:stop]]
            code = _column_codes(mul[y[:, :, None], alpha_x], n, dtype)
            pos = np.searchsorted(uniq, code).clip(max=len(uniq) - 1)
            ok = (uniq[pos] == code) & (counts[pos] == counts[1 + j:1 + stop])
            keep = ok.all(axis=1)
            a, y, p = a[keep], y[:, keep], p[keep]
            j = stop
        yield a, p % n_y


def _solve_symbolic(g: DiagTypeGroup, tuples, mode: str,
                    node_budget: int = SOLVER_NODE_BUDGET):
    """Diagonal stabilizer elements of the points for a symbolic top.

    Read the m x k tuple matrix as k columns x_j in T^m, x_0 the identity.
    A pair (alpha, pi) fixes D and the points iff x_{i pi} = y * alpha(x_i)
    for every i, where y = x_{0 pi}: the map f(x) = y * alpha(x) permutes
    the column multiset and pi matches it.  Then t -> y_r * alpha(t)
    preserves the histogram of every row r, so the pairs (alpha, y), alpha
    in the out part and y a column as frequent as x_0, are first narrowed
    to those passing that row test on every row (``_histogram_pairs``).
    The exact test then maps the distinct columns past x_0 by f, for all
    remaining pairs at once in chunks, and keeps f when every image is a
    column as frequent as its preimage.

    ``mode="witness"`` returns [one nonidentity element] or []: a repeated
    column gives a transposition (Sym), a 3-cycle or a double transposition
    (Alt) outright; otherwise a surviving f is matched, an odd pi fixed up
    with the one repeated pair, or (all columns distinct) skipped for Alt.
    ``mode="all"`` returns every element: each surviving f with one matching
    pi composed with every permutation within the classes of equal columns,
    even ones only for Alt; more than ``node_budget`` of them raise
    BudgetExceededError before any is built.
    """
    T, k, n = g.T, g.k, g.T.order
    alt = g.top.symbolic == "alt"
    ident = T.aut.identity_row
    X = np.asarray(tuples, dtype=np.int64)
    m = X.shape[0]
    dtype = np.int64 if n ** m < 2 ** 63 else object
    codes = _column_codes(X, n, dtype)
    uniq, first, inverse, counts = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True)
    repeated = [np.nonzero(inverse == c)[0] for c in np.nonzero(counts > 1)[0]]
    # equal columns swap freely: a transposition for Sym; for Alt a 3-cycle
    # on a triple or a double transposition on two pairs
    if mode == "witness" and repeated and (
            not alt or len(repeated) > 1 or len(repeated[0]) > 2):
        cycles = [repeated[0][:3]] if alt and len(repeated[0]) > 2 else \
            [r[:2] for r in repeated[:1 + alt]]
        return [(ident, Perm.from_cycles([c.tolist() for c in cycles], k))]

    ys = X[:, first[counts == counts[0]]]
    pairs = _histogram_pairs(g, X, ys)
    survivors = _surviving_pairs(g, pairs, ys, X[:, first[1:]], uniq, counts,
                                 dtype)
    order = np.argsort(codes, kind="stable")

    def matching(a, yi):
        """One pi with x_{i pi} = f(x_i): equal codes matched in order."""
        pi = np.empty(k, dtype=np.int32)
        img = _column_codes(T.mul[ys[:, yi, None], T.aut.rows[a][X]], n,
                            dtype)
        pi[np.argsort(img, kind="stable")] = order
        return pi

    if mode == "witness":
        swap_pair = np.arange(k)        # the one repeated pair, if any
        if repeated:
            swap_pair[repeated[0]] = repeated[0][::-1]
        for a_s, y_s in survivors:
            for a, yi in zip(a_s.tolist(), y_s.tolist()):
                if a == ident and yi == 0:
                    continue
                perm = Perm(matching(a, yi))
                if alt and perm.sign() != 1:
                    if not repeated:
                        continue
                    perm = Perm(perm.images[swap_pair])
                return [(a, perm)]
        return []
    found = [(a, yi) for a_s, y_s in survivors
             for a, yi in zip(a_s.tolist(), y_s.tolist())]
    total = len(found) * prod(factorial(len(r)) for r in repeated)
    if total > node_budget:
        raise BudgetExceededError(
            f"{total} stabilizer elements exceed the budget of {node_budget}")
    sigmas = []
    for combo in product(*(permutations(r.tolist()) for r in repeated)):
        sigma = np.arange(k)
        for r, images in zip(repeated, combo):
            sigma[r] = images
        sigmas.append(sigma)
    results = []
    for a, yi in found:
        pi = matching(a, yi)
        for sigma in sigmas:
            perm = Perm(pi[sigma])
            if not alt or perm.sign() == 1:
                results.append((a, perm))
    return results


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
    |T| digits on the columns past m.
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
    if k > nT:
        r = 1
        while nT ** r < k - nT + 1:
            r += 1
    else:
        r = 1
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
    delta, _exhaustive = table.distinguishing_subset()
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


def minimal_base_size(g: DiagTypeGroup, budget: int = 10**7):
    """Exact b(G) with a witness base, for explicit tops.

    A verified two-point construction settles the answer outright (no base
    of size 1 exists: the stabilizer of D alone is all of G_D).  Otherwise
    the point set must be enumerable: search over subsets containing D, the
    first non-anchor point ranging over orbit representatives of G_D, later
    points over the whole point set in ascending order; surviving stabilizer
    candidates are filtered down one point at a time and the last level is
    tested in bulk.  More than ``MIN_BASE_FILTER_BUDGET`` one-point filters
    raise BudgetExceededError.
    """
    if g.top.is_symbolic:
        raise PreconditionError("minimal_base_size needs an explicit top")
    try:
        _name, pts = construct_auto(g)
    except PreconditionError:
        pts = None
    if pts is not None and len(pts) == 2 and is_base(g, pts[1:]).verdict:
        return 2, pts
    tuples = omega_tuples(g, budget)
    T = g.T
    rows, perms, mul, inv = T.aut.rows, g.top.table.arrays(), T.mul, T.inv
    # row 0 is the diagonal point, the first of its own orbit
    reps = _orbit_rows_and_sizes(g, tuples)[0][1:]
    # candidate 0 is the identity, which fixes every point
    base_a, base_p = (c[1:] for c in g.gd_candidates)
    filters = 0

    def filter_point(cand_a, cand_p, point):
        nonlocal filters
        filters += 1
        if filters > MIN_BASE_FILTER_BUDGET:
            raise BudgetExceededError(
                f"minimal base search exceeds {MIN_BASE_FILTER_BUDGET} "
                f"point filters")
        mask = _accel.filter_candidates(rows, perms, cand_a, cand_p,
                                        point, mul, inv).astype(bool)
        return cand_a[mask], cand_p[mask]

    def extend(cand_a, cand_p, start, depth):
        """DFS over rows from ``start`` on for a point set of the given
        depth killing all candidates; returns the row list or None."""
        if len(cand_a) == 0:
            return []
        if depth == 1:
            detected = _accel.detect_per_tuple(rows, perms, cand_a, cand_p,
                                               tuples[start:], mul, inv)
            free = np.flatnonzero(detected == 0)
            return [start + int(free[0])] if len(free) else None
        for j in range(start, g.degree):
            sub_a, sub_p = filter_point(cand_a, cand_p, tuples[j:j + 1])
            found = extend(sub_a, sub_p, j + 1, depth - 1)
            if found is not None:
                return [j, *found]
        return None

    for size in range(2, g.degree + 2):
        for rep in reps:
            cand_a, cand_p = filter_point(base_a, base_p,
                                          tuples[rep:rep + 1])
            if size == 2:
                found = [] if len(cand_a) == 0 else None
            else:
                found = extend(cand_a, cand_p, 1, size - 2)
            if found is not None:
                return size, [g.diagonal_point()] + \
                    [OmegaPoint(tuple(tuples[j].tolist()))
                     for j in (rep, *found)]
    raise PreconditionError("no base found; group not faithful?")


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
    {|T|^l, |T|^l - 1}.
    """
    T, k = g.T, g.k
    l = len(points)
    if l == 0 or any(p.is_diagonal() for p in points):
        raise PreconditionError("need l >= 1 non-diagonal points")
    if not g.top.contains_alternating():
        raise PreconditionError("top group must contain Alt(k)")
    nT = T.order
    power = nT ** l
    symmetric = g.top.is_symmetric()
    if not (k > power or (l == 1 and k == nT)
            or (symmetric and k in (power, power - 1))):
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
    # lower pins
    lower = None
    l = 1
    while T.order ** l < k:
        lower = max(lower or 0, l + 2)
        l += 1
    if k == T.order:
        lower = max(lower or 0, 3)
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
