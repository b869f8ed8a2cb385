import gc
import zlib
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from diagbase.baseengine import (alt_formula_bounds, ceil_log, construct_auto,
                                 construct_digit_base,
                                 construct_generator_base,
                                 construct_small_k_base, digit_base_rows,
                                 element_fixes_points, is_base,
                                 minimal_base_size, pointwise_stabilizer,
                                 pointwise_stabilizer_by_action, pyber_check,
                                 stabilizer_witness)
from diagbase import _accel, baseengine, diag
from diagbase.catalog import catalog_names, get_group, load_catalog
from diagbase.diag import (OmegaPoint, act_diag, build_group, digit_codes,
                           resolve_out_part)
from diagbase.errors import (BudgetExceededError, InvalidTopError,
                             PreconditionError, UnsupportedEnumerationError)
from diagbase.perm import Perm, _is_prime

import pin_oracle
from scan_oracle import fixes


def random_point(T, k, rng):
    return OmegaPoint.from_tuple(T, [0, *rng.integers(0, T.order, k - 1)])


def solver_maps(g, X):
    """The maps (alpha, y) other than the identity that the symbolic-top
    solver's column test keeps for the tuple matrix X, in its order."""
    X = np.asarray(X, dtype=np.int64)
    columns = baseengine._distinct_columns(X, g.T.order)
    return [(a, tuple(y.tolist()))
            for a_s, y_s in baseengine._fixing_maps(g, X, columns)
            for a, y in zip(a_s.tolist(), y_s.T)]


def solver_battery():
    """160 seeded (group, tuple matrix) cases for the symbolic-top solver:
    random, few distinct entries, distinct entries and planted fixers."""
    rng = np.random.default_rng(707)
    cases = []
    for it in range(160):
        T = get_group(("A5", "L2(7)")[it % 2])
        k = int(rng.choice([3, 5, 8, 13, 31, 45, 59, 61, 90, 200]))
        g = build_group(T, k, ("inner", "full")[it // 2 % 2],
                        ("sym", "alt")[it // 4 % 2])
        m = int(rng.integers(1, 4))
        X = rng.integers(0, T.order, (m, k))
        if it % 3 == 1:                  # few distinct entries
            X = rng.choice(rng.choice(T.order, 3, replace=False), (m, k))
        elif it % 3 == 2 and k < T.order:  # distinct entries
            X = rng.permutation(T.order)[None, :k]
        elif k > 30 and len(g.out_labels) > 1:   # planted fixer
            _, pts = planted_points(g, rng, 2)
            X = np.array([p.tuple_ids for p in pts])
        X[:, 0] = 0
        cases.append((g, X))
    return cases


def solver_results(cases):
    return [(baseengine._solve_symbolic(g, X), solver_maps(g, X))
            for g, X in cases]


def witness_crc(witnesses):
    """CRC-32 of the witnesses (aut row, perm) written out, None as -."""
    return zlib.crc32("\n".join(
        "-" if w is None else f"{w[0]} {w[1]}" for w in witnesses).encode())


def uniform_rows(T, k, m, copies):
    """A seeded m x k tuple matrix, 0 first in every row, each row listing
    every element of T ``copies`` times; the last row is drawn again until
    the columns are distinct (m = 1 needs copies = 1)."""
    rng = np.random.default_rng(k + m)
    entries = np.repeat(np.arange(T.order), copies)[1:]
    X = np.zeros((m, k), dtype=np.int64)
    for row in X:
        row[1:] = rng.permutation(entries)
    while np.unique(X, axis=1).shape[1] < k:
        X[-1, 1:] = rng.permutation(entries)
    return X


def spy_pins(monkeypatch):
    """Record every ``_pinned_pairs`` call as ((g, D, uniq, cls, ys), out)."""
    pin, calls = baseengine._pinned_pairs, []

    def spy(*args):
        calls.append((args, pin(*args)))
        return calls[-1][1]
    monkeypatch.setattr(baseengine, "_pinned_pairs", spy)
    return calls


def check_pins(calls):
    """Each recorded pin output equals the brute-force pass over every pair
    (alpha, y in Y) of the test "y alpha(z) is a column of K"."""
    assert calls
    for (g, D, _uniq, cls, ys), out in calls:
        assert np.array_equal(out, pin_oracle.pinned_pairs(g, D, cls, ys))


# witness_crc of the solver battery's witnesses, and of the sym and alt
# witnesses of each uniform-row case, as first recorded
SOLVER_BATTERY_CRC = 2483711516
BOTH_BASES = witness_crc([None, None])
UNIFORM_CRC = {("A5", 60, 1): 3219025853, ("A5", 60, 2): BOTH_BASES,
               ("A5", 120, 3): BOTH_BASES, ("L2(7)", 168, 1): 4110949741,
               ("L2(7)", 168, 3): BOTH_BASES, ("L2(7)", 336, 3): BOTH_BASES,
               ("L2(11)", 660, 2): BOTH_BASES, ("L2(11)", 1320, 2): BOTH_BASES}


def check_solver(g, pts, sym_stab, stab=None):
    """The symbolic-top solver on these points against listed stabilizers
    of the same points.  The maps its column test keeps are exactly the
    maps (alpha, X[:, pi(0)]) of ``sym_stab``, the stabilizer under the
    Sym(k) top, less the identity map.  Its witness is None iff ``stab``,
    the stabilizer in g (default ``sym_stab``), is the identity alone, and
    otherwise a nonidentity element of ``stab``."""
    X = np.array([p.tuple_ids for p in pts])
    ident = (g.T.aut.identity_row, (0,) * len(X))
    maps = solver_maps(g, X)
    assert len(maps) == len(set(maps))
    assert set(maps) == {(a, tuple(X[:, p.images[0]].tolist()))
                         for a, p in sym_stab} - {ident}
    stab = sym_stab if stab is None else stab
    witness = is_base(g, pts).witness
    if len(stab) == 1:
        assert witness is None
    else:
        assert witness in set(stab)
        assert not (witness[0] == ident[0] and witness[1].is_identity())


# the action oracle walks G_D in Python, about 14 us an element; it runs on
# the one-point sets of the shapes of at most this |G_D|, the scan kernel
# on every point set
ACTION_ORACLE_MAX_GD = 30_000


def gd_indices(g, pairs):
    """The perm-major G_D indices p * |A| + a of (aut row id, Perm) pairs,
    in order."""
    aut_index = {int(a): i for i, a in enumerate(g.aut_rows)}
    n_a, table = len(g.aut_rows), g.top.table
    return [table.position(p) * n_a + aut_index[a] for a, p in pairs]


def check_witness(g, points):
    """The explicit-top witness of the points against their listed
    stabilizer: None iff the identity alone fixes them; else in the
    stabilizer, of prime order lcm(|alpha|, |pi|), and the first of
    ``g.prime_candidates`` that ``filter_candidates`` keeps.  Returns it."""
    stab = pointwise_stabilizer(g, points)
    witness = stabilizer_witness(g, points)
    assert (witness is None) == (len(stab) == 1)
    if witness is not None:
        a, p = witness
        assert (a, p) in stab
        assert _is_prime(int(np.lcm(g.T.aut.orders[a], p.order())))
        cand_a, cand_p = g.prime_candidates
        tuples = np.array([pt.tuple_ids for pt in points], np.int32) \
            .reshape(-1, g.k)
        first = int(_accel.filter_candidates(
            g.T, g.top.table.arrays(), cand_a, cand_p, tuples).argmax())
        assert (a, g.top.table.position(p)) == \
            (int(cand_a[first]), int(cand_p[first]))
    return witness


@pytest.mark.parametrize("out", ["inner", "full"])
@pytest.mark.parametrize("top,k", [
    *(("sym-table", k) for k in (2, 3, 4, 5)),
    *(("alt-table", k) for k in (3, 4, 5)),
    *((top, k) for top in ("cyclic", "dihedral") for k in (5, 7))])
@pytest.mark.parametrize("name", catalog_names())
def test_fixing_candidates_match_the_kernel_and_the_action(
        name, top, k, out, monkeypatch):
    # the G_D indices p * |A| + a that fix seeded 1-3 point sets, against
    # the candidate x tuple broadcast over G_D listed here and against the
    # group action; entries from {1, x, y} give nontrivial stabilizers.
    # pointwise_stabilizer lists G_D a few whole perms at a time through
    # filter_candidates, at the default chunk and at 61-entry chunks, past
    # which the candidates go through the perm runs.  The witness of each
    # set, and of no points, is checked against the listing at the default
    # chunk
    g = build_group(get_group(name), k, out, top)
    T, table = g.T, g.top.table
    cand_a = np.tile(g.aut_rows, table.order)
    cand_p = np.repeat(np.arange(table.order, dtype=np.int32),
                       len(g.aut_rows))
    rng = np.random.default_rng(zlib.crc32(f"{name} {top} {k} {out}".encode()))
    chunks = (_accel._CHUNK_PAIRS, 61)
    assert check_witness(g, []) is not None
    for n_points in (1, 2, 3):
        pool = [0, *rng.choice(np.arange(1, T.order), 2, replace=False)]
        tuples = np.zeros((n_points, k), dtype=np.int32)
        tuples[:, 1:] = rng.choice(pool, (n_points, k - 1))
        want = np.flatnonzero(fixes(T, table.arrays(), cand_a, cand_p,
                                    tuples).all(axis=1)).tolist()
        points = [OmegaPoint(tuple(t)) for t in tuples.tolist()]
        check_witness(g, points)
        for chunk in chunks:
            monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
            assert gd_indices(g, pointwise_stabilizer(g, points)) == want
        if n_points == 1 and g.gd_order <= ACTION_ORACLE_MAX_GD:
            assert want == sorted(gd_indices(
                g, pointwise_stabilizer_by_action(g, points)))


@pytest.mark.parametrize("name", ["A5", "L2(7)"])
def test_fixing_candidates_past_one_chunk(name, monkeypatch):
    # with chunks this small, G_D is listed one whole perm per call, and
    # the |A| candidates of one perm put a single point past one chunk: the
    # identity perm's aut rows are read off the fixer index and each moved
    # perm meets the order test first, once, and again on eight copies
    g = build_group(get_group(name), 3, "full", "sym-table")
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    order_tests, holding = [], _accel._holding

    def spy(*args, order=False):
        order_tests.append(order)
        return holding(*args, order=order)
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", 64)
    monkeypatch.setattr(_accel, "_holding", spy)
    for t in [[0, 1, 2], [0, 0, 1], *rng.integers(0, g.T.order, (3, 3))]:
        point = OmegaPoint.from_tuple(g.T, [int(v) for v in t])
        want = sorted(gd_indices(g, pointwise_stabilizer_by_action(g, [point])))
        assert gd_indices(g, pointwise_stabilizer(g, [point])) == want
        assert order_tests.count(True) == g.top.table.order - 1
        order_tests.clear()
        assert gd_indices(g, pointwise_stabilizer(g, [point] * 8)) == want
        assert order_tests.count(True) >= g.top.table.order - 1
        check_witness(g, [point])
        order_tests.clear()


@pytest.mark.parametrize("name,k,top", [
    ("A6", 401, "dihedral"), ("L2(11)", 563, "cyclic")])
def test_planted_non_bases_past_one_chunk(name, k, top):
    # G_D past one chunk of indices, and a point with a nontrivial
    # stabilizer: mirror-symmetric, t[i] = t[-i], under a dihedral top (the
    # reflection i -> -i fixes it), and one nonidentity entry x under a
    # cyclic top (C_Aut(x) fixes it)
    g = build_group(get_group(name), k, "full", top)
    assert g.gd_order > _accel._CHUNK_PAIRS
    ids = [0] * k
    if top == "dihedral":
        for i in range(1, k // 2 + 1):
            ids[i] = ids[k - i] = i
    else:
        ids[1] = 1
    point = OmegaPoint.from_tuple(g.T, ids)
    cert = is_base(g, [point])
    assert cert.verdict is False
    assert cert.witness == check_witness(g, [point])
    assert act_diag(g.T, point, *cert.witness) == point


class TestPointwiseStabilizer:
    def test_empty_points_gives_gd(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        assert len(pointwise_stabilizer(g, [])) == 240

    @pytest.mark.parametrize("k,top,points", [
        (6, "sym", [(0, 5, 9), (0, 7, 3)]),
        (4, "alt-table", [(0, 5), (0, 7)]),
        (3, "sym-table", [(0, 0)])], ids=["sym-6", "alt-table-4", "D-3"])
    def test_points_of_the_wrong_length_refused(self, A5, k, top, points):
        # never read as one point of the right length; a wrong-length
        # diagonal point is refused before is_base drops D
        g = build_group(A5, k, "full", top)
        pts = [OmegaPoint(p) for p in points]
        msg = f"point {pts[0]} has {len(points[0])} entries, expected k = {k}"
        for call in (is_base, stabilizer_witness, pointwise_stabilizer):
            with pytest.raises(PreconditionError, match=msg):
                call(g, pts)

    def test_centralizer_lower_bound(self, A5):
        # a point built from an order-5 element keeps its centralizer in the
        # stabilizer of the pair: (phi_t, phi_t) for t in C_T(x)
        g = build_group(A5, 2, "full", "sym-table")
        x = int(np.where(A5.order_of == 5)[0][0])
        om = OmegaPoint.from_tuple(A5, [x, 0])
        stab = pointwise_stabilizer(g, [om])
        assert 1 < len(stab) < g.gd_order
        assert len(stab) >= 5
        inner_diag = {a for a, p in stab if p.is_identity()}
        cx = {t for t in range(A5.order)
              if A5.mul[t, x] == A5.mul[x, t]}
        assert {A5.aut.inn_of(t) for t in cx} <= inner_diag

    def test_strategies_agree_on_k5(self, A5):
        # constraint solver vs explicit enumeration on the same group
        g_table = build_group(A5, 5, "full", "sym-table")
        g_solver = build_group(A5, 5, "full", "sym")
        rng = np.random.default_rng(42)
        for _ in range(100):
            pts = [random_point(A5, 5, rng) for _ in range(2)]
            check_solver(g_solver, pts, pointwise_stabilizer(g_table, pts))

    def test_strategies_agree_on_heavy_repeats(self, A5):
        # tuples with many equal coordinates give large stabilizers; the
        # solver's maps and witness must still match the scan
        x = int(np.where(A5.order_of == 5)[0][0])
        cases = [
            [0, x, x, x, x],
            [0, 0, x, x, x],
            [0, x, x, 0, 0],
        ]
        g_sym_table = build_group(A5, 5, "full", "sym-table")
        for tag in ("sym", "alt"):
            g_table = build_group(A5, 5, "full", f"{tag}-table")
            g_solver = build_group(A5, 5, "full", tag)
            for ids in cases:
                pts = [OmegaPoint.from_tuple(A5, ids)]
                stab = pointwise_stabilizer(g_table, pts)
                assert len(stab) > 1
                check_solver(g_solver, pts,
                             pointwise_stabilizer(g_sym_table, pts), stab)

    def test_alt_solver_is_even_subset_of_sym(self, A5):
        # the Alt witness is an even element of the Sym stabilizer, found
        # iff the Alt stabilizer is more than the identity
        g_alt = build_group(A5, 5, "full", "alt")
        g_sym_table = build_group(A5, 5, "full", "sym-table")
        g_alt_table = build_group(A5, 5, "full", "alt-table")
        rng = np.random.default_rng(17)
        for _ in range(20):
            pts = [random_point(A5, 5, rng)]
            sym = pointwise_stabilizer(g_sym_table, pts)
            check_solver(g_alt, pts, sym,
                         pointwise_stabilizer(g_alt_table, pts))
            witness = is_base(g_alt, pts).witness
            assert witness is None or \
                (witness[1].sign() == 1 and witness in set(sym))

    def test_condition_vs_action_oracle(self, A5):
        g = build_group(A5, 3, "full", "sym-table")
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = [random_point(A5, 3, rng)]
            scanned = {(a, p._key)
                       for a, p in pointwise_stabilizer(g, pts)}
            action = {(a, p._key)
                      for a, p in pointwise_stabilizer_by_action(g, pts)}
            assert scanned == action
            # the witness comes from the same scan: a stabilizer element,
            # None iff the stabilizer is the identity alone
            witness = is_base(g, pts).witness
            assert (witness is None) == (len(scanned) == 1)
            assert witness is None or \
                (witness[0], witness[1]._key) in scanned

    def test_distinct_values_force_entrywise_images(self, A5):
        # a tuple with pairwise-distinct nontrivial entries and two trivial
        # ones forces every stabilizing element to map entries onto entries
        g = build_group(A5, 5, "full", "sym-table")
        xi, yi = A5.distinct_order_ids
        om = OmegaPoint.from_tuple(A5, [0, xi, yi, 0, 0])
        t = np.array([0, xi, yi, 0, 0])
        stab = pointwise_stabilizer(g, [om])
        assert len(stab) > 1  # nontrivial survivors exist for this pair
        for a, p in stab:
            alpha = A5.aut.rows[a]
            pi = p.images
            assert all(alpha[t[i]] == t[pi[i]] for i in range(5))

    def test_trivial_coordinate_pair_forces_images(self, A5):
        # whenever some coordinate and its image are both trivial, the
        # stabilizing element maps the tuple entrywise onto itself
        g = build_group(A5, 4, "full", "sym-table")
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            ids = [0, int(rng.integers(60)), 0, int(rng.integers(60))]
            om = OmegaPoint.from_tuple(A5, ids)
            t = om.as_array()
            for a, p in pointwise_stabilizer(g, [om]):
                pi = p.images
                alpha = A5.aut.rows[a]
                if any(t[j] == 0 and t[pi[j]] == 0 for j in range(4)):
                    assert all(alpha[t[i]] == t[pi[i]] for i in range(4))
                    checked += 1
        assert checked > 0


def brute_force_stabilizer(g, column):
    """Every (alpha, pi) fixing D and one point whose k entries (columns,
    m = 1) are distinct: for each alpha and each y in S, f(x) = y alpha(x)
    must map S onto itself, and then pi is forced entry by entry."""
    T = g.T
    S = set(column.tolist())
    out = []
    for a in g.aut_rows:
        image = T.aut.rows[a][column]
        for y in column:
            fx = T.mul[y, image]
            if set(fx.tolist()) != S:
                continue
            pi = Perm([column.tolist().index(v) for v in fx.tolist()])
            if g.contains_diag(int(a), pi):
                out.append((int(a), pi))
    return out


def brute_force_nonbase(g, X):
    """Whether a nonidentity (alpha, pi) of G_D fixes D and the points, the
    rows of X (m x k, the first column the identity; columns may repeat).

    For every alpha in the out part and every column y, f(x) = y alpha(x)
    must permute the column multiset; the pi with x_{i pi} = f(x_i) are
    then one matching pi_0 times the group E of permutations of equal
    columns.  For alpha and y the identity (f the identity map), E must
    hold a nonidentity element of the top: a swap of equal columns for
    Sym, a 3-cycle or a double transposition for Alt.  For any other f,
    some pi is in Sym, and some pi is even iff pi_0 is or E holds a swap."""
    T, k, n = g.T, X.shape[1], g.T.order
    codes = digit_codes(X, n)
    want = np.sort(codes)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    ys = X[:, first]
    swap = counts.max() > 1
    alt_in_e = counts.max() > 2 or (counts > 1).sum() > 1
    for a in g.aut_rows.tolist():
        image = T.aut.rows[a][X]
        f_codes = digit_codes(T.mul[ys[:, :, None], image[:, None, :]], n)
        for j in np.flatnonzero((np.sort(f_codes, axis=1) == want).all(1)):
            if a == T.aut.identity_row and not ys[:, j].any():
                if swap if g.top.symmetric else alt_in_e:
                    return True
                continue
            pi = np.empty(k, dtype=np.int32)
            pi[np.argsort(f_codes[j], kind="stable")] = \
                np.argsort(codes, kind="stable")
            if g.top.symmetric or swap or Perm(pi).sign() == 1:
                return True
    return False


def planted_orbit_rows(g, rng, m, k_max):
    """m x k rows, 9 <= k <= k_max, whose columns are a union of orbits of
    a random f(x) = y alpha(x) on T^m, alpha in the out part, one orbit
    that of the identity column: f permutes the columns.  Half the time y
    is the identity, so that f fixes the identity column, and that column
    is listed twice, the one repeated column."""
    T, n = g.T, g.T.order
    while True:
        alpha = T.aut.rows[rng.choice(g.aut_rows)]
        twice = rng.random() < 0.5
        y = rng.integers(0, 1 if twice else n, (m, 1))
        cols, seen = [], set()
        for start in [np.zeros((m, 1), dtype=np.int64),
                      *rng.integers(0, n, (60, m, 1))]:
            orbit, x = [], start
            while tuple(x[:, 0]) not in seen:
                seen.add(tuple(x[:, 0]))
                orbit.append(x)
                x = T.mul[y, alpha[x]]
            if len(cols) + len(orbit) < k_max:
                cols += orbit
        if twice:
            cols.insert(0, cols[0])
        if len(cols) >= 9 and not cols[0].any():
            return np.hstack(cols)


def planted_points(g, rng, m):
    """m points whose k distinct columns (the first the identity) form a
    union of orbits of f(x) = y alpha(x), alpha the last outer involution
    in the out part and y alpha(y) = 1, so that f^2 = 1; an even number of
    2-orbits keeps the matching pi even.  Returns (alpha, pi) and the
    points."""
    T, k = g.T, g.k
    rows = T.aut.rows
    a = next(int(r) for r in g.aut_rows[::-1]
             if T.aut.labels[r] != 0 and (rows[r][rows[r]] == np.arange(
                 T.order)).all())
    alpha = rows[a]
    roots = [t for t in range(1, T.order) if T.mul[t, alpha[t]] == 0]
    y = rng.choice(roots, size=m)
    place = T.order ** np.arange(m - 1, -1, -1)
    digits = np.indices((T.order,) * m).reshape(m, -1)
    image = T.mul[y[:, None], alpha[digits]].T @ place
    fixed = np.nonzero(image == np.arange(len(image)))[0]
    movers = [c for c in rng.permutation(len(image)).tolist()
              if image[c] > c and c != 0]
    n_two = (k - 2) // 2 - int(rng.integers(0, 10))
    n_two -= n_two % 2 == 0          # odd here, even with {1, y}
    codes = [0, int(image[0])] + movers[:n_two] + \
        [int(image[c]) for c in movers[:n_two]]
    codes += rng.choice(fixed, k - len(codes), replace=False).tolist()
    codes = [0] + rng.permutation(codes[1:]).tolist()
    position = {c: j for j, c in enumerate(codes)}
    pi = Perm([position[int(image[c])] for c in codes])
    points = [OmegaPoint(tuple(row.tolist())) for row in digits[:, codes]]
    return (a, pi), points


class TestColumnSetSolver:
    """The symbolic-top solver against the table scan, a brute-force
    oracle, planted fixers and the digit bases: the maps its column test
    keeps, and its witness."""

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    def test_matches_tables_small_alphabet(self, name):
        from diagbase.catalog import get_group
        T = get_group(name)
        rng = np.random.default_rng(2024)
        for k in (5, 6):
            for out_part in ("inner", "full"):
                g_sym_table = build_group(T, k, out_part, "sym-table")
                for tag in ("sym", "alt"):
                    g_table = build_group(T, k, out_part, f"{tag}-table")
                    g_solver = build_group(T, k, out_part, tag)
                    for _ in range(6):
                        alphabet = rng.choice(T.order, int(rng.integers(2, 4)),
                                              replace=False)
                        pts = [OmegaPoint.from_tuple(
                            T, rng.choice(alphabet, k))
                            for _ in range(int(rng.integers(1, 3)))]
                        check_solver(g_solver, pts,
                                     pointwise_stabilizer(g_sym_table, pts),
                                     pointwise_stabilizer(g_table, pts))

    def test_matches_table_past_int64_codes(self, A5):
        # 33 points: |T|^33 > 2^63, so columns need exact wide codes.
        # Columns 1 and 2 differ only in the first point, whose digit
        # weight 60^32 is 0 mod 2^64: wrapped int64 codes would merge them.
        g_table = build_group(A5, 5, "full", "sym-table")
        g_solver = build_group(A5, 5, "full", "sym")
        rng = np.random.default_rng(11)
        for _ in range(3):
            rows = rng.choice([0, 7], (33, 5))
            rows[:, 0] = 0
            rows[:, 2] = rows[:, 1]
            rows[0, 1:3] = (7, 0)
            pts = [OmegaPoint(tuple(row)) for row in rows.tolist()]
            check_solver(g_solver, pts, pointwise_stabilizer(g_table, pts))

    def test_column_counts_checked(self, A5):
        # f(x) = (a x_0, x_1), a an involution, swaps the columns (1, u)
        # and (a, u): it permutes the distinct columns and keeps both row
        # histograms and the count of the identity column, but (1, b) is
        # twice as frequent as (a, b), so f does not fix the points
        a, b, c = (int(np.flatnonzero(A5.order_of == o)[0]) for o in (2, 3, 5))
        pts = [OmegaPoint((0, a, 0, 0, a, 0, a, a)),
               OmegaPoint((0, 0, b, b, b, c, c, c))]
        g_table = build_group(A5, 8, "inner", "sym-table")
        g_solver = build_group(A5, 8, "inner", "sym")
        stab = pointwise_stabilizer(g_table, pts)
        check_solver(g_solver, pts, stab)
        assert (A5.aut.identity_row, (a, 0)) not in solver_maps(
            g_solver, [p.tuple_ids for p in pts])

    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_dense_sets_match_brute_force(self, A5, top):
        # k > |T|/2 distinct entries, up to all but one of T
        rng = np.random.default_rng(31)
        verdicts = set()
        for k in (31, 40, 50, 56, 57, 58, 59):
            g = build_group(A5, k, "full", top)
            g_sym = build_group(A5, k, "full", "sym")
            for _ in range(2):
                column = np.array(
                    [0, *rng.choice(np.arange(1, 60), k - 1, replace=False)])
                om = OmegaPoint(tuple(column.tolist()))
                want = brute_force_stabilizer(g, column)
                check_solver(g, [om], brute_force_stabilizer(g_sym, column),
                             want)
                assert is_base(g, [om]).verdict == (len(want) == 1)
                verdicts.add(len(want) == 1)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name,edges", [
        ("A5", range(56, 61)), ("L2(7)", range(160, 170))],
        ids=["A5", "L2(7)"])
    def test_verdicts_past_k8_match_brute_force(self, name, edges):
        # no sym-table exists past k = 8, so brute_force_nonbase is the
        # oracle there: one or two points, random, with distinct entries,
        # with a repeated entry or column (a pair or a triple), and planted
        # unions of orbits; at random k and at the edges around |T|
        T = get_group(name)
        n = T.order
        rng = np.random.default_rng(n)
        verdicts = Counter()
        for k in [*rng.integers(9, 301, 4).tolist(), *edges]:
            sets = [np.r_[0, rng.integers(0, n, k - 1)][None]]
            if k <= n:
                sets.append(np.r_[0, rng.choice(np.arange(1, n), k - 1,
                                                replace=False)][None])
                sets.append(sets[-1].copy())
                sets[-1][0, -1] = sets[-1][0, int(rng.integers(1, k - 1))]
            two = rng.integers(0, n, (2, k))
            two[:, 0] = 0
            rep = two.copy()
            i, j, l = rng.choice(np.arange(1, k), 3, replace=False)
            rep[:, j] = rep[:, i]
            if rng.random() < 0.5:
                rep[:, l] = rep[:, i]
            sets += [two, rep,
                     planted_orbit_rows(build_group(T, k, "full", "sym"),
                                        rng, int(rng.integers(1, 3)), k)]
            for X in sets:
                pts = [OmegaPoint(tuple(row)) for row in X.tolist()]
                for top in ("sym", "alt"):
                    g = build_group(T, X.shape[1], "full", top)
                    want = brute_force_nonbase(g, X)
                    witness = stabilizer_witness(g, pts)
                    assert (witness is not None) == want, (k, top, X)
                    if witness is not None:
                        a, pi = witness
                        assert element_fixes_points(g, a, pi, pts)
                        assert g.contains_diag(a, pi)
                        assert a != T.aut.identity_row or not pi.is_identity()
                    verdicts[top, want] += 1
        assert len(verdicts) == 4, verdicts

    @pytest.mark.parametrize("name,k,m,top", [
        ("A5", 1000, 3, "sym"), ("A5", 3000, 2, "alt"),
        ("A5", 2500, 2, "sym"), ("L2(7)", 1200, 2, "alt")])
    def test_planted_fixer_at_large_k(self, name, k, m, top):
        from diagbase.catalog import get_group
        T = get_group(name)
        g = build_group(T, k, "full", top)
        (a, pi), pts = planted_points(g, np.random.default_rng(k), m)
        assert element_fixes_points(g, a, pi, pts) and g.contains_diag(a, pi)
        cert = is_base(g, pts)
        assert cert.verdict is False
        wa, wp = cert.witness
        assert not (wa == T.aut.identity_row and wp.is_identity())
        assert element_fixes_points(g, wa, wp, pts)
        assert g.contains_diag(wa, wp)

    @pytest.mark.parametrize("k", [2700, 3601, 5000])
    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_digit_bases_at_large_k(self, A5, k, top):
        g = build_group(A5, k, "full", top)
        pts = construct_digit_base(g)
        assert is_base(g, pts[1:]).verdict

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    @pytest.mark.parametrize("out_part", ["inner", "full"])
    def test_histogram_survivors_match_brute_force(self, name, out_part):
        # rows of five kinds, plus rows preserved by a random map
        # t -> y alpha(t); every (alpha, y) is tried on every row
        T = get_group(name)
        n, mul = T.order, T.mul
        g = build_group(T, 5, out_part, "sym")
        maps = T.aut.rows[g.aut_rows]
        rng = np.random.default_rng(len(name) + len(out_part))
        X = [rng.integers(0, n, int(rng.integers(1, 40)))     # random
             for _ in range(4)]
        X += [rng.choice(rng.choice(n, 3, replace=False),     # small alphabet
                         int(rng.integers(2, 12))) for _ in range(4)]
        X += [rng.permutation(n)[:k] for k in (n // 2, n - 2, n - 1)]  # dense
        X += [np.repeat(np.arange(n), 2)]                    # uniform
        # distinct entries with the identity, as Monte Carlo samples have
        X += [np.r_[0, rng.choice(np.arange(1, n), k - 1, replace=False)]
              for k in (6, 6, 12, 12, n // 2)]
        hist = np.array([np.bincount(x, minlength=n) for x in X])
        for i in range(6):                 # unions of orbits of a map
            f = mul[rng.integers(n), maps[rng.integers(len(maps))]]
            row = np.zeros(n, dtype=int)
            # the last two list the identity's orbit and two more, once each
            for count in rng.integers(1, 4, 3).tolist() if i < 4 else [1] * 3:
                if row.all():
                    break
                t = 0 if i >= 4 and not row.any() else \
                    int(rng.choice(np.flatnonzero(row == 0)))
                while row[t] == 0:
                    row[t], t = count, f[t]
            hist = np.vstack([hist, row])
        want = set()
        for y in range(n):
            ok = (hist[:, mul[y][maps]] == hist[:, None, :]).all(axis=2)
            want |= {(r, a, y) for r, a in zip(*np.nonzero(ok))}
        r, a, y = baseengine._histogram_survivors(g, hist)
        got = list(zip(r.tolist(), a.tolist(), y.tolist()))
        assert len(got) == len(set(got)) and set(got) == want
        # every row keeps the identity; the planted rows keep more
        assert {(r, 0, 0) for r in range(len(hist))} < want
        assert all(sum(t[0] == r for t in want) > 1
                   for r in range(len(hist) - 6, len(hist)))

    def test_prefilter_changes_no_result(self, monkeypatch):
        # the same battery with the column-class pin and with every pair
        # (alpha, y in Y) handed to the exact test: witnesses and the lists
        # of maps the column test keeps (in order) must all agree
        cases = solver_battery()
        with_prefilter = solver_results(cases)
        monkeypatch.setattr(baseengine, "_pinned_pairs",
                            lambda g, D, uniq, cls, ys:
                            np.arange(len(g.aut_rows) * ys.shape[1]))
        assert solver_results(cases) == with_prefilter
        assert sum(w is not None for w, _maps in with_prefilter) > 10
        assert sum(len(maps) > 0 for _w, maps in with_prefilter) > 10

    def test_one_class_changes_no_result(self, monkeypatch):
        # every distinct column in one class: z is the first column past
        # x_0 and its image ranges over all of them.  Every pin output is
        # ascending without repeats, starts at the identity pair and holds
        # at most |A| pairs per y; the witnesses are those recorded before
        # the pin read column classes
        cases = solver_battery()
        want = solver_results(cases)
        pinned_pairs, pinned = baseengine._pinned_pairs, []

        def one_class(g, D, uniq, cls, ys):
            pairs = pinned_pairs(g, D, uniq, np.zeros_like(cls), ys)
            pinned.append((pairs, len(g.aut_rows) * ys.shape[1]))
            return pairs
        monkeypatch.setattr(baseengine, "_pinned_pairs", one_class)
        got = solver_results(cases)
        assert got == want
        assert witness_crc(w for w, _maps in got) == SOLVER_BATTERY_CRC
        assert len(pinned) >= len(cases)
        for pairs, total in pinned:
            assert pairs[0] == 0 and (np.diff(pairs) > 0).all()
            assert len(pairs) <= total

    @pytest.mark.parametrize("name,k,m,copies", [
        ("A5", 60, 1, 1), ("A5", 60, 2, 1), ("A5", 120, 3, 2),
        ("L2(7)", 168, 1, 1), ("L2(7)", 168, 3, 1), ("L2(7)", 336, 3, 2),
        ("L2(11)", 660, 2, 1), ("L2(11)", 1320, 2, 2)])
    def test_coarse_classes_on_uniform_rows(self, name, k, m, copies,
                                            monkeypatch):
        # rows listing every element of T equally often: every column has
        # one class, Y and K are all the columns, and the pin keeps the
        # pairs that send z to a column, as a pass over every pair does;
        # the witnesses are those recorded before the pin read column
        # classes.  One point listing T once is no base ("l = 1 and
        # k = |T|"); more points, with their columns distinct, are
        T = get_group(name)
        X = uniform_rows(T, k, m, copies)
        pts = [OmegaPoint(tuple(row)) for row in X.tolist()]
        calls = spy_pins(monkeypatch)
        witnesses = []
        for top in ("sym", "alt"):
            g = build_group(T, k, "full", top)
            cert = is_base(g, pts)
            assert cert.verdict == (m > 1)
            if cert.witness is not None:
                assert element_fixes_points(g, *cert.witness, pts)
            witnesses.append(cert.witness)
        assert len(calls) == 2
        assert all(len(np.unique(cls)) == 1
                   for (_g, _D, _uniq, cls, _ys), _out in calls)
        check_pins(calls)
        assert witness_crc(witnesses) == UNIFORM_CRC[name, k, m]

    @pytest.mark.parametrize("case", ["battery", "digit bases"])
    def test_pins_match_brute_force(self, case, monkeypatch):
        # the pin against a pass over every pair (alpha, y in Y); the
        # uniform rows, whose columns share one class, are checked in
        # test_coarse_classes_on_uniform_rows
        calls = spy_pins(monkeypatch)
        if case == "battery":
            for g, X in solver_battery():
                solver_maps(g, X)
            assert len(calls) == 160
        else:
            A5 = get_group("A5")
            for k in (1100, 2700, 5000):
                g = build_group(A5, k, "full", "sym")
                solver_maps(g, [p.tuple_ids for p in
                                construct_digit_base(g)[1:]])
            assert len(calls) == 3
        check_pins(calls)

    def test_prefilter_leaves_few_pairs_on_digit_base(self, A5, monkeypatch):
        # 120 alphas x 5000 equally frequent columns = 600,000 pairs, of
        # which x_0's class keeps 240 (2 columns) and the pin 2: the
        # identity pair, and a pair that the exact test drops.  The row
        # test of every row left 1; one column of the smallest class
        # leaves those of its |Y| x |K| images that agree at every row
        g = build_group(A5, 5000, "full", "sym")
        pts = construct_digit_base(g)
        X = np.array([p.tuple_ids for p in pts[1:]])
        columns = np.unique(X, axis=1, return_counts=True)[1]
        assert len(g.aut_rows) * (columns == columns[0]).sum() == 600_000
        calls = spy_pins(monkeypatch)
        assert is_base(g, pts[1:]).verdict
        [((_g, _D, _uniq, _cls, ys), pairs)] = calls
        assert 1 <= len(pairs) <= 4 and len(g.aut_rows) * ys.shape[1] == 240

    def test_symbolic_stabilizer_not_listed(self, A5):
        # a symbolic top answers only whether the stabilizer is trivial
        g = build_group(A5, 12, "full", "sym")
        om = OmegaPoint.from_tuple(A5, [0] * 11 + [1])
        for pts in ([], [om]):
            with pytest.raises(UnsupportedEnumerationError):
                pointwise_stabilizer(g, pts)
        assert not is_base(g, [om]).verdict


# primitive tops of degree 5-11 without Alt(k), by generators, as
# (name, k, top, order)
PRIMITIVE_TOP_ZOO = [
    ("C5", 5, "gens:(1 2 3 4 5)", 5),
    ("D5", 5, "gens:(1 2 3 4 5)|(2 5)(3 4)", 10),
    ("F20", 5, "gens:(1 2 3 4 5)|(2 3 5 4)", 20),
    ("PSL(2,5)", 6, "gens:(1 2 3 4 5)|(1 6)(2 5)", 60),
    ("PGL(2,5)", 6, "gens:(1 2 3 4 5)|(2 3 5 4)|(1 6)(2 5)", 120),
    ("C7", 7, "gens:(1 2 3 4 5 6 7)", 7),
    ("D7", 7, "gens:(1 2 3 4 5 6 7)|(2 7)(3 6)(4 5)", 14),
    ("F21", 7, "gens:(1 2 3 4 5 6 7)|(2 3 5)(4 7 6)", 21),
    ("F42", 7, "gens:(1 2 3 4 5 6 7)|(2 4 3 7 5 6)", 42),
    ("L3(2)", 7, "gens:(1 2 3 4 5 6 7)|(3 5)(6 7)", 168),
    ("PSL(2,7)", 8, "gens:(1 2 3 4 5 6 7)|(1 8)(2 7)(3 4)(5 6)", 168),
    ("PGL(2,7)", 8,
     "gens:(1 2 3 4 5 6 7)|(1 8)(2 7)(3 4)(5 6)|(2 4 3 7 5 6)", 336),
    ("AGL(3,2)", 8, "gens:(1 2)(3 4)(5 6)(7 8)|(2 3 5)(4 7 6)|(2 4)(6 8)",
     1344),
    ("M11", 11, "gens:(1 2 3 4 5 6 7 8 9 10 11)|(3 7 11 8)(4 10 5 6)",
     7920),
]
# the zoo's constructions are also checked by the action oracle up to this
# |G_D|
ZOO_ACTION_MAX_GD = 20_000
# AGL(1, 29) = <x -> x + 1, x -> 2x>, 2 a primitive root mod 29, and D37 =
# <x -> x + 1, x -> -x>, given by generators
AGL_1_29 = "gens:({})|({})".format(
    " ".join(str(x + 1) for x in range(29)),
    " ".join(str(pow(2, i, 29) + 1) for i in range(28)))
D37 = "gens:({})|{}".format(" ".join(str(x + 1) for x in range(37)),
                           "".join(f"({i} {39 - i})" for i in range(2, 20)))


class TestConstructions:
    # every top build_group admits at k <= 4: the trivial top at k = 2 and
    # the primitive groups S2, A3, S3, A4 and S4, in each spelling
    @pytest.mark.parametrize("k,top", [
        (2, "trivial"), (2, "sym-table"), (2, "alt-table"), (2, "cyclic"),
        (2, "dihedral"), (2, "gens:(1 2)"),
        (3, "alt-table"), (3, "sym-table"), (3, "cyclic"), (3, "dihedral"),
        (3, "sym"), (3, "alt"), (3, "gens:(1 2 3)"),
        (3, "gens:(1 2 3)|(1 2)"),
        (4, "alt-table"), (4, "sym-table"), (4, "sym"), (4, "alt"),
        (4, "gens:(1 2 3)|(2 3 4)"), (4, "gens:(1 2 3 4)|(1 2)")])
    def test_small_k_verified(self, A5, L27, k, top):
        for T in (A5, L27):
            for out_part in ("inner", "full"):
                g = build_group(T, k, out_part, top)
                name, pts = construct_auto(g)
                assert name == "small-k"
                assert is_base(g, pts[1:]).verdict

    @pytest.mark.parametrize("top", ["gens:(1 2 3 4)",
                                     "gens:(1 2)(3 4)|(1 3)(2 4)",
                                     "gens:(1 2 3 4)|(1 3)"])
    def test_small_k_imprimitive_tops_rejected(self, A5, top):
        # C4, V4 and D8 are transitive on 4 points but keep a block system
        with pytest.raises(InvalidTopError):
            build_group(A5, 4, "full", top)

    def test_small_k_no_pair_when_trivial_top(self, A5):
        # exhaustive: with trivial top no pair is a base, so b = 3
        g = build_group(A5, 2, "full", "trivial")
        size, _ = minimal_base_size(g)
        assert size == 3

    def test_small_k_rejects_other_k(self, A5):
        with pytest.raises(PreconditionError):
            construct_small_k_base(build_group(A5, 5, "full", "sym"))

    def test_generator_base_on_cyclic_top(self, A5):
        g = build_group(A5, 5, "full", "cyclic")
        pts = construct_generator_base(g)
        assert pts is not None and len(pts) == 2
        assert is_base(g, pts[1:]).verdict

    def test_generator_base_on_dihedral_top(self, A5):
        g = build_group(A5, 5, "full", "dihedral")
        pts = construct_generator_base(g)
        assert pts is not None
        assert is_base(g, pts[1:]).verdict

    @pytest.mark.parametrize("construct,k,top,message", [
        (construct_generator_base, 3, "alt-table",
         "generator construction needs k >= 4"),
        (digit_base_rows, 4, "sym-table", "digit construction needs k >= 5"),
        (alt_formula_bounds, 2, "sym-table", "formula applies for k >= 3")],
        ids=["generator", "digit", "alt-formula"])
    def test_k_guards(self, A5, construct, k, top, message):
        with pytest.raises(PreconditionError, match=message):
            construct(build_group(A5, k, "full", top))

    def test_generator_base_rejects_sym(self, A5):
        with pytest.raises(PreconditionError):
            construct_generator_base(build_group(A5, 5, "full", "sym"))

    def test_generator_base_on_symbolic_alt_top(self, A5):
        # the top's base is points 0..k-3, and A5's 15 third-order elements
        # fill its points past the first two up to k = 19
        g = build_group(A5, 19, "full", "alt")
        assert is_base(g, construct_generator_base(g)[1:]).verdict
        with pytest.raises(PreconditionError, match="too few elements"):
            construct_generator_base(build_group(A5, 20, "full", "alt"))

    @pytest.mark.parametrize("k", [5, 10, 60, 61])
    def test_digit_base(self, A5, k):
        g = build_group(A5, k, "full", "sym")
        pts = construct_digit_base(g)
        assert len(pts) == 3  # single-digit regime for these k
        assert len({p.tuple_ids for p in pts}) == 3
        assert is_base(g, pts[1:]).verdict

    def test_digit_base_two_digit_regime(self, A5):
        # k just past |T|^2 needs two digit rows: a 4-point base
        g = build_group(A5, 3601, "full", "sym")
        pts = construct_digit_base(g)
        assert len(pts) == 4
        assert is_base(g, pts[1:]).verdict

    def test_digit_rows_layout(self, A5):
        g = build_group(A5, 5, "full", "sym")
        rows = digit_base_rows(g)
        xi, yi = A5.distinct_order_ids
        zi = A5.third_order_ids[0]
        assert (rows[0] == 0).all()
        assert list(rows[1][:3]) == [xi, yi, zi]
        assert rows[2][0] == xi and rows[2][1] == zi

    def test_digit_row2_meets_distinct_hypotheses(self, A5, L27):
        # at least two trivial entries, nontrivial entries pairwise distinct
        for k in (5, 10, 60):
            g = build_group(A5, k, "full", "sym")
            row = digit_base_rows(g)[1]
            nontrivial = [v for v in row if v != 0]
            assert len(row) - len(nontrivial) >= 2
            assert len(set(nontrivial)) == len(nontrivial)
        # the points are pairwise distinct, around |T| and |T|^2 too
        for T in (A5, L27):
            n = T.order
            for k in (5, n - 1, n, n + 1, n * n - 1, n * n, n * n + 1,
                      n * n + n):
                pts = construct_digit_base(build_group(T, k, "full", "sym"))
                assert len({p.tuple_ids for p in pts}) == len(pts), (T.name, k)

    def test_construct_auto_prefers_pairs(self, A5):
        name, pts = construct_auto(build_group(A5, 37, "full", "cyclic"))
        assert name == "generator" and len(pts) == 2
        name, pts = construct_auto(build_group(A5, 5, "full", "sym"))
        assert name == "digit"
        name, pts = construct_auto(build_group(A5, 3, "full", "alt-table"))
        assert name == "small-k"

    def test_construct_auto_generator_fallback(self, A5):
        # cyclic top at k = 5: a one-point base of the top, so y sits on
        # the least other point
        g = build_group(A5, 5, "full", "cyclic")
        assert g.top.table.base() == [0]
        name, pts = construct_auto(g)
        assert name == "generator" and len(pts) == 2
        assert is_base(g, pts[1:]).verdict

    def test_generator_agl_1_29(self, A5):
        g = build_group(A5, 29, "full", AGL_1_29)
        assert g.top.order == 812
        name, pts = construct_auto(g)
        assert name == "generator" and len(pts) == 2
        assert is_base(g, pts[1:]).verdict

    @pytest.mark.parametrize("k,top", [
        (5, "cyclic"), (37, "cyclic"), (563, "cyclic"), (7, "dihedral"),
        (37, "dihedral"), (401, "dihedral"), (29, AGL_1_29), (37, D37)],
        ids=["C5", "C37", "C563", "D7", "D37", "D401", "AGL(1,29)",
             "D37-gens"])
    def test_construct_auto_generator_pair(self, A5, L27, k, top):
        # every explicit top without Alt(k) at k >= 5 takes the generator
        # pair, up to the largest cyclic and dihedral tops admitted
        for T in (A5, L27):
            for out_part in ("inner", "full"):
                g = build_group(T, k, out_part, top)
                name, pts = construct_auto(g)
                assert name == "generator" and len(pts) == 2
                assert is_base(g, pts[1:]).verdict
                if g.gd_order <= ZOO_ACTION_MAX_GD:
                    assert len(pointwise_stabilizer_by_action(g, pts[1:])) \
                        == 1

    def test_generator_third_orders_suffice(self):
        # construct_generator_base places third-order elements on m - 2
        # base points of the top; a top with an m-point irredundant base
        # has order >= 2^m on k >= m + 2 points, and order x k is capped
        m = max(m for m in range(1, 64)
                if 2 ** m * (m + 2) <= diag.TOP_TABLE_MAX_ENTRIES)
        assert m <= 2 + min(len(T.third_order_ids) for T in load_catalog())

    @pytest.mark.parametrize("name,k,top,order", PRIMITIVE_TOP_ZOO,
                             ids=[z[0] for z in PRIMITIVE_TOP_ZOO])
    def test_generator_base_on_primitive_zoo(self, A5, L27, name, k, top,
                                             order):
        # the top's greedy base is irredundant, within k - 2 points and
        # 2 + len(third_order_ids), and no larger than the least base found
        # over point subsets; the generator construction on it is a base
        # on A5 and L2(7), inner and full
        facts = build_group(A5, k, "inner", top).top
        table = facts.table
        assert table.order == order and table.is_primitive()
        assert not facts.alternating and not facts.symmetric
        arr, base = table.arrays(), table.base()
        stab = arr
        for point in base:
            fixing = stab[stab[:, point] == point]
            assert len(fixing) < len(stab)
            stab = fixing
        assert len(stab) == 1 and len(base) <= k - 2
        assert len(base) == next(
            size for size in range(k)
            if any((arr[:, list(points)] == points).all(axis=1).sum() == 1
                   for points in combinations(range(k), size)))
        for T in (A5, L27):
            assert len(base) - 2 <= len(T.third_order_ids)
            for out_part in ("inner", "full"):
                g = build_group(T, k, out_part, top)
                pts = construct_generator_base(g)
                assert is_base(g, pts[1:]).verdict
                if g.gd_order <= ZOO_ACTION_MAX_GD:
                    assert len(pointwise_stabilizer_by_action(g, pts[1:])) \
                        == 1

    @pytest.mark.parametrize("top,order", [
        ("gens:(1 2 3 4 5)|(1 6)(2 5)", 60),               # PSL(2,5)
        ("gens:(1 2 3 4 5)|(2 3 5 4)|(1 6)(2 5)", 120)])   # PGL(2,5)
    def test_construct_auto_generator_third_orders(self, A5, L27, top,
                                                   order):
        # on the projective line over F_5 the top has a minimal base of 3
        # points, so the generator placement puts a third-order element on
        # the third base point: (x, y, z, 1, 1, 1), which canonicalizes to
        # (1, x^-1 y, x^-1 z, x^-1, ...)
        for T, point in ((A5, (0, 26, 4, 14, 14, 14)),
                         (L27, (0, 18, 2, 30, 30, 30))):
            g = build_group(T, 6, "full", top)
            assert g.top.order == order
            assert len(g.top.table.base()) == 3
            name, pts = construct_auto(g)
            assert name == "generator" and pts[1].tuple_ids == point
            assert is_base(g, pts[1:]).verdict
            assert len(pointwise_stabilizer_by_action(g, pts[1:])) == 1


def table_shapes():
    """Every (T, out part) of the catalog, with out parts closed from its
    outer generators, at k = 2 with the trivial and Sym(2) tops and at
    k = 3..8 with the Sym(k) and Alt(k) tables: 168 shapes."""
    for name in catalog_names():
        T = get_group(name)
        parts = {}
        for r in range(len(T.aut.generator_labels) + 1):
            for gens in combinations(range(len(T.aut.generator_labels)), r):
                spec = ",".join(f"g{i + 1}" for i in gens) or "inner"
                labels = resolve_out_part(T, spec)
                full = len(labels) == T.aut.out_order
                parts.setdefault(labels, "full" if full else spec)
        for out in parts.values():
            yield from ((name, 2, out, top)
                        for top in ("trivial", "sym-table"))
            yield from ((name, k, out, top) for k in range(3, 9)
                        for top in ("sym-table", "alt-table"))


def table_shape_b(name, k, out, top):
    """b(G) on a table shape, or None where the point budget refuses it.

    At k = 2, b = 4 on A5 and A6 with their full Out and Sym(2), and 3
    elsewhere.  At k >= 3, b = 2: Alt(3) and Alt(4) tops take the verified
    2-point construction, and the rest the G_D orbit walk, which refuses
    the |T|^(k-1) points past 10^7."""
    if k == 2:
        return 4 if name in ("A5", "A6") and out == "full" and \
            top == "sym-table" else 3
    if top == "alt-table" and k <= 4:
        return 2
    return 2 if get_group(name).order ** (k - 1) <= 10**7 else None


TABLE_SHAPES = list(table_shapes())


def test_table_shapes_tally():
    b = [table_shape_b(*shape) for shape in TABLE_SHAPES]
    assert len(b) == 168
    assert {v: b.count(v) for v in set(b)} == {2: 40, 3: 22, 4: 2, None: 104}


class TestMinimalBaseSize:
    @pytest.mark.parametrize("shape", TABLE_SHAPES,
                             ids=["-".join(map(str, s)) for s in TABLE_SHAPES])
    def test_every_table_shape(self, shape):
        g = build_group(get_group(shape[0]), *shape[1:])
        want = table_shape_b(*shape)
        if want is None:
            with pytest.raises(BudgetExceededError, match="point set"):
                minimal_base_size(g)
            return
        size, pts = minimal_base_size(g)
        assert size == len(pts) == want
        assert is_base(g, pts[1:]).verdict

    def test_no_three_point_base_on_w2a5(self, A5):
        # b = 4 rests on the bulk level being exhaustive; independently of
        # it, every pair {p, q} of points other than D has a nonidentity
        # stabilizer element, re-checked through the fixing condition
        g = build_group(A5, 2, "full", "sym-table")
        pairs = list(combinations(
            [OmegaPoint((0, t)) for t in range(1, A5.order)], 2))
        assert len(pairs) == 1711
        for pair in pairs:
            witness = stabilizer_witness(g, pair)
            assert witness is not None
            a, p = witness
            assert a != A5.aut.identity_row or not p.is_identity()
            assert element_fixes_points(g, a, p, pair)
        size, pts = minimal_base_size(g)
        assert size == 4
        assert len(pointwise_stabilizer_by_action(g, pts[1:])) == 1

    def test_w2a5(self, A5):
        size, pts = minimal_base_size(build_group(A5, 2, "full", "sym-table"))
        assert size == 4

    def test_search_leaves_no_reference_cycle(self, A5):
        # a cycle would keep the point-set tuple matrix alive until the
        # cyclic collector runs
        g = build_group(A5, 2, "full", "sym-table")
        gc.collect()
        gc.disable()
        try:
            assert minimal_base_size(g)[0] == 4
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_inner_k2(self, A5):
        size, pts = minimal_base_size(
            build_group(A5, 2, "inner", "sym-table"))
        assert size == 3

    def test_alt3_inner(self, A5):
        size, _ = minimal_base_size(build_group(A5, 3, "inner", "alt-table"))
        assert size == 2

    def test_sym3_inner_exhaustive(self, A5):
        # no 2-point fast path applies (small-k set has 3 points), so the
        # exhaustive search runs and still finds a base pair
        g = build_group(A5, 3, "inner", "sym-table")
        size, pts = minimal_base_size(g)
        assert size == 2
        assert is_base(g, pts[1:]).verdict
        from diagbase.prob import exact_nonbase_pair_proportion
        assert exact_nonbase_pair_proportion(g) < 1

    def test_l27_k2_both_out_parts(self, L27):
        # the k = 2 window is {3, 4}; this socle lands on 3 for both
        for out_part in ("inner", "full"):
            size, pts = minimal_base_size(
                build_group(L27, 2, out_part, "sym-table"))
            assert size in (3, 4)
            assert size == 3

    def test_witness_base_is_base(self, A5):
        g = build_group(A5, 2, "inner", "sym-table")
        size, pts = minimal_base_size(g)
        assert is_base(g, pts[1:]).verdict
        # faithfulness: only the identity fixes the whole base
        stab = pointwise_stabilizer(g, pts[1:])
        assert len(stab) == 1

    def test_four_point_base_faithful(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        size, pts = minimal_base_size(g)
        assert size == 4
        stab = pointwise_stabilizer(g, pts[1:])
        assert len(stab) == 1
        a, p = stab[0]
        assert a == A5.aut.identity_row and p.is_identity()

    def test_symbolic_rejected(self, A5):
        with pytest.raises(PreconditionError):
            minimal_base_size(build_group(A5, 5, "full", "sym"))

    @pytest.mark.parametrize("name,k,base", [
        ("A5", 2, ["0 0", "0 14", "0 6", "0 16"]),
        ("L2(7)", 3, ["0 0 0", "0 1 2"]),
        ("A6", 3, ["0 0 0", "0 1 4"]),
        ("A5", 4, ["0 0 0 0", "0 1 2 3"]),
    ])
    def test_search_returns_pinned_base(self, name, k, base):
        # the walk's and the bulk level's order decide which base comes
        # back, and at b = 4 the small-k construction does
        g = build_group(get_group(name), k, "full", "sym-table")
        size, pts = minimal_base_size(g)
        assert size == len(base)
        assert [p.serialize() for p in pts] == base

    @pytest.mark.parametrize("shape,size,base", [
        (("A5", 2, "inner", "sym-table"), 3, ["0 0", "0 2", "0 27"]),
        (("A5", 2, "full", "sym-table"), 4, ["0 0", "0 14", "0 6", "0 16"]),
        (("A6", 2, "inner", "sym-table"), 3, ["0 0", "0 1", "0 24"]),
        (("A6", 2, "full", "sym-table"), 4, ["0 0", "0 14", "0 6", "0 65"]),
        (("L2(7)", 2, "inner", "sym-table"), 3, ["0 0", "0 1", "0 2"]),
        (("L2(7)", 2, "full", "sym-table"), 3, ["0 0", "0 1", "0 112"]),
        (("A5", 3, "full", "alt-table"), 2, ["0 0 0", "0 4 14"]),
        (("A5", 3, "full", "sym-table"), 2, ["0 0 0", "0 1 12"]),
        (("A5", 4, "full", "alt-table"), 2, ["0 0 0 0", "0 26 14 14"]),
        (("L2(7)", 3, "full", "alt-table"), 2, ["0 0 0", "0 18 30"]),
        (("L2(7)", 3, "full", "sym-table"), 2, ["0 0 0", "0 1 2"]),
        (("L2(7)", 4, "full", "alt-table"), 2, ["0 0 0 0", "0 18 30 30"]),
        (("A6", 3, "full", "sym-table"), 2, ["0 0 0", "0 1 4"]),
        (("A5", 4, "full", "sym-table"), 2, ["0 0 0 0", "0 1 2 3"]),
        (("L2(7)", 4, "full", "sym-table"), 2, ["0 0 0 0", "0 1 2 3"]),
    ])
    def test_witness_bases_pinned(self, shape, size, base):
        # every base-min shape of the benchmark and the large-point
        # searches: the size and the witness base the search returns
        g = build_group(get_group(shape[0]), *shape[1:])
        found, pts = minimal_base_size(g)
        assert (found, [p.serialize() for p in pts]) == (size, base)

    def test_l27_k4_sym_table(self, L27):
        # 4,741,632 points: the search reads G_D orbits only until a
        # representative completes a base with D
        g = build_group(L27, 4, "full", "sym-table")
        size, pts = minimal_base_size(g)
        assert size == 2
        assert is_base(g, pts[1:]).verdict


def lower_bound_witness(g, points):
    """A witness that {D} + points is no base, where theorem 1 puts b(G) at
    len(points) + 2 or more; re-checked against the fixing condition."""
    bounds = alt_formula_bounds(g)
    assert (bounds["exact"] or bounds["interval"][0]) >= len(points) + 2
    a, p = stabilizer_witness(g, points)
    assert element_fixes_points(g, a, p, points)
    return a, p


class TestNonbaseWitness:
    def test_pigeonhole_k61(self, A5):
        g = build_group(A5, 61, "full", "sym")
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, p = lower_bound_witness(g, [random_point(A5, 61, rng)])
            assert not (a == A5.aut.identity_row and p.is_identity())

    def test_k60_equals_group_order(self, A5):
        g = build_group(A5, 60, "full", "sym")
        rng = np.random.default_rng(4)
        for _ in range(5):
            lower_bound_witness(g, [random_point(A5, 60, rng)])

    def test_two_point_witness_k_above_square(self, A5):
        # l = 2: any pair of points admits a witness when k > |T|^2
        g = build_group(A5, 3601, "full", "sym")
        rng = np.random.default_rng(6)
        lower_bound_witness(g, [random_point(A5, 3601, rng)
                                for _ in range(2)])


class TestBounds:
    def test_ceil_log(self):
        assert ceil_log(60, 14400) == 3
        assert ceil_log(60, 60) == 1
        assert ceil_log(60, 61) == 2
        assert ceil_log(60, 1) == 0

    def test_pyber_w2a5(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        rep = pyber_check(g, 4, exact=True)
        assert rep["upper_bound"] == 5 and rep["upper_holds"]
        assert rep["lower_bound"] == 3 and rep["lower_holds"]

    def test_pyber_inner(self, A5):
        g = build_group(A5, 2, "inner", "sym-table")
        rep = pyber_check(g, 3, exact=True)
        assert rep["upper_bound"] == 5 and rep["upper_holds"]

    def test_alt_bounds_exactness(self, A5):
        g61 = build_group(A5, 61, "full", "sym")
        assert alt_formula_bounds(g61)["exact"] == 3
        g60 = build_group(A5, 60, "full", "sym")
        assert alt_formula_bounds(g60)["exact"] == 3
        g3 = build_group(A5, 3, "full", "alt-table")
        rep = alt_formula_bounds(g3)
        assert rep["interval"] == (2, 3) and rep["exact"] is None

    def test_alt_bounds_requires_alt(self, A5):
        with pytest.raises(PreconditionError):
            alt_formula_bounds(build_group(A5, 37, "full", "cyclic"))

    def test_alt_bounds_power_of_t(self, A5):
        # symmetric top at k = |T|^2 pins the upper endpoint
        g = build_group(A5, 3600, "full", "sym")
        rep = alt_formula_bounds(g)
        assert rep["interval"] == (3, 4) and rep["exact"] == 4
        # one above the power: the tight window pins the lower endpoint
        g = build_group(A5, 3601, "full", "sym")
        rep = alt_formula_bounds(g)
        assert rep["interval"] == (4, 5) and rep["exact"] == 4

    def test_digit_base_meets_the_closed_form(self):
        # the digit construction attains theorem 1's interval, and its
        # exact value wherever a clause pins one; k near |T| and |T|^2
        for name in catalog_names():
            T = get_group(name)
            n = T.order
            for top in ("sym", "alt"):
                for k in (n - 1, n, n + 1, 2 * n - 1, 2 * n, n * n - 1,
                          n * n, n * n + 1, n * n + n - 1, n * n + n):
                    g = build_group(T, k, "full", top)
                    size = len(construct_digit_base(g))
                    rep = alt_formula_bounds(g)
                    lo, hi = rep["interval"]
                    assert lo <= size <= hi, (name, top, k)
                    assert rep["exact"] in (None, size), (name, top, k)

    def test_lower_bound_clauses_read_off_the_formula(self):
        # the paper's clauses are the oracle, on stub groups of every
        # catalog |T| with both tops, at small k and at k near |T|^1..|T|^3:
        # b(G) >= l + 2 iff a lower-bound clause holds at l, and b(G) is
        # the lower endpoint iff k lies in a tight-upper window
        for order in sorted({get_group(n).order for n in catalog_names()}):
            ks = set(range(3, 200))
            for e in (1, 2, 3):
                ks.update(range(order ** e - order - 3, order ** e + order + 4))
            for symmetric in (True, False):
                top = SimpleNamespace(alternating=True, symmetric=symmetric)
                for k in sorted(k for k in ks if k >= 3):
                    g = SimpleNamespace(T=SimpleNamespace(order=order), k=k,
                                        top=top)
                    rep = alt_formula_bounds(g)
                    for l in range(1, 5):
                        power = order ** l
                        clauses = k > power or (l == 1 and k == order) or \
                            (symmetric and k in (power, power - 1))
                        held = (rep["exact"] or rep["interval"][0]) >= l + 2
                        assert held == clauses, (order, symmetric, k, l)
                    window = any(order ** l < k <= order ** l + order - 1
                                 for l in range(1, 5))
                    assert (rep["exact"] == rep["interval"][0]) == window, \
                        (order, symmetric, k)


class TestMembershipFacts:
    @pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(8)", "L2(11)"])
    def test_scycles_in_group(self, name):
        # an odd cycle length coprime to every outer element order forces
        # whole s-cycle classes into the group: directly assertable here
        # since the out-part pairs freely with the top
        from math import gcd
        from diagbase.catalog import get_group
        T = get_group(name)
        s = T.out_order + 1 if T.out_order % 2 == 0 else T.out_order + 2
        lm = T.aut.label_mul
        for lab in range(T.aut.out_order):
            order, cur = 1, lab
            while cur != 0:
                cur = int(lm[cur, lab])
                order += 1
            assert gcd(s, order) == 1
        k = max(s, 6)
        for top in ("sym", "alt"):
            g = build_group(T, k, "full", top)
            cyc = Perm.from_cycles([list(range(s))], k)
            assert cyc.sign() == 1
            assert g.contains_diag(T.aut.identity_row, cyc)

    def test_base_of_2_needs_small_k(self, A5):
        # b(G) = 2 never happens at k >= |T|: every pair has a witness
        g = build_group(A5, 60, "full", "sym")
        om = OmegaPoint.from_tuple(A5, list(range(60)))
        assert not is_base(g, [om]).verdict
