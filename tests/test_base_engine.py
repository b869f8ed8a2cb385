import gc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from diagbase.baseengine import (alt_formula_bounds, ceil_log, construct_auto,
                                 construct_digit_base,
                                 construct_distinguishing_base,
                                 construct_generator_base,
                                 construct_small_k_base, digit_base_rows,
                                 element_fixes_points, is_base,
                                 minimal_base_size, nonbase_witness,
                                 pointwise_stabilizer,
                                 pointwise_stabilizer_by_action, pyber_check)
from diagbase import _accel, baseengine
from diagbase.baseengine import _fixing_candidates
from diagbase.catalog import catalog_names, get_group
from diagbase.cli import main
from diagbase.diag import OmegaPoint, build_group
from diagbase.errors import (BudgetExceededError, PreconditionError,
                             UnsupportedEnumerationError)
from diagbase.perm import Perm, alternating_table, symmetric_table


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


@pytest.mark.parametrize("out", ["inner", "full"])
@pytest.mark.parametrize("top,k", [
    *(("sym-table", k) for k in (2, 3, 4, 5)),
    *(("alt-table", k) for k in (3, 4, 5)),
    *((top, k) for top in ("cyclic", "dihedral") for k in (5, 7))])
@pytest.mark.parametrize("name", catalog_names())
def test_fixing_candidates_match_the_kernel_and_the_action(name, top, k, out):
    # the G_D indices a * |P| + p that fix seeded 1-3 point sets, against
    # the scan kernel over G_D listed here and against the group action;
    # entries from {1, x, y} give nontrivial stabilizers
    g = build_group(get_group(name), k, out, top)
    T, table = g.T, g.top.table
    n_p = table.order
    cand_a = np.repeat(g.aut_rows, n_p)
    cand_p = np.tile(np.arange(n_p, dtype=np.int32), len(g.aut_rows))
    aut_index = {int(a): i for i, a in enumerate(g.aut_rows)}
    rng = np.random.default_rng(zlib.crc32(f"{name} {top} {k} {out}".encode()))
    for n_points in (1, 2, 3):
        pool = [0, *rng.choice(np.arange(1, T.order), 2, replace=False)]
        tuples = np.zeros((n_points, k), dtype=np.int32)
        tuples[:, 1:] = rng.choice(pool, (n_points, k - 1))
        want = np.flatnonzero(_accel.filter_candidates(
            T.aut.rows, table.arrays(), cand_a, cand_p, tuples, T.mul,
            T.inv, T.order_of)).tolist()
        assert _fixing_candidates(g, tuples).tolist() == want
        first = _fixing_candidates(g, tuples[:1])
        assert _fixing_candidates(g, tuples[1:], first).tolist() == want
        among = np.flatnonzero(rng.random(g.gd_order) < 0.5)
        assert _fixing_candidates(g, tuples, among).tolist() == \
            np.intersect1d(want, among).tolist()
        if n_points == 1 and g.gd_order <= ACTION_ORACLE_MAX_GD:
            points = [OmegaPoint(tuple(t)) for t in tuples.tolist()]
            assert want == sorted(
                aut_index[a] * n_p + table.position(p)
                for a, p in pointwise_stabilizer_by_action(g, points))


class TestPointwiseStabilizer:
    def test_empty_points_gives_gd(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        assert len(pointwise_stabilizer(g, [])) == 240

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
        g_table = build_group(A5, 5, "full", symmetric_table(5))
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
        g_sym_table = build_group(A5, 5, "full", symmetric_table(5))
        for tag, table in [("sym", symmetric_table(5)),
                           ("alt", alternating_table(5))]:
            g_table = build_group(A5, 5, "full", table)
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
        g_sym_table = build_group(A5, 5, "full", symmetric_table(5))
        g_alt_table = build_group(A5, 5, "full", alternating_table(5))
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
        from diagbase.perm import symmetric_table
        g = build_group(A5, 5, "full", symmetric_table(5))
        xi, yi = A5.distinct_order_pair_ids()
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
                g_sym_table = build_group(T, k, out_part, symmetric_table(k))
                for tag, table in [("sym", symmetric_table(k)),
                                   ("alt", alternating_table(k))]:
                    g_table = build_group(T, k, out_part, table)
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
        g_table = build_group(A5, 5, "full", symmetric_table(5))
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
        g_table = build_group(A5, 8, "inner", symmetric_table(8))
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
        # rows of four kinds, plus rows preserved by a random map
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
        hist = np.array([np.bincount(x, minlength=n) for x in X])
        for _ in range(4):                 # unions of orbits of a map
            f = mul[rng.integers(n), maps[rng.integers(len(maps))]]
            row = np.zeros(n, dtype=int)
            for count in rng.integers(1, 4, 3).tolist():
                if row.all():
                    break
                t = int(rng.choice(np.flatnonzero(row == 0)))
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
                   for r in range(len(hist) - 4, len(hist)))

    def test_prefilter_changes_no_result(self, monkeypatch):
        # the same battery with the row-histogram prefilter and with every
        # pair handed to the exact test: witnesses and the lists of maps
        # the column test keeps (in order) must all agree
        from diagbase.catalog import get_group
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

        def results():
            return [(baseengine._solve_symbolic(g, X), solver_maps(g, X))
                    for g, X in cases]
        with_prefilter = results()
        monkeypatch.setattr(baseengine, "_histogram_pairs",
                            lambda g, X, ys: np.arange(len(g.aut_rows) *
                                                       ys.shape[1]))
        assert results() == with_prefilter
        assert sum(w is not None for w, _maps in with_prefilter) > 10
        assert sum(len(maps) > 0 for _w, maps in with_prefilter) > 10

    def test_prefilter_leaves_few_pairs_on_digit_base(self, A5, monkeypatch):
        # 120 alphas x 5000 equally frequent columns = 600,000 pairs
        g = build_group(A5, 5000, "full", "sym")
        pts = construct_digit_base(g)
        seen = []
        histogram_pairs = baseengine._histogram_pairs

        def spy(g, X, ys):
            pairs = histogram_pairs(g, X, ys)
            seen.append(len(pairs))
            return pairs
        monkeypatch.setattr(baseengine, "_histogram_pairs", spy)
        assert is_base(g, pts[1:]).verdict
        assert len(seen) == 1 and 1 <= seen[0] <= 4

    def test_symbolic_stabilizer_not_listed(self, A5):
        # a symbolic top answers only whether the stabilizer is trivial
        g = build_group(A5, 12, "full", "sym")
        om = OmegaPoint.from_tuple(A5, [0] * 11 + [1])
        for pts in ([], [om]):
            with pytest.raises(UnsupportedEnumerationError):
                pointwise_stabilizer(g, pts)
        assert not is_base(g, [om]).verdict


class TestConstructions:
    @pytest.mark.parametrize("k,top", [(2, "trivial"), (2, "sym-table"),
                                       (3, "alt-table"), (3, "sym-table"),
                                       (4, "alt-table"), (4, "sym-table")])
    def test_small_k_verified(self, A5, k, top):
        g = build_group(A5, k, "full", top)
        pts = construct_small_k_base(g)
        assert is_base(g, pts[1:]).verdict

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

    def test_generator_base_rejects_sym(self, A5):
        with pytest.raises(PreconditionError):
            construct_generator_base(build_group(A5, 5, "full", "sym"))

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
        xi, yi = A5.distinct_order_pair_ids()
        zi = A5.third_order_element()
        assert (rows[0] == 0).all()
        assert list(rows[1][:3]) == [xi, yi, zi]
        assert rows[2][0] == xi and rows[2][1] == zi

    def test_digit_row2_meets_distinct_hypotheses(self, A5):
        # at least two trivial entries, nontrivial entries pairwise distinct
        for k in (5, 10, 60):
            g = build_group(A5, k, "full", "sym")
            row = digit_base_rows(g)[1]
            nontrivial = [v for v in row if v != 0]
            assert len(row) - len(nontrivial) >= 2
            assert len(set(nontrivial)) == len(nontrivial)

    def test_distinguishing_base_c37(self, A5):
        g = build_group(A5, 37, "full", "cyclic")
        pts = construct_distinguishing_base(g)
        assert pts is not None
        assert is_base(g, pts[1:]).verdict

    def test_distinguishing_base_absent_for_alt(self, A5):
        g = build_group(A5, 5, "full", "sym-table")
        assert construct_distinguishing_base(g) is None

    def test_distinguishing_column_counts_separate(self, A5):
        # the count of unit entries per column separates the complement
        g = build_group(A5, 37, "full", "cyclic")
        delta = g.top.table.distinguishing_subset()
        pts = construct_distinguishing_base(g)
        t = pts[1].as_array()
        # unit entries of column j of the order matrix (t_i^-1 t_j): t_i = t_j
        counts = (t[:, None] == t).sum(axis=0)
        gamma = [j for j in range(37) if j not in delta]
        gamma_counts = {int(counts[j]) for j in gamma}
        delta_counts = {int(counts[j]) for j in delta}
        assert gamma_counts.isdisjoint(delta_counts)

    def test_construct_auto_prefers_pairs(self, A5):
        name, pts = construct_auto(build_group(A5, 37, "full", "cyclic"))
        assert name == "distinguishing" and len(pts) == 2
        name, pts = construct_auto(build_group(A5, 5, "full", "sym"))
        assert name == "digit"
        name, pts = construct_auto(build_group(A5, 3, "full", "alt-table"))
        assert name == "small-k"

    def test_construct_auto_generator_fallback(self, A5):
        # cyclic top at k = 5: the subset search yields nothing splittable
        # (|subset| < 4), so the generator placement takes over
        g = build_group(A5, 5, "full", "cyclic")
        name, pts = construct_auto(g)
        assert name == "generator" and len(pts) == 2
        assert is_base(g, pts[1:]).verdict


class TestMinimalBaseSize:
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
        ("A5", 2, ["0 0", "0 1", "0 2", "0 4"]),
        ("L2(7)", 3, ["0 0 0", "0 1 2"]),
        ("A6", 3, ["0 0 0", "0 1 4"]),
        ("A5", 4, ["0 0 0 0", "0 1 2 3"]),
    ])
    def test_search_returns_pinned_base(self, name, k, base):
        # the search order decides which base comes back; these are the
        # bases it has always returned
        g = build_group(get_group(name), k, "full", "sym-table")
        size, pts = minimal_base_size(g)
        assert size == len(base)
        assert [p.serialize() for p in pts] == base

    @pytest.mark.parametrize("shape,size,base", [
        (("A5", 2, "inner", "sym-table"), 3, ["0 0", "0 2", "0 27"]),
        (("A5", 2, "full", "sym-table"), 4, ["0 0", "0 1", "0 2", "0 4"]),
        (("A6", 2, "inner", "sym-table"), 3, ["0 0", "0 1", "0 24"]),
        (("A6", 2, "full", "sym-table"), 4, ["0 0", "0 1", "0 2", "0 4"]),
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

    def test_filter_budget(self, A5, monkeypatch, capsys):
        # b = 4, so the search runs past the two-point stage
        g = build_group(A5, 2, "full", "sym-table")
        monkeypatch.setattr(baseengine, "MIN_BASE_FILTER_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="5 point filters"):
            minimal_base_size(g)
        code = main(["base-min", "--group", "A5", "--k", "2", "--top",
                     "sym-table"])
        assert code == 4
        assert "budget exceeded" in capsys.readouterr().err


class TestNonbaseWitness:
    def test_pigeonhole_k61(self, A5):
        g = build_group(A5, 61, "full", "sym")
        rng = np.random.default_rng(3)
        for _ in range(5):
            om = random_point(A5, 61, rng)
            a, p = nonbase_witness(g, [om])
            assert element_fixes_points(g, a, p, [om])
            assert not (a == A5.aut.identity_row and p.is_identity())

    def test_k60_equals_group_order(self, A5):
        g = build_group(A5, 60, "full", "sym")
        rng = np.random.default_rng(4)
        for _ in range(5):
            om = random_point(A5, 60, rng)
            a, p = nonbase_witness(g, [om])
            assert element_fixes_points(g, a, p, [om])

    def test_hypotheses_enforced(self, A5):
        g = build_group(A5, 5, "full", "sym")
        rng = np.random.default_rng(5)
        with pytest.raises(PreconditionError):
            nonbase_witness(g, [random_point(A5, 5, rng)])
        g37 = build_group(A5, 37, "full", "cyclic")
        with pytest.raises(PreconditionError):
            nonbase_witness(g37, [random_point(A5, 37, rng)])

    def test_two_point_witness_k_above_square(self, A5):
        # l = 2: any pair of points admits a witness when k > |T|^2
        g = build_group(A5, 3601, "full", "sym")
        rng = np.random.default_rng(6)
        pts = [random_point(A5, 3601, rng) for _ in range(2)]
        a, p = nonbase_witness(g, pts)
        assert element_fixes_points(g, a, p, pts)


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

    def test_lower_bound_clauses_read_off_the_formula(self, monkeypatch):
        # nonbase_witness takes its hypotheses from alt_formula_bounds; the
        # paper's three clauses are the oracle, on stub groups of every
        # catalog |T| with both tops, at small k and at k near |T|^1..|T|^3
        monkeypatch.setattr(baseengine, "stabilizer_witness",
                            lambda g, points: (0, None))
        monkeypatch.setattr(baseengine, "element_fixes_points",
                            lambda *args: True)
        point = OmegaPoint((0, 1))
        for order in sorted({get_group(n).order for n in catalog_names()}):
            ks = set(range(3, 200))
            for e in (1, 2, 3):
                ks.update(range(order ** e - order - 3, order ** e + order + 4))
            for symmetric in (True, False):
                top = SimpleNamespace(contains_alternating=lambda: True,
                                      is_symmetric=lambda s=symmetric: s)
                for k in sorted(k for k in ks if k >= 3):
                    g = SimpleNamespace(T=SimpleNamespace(order=order), k=k,
                                        top=top)
                    for l in range(1, 5):
                        power = order ** l
                        clauses = k > power or (l == 1 and k == order) or \
                            (symmetric and k in (power, power - 1))
                        try:
                            held = nonbase_witness(g, [point] * l) is not None
                        except PreconditionError:
                            held = False
                        assert held == clauses, (order, symmetric, k, l)


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
