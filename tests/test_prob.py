import tracemalloc
from fractions import Fraction
from math import lcm, sqrt

import numpy as np
import pytest

from diagbase import _accel, baseengine
from diagbase.baseengine import _solve_symbolic, pointwise_stabilizer
from diagbase.catalog import get_group
from diagbase.diag import (OmegaPoint, build_group, gd_orbit_reps, gd_orbits,
                           omega_tuples)
from diagbase.errors import BudgetExceededError, PreconditionError
from diagbase.perm import Perm, symmetric_table, cyclic_table
from diagbase.prob import (RowCodedGroup, _detect_nonbase,
                           centralizer_order_formula,
                           class_count_inequality_check,
                           class_intersection_formula,
                           exact_nonbase_pair_proportion, monte_carlo_nonbase,
                           nonbase_fraction_and_q2_bound,
                           prime_order_candidates, q2_bound_by_classes,
                           q2_bound_exact, r_split_exact, r_split_formula)

# the prob-exact shapes of the benchmark's prob-sweep, plus A5 k=4 full
# alt-table (216,000 points)
ORBIT_SCAN_SHAPES = [
    ("A5", 2, "inner", "trivial"),
    ("A6", 2, "full", "sym-table"), ("A6", 2, "inner", "trivial"),
    ("L2(7)", 2, "inner", "trivial"),
    ("L2(8)", 2, "full", "sym-table"),
    ("L2(11)", 2, "full", "sym-table"),
    ("A5", 3, "full", "sym-table"), ("L2(7)", 3, "full", "alt-table"),
    ("A5", 4, "full", "alt-table"),
]


def _symbolic_samples(T, k, samples, seed):
    """Canonical single points of three kinds: random; on a small alphabet,
    so that repeats and the repeat rules occur; and, where T has an element
    g of order dividing k, k distinct entries forming right cosets of <g>,
    which x -> g x preserves (a surviving map with the identity alpha)."""
    rng = np.random.default_rng(seed)
    tuples = rng.integers(0, T.order, (samples, k), dtype=np.int32)
    alphabet = rng.choice(T.order, k + 2, replace=False)
    tuples[::3] = rng.choice(alphabet, (len(tuples[::3]), k))
    tuples[:, 1:] = T.mul[T.inv[tuples[:, :1]], tuples[:, 1:]]
    tuples[:, 0] = 0
    orders = [o for o in (7, 5, 4, 3, 2)
              if k % o == 0 and (T.order_of == o).any()]
    if orders:
        g = int(rng.choice(np.flatnonzero(T.order_of == orders[0])))
        cyclic = [0]
        while len(cyclic) < orders[0]:
            cyclic.append(int(T.mul[cyclic[-1], g]))
        for row in tuples[1::3]:
            entries = list(cyclic)
            while len(entries) < k:
                coset = T.mul[cyclic, int(rng.integers(T.order))].tolist()
                if set(entries).isdisjoint(coset):
                    entries += coset
            row[1:] = rng.permutation(entries[1:])
    return tuples


@pytest.fixture(scope="module")
def w2a5(A5):
    return build_group(A5, 2, "full", "sym-table")


@pytest.fixture(scope="module")
def inn2a5(A5):
    return build_group(A5, 2, "inner", "sym-table")


class TestFixingElements:
    def test_tags_partition(self, A5, w2a5):
        # the R-tag of each prime-order candidate is read off its
        # permutation part; k = 3 adds the nontrivial ones with a fixed point
        seen = set()
        for g in (w2a5, build_group(A5, 3, "full", "sym-table")):
            _cand_a, cand_p, tags = prime_order_candidates(g)
            for pid, tag in zip(cand_p.tolist(), tags.tolist()):
                p = g.top.table.element(pid)
                if p.is_identity():
                    assert tag == 2
                elif not p.fixed_points():
                    assert tag == 1
                else:
                    assert tag == 3
                seen.add(tag)
        assert seen == {1, 2, 3}

    def test_cycle_statistics(self, A5):
        # p * (number of nontrivial cycles) + fixed points = k for each
        # prime-order element
        g = build_group(A5, 3, "full", "sym-table")
        cand_a, cand_p, tags = prime_order_candidates(g)
        aut_orders = g.T.aut.group_table().element_orders()
        for a, pid in zip(cand_a[:200], cand_p[:200]):
            perm = g.top.table.element(int(pid))
            o_a = int(aut_orders[int(a)])
            o_p = perm.order()
            p = max(o_a, o_p)
            f = len(perm.fixed_points())
            c = sum(1 for cyc in perm.cycles() if len(cyc) > 1)
            assert p * c + f == 3 or (o_p == 1 and f == 3)


def _is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, n))


@pytest.mark.parametrize("name,k,out,top", [
    ("A5", 2, "inner", "sym-table"), ("A5", 2, "full", "sym-table"),
    ("A5", 3, "full", "sym-table"), ("L2(7)", 3, "full", "alt-table"),
    ("A6", 5, "full", "cyclic"), ("A5", 37, "full", "dihedral")])
def test_prime_order_candidates_match_brute_force(name, k, out, top):
    # the candidates are the elements of G_D whose order, the lcm of the
    # aut part's and the perm part's, is prime; each listed once, tagged by
    # the perm's fixed points
    g = build_group(get_group(name), k, out, top)
    aut_orders = g.T.aut.group_table().element_orders().tolist()
    perms = list(g.top.table)
    perm_orders = [p.order() for p in perms]
    want = set()
    for i in range(g.gd_order):
        row, pid = divmod(i, len(perms))
        a = int(g.aut_rows[row])
        if _is_prime_by_division(lcm(aut_orders[a], perm_orders[pid])):
            perm = perms[pid]
            tag = 2 if perm.is_identity() else \
                3 if perm.fixed_points() else 1
            want.add((a, pid, tag))
    got = list(zip(*(x.tolist() for x in prime_order_candidates(g))))
    assert len(got) == len(set(got))
    assert set(got) == want


class TestExactQuantities:
    def test_inn2_everything_nonbase(self, inn2a5):
        assert exact_nonbase_pair_proportion(inn2a5) == 1

    def test_alt3_strictly_less(self, A5):
        g = build_group(A5, 3, "inner", "alt-table")
        prop = exact_nonbase_pair_proportion(g)
        assert prop < 1

    def test_exact_below_bound(self, A5, w2a5, inn2a5):
        for g in (w2a5, inn2a5, build_group(A5, 3, "inner", "alt-table")):
            assert exact_nonbase_pair_proportion(g) <= q2_bound_exact(g)

    def test_bound_at_least_one_when_no_pairs(self, inn2a5):
        assert q2_bound_exact(inn2a5) >= 1

    def test_two_routes_agree(self, w2a5, inn2a5):
        for g in (w2a5, inn2a5):
            assert q2_bound_exact(g) == q2_bound_by_classes(g)

    def test_r_split_sums_to_bound(self, w2a5, inn2a5, A5):
        for g in (w2a5, inn2a5, build_group(A5, 3, "inner", "sym-table")):
            r1, r2, r3 = r_split_exact(g)
            assert r1 + r2 + r3 == q2_bound_exact(g)

    def test_r3_empty_at_k2(self, w2a5):
        # at k = 2 any nontrivial permutation part is fixed-point-free
        _r1, _r2, r3 = r_split_exact(w2a5)
        assert r3 == 0


class TestSplitFormula:
    # the --r-split shapes of the benchmark's prob-sweep, W(2,A5),
    # Inn(A5)^3:S3 and A5 k=3 full sym-table
    @pytest.mark.parametrize("name,k,out_part,top", [
        ("A5", 2, "full", "sym-table"), ("L2(7)", 2, "full", "sym-table"),
        ("A5", 3, "inner", "alt-table"), ("A5", 3, "inner", "sym-table"),
        ("A5", 3, "full", "sym-table"),
    ])
    def test_matches_class_walk(self, name, k, out_part, top):
        g = build_group(get_group(name), k, out_part, top)
        assert r_split_formula(g) == r_split_exact(g)

    @pytest.mark.parametrize("name,k,out_part,top", ORBIT_SCAN_SHAPES)
    def test_sums_to_scanned_bound(self, name, k, out_part, top):
        g = build_group(get_group(name), k, out_part, top)
        assert sum(r_split_formula(g)) == q2_bound_exact(g)

    def test_past_the_point_budget(self, A5):
        # 12,960,000 points, past the scan's 10^7 default budget
        g = build_group(A5, 5, "full", "cyclic")
        with pytest.raises(BudgetExceededError):
            q2_bound_exact(g)
        r1, r2, r3 = r_split_formula(g)
        assert r3 == 0      # a 5-cycle or the identity: no mixed part
        assert r1 + r2 == Fraction(449, 162000)

    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_symbolic_top_rejected(self, A5, top):
        with pytest.raises(PreconditionError):
            r_split_formula(build_group(A5, 5, "full", top))


def _all_point_counts(g):
    """Per point of omega_tuples, the prime-order elements of G_D fixing
    it: the scan over every point, the oracle for the orbit scan."""
    cand_a, cand_p, _ = prime_order_candidates(g)
    return _accel.count_per_tuple(
        g.T.aut.rows, g.top.table.arrays(), cand_a, cand_p, omega_tuples(g),
        g.T.mul, g.T.inv, g.T.order_of)


class TestOrbitScan:
    @pytest.mark.parametrize("name,k,out_part,top", ORBIT_SCAN_SHAPES)
    def test_matches_all_points_scan(self, name, k, out_part, top):
        g = build_group(get_group(name), k, out_part, top)
        counts = _all_point_counts(g)
        assert nonbase_fraction_and_q2_bound(g) == (
            Fraction(int(np.count_nonzero(counts)), g.degree),
            Fraction(int(counts.sum()), g.degree))

    # at k = 2 the orbits are the classes of T fused by the out part and
    # inversion: A5 has 5 classes; the 9 of L2(8) fuse to 5 under Aut
    @pytest.mark.parametrize("name,k,out_part,top,n_orbits", [
        ("A5", 2, "inner", "trivial", 5),
        ("L2(8)", 2, "full", "sym-table", 5),
        ("A5", 3, "full", "sym-table", 17),
        ("L2(7)", 3, "full", "alt-table", 43),
    ])
    def test_orbit_sizes_sum_to_degree(self, name, k, out_part, top,
                                       n_orbits):
        g = build_group(get_group(name), k, out_part, top)
        tuples = omega_tuples(g)
        rows, sizes = np.array([(row, g.gd_order // len(stab))
                                for row, stab in gd_orbits(g, tuples)]).T
        assert [p.tuple_ids for p in gd_orbit_reps(g)] == \
            [tuple(row) for row in tuples[rows].tolist()]
        assert len(rows) == n_orbits
        assert int(sizes.sum()) == g.degree
        # orbit-stabilizer: each size divides |G_D|
        assert all(g.gd_order % int(s) == 0 for s in sizes)

    @pytest.mark.parametrize("name,k,out_part,top", [
        ("A5", 3, "full", "sym-table"), ("L2(7)", 3, "full", "alt-table"),
    ])
    def test_count_constant_on_orbits(self, orbits_by_action, name, k,
                                      out_part, top):
        g = build_group(get_group(name), k, out_part, top)
        counts = _all_point_counts(g)
        assert len(np.unique(counts)) > 2
        # a tuple's row is the base-|T| number of its entries past the first
        for orbit in orbits_by_action(name, k, out_part, top):
            rows = np.ravel_multi_index(np.array(list(orbit)).T[1:],
                                        (g.T.order,) * (k - 1))
            assert len(np.unique(counts[rows])) == 1


class TestMonteCarlo:
    def test_all_nonbase_deterministic(self, inn2a5):
        a = monte_carlo_nonbase(inn2a5, 500, seed=1)
        b = monte_carlo_nonbase(inn2a5, 500, seed=1)
        assert a == b
        assert a["fraction"] == 1.0

    def test_unbiased_over_seeds(self, A5):
        g = build_group(A5, 3, "inner", "alt-table")
        exact = float(exact_nonbase_pair_proportion(g))
        samples = 400
        means = [monte_carlo_nonbase(g, samples, seed=s)["fraction"]
                 for s in range(30)]
        mean = sum(means) / len(means)
        sigma = sqrt(exact * (1 - exact) / (samples * len(means)))
        assert abs(mean - exact) <= 3 * sigma

    def test_symbolic_top_path(self, A5):
        g = build_group(A5, 6, "full", "sym")
        out = monte_carlo_nonbase(g, 30, seed=3)
        assert 0.0 <= out["fraction"] <= 1.0

    @pytest.mark.parametrize("k,sym_hits,alt_hits", [
        (6, 54, 7), (8, 84, 11), (10, 106, 33), (12, 142, 52)])
    def test_symbolic_hits_pinned(self, A5, k, sym_hits, alt_hits):
        # hit counts of seed 4242, 200 samples, as first recorded
        for top, hits in (("sym", sym_hits), ("alt", alt_hits)):
            g = build_group(A5, k, "full", top)
            assert monte_carlo_nonbase(g, 200, seed=4242)["hits"] == hits

    def test_symbolic_hits_pinned_l27(self, L27):
        g = build_group(L27, 9, "full", "alt")
        assert monte_carlo_nonbase(g, 500, seed=4242)["hits"] == 5

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_batched_symbolic_matches_per_sample_solver(self, name, top):
        # both out parts; dense k, where blocks of samples are smallest
        T = get_group(name)
        ks = (3, 4, 5, 7, 10, 14, 20) + {"A5": (40, 57), "L2(7)": (150,)}[name]
        for out_part in ("full", "inner"):
            for k in ks:
                g = build_group(T, k, out_part, top)
                for seed in (1, 2, 3):
                    tuples = _symbolic_samples(T, k, 40, seed)
                    want = [0 if _solve_symbolic(g, t[None]) is None
                            else 1 for t in tuples]
                    assert _detect_nonbase(g, tuples).tolist() == want

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    def test_batched_symbolic_calls_solver_only_for_alt_survivors(
            self, name, monkeypatch):
        # a survivor is a nonidentity f(x) = y alpha(x) preserving the
        # entries: read off the Sym(k)-table stabilizer as an element whose
        # alpha is not the identity or which moves the identity entry
        T = get_group(name)
        ident = T.aut.identity_row
        cases = []
        for k in (3, 4, 5, 6):
            tuples = _symbolic_samples(T, k, 60, k)
            g_sym = build_group(T, k, "full", "sym")
            g_table = build_group(T, k, "full", symmetric_table(k))
            want = []
            for t in tuples:
                counts = np.bincount(t)
                if counts.max() > 2 or (counts == 2).sum() > 1:
                    continue
                stab = pointwise_stabilizer(g_table, [OmegaPoint(tuple(
                    t.tolist()))])
                if any(a != ident or t[p.images[0]] != 0 for a, p in stab):
                    want.append(tuple(t.tolist()))
            cases.append((g_sym, build_group(T, k, "full", "alt"), tuples,
                          want))
        assert sum(len(want) for *_, want in cases) > 0

        calls = []
        solve = baseengine._solve_symbolic

        def spy(g, tuples):
            calls.append(tuple(tuples[0].tolist()))
            return solve(g, tuples)
        monkeypatch.setattr(baseengine, "_solve_symbolic", spy)
        for g_sym, g_alt, tuples, want in cases:
            _detect_nonbase(g_sym, tuples)
            assert calls == []
            _detect_nonbase(g_alt, tuples)
            assert calls == want
            calls.clear()

    def test_large_k_cyclic_small_fraction(self, A5):
        g = build_group(A5, 37, "full", "cyclic")
        out = monte_carlo_nonbase(g, 2000, seed=0x5EED)
        assert out["fraction"] < 0.05


class TestFormulas:
    def test_identity_centralizer_is_group(self, w2a5):
        c = centralizer_order_formula(w2a5, w2a5.T.aut.identity_row,
                                      Perm.identity(2))
        assert c == w2a5.order

    def test_transposition_fpf_case(self, A5, w2a5):
        # alpha = 1, pi = (1 2) at k = 2: fixed-point-free branch
        c = centralizer_order_formula(w2a5, A5.aut.identity_row,
                                      Perm.parse("(1 2)", 2))
        assert c == 2 * 2 * 60
        rc = RowCodedGroup(w2a5)
        pid = w2a5.top.table.position(Perm.parse("(1 2)", 2))
        brute = rc.centralizer_count(((A5.aut.identity_row,) * 2, pid))
        assert c == brute

    def test_composite_rejected(self, A5, w2a5):
        six = int(np.where(
            A5.aut.group_table().element_orders() == 6)[0][0])
        with pytest.raises(PreconditionError):
            centralizer_order_formula(w2a5, six, Perm.parse("(1 2)", 2))

    def test_intersection_identity(self, w2a5):
        c = class_intersection_formula(w2a5, w2a5.T.aut.identity_row,
                                       Perm.identity(2))
        assert c == 1

    def test_intersection_fixed_point_free(self, A5, w2a5):
        # (1,1)(1 2) meets G_D in (b,b)(1 2) for the 16 b of A5 with
        # b^2 = 1; an alpha of order 3 or 5 makes the order composite
        assert class_intersection_formula(
            w2a5, A5.aut.identity_row, Perm.parse("(1 2)", 2)) == 16
        three = int(np.flatnonzero(A5.aut.orders == 3)[0])
        with pytest.raises(PreconditionError):
            class_intersection_formula(w2a5, three, Perm.parse("(1 2)", 2))

    def test_intersection_transposition_k3(self, A5):
        g = build_group(A5, 3, "full", "sym-table")
        rc = RowCodedGroup(g)
        pid = g.top.table.position(Perm.parse("(1 2)", 3))
        found = [cls for cls in rc.class_data()
                 if cls["rep"] == ((A5.aut.identity_row,) * 3, pid)]
        assert found
        formula = class_intersection_formula(
            g, A5.aut.identity_row, Perm.parse("(1 2)", 3))
        assert formula == len(found[0]["diag_members"]) == 3

    def test_intersection_double_counting(self, A5):
        # summing |class ^ G_D| over classes recovers the number of
        # prime-order diagonal elements
        g = build_group(A5, 3, "inner", "sym-table")
        rc = RowCodedGroup(g)
        total = sum(len(c["diag_members"]) for c in rc.class_data())
        cand_a, _, _ = prime_order_candidates(g)
        assert total == len(cand_a)

    def test_formula_matches_brute_on_w2a5(self, w2a5):
        rc = RowCodedGroup(w2a5)
        for cls in rc.class_data():
            want = rc.order // cls["size"]
            for m in cls["diag_members"]:
                perm = w2a5.top.table.element(m[1])
                assert centralizer_order_formula(w2a5, m[0][0], perm) == want
                assert class_intersection_formula(
                    w2a5, m[0][0], perm) == len(cls["diag_members"])

    @pytest.mark.parametrize("name,k,out_part,top", [
        ("A5", 3, "inner", "alt-table"), ("L2(7)", 2, "full", "sym-table"),
        ("A6", 2, "full", "sym-table"),
    ])
    def test_fixed_point_free_intersection_matches_walk(
            self, name, k, out_part, top):
        g = build_group(get_group(name), k, out_part, top)
        fpf = 0
        for cls in RowCodedGroup(g).class_data():
            a, pid = cls["rep"][0][0], cls["rep"][1]
            perm = g.top.table.element(pid)
            if not perm.fixed_points():
                assert class_intersection_formula(g, a, perm) == \
                    len(cls["diag_members"])
                fpf += 1
        assert fpf > 0


class TestClassCountInequality:
    def test_a5_in_s5(self):
        from diagbase.perm import alternating_table
        pairs = [(alternating_table(5), symmetric_table(5))]
        out = class_count_inequality_check(pairs)
        assert out[0]["holds"] and out[0]["index"] == 2

    def test_self_pair(self):
        s = symmetric_table(4)
        out = class_count_inequality_check([(s, s)])
        assert out[0]["holds"] and out[0]["index"] == 1

    def test_c5_in_a5(self):
        from diagbase.perm import alternating_table
        out = class_count_inequality_check(
            [(cyclic_table(5), alternating_table(5))])
        assert out[0]["holds"]

    def test_not_subgroup_rejected(self):
        with pytest.raises(PreconditionError):
            class_count_inequality_check(
                [(cyclic_table(4), symmetric_table(5))])


class TestRowCodedGroup:
    def test_order(self, w2a5):
        rc = RowCodedGroup(w2a5)
        assert rc.order == 14400
        rows, pids = rc.enumerate_arrays()
        assert len(rows) == 14400

    @pytest.mark.parametrize("k,out_part", [(2, "full"), (3, "inner")])
    def test_generator_inverses_undo_conjugation(self, A5, k, out_part):
        # W(2, A5) and Inn(A5)^3:S3: s^-1 x s, then conjugated by the s^-1
        # that generators() pairs with s, is x again
        rc = RowCodedGroup(build_group(A5, k, out_part, "sym-table"))
        moved = False
        for cls in rc.class_data():
            rows = np.array([r for r, _p in cls["diag_members"]])
            pids = np.array([p for _r, p in cls["diag_members"]])
            for s, s_inv in rc.generators():
                there = rc._conjugates(rows, pids, s, s_inv)
                back = rc._conjugates(*there, s_inv, s)
                assert np.array_equal(back[0], rows)
                assert np.array_equal(back[1], pids)
                moved |= not np.array_equal(there[0], rows)
        assert moved

    def test_conjugation_preserves_diagonality_count(self, w2a5):
        rc = RowCodedGroup(w2a5)
        classes = rc.class_data()
        assert sum(len(c["diag_members"]) for c in classes) == \
            len(prime_order_candidates(w2a5)[0])

    # class counts and sorted sizes, as the tuple-by-tuple walk that the
    # array walk replaced computed them
    @pytest.mark.parametrize("name,k,out_part,top,sizes", [
        ("A5", 2, "full", "sym-table", [60, 60, 100, 225, 288, 400]),
        ("L27", 2, "full", "sym-table", [168, 168, 441, 784, 1152, 3136]),
        ("A5", 3, "inner", "alt-table",
         [1728, 1728, 3375, 3600, 3600, 8000]),
    ])
    def test_class_sizes_pinned(self, request, name, k, out_part, top,
                                sizes):
        g = build_group(request.getfixturevalue(name), k, out_part, top)
        classes = RowCodedGroup(g).class_data()
        assert sorted(c["size"] for c in classes) == sizes

    def test_classes_obey_orbit_stabilizer(self, A5):
        rc = RowCodedGroup(build_group(A5, 3, "inner", "alt-table"))
        for cls in rc.class_data():
            assert cls["size"] * rc.centralizer_count(cls["rep"]) == rc.order
            rows, pid = cls["rep"]
            assert (rows, pid) in cls["diag_members"]
            assert all(len(set(m[0])) == 1 for m in cls["diag_members"])

    def test_class_walk_budget(self, A5):
        g = build_group(A5, 3, "inner", "alt-table")
        with pytest.raises(BudgetExceededError):
            r_split_exact(g, budget=5000)
        # 22,031 members in all
        assert sum(r_split_exact(g, budget=22031)) == q2_bound_exact(g)
        with pytest.raises(BudgetExceededError):
            r_split_exact(g, budget=22030)

    def test_top_product_table_refused_before_building(self, A5):
        # 5040^2 x 7 composed top rows would take 711 MB
        g = build_group(A5, 7, "full", "sym-table")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="5040"):
                r_split_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_codes_must_fit_int64(self, A5):
        # 120^11 * 11 aut-row and perm codes exceed 2^63
        g = build_group(A5, 11, "full", "cyclic")
        with pytest.raises(PreconditionError):
            RowCodedGroup(g).class_data()
