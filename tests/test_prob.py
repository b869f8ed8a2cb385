import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm, sqrt

import numpy as np
import pytest

from diagbase import _accel, baseengine, cli, prob
from diagbase.baseengine import _solve_symbolic, pointwise_stabilizer
from diagbase.catalog import catalog_names, get_group
from diagbase.diag import (DiagTypeGroup, OmegaPoint, build_group,
                           gd_orbit_reps, gd_orbits, make_top, omega_tuples)
from diagbase.errors import BudgetExceededError, PreconditionError
from diagbase.perm import Perm, symmetric_table, cyclic_table
from diagbase.prob import (RowCodedGroup, _detect_nonbase,
                           centralizer_order_formula,
                           class_count_inequality_check,
                           class_intersection_formula,
                           exact_nonbase_pair_proportion, monte_carlo_nonbase,
                           prime_order_candidates, q2_bound_by_classes,
                           q2_bound_exact, r_split_exact, r_split_formula)

import split_oracle

# the explicit tops that the split formula is pinned to its listing on
SPLIT_TOPS = ([("sym-table", k) for k in range(2, 7)]
              + [("alt-table", k) for k in range(3, 7)]
              + [(top, k) for top in ("cyclic", "dihedral")
                 for k in (3, 5, 7, 37)]
              + [("trivial", 2)])

# the prob-exact shapes of the benchmark's prob-sweep, plus A5 k=4 full
# alt-table (216,000 points) and six larger shapes (0.07-0.64 s each on a
# 2-CPU VM)
ORBIT_SCAN_SHAPES = [
    ("A5", 2, "inner", "trivial"),
    ("A6", 2, "full", "sym-table"), ("A6", 2, "inner", "trivial"),
    ("L2(7)", 2, "inner", "trivial"),
    ("L2(8)", 2, "full", "sym-table"),
    ("L2(11)", 2, "full", "sym-table"),
    ("A5", 3, "full", "sym-table"), ("L2(7)", 3, "full", "alt-table"),
    ("A5", 4, "full", "alt-table"),
    ("L2(7)", 3, "full", "sym-table"),
    ("A6", 3, "inner", "alt-table"), ("A6", 3, "full", "alt-table"),
    ("L2(8)", 3, "full", "alt-table"),
    ("A5", 4, "full", "sym-table"),
    ("L2(11)", 3, "inner", "alt-table"),
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


def _frac(r):
    """A report's {num, den} rational as a Fraction."""
    return Fraction(int(r["num"]), int(r["den"]))


@pytest.fixture(scope="module")
def w2a5(A5):
    return build_group(A5, 2, "full", "sym-table")


@pytest.fixture(scope="module")
def inn2a5(A5):
    return build_group(A5, 2, "inner", "sym-table")


class TestFixingElements:
    def test_tags_partition(self, A5, w2a5):
        # the R-tag of each class is read off its seed's permutation part,
        # and every diagonal member's perm has the same fixed points; k = 3
        # adds the nontrivial ones with a fixed point
        seen = set()
        for g in (w2a5, build_group(A5, 3, "full", "sym-table")):
            for cls in RowCodedGroup(g).class_data():
                for _rows, pid in cls["diag_members"]:
                    p = g.top.table.element(pid)
                    if p.is_identity():
                        assert cls["tag"] == 2
                    elif not p.fixed_points():
                        assert cls["tag"] == 1
                    else:
                        assert cls["tag"] == 3
                seen.add(cls["tag"])
        assert seen == {1, 2, 3}

    def test_cycle_statistics(self, A5):
        # p * (number of nontrivial cycles) + fixed points = k for each
        # prime-order element
        g = build_group(A5, 3, "full", "sym-table")
        cand_a, cand_p = prime_order_candidates(g)
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
    # aut part's and the perm part's, is prime; each listed once
    g = build_group(get_group(name), k, out, top)
    aut_orders = g.T.aut.group_table().element_orders().tolist()
    perms = list(g.top.table)
    perm_orders = [p.order() for p in perms]
    want = set()
    for i in range(g.gd_order):
        row, pid = divmod(i, len(perms))
        a = int(g.aut_rows[row])
        if _is_prime_by_division(lcm(aut_orders[a], perm_orders[pid])):
            want.add((a, pid))
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

    # the first nine orbit-scan shapes: the benchmark's prob-exact shapes
    # and A5 k=4 full alt-table
    @pytest.mark.parametrize("name,k,out_part,top", ORBIT_SCAN_SHAPES[:9])
    def test_sums_to_scanned_bound(self, name, k, out_part, top):
        # the split's sum, as q2_bound_exact reports it, against the
        # prime-order elements of G_D fixing each point of omega_tuples
        g = build_group(get_group(name), k, out_part, top)
        scanned = Fraction(int(_all_point_counts(g).sum()), g.degree)
        assert sum(r_split_formula(g)) == q2_bound_exact(g) == scanned

    def test_past_the_point_budget(self, A5):
        # 12,960,000 points, past the walk's 10^7 default budget: the
        # fraction is refused, and the bound reads no point
        g = build_group(A5, 5, "full", "cyclic")
        with pytest.raises(BudgetExceededError):
            exact_nonbase_pair_proportion(g)
        assert q2_bound_exact(g) == Fraction(449, 162000)
        r1, r2, r3 = r_split_formula(g)
        assert r3 == 0      # a 5-cycle or the identity: no mixed part
        assert r1 + r2 == Fraction(449, 162000)

    def test_top_tally_built_once_per_table(self, A5, monkeypatch):
        # the top's (order, fixed points) tally is kept on its table: one
        # build however often the split is taken, shared by the out parts
        builds = []

        def spy(pairs):
            builds.append(1)
            return Counter(pairs)
        monkeypatch.setattr("diagbase.perm.Counter", spy)
        top = make_top("sym-table", 4)
        groups = [DiagTypeGroup(A5, 4, out, top) for out in ((0,), (0, 1))]
        first = [r_split_formula(g) for g in groups]
        assert [r_split_formula(g) for g in groups] == first
        assert len(builds) == 1
        assert first == [split_oracle.r_split(g) for g in groups]

    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_symbolic_top_rejected(self, A5, top):
        with pytest.raises(PreconditionError):
            r_split_formula(build_group(A5, 5, "full", top))

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_listing(self, name):
        # the tallies against the grouped candidate listing, on every out
        # part and SPLIT_TOPS: 288 shapes over the five groups
        T = get_group(name)
        outs = ["inner", "full"] + [
            f"g{i + 1}" for i in range(len(T.record.aut_generators))]
        differ = [(out, top, k) for out in outs for top, k in SPLIT_TOPS
                  if r_split_formula(g := build_group(T, k, out, top))
                  != split_oracle.r_split(g)]
        assert not differ

    def test_matches_listing_on_a_large_top(self, A6):
        # 40,320 perms and 58M elements of G_D
        g = build_group(A6, 8, "full", "sym-table")
        assert r_split_formula(g) == split_oracle.r_split(g)

    def test_lists_no_candidates(self, A5, monkeypatch):
        g = build_group(A5, 3, "full", "sym-table")
        want = split_oracle.r_split(g)

        def refuse(_g):
            raise AssertionError("the split formula listed the candidates")
        monkeypatch.setattr(prob, "prime_order_candidates", refuse)
        assert r_split_formula(g) == want

    def test_exact_quantities_list_no_candidates(self, A5, capsys,
                                                 monkeypatch):
        # the walk and the formula give the pinned values with the listing
        # refused, in the library and through prob-exact
        g = build_group(A5, 3, "full", "sym-table")

        def refuse(_g):
            raise AssertionError("the exact quantities listed candidates")
        monkeypatch.setattr(prob, "prime_order_candidates", refuse)
        assert exact_nonbase_pair_proportion(g) == Fraction(4, 5)
        assert q2_bound_exact(g) == Fraction(1157, 600)
        argv = ["prob-exact", "--group", "A5,L2(7)", "--k", "3", "--top",
                "alt-table"]
        want = [(Fraction(1, 5), Fraction(377, 600),
                 [Fraction(49, 200), Fraction(23, 60), 0]),
                (Fraction(1, 7), Fraction(1951, 4704),
                 [Fraction(361, 1568), Fraction(31, 168), 0])]
        for r_split in (False, True):
            assert cli.main(argv + ["--r-split"] * r_split) == 0
            payload = json.loads(capsys.readouterr().out)["payload"]
            assert len(payload) == len(want)
            for entry, (fraction, bound, split) in zip(payload, want):
                assert _frac(entry["exact_nonbase_pair_fraction"]) == fraction
                assert _frac(entry["q2_bound"]) == bound
                if r_split:
                    assert [_frac(r) for r in entry["r_split"]] == split
                else:
                    assert entry["r_split"] is None

    @pytest.mark.parametrize("name", catalog_names())
    def test_out_tally_kept_and_brute_forced(self, name):
        # per out part, the kept tally of the aut rows by (order,
        # |C_Inn(alpha)|, label) against powering each row; and N(label, p)
        # read off it against the count over the rows
        T = get_group(name)
        aut, ident = T.aut, np.arange(T.order)
        outs = ["inner", "full"] + [
            f"g{i + 1}" for i in range(len(T.record.aut_generators))]
        for out in outs:
            g = build_group(T, 2, out, "trivial")
            want = Counter()
            for r in g.aut_rows.tolist():
                row, power, order = aut.rows[r], aut.rows[r], 1
                while not np.array_equal(power, ident):
                    power, order = row[power], order + 1
                want[order, int(np.count_nonzero(row == ident)),
                     int(aut.labels[r])] += 1
            tally = aut.out_tally(g.out_labels)
            assert dict(tally) == want
            assert aut.out_tally(g.out_labels) is tally
            for label in g.out_labels:
                for p in (2, 3, 5, 7, 11):
                    assert prob._fpf_diagonal_count(g, label, p) == \
                        split_oracle.fpf_diagonal_count(g, label, p)


def _all_point_counts(g):
    """Per point of omega_tuples, the prime-order elements of G_D fixing
    it: the scan over every point, the oracle for the orbit scan."""
    cand_a, cand_p = prime_order_candidates(g)
    return _accel.count_per_tuple(g.T, g.top.table.arrays(), cand_a, cand_p,
                                  omega_tuples(g))


class TestOrbitScan:
    @pytest.mark.parametrize("name,k,out_part,top", ORBIT_SCAN_SHAPES)
    def test_matches_all_points_scan(self, name, k, out_part, top):
        # the walk's fraction and the split formula's bound, against the
        # prime-order elements of G_D fixing each point of omega_tuples
        g = build_group(get_group(name), k, out_part, top)
        counts = _all_point_counts(g)
        assert exact_nonbase_pair_proportion(g) == \
            Fraction(int(np.count_nonzero(counts)), g.degree)
        assert q2_bound_exact(g) == Fraction(int(counts.sum()), g.degree)

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
                                for row, stab in gd_orbits(g)]).T
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

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_symbolic_hits_pinned(self, A5, k):
        # hit counts of seed 4242, 200 samples, drawn from random.Random;
        # the counts stay out of the test ids, so that re-recording a
        # stream renames no test
        pinned = {6: {"sym": 55, "alt": 11}, 8: {"sym": 69, "alt": 9},
                  10: {"sym": 109, "alt": 26}, 12: {"sym": 143, "alt": 42}}
        for top, hits in pinned[k].items():
            g = build_group(A5, k, "full", top)
            assert monte_carlo_nonbase(g, 200, seed=4242)["hits"] == hits

    def test_symbolic_hits_pinned_l27(self, L27):
        g = build_group(L27, 9, "full", "alt")
        assert monte_carlo_nonbase(g, 500, seed=4242)["hits"] == 8

    @pytest.mark.parametrize("name,k,top,hits", [
        ("A5", 5, "dihedral", (10, 6, 10)), ("A5", 37, "cyclic", (0, 0, 0)),
        ("A5", 37, "dihedral", (0, 0, 0)), ("A6", 5, "cyclic", (0, 0, 0)),
        ("A6", 37, "dihedral", (0, 0, 0)), ("L2(7)", 5, "cyclic", (0, 0, 0)),
        ("L2(7)", 37, "dihedral", (0, 0, 0)),
        ("L2(8)", 5, "dihedral", (0, 0, 1)),
        ("L2(8)", 37, "cyclic", (0, 0, 0)),
        ("L2(11)", 5, "dihedral", (0, 1, 0)),
        ("L2(11)", 37, "cyclic", (0, 0, 0)),
        ("A5", 2, "sym-table", (200, 200, 200)),
        ("A5", 3, "sym-table", (157, 162, 162)),
        ("L2(7)", 2, "sym-table", (200, 200, 200))])
    def test_explicit_hits_pinned(self, name, k, top, hits):
        # the explicit-top prob-mc shapes of the benchmark's prob-sweep, full
        # out part, 200 samples, seeds 1-3, drawn from random.Random
        g = build_group(get_group(name), k, "full", top)
        assert tuple(monte_carlo_nonbase(g, 200, seed)["hits"]
                     for seed in (1, 2, 3)) == hits

    @pytest.mark.parametrize("name,k,top,samples,seeds,hits", [
        # test_symbolic_hits_pinned and its L2(7) case
        *[("A5", k, top, 200, (4242,), (hits,)) for k, top, hits in (
            (6, "sym", 54), (6, "alt", 7), (8, "sym", 84), (8, "alt", 11),
            (10, "sym", 106), (10, "alt", 33), (12, "sym", 142),
            (12, "alt", 52))],
        ("L2(7)", 9, "alt", 500, (4242,), (5,)),
        # test_explicit_hits_pinned
        *[(name, k, top, 200, (1, 2, 3), hits) for name, k, top, hits in (
            ("A5", 5, "dihedral", (2, 4, 5)),
            ("A5", 37, "cyclic", (0, 0, 0)),
            ("A5", 37, "dihedral", (0, 0, 0)),
            ("A6", 5, "cyclic", (0, 0, 0)),
            ("A6", 37, "dihedral", (0, 0, 0)),
            ("L2(7)", 5, "cyclic", (0, 0, 0)),
            ("L2(7)", 37, "dihedral", (0, 0, 0)),
            ("L2(8)", 5, "dihedral", (0, 1, 0)),
            ("L2(8)", 37, "cyclic", (0, 0, 0)),
            ("L2(11)", 5, "dihedral", (0, 0, 0)),
            ("L2(11)", 37, "cyclic", (0, 0, 0)),
            ("A5", 2, "sym-table", (200, 200, 200)),
            ("A5", 3, "sym-table", (153, 161, 168)),
            ("L2(7)", 2, "sym-table", (200, 200, 200)))],
        # the tier1.yml Monte Carlo steps: large explicit tops at the
        # default seed, and symbolic tops at seed 3
        ("A5", 7, "sym-table", 10000, (prob.DEFAULT_SEED,), (3101,)),
        ("A6", 8, "sym-table", 200, (prob.DEFAULT_SEED,), (14,)),
        ("L2(11)", 5, "dihedral", 10000, (prob.DEFAULT_SEED,), (17,)),
        ("A5", 12, "alt", 5000, (3,), (1353,)),
        ("L2(7)", 9, "alt", 5000, (3,), (67,)),
        ("A5", 6, "alt", 5000, (3,), (197,)),
        ("L2(11)", 7, "alt", 2000, (3,), (1,)),
        ("L2(7)", 6, "sym", 5000, (3,), (467,))])
    def test_numpy_stream_hits_kept(self, name, k, top, samples, seeds,
                                    hits):
        # the hit counts pinned while monte_carlo_nonbase drew from
        # numpy's PCG64, seeded by the one child of SeedSequence(seed):
        # the detector still gives every one on those points
        g = build_group(get_group(name), k, "full", top)
        got = []
        for seed in seeds:
            (stream,) = np.random.SeedSequence(seed).spawn(1)
            tuples = np.zeros((samples, k), dtype=np.int32)
            tuples[:, 1:] = np.random.default_rng(stream).integers(
                0, g.T.order, size=(samples, k - 1), dtype=np.int32)
            got.append(int(_detect_nonbase(g, tuples).sum()))
        assert tuple(got) == hits

    @pytest.mark.parametrize("name", ["A5", "L2(7)", "L2(11)"])
    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_batched_symbolic_matches_per_sample_solver(self, name, top):
        # both out parts; dense k, where blocks of samples are smallest,
        # and L2(11) up to k = 40, where the key classes split most
        T = get_group(name)
        ks = (3, 4, 5, 7, 10, 14, 20) + {"A5": (40, 57), "L2(7)": (150,),
                                         "L2(11)": (28, 40)}[name]
        for out_part in ("full", "inner"):
            for k in ks:
                g = build_group(T, k, out_part, top)
                for seed in (1, 2, 3):
                    tuples = _symbolic_samples(T, k, 40, seed)
                    want = [0 if _solve_symbolic(g, t[None]) is None
                            else 1 for t in tuples]
                    assert _detect_nonbase(g, tuples).tolist() == want

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    def test_batched_symbolic_never_calls_solver(self, name, monkeypatch):
        # a survivor is a map f(x) = y alpha(x) preserving the entries,
        # read off the Sym(k)-table stabilizer as (alpha, t[pi(0)]).  Alt
        # verdicts must be the table's (an even nonidentity element) on
        # samples with one survivor, two (pi even and pi odd) and three or
        # more, with and without one repeated pair, all without the solver
        T = get_group(name)
        ident = T.aut.identity_row
        cases, kinds = [], set()
        for k in (3, 4, 5, 6):
            rng = np.random.default_rng(k)
            tuples = np.vstack([_symbolic_samples(T, k, 60, k), [
                [0, *rng.choice(np.arange(1, T.order), k - 1, replace=False)]
                for _ in range(60)]]).astype(np.int32)
            g_table = build_group(T, k, "full", "sym-table")
            want = {"sym": [], "alt": []}
            for t in tuples.tolist():
                stab = pointwise_stabilizer(g_table, [OmegaPoint(tuple(t))])
                want["sym"].append(int(len(stab) > 1))
                want["alt"].append(int(any(
                    p.sign() == 1 and not (a == ident and p.is_identity())
                    for a, p in stab)))
                maps = {(a, t[p.images[0]]) for a, p in stab}
                repeats = k - len(set(t))
                if repeats < 2:
                    kinds.add((repeats, min(len(maps), 3), want["alt"][-1]))
            cases.append((k, tuples, want))
        # (repeats, survivors, alt hit): 1 and 2 survivors of both
        # parities, 3 or more, and one repeated pair with and without a
        # second survivor
        assert {(0, 1, 0), (0, 2, 0), (0, 2, 1), (0, 3, 1), (1, 1, 0),
                (1, 2, 1)} <= kinds

        def solver(g, tuples):
            raise AssertionError("the detector called the solver")
        monkeypatch.setattr(baseengine, "_solve_symbolic", solver)
        for k, tuples, want in cases:
            for top in ("sym", "alt"):
                g = build_group(T, k, "full", top)
                assert _detect_nonbase(g, tuples).tolist() == want[top]

    @pytest.mark.parametrize("name", ["A5", "L2(7)"])
    @pytest.mark.parametrize("top", ["sym", "alt"])
    def test_uniform_samples_skip_the_row_test(self, name, top,
                                               monkeypatch):
        # samples listing every element of T once (k = |T|) or twice
        # (k = 2|T|) are hits, as every (alpha, y) keeps them, and never
        # reach the row test.  Among them: random samples, and at k = |T|
        # samples with one repeated pair, which the Alt row test reads.
        # Verdicts as the per-sample solver's
        T = get_group(name)
        n = T.order
        survivors = baseengine._histogram_survivors
        seen = []

        def spy(g, hist):
            seen.extend(hist.tolist())
            return survivors(g, hist)
        monkeypatch.setattr(baseengine, "_histogram_survivors", spy)
        for k in (n, 2 * n):
            rng = np.random.default_rng(k)
            tuples = rng.integers(0, n, (9, k), dtype=np.int32)
            for row in tuples[::3]:                 # uniform
                row[1:] = rng.permutation(np.arange(1, k) % n)
            for row in tuples[1::3] if k == n else ():  # one repeated pair
                row[1:] = rng.permutation(np.arange(1, n))
                row[-1] = row[1]
            tuples[:, 0] = 0
            g = build_group(T, k, "full", top)
            want = [0 if _solve_symbolic(g, t[None]) is None else 1
                    for t in tuples]
            assert _detect_nonbase(g, tuples).tolist() == want
            assert want[::3] == [1, 1, 1]
        assert len(seen) == (3 if top == "alt" else 0)
        assert all(len(set(row)) > 1 for row in seen)

    def test_large_k_cyclic_small_fraction(self, A5):
        g = build_group(A5, 37, "full", "cyclic")
        out = monte_carlo_nonbase(g, 2000, seed=0x5EED)
        assert out["fraction"] < 0.05


def _draw(rng, n, samples, k):
    """Every block of ``prob._sample_tuples``, stacked."""
    return np.concatenate(list(prob._sample_tuples(rng, n, samples, k)))


class TestSampler:
    @pytest.mark.parametrize("n", [60, 168, 360, 504, 660, 2520])
    def test_ids_uniform(self, n):
        tuples = _draw(random.Random(n), n, 20000, 11)
        assert tuples.dtype == np.int32 and not tuples[:, 0].any()
        counts = np.bincount(tuples[:, 1:].ravel(), minlength=n)
        assert len(counts) == n
        # chi-square on n - 1 degrees of freedom, within 5 of its sigmas
        want = tuples[:, 1:].size / n
        chi2 = float(((counts - want) ** 2).sum() / want)
        assert abs(chi2 - (n - 1)) <= 5 * sqrt(2 * (n - 1))

    def test_rejected_words_drawn_again(self):
        # a first draw of all-ones words, each at or past q * n, is wholly
        # rejected; the block is drawn again in full, and from then on the
        # stream is the plain generator's
        class Rejecting:
            def __init__(self, seed):
                self.rng, self.calls = random.Random(seed), []

            def getrandbits(self, bits):
                self.calls.append(bits)
                if len(self.calls) == 1:
                    return (1 << bits) - 1
                return self.rng.getrandbits(bits)

        stub = Rejecting(5)
        tuples = _draw(stub, 60, 100, 7)
        assert np.array_equal(tuples, _draw(random.Random(5), 60, 100, 7))
        assert stub.calls == [32 * 300] * 2

    def test_stream_independent_of_block_size(self, monkeypatch):
        # n = 660 rejects 196 of the 2^16 halves, so refills land inside
        # the blocks at 61- and 64-entry chunks as well as at the default;
        # the blocks, stacked, are the same points
        draws = []
        for chunk in (_accel._CHUNK_PAIRS, 61, 64):
            monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
            blocks = list(prob._sample_tuples(random.Random(9), 660, 2000, 7))
            assert len(blocks[0]) == min(2000, chunk // 7)
            draws.append(np.concatenate(blocks))
        assert all(np.array_equal(draws[0], d) for d in draws[1:])

    def test_same_seed_same_tuples(self, A5):
        first, again, other = (_draw(random.Random(s), 60, 300, 9)
                               for s in (11, 11, 12))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)
        g = build_group(A5, 9, "full", "alt")
        assert monte_carlo_nonbase(g, 300, 11) == \
            monte_carlo_nonbase(g, 300, 11)

    def test_no_samples_refused(self, A5):
        g = build_group(A5, 5, "full", "dihedral")
        with pytest.raises(PreconditionError, match="at least one sample"):
            monte_carlo_nonbase(g, 0)

    def test_negative_seed_refused(self, A5):
        g = build_group(A5, 5, "full", "dihedral")
        with pytest.raises(PreconditionError, match="seed"):
            monte_carlo_nonbase(g, 10, seed=-1)

    def test_draw_holds_no_sample_sized_temporary(self):
        # 10^7 ids (40 MB as one int32 matrix), block-sized arrays only
        rows = 0
        tracemalloc.start()
        for block in prob._sample_tuples(random.Random(0), 2520, 10**6, 11):
            rows += len(block)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rows == 10**6 and peak <= 2 * 2**20

    def test_monte_carlo_memory_independent_of_samples(self, A5):
        # A5 k=3000 sym: 10^4 samples are 120 MB as one tuple matrix, but
        # are drawn and tested a block at a time
        g = build_group(A5, 3000, "full", "sym")
        tracemalloc.start()
        out = monte_carlo_nonbase(g, 10**4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out["hits"] == 10**4 and peak <= 8 * 2**20

    def test_no_numpy_random_loaded(self):
        # a fresh process, since tests here import numpy.random; a bare
        # ``import numpy`` loads it in numpy 1.x, so only the modules past
        # those count
        code = ("import contextlib, io, sys\n"
                "import numpy\n"
                "bare = {m for m in sys.modules if 'numpy.random' in m}\n"
                "from diagbase.cli import main\n"
                "for argv in (\n"
                "        ['prob-mc', '--group', 'A5', '--k', '3',\n"
                "         '--top', 'sym-table', '--samples', '200'],\n"
                "        ['prob-mc', '--group', 'A5', '--k', '8',\n"
                "         '--top', 'alt', '--samples', '200'],\n"
                "        ['base-construct', '--group', 'A5', '--k', '37',\n"
                "         '--top', 'cyclic'],\n"
                "        ['paper-suite', '--criteria', '3,5']):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules\n"
                "             if 'numpy.random' in m and m not in bare))\n")
        src = os.path.dirname(os.path.dirname(prob.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


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

    def test_aut_row_outside_the_out_part_rejected(self, A5):
        inner = build_group(A5, 2, "inner", "sym-table")
        outer = int(np.flatnonzero(A5.aut.labels != 0)[0])
        with pytest.raises(PreconditionError, match="outside the out-part"):
            centralizer_order_formula(inner, outer, Perm.identity(2))

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
        cand_a, _ = prime_order_candidates(g)
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

    @pytest.mark.parametrize("k,out_part,n_moved", [(2, "full", 2),
                                                    (3, "inner", 3)])
    def test_moved_perm_centralizers(self, A5, k, out_part, n_moved):
        # every class with a moved perm in W(2, A5) and Inn(A5)^3:S3: the
        # scan of C_G(x) skips the top perms that do not commute with x's,
        # which at k = 3 is most of S3, and it agrees with orbit-stabilizer
        # and the formula
        g = build_group(A5, k, out_part, "sym-table")
        rc = RowCodedGroup(g)
        classes = [c for c in rc.class_data() if c["rep"][1]]
        assert len(classes) == n_moved
        for cls in classes:
            (a, *_), pid = cls["rep"]
            assert rc.centralizer_count(cls["rep"]) == \
                rc.order // cls["size"] == \
                centralizer_order_formula(g, a, g.top.table.element(pid))

    def test_class_walk_budget(self, A5, monkeypatch):
        g = build_group(A5, 3, "inner", "alt-table")
        # 22,031 members in all
        monkeypatch.setattr(prob, "CLASS_WALK_BUDGET", 22031)
        rc = RowCodedGroup(g)
        classes = rc.class_data()
        assert sum(c["size"] for c in classes) == 22031
        assert rc.class_data() is classes
        assert sum(r_split_exact(g)) == q2_bound_exact(g)
        monkeypatch.setattr(prob, "CLASS_WALK_BUDGET", 22030)
        with pytest.raises(BudgetExceededError, match="22030 members"):
            r_split_exact(g)

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
