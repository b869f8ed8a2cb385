from itertools import islice, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbase import diag
from diagbase.catalog import (ELEMENT_BUDGET, catalog_names,
                              default_catalog_text, get_group, load_catalog)
from diagbase.baseengine import (_fixing_candidates,
                                 pointwise_stabilizer_by_action)
from diagbase.diag import (GROUP_MEMO_CAP, DiagTypeGroup, GroupMemo,
                           OmegaPoint, act_diag, build_group, gd_orbit_reps,
                           gd_orbits, group_weight, make_top, omega_iter,
                           omega_tuples, resolve_out_part, stab_of_D)
from diagbase.prob import prime_order_candidates
from diagbase.report import int_str
from diagbase.errors import (BudgetExceededError, InvalidTopError,
                             PreconditionError, UnsupportedEnumerationError)
from diagbase.perm import Perm

from coset_oracle import WElement, act, w_identity, w_inverse, w_multiply


class TestBuild:
    def test_w2a5_sizes(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        assert g.order == 14400
        assert g.gd_order == 240
        assert g.degree == 60

    def test_inner_k2(self, A5):
        g = build_group(A5, 2, "inner", "sym-table")
        assert g.gd_order == 120

    def test_prime_degree_cyclic_top_accepted(self, A5):
        g = build_group(A5, 3, "full", "cyclic")
        assert g.top.table.order == 3

    def test_trivial_top_only_at_k2(self, A5):
        build_group(A5, 2, "full", "trivial")
        with pytest.raises(InvalidTopError):
            build_group(A5, 3, "full", "trivial")

    def test_imprimitive_top_rejected(self, A5):
        with pytest.raises(InvalidTopError):
            build_group(A5, 4, "full", "cyclic")

    def test_symbolic_order(self, A5):
        g = build_group(A5, 10, "full", "alt")
        assert g.top.order == 1814400
        assert g.order == A5.order ** 9 * 60 * 2 * 1814400

    def test_out_part_resolution(self, A6):
        full = build_group(A6, 2, "full", "sym-table")
        assert len(full.out_labels) == 4
        single = build_group(A6, 2, "g1", "sym-table")
        assert len(single.out_labels) == 2
        other = build_group(A6, 2, "g2", "sym-table")
        assert len(other.out_labels) == 2
        assert set(single.out_labels) != set(other.out_labels)
        both = build_group(A6, 2, "g1,g2", "sym-table")
        assert len(both.out_labels) == 4

    @pytest.mark.parametrize("name", catalog_names())
    def test_out_part_closes_every_label_subset(self, name):
        T = get_group(name)
        aut, n_out = T.aut, T.aut.out_order
        for mask in range(2 ** n_out):
            seeds = {lab for lab in range(n_out) if mask >> lab & 1}
            got = resolve_out_part(T, seeds)
            assert got == tuple(sorted(got)) and 0 in got
            assert seeds <= set(got)
            assert {int(aut.label_mul[a, b]) for a in got for b in got} \
                <= set(got)

    def test_top_from_generator_string(self, A5):
        g = build_group(A5, 5, "full", "gens:(1 2 3 4 5)|(2 5)(3 4)")
        assert g.top.table.order == 10  # dihedral of degree 5


@pytest.fixture
def memo(monkeypatch):
    """An empty build_group memo for one test, with the cap settable."""
    fresh = GroupMemo(GROUP_MEMO_CAP)
    monkeypatch.setattr(diag, "_GROUP_MEMO", fresh)
    return fresh


def _catalog_record(name):
    text = default_catalog_text()
    start = text.index(f"group {name}\n")
    return text[start:text.index("\nend\n", start) + 5]


class TestGroupMemo:
    def test_same_spec_same_object(self, A5, memo):
        g = build_group(A5, 5, "full", "cyclic")
        assert build_group(A5, 5, " Full", "Cyclic ") is g
        # a label list resolves to the same out labels as "full"
        assert build_group(A5, 5, [1], "cyclic") is g
        assert len(memo) == 1 and memo.weight == 120 * 5

    def test_different_specs_different_objects(self, A5, A6, memo):
        [A5_again] = load_catalog(_catalog_record("A5"))
        assert A5_again.name == A5.name and A5_again is not A5
        groups = [build_group(A5, 5, "full", "cyclic"),
                  build_group(A6, 5, "full", "cyclic"),
                  build_group(A5, 7, "full", "cyclic"),
                  build_group(A5, 5, "inner", "cyclic"),
                  build_group(A5, 5, "full", "dihedral"),
                  build_group(A5, 5, "full", "sym"),
                  build_group(A5_again, 5, "full", "cyclic")]
        assert len({id(g) for g in groups}) == len(groups) == len(memo)
        assert groups[-1].T is A5_again
        # a TopGroup object is its own spec
        top = make_top("cyclic", 5)
        assert build_group(A5, 5, "full", top).top is top
        assert build_group(A5, 5, "full", top) is not groups[0]

    def test_failing_spec_raises_on_every_call(self, A5, memo):
        for _ in range(2):
            with pytest.raises(InvalidTopError):
                build_group(A5, 4, "full", "cyclic")
            with pytest.raises(BudgetExceededError):
                build_group(A5, 20011, "full", "dihedral")
            with pytest.raises(InvalidTopError):
                build_group(A5, 3, "full", "trivial")
        assert len(memo) == 0

    def test_bad_top_reported_before_bad_out_part(self, A5, memo):
        with pytest.raises(InvalidTopError):
            build_group(A5, 4, "bogus", "cyclic")
        with pytest.raises(PreconditionError, match="out-part"):
            build_group(A5, 5, "bogus", "cyclic")

    def test_group_over_the_cap_is_returned_not_retained(self, A5, memo):
        assert 60 * factorial(8) > GROUP_MEMO_CAP    # A5 sym-table, k = 8
        memo.cap = 100
        small = build_group(A5, 2, "inner", "trivial")    # weight 60
        g = build_group(A5, 2, "full", "sym-table")    # weight 120 x 2
        assert g.gd_order == 240
        assert build_group(A5, 2, "full", "sym-table") is not g
        # nor does it push out what is retained
        assert build_group(A5, 2, "inner", "trivial") is small
        assert len(memo) == 1 and memo.weight == 60

    def test_eviction_is_least_recently_used_by_weight(self, A5, memo):
        memo.cap = 1000
        specs = {"a": (2, "inner", "trivial"),    # weight 60
                 "b": (2, "full", "trivial"),     # 120
                 "c": (3, "full", "cyclic"),      # 360
                 "d": (3, "full", "sym-table")}   # 720
        built = {name: build_group(A5, *specs[name]) for name in "abc"}
        assert [group_weight(built[n]) for n in "abc"] == [60, 120, 360]
        assert build_group(A5, *specs["a"]) is built["a"]    # a is recent
        built["d"] = build_group(A5, *specs["d"])
        # 1260 > 1000: b, then c, the least recently used, go
        assert len(memo) == 2 and memo.weight == 780
        assert build_group(A5, *specs["a"]) is built["a"]
        assert build_group(A5, *specs["d"]) is built["d"]
        assert build_group(A5, *specs["c"]) is not built["c"]

    def test_symbolic_weight_is_the_digit_count(self, A5, memo):
        for k in (3, 60, 5000):
            g = build_group(A5, k, "full", "alt")
            digits = len(int_str(g.degree)) + len(int_str(g.order))
            assert abs(group_weight(g) - digits) <= 2

    def test_describe_returns_a_fresh_dict(self, A5, memo):
        g = build_group(A5, 3000, "full", "sym")
        want = DiagTypeGroup(A5, 3000, g.out_labels, g.top).describe()
        first = g.describe()
        assert first == want
        first["degree"] = "0"
        first["out_labels"].append(7)
        assert build_group(A5, 3000, "full", "sym").describe() == want

    def test_shared_arrays_are_read_only(self, A5, memo):
        g = build_group(A5, 5, "full", "cyclic")
        for arr in (g.aut_rows, *prime_order_candidates(g)):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert prime_order_candidates(g) is g.prime_candidates


class TestOmegaPoint:
    def test_canonicalization(self, A5):
        p = OmegaPoint.from_tuple(A5, [3, 3])
        assert p.is_diagonal()
        q = OmegaPoint.from_tuple(A5, [5, 0])
        assert q.tuple_ids[0] == 0
        assert q.tuple_ids[1] == int(A5.inv[5])

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_representatives_collapse(self, A5, data):
        # all |T| representative tuples of one coset canonicalize identically
        ids = data.draw(st.lists(st.integers(0, 59), min_size=3, max_size=3))
        u = data.draw(st.integers(0, 59))
        shifted = [int(A5.mul[u, t]) for t in ids]
        assert OmegaPoint.from_tuple(A5, ids) == \
            OmegaPoint.from_tuple(A5, shifted)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_canonicalization_idempotent(self, A5, data):
        ids = data.draw(st.lists(st.integers(0, 59), min_size=2, max_size=4))
        once = OmegaPoint.from_tuple(A5, ids)
        assert OmegaPoint.from_tuple(A5, once.tuple_ids) == once

    def test_serialize_roundtrip(self, A5):
        p = OmegaPoint.from_tuple(A5, [0, 17, 42])
        assert OmegaPoint.parse(p.serialize(), A5) == p

    def test_serialize_every_element_id(self):
        ids = tuple(range(ELEMENT_BUDGET))
        assert OmegaPoint(ids).serialize() == " ".join(map(str, ids))

    def test_parse_rejects_noncanonical(self, A5):
        with pytest.raises(PreconditionError):
            OmegaPoint.parse("3 0", A5)

    @pytest.mark.parametrize("text", ["0,5", "0 x", "", "  "])
    def test_parse_rejects_malformed(self, A5, text):
        with pytest.raises(PreconditionError):
            OmegaPoint.parse(text, A5)

    def test_omega_iter_counts(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        points = list(omega_iter(g))
        assert len(points) == 60
        assert points[0].is_diagonal()
        assert len({p.tuple_ids for p in points}) == 60

    def test_omega_tuples_in_product_order(self, A5):
        g = build_group(A5, 3, "full", "sym-table")
        tuples = omega_tuples(g)
        want = [(0, *t) for t in product(range(60), repeat=2)]
        assert tuples.shape == (3600, 3) and tuples.dtype == np.int32
        assert [tuple(row) for row in tuples.tolist()] == want
        assert [p.tuple_ids for p in omega_iter(g)] == want

    def test_omega_tuples_budget(self, A5):
        g = build_group(A5, 3, "full", "sym-table")
        with pytest.raises(BudgetExceededError, match="3600 exceeds"):
            omega_tuples(g, budget=3599)
        assert len(omega_tuples(g, budget=3600)) == 3600


class TestAction:
    def test_d_fixed_by_stabilizer(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        D = g.diagonal_point()
        for a, p in stab_of_D(g):
            assert act_diag(A5, D, a, p) == D

    def test_act_is_right_action(self, A5):
        rng = np.random.default_rng(3)
        k = 2
        aut = A5.aut

        def rand_w():
            base = int(rng.integers(aut.n_aut))
            rows = [base]
            for _ in range(k - 1):
                t = int(rng.integers(A5.order))
                rows.append(aut.compose_rows(aut.inn_of(t), base))
            return WElement(tuple(rows),
                            Perm(rng.permutation(k).astype(np.int32)))

        for _ in range(1000):
            om = OmegaPoint.from_tuple(A5, [0, int(rng.integers(60))])
            v, w = rand_w(), rand_w()
            assert act(A5, act(A5, om, v), w) == act(A5, om, w_multiply(A5, v, w))

    def test_w_inverse(self, A5):
        rng = np.random.default_rng(4)
        aut = A5.aut
        for _ in range(20):
            base = int(rng.integers(aut.n_aut))
            rows = (base, aut.compose_rows(aut.inn_of(int(rng.integers(60))),
                                           base))
            w = WElement(rows, Perm(rng.permutation(2).astype(np.int32)))
            prod = w_multiply(A5, w, w_inverse(A5, w))
            ident = w_identity(A5, 2)
            assert prod.aut_rows == ident.aut_rows
            assert prod.perm == ident.perm

    def test_act_output_is_canonical(self, A5):
        rng = np.random.default_rng(5)
        g = build_group(A5, 3, "full", "sym-table")
        for _ in range(50):
            om = OmegaPoint.from_tuple(
                A5, [0, *rng.integers(0, 60, size=2)])
            a = int(rng.integers(A5.aut.n_aut))
            p = Perm(rng.permutation(3).astype(np.int32))
            out = act_diag(A5, om, a, p)
            assert out.tuple_ids[0] == 0

    def test_orbit_of_d_is_whole_point_set(self, A5):
        # transitivity at k = 2 and k = 3
        for k in (2, 3):
            g = build_group(A5, k, "full", "sym-table")
            # use G generators: diagonal pairs plus a coordinate kick via
            # full W elements is overkill; G_D plus one inner one-coordinate
            # element generates transitively
            aut = A5.aut
            seeds = [(aut.inn_of(gid), Perm.identity(k))
                     for gid in A5.gen_ids]
            seen = {g.diagonal_point().tuple_ids}
            frontier = [g.diagonal_point()]
            extra = []
            for gid in A5.gen_ids:
                for pos in range(1, k):
                    rows = [aut.identity_row] * k
                    rows[pos] = aut.inn_of(gid)
                    extra.append(WElement(tuple(rows), Perm.identity(k)))
            while frontier:
                pt = frontier.pop()
                for a, p in seeds:
                    q = act_diag(A5, pt, a, p)
                    if q.tuple_ids not in seen:
                        seen.add(q.tuple_ids)
                        frontier.append(q)
                for w in extra:
                    q = act(A5, pt, w)
                    if q.tuple_ids not in seen:
                        seen.add(q.tuple_ids)
                        frontier.append(q)
            assert len(seen) == g.degree


class TestStabOfD:
    def test_explicit_counts(self, A5):
        assert len(list(stab_of_D(build_group(A5, 2, "full",
                                              "sym-table")))) == 240
        assert len(list(stab_of_D(build_group(A5, 2, "inner",
                                              "sym-table")))) == 120

    def test_symbolic_errors(self, A5):
        with pytest.raises(UnsupportedEnumerationError):
            stab_of_D(build_group(A5, 5, "full", "sym"))
        # 3,600 points, well within the point budget
        for top in ("sym", "alt"):
            g = build_group(A5, 3, "full", top)
            with pytest.raises(UnsupportedEnumerationError):
                next(gd_orbits(g, omega_tuples(g)))
            with pytest.raises(UnsupportedEnumerationError):
                gd_orbit_reps(g)

    def test_projection_matches_top(self, A5):
        g = build_group(A5, 2, "full", "sym-table")
        projected = {p._key for _a, p in stab_of_D(g)}
        assert projected == {p._key for p in g.top.table}


@pytest.fixture(scope="module")
def oracle(A5):
    aut = A5.aut
    return _build_coset_oracle(A5, aut)


def _build_coset_oracle(A5, aut):
    comp = aut.composition_table()
    n_aut = aut.n_aut
    swap = Perm.parse("(1 2)", 2)
    perms = [Perm.identity(2), swap]

    def wmul(x, y):
        (a1, a2, pa), (b1, b2, pb) = x, y
        bs = (b1, b2) if pa == 0 else (b2, b1)
        return (int(comp[a1, bs[0]]), int(comp[a2, bs[1]]), pa ^ pb)

    elements = []
    for r1 in range(n_aut):
        for t in range(A5.order):
            r2 = int(comp[aut.inn_of(t), r1])
            for p in (0, 1):
                elements.append((r1, r2, p))
    assert len(elements) == 14400
    d_set = [(r, r, p) for r in range(n_aut) for p in (0, 1)]

    def coset_key(w):
        return frozenset(wmul(d, w) for d in d_set)

    def coset_point(members):
        # the unique member (identity row, inner row, trivial perm)
        for (r1, r2, p) in members:
            if p == 0 and r1 == aut.identity_row and r2 < A5.order:
                return OmegaPoint.from_tuple(
                    A5, [0, aut.recover_conjugator(r2)])
        raise AssertionError("no canonical member found")

    return {"elements": elements, "wmul": wmul, "coset_key": coset_key,
            "coset_point": coset_point, "perms": perms}


class TestExplicitCosetOracle:
    """Pin the action convention against literal right-coset multiplication
    in a fully enumerated W(2, A5): 14400 elements, 60 cosets."""

    def test_coset_count(self, oracle):
        keys = {oracle["coset_key"](w) for w in oracle["elements"]}
        assert len(keys) == 60

    def test_act_matches_literal_coset_multiplication(self, A5, oracle):
        rng = np.random.default_rng(0x5EED)
        elements = oracle["elements"]
        wmul = oracle["wmul"]
        coset_key = oracle["coset_key"]
        coset_point = oracle["coset_point"]
        cosets = {}
        for w in elements:
            key = coset_key(w)
            cosets.setdefault(key, w)
        assert len(cosets) == 60
        sample = [elements[int(i)]
                  for i in rng.integers(0, len(elements), 100)]
        for key, w_rep in cosets.items():
            point = coset_point(key)
            for v in sample:
                lhs = coset_point(coset_key(wmul(w_rep, v)))
                rhs = act(A5, point,
                          WElement((v[0], v[1]), oracle["perms"][v[2]]))
                assert lhs == rhs


class TestOrbitReps:
    @staticmethod
    def check_reps(orbits_by_action, T, shape):
        """gd_orbits and gd_orbit_reps against the orbits walked with
        act_diag: each orbit's first point in omega order, its size, and
        the orbits in the order of those points."""
        g = build_group(T, *shape)
        orbits = orbits_by_action(T.name, *shape)
        tuples = omega_tuples(g)
        found = list(gd_orbits(g, tuples))
        assert [tuple(tuples[row]) for row, _ in found] == \
            [min(orbit) for orbit in orbits]
        assert [g.gd_order // len(stab) for _, stab in found] == \
            [len(o) for o in orbits]
        assert [p.tuple_ids for p in gd_orbit_reps(g)] == \
            [min(orbit) for orbit in orbits]
        assert sum(len(o) for o in orbits) == g.degree

    def test_reps_partition_point_set(self, orbits_by_action, A5):
        self.check_reps(orbits_by_action, A5, (2, "full", "sym-table"))

    @pytest.mark.parametrize("out,top", [("inner", "cyclic"),
                                         ("full", "sym-table")])
    def test_reps_partition_point_set_k3(self, orbits_by_action, A5, out,
                                         top):
        self.check_reps(orbits_by_action, A5, (3, out, top))

    def test_reps_partition_point_set_l27_k3(self, orbits_by_action, L27):
        # 28,224 points in several orbits
        self.check_reps(orbits_by_action, L27, (3, "full", "alt-table"))

    @pytest.mark.parametrize("name,k,top", [("A5", 2, "sym-table"),
                                            ("A5", 3, "sym-table"),
                                            ("L2(7)", 3, "alt-table")])
    def test_sizes_by_orbit_stabilizer(self, name, k, top):
        g = build_group(get_group(name), k, "full", top)
        tuples = omega_tuples(g)
        for row, stab in gd_orbits(g, tuples):
            rep = OmegaPoint(tuple(tuples[row].tolist()))
            assert g.gd_order // len(stab) == \
                g.gd_order // len(pointwise_stabilizer_by_action(g, [rep]))

    def test_partial_read_is_prefix(self, L27):
        g = build_group(L27, 3, "full", "sym-table")
        tuples = omega_tuples(g)
        full = [(row, stab.tolist()) for row, stab in gd_orbits(g, tuples)]
        assert len(full) == 36
        for n in (1, 3, 20):
            assert [(row, stab.tolist()) for row, stab
                    in islice(gd_orbits(g, tuples), n)] == full[:n]

    @pytest.mark.parametrize("name,k,out,top", [
        ("A5", 2, "full", "sym-table"), ("A5", 3, "full", "sym-table"),
        ("A5", 4, "full", "alt-table"), ("L2(7)", 3, "full", "alt-table"),
        ("A5", 3, "inner", "cyclic"), ("A5", 3, "full", "dihedral"),
    ])
    def test_stabilizers_match_the_scan_and_the_action(self, name, k, out,
                                                       top):
        # the walk indexes each tuple by the inverse of each top perm; at
        # k = 2 every perm is its own inverse, so the k = 3 and 4 shapes
        # check that the stabilizer is read with the right perms
        g = build_group(get_group(name), k, out, top)
        tuples = omega_tuples(g)
        aut_index = {int(a): i for i, a in enumerate(g.aut_rows)}
        table = g.top.table
        for row, stab in gd_orbits(g, tuples):
            assert stab.tolist() == \
                _fixing_candidates(g, tuples[row:row + 1]).tolist()
            rep = OmegaPoint(tuple(tuples[row].tolist()))
            by_action = sorted(aut_index[a] * table.order + table.position(p)
                               for a, p in
                               pointwise_stabilizer_by_action(g, [rep]))
            assert stab.tolist() == by_action
