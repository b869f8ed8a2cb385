import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import diagbase

from diagbase.catalog import (SimpleGroup, _closure_ids, catalog_names,
                              get_group, load_catalog, parse_catalog)
from diagbase.errors import MembershipError, ValidationError
from diagbase.perm import GroupTable, Perm, orbit_labels

from coset_oracle import NotInnerError, compose_rows, recover_conjugator

A5_RECORD = ("group {name}\n  natural_degree: 5\n"
             "  generators: (1 2 3 4 5) | (1 2 3)\n"
             "  aut_generator: (1 2 3 5 4) | (1 2 3)\n"
             "  gen_pair_distinct_orders: {pair}\n"
             "  involution_pair: (1 2 3 4 5) | (2 4)(3 5)\n"
             "  min_index: 5\nend\n")

A5_PAIRED = A5_RECORD.format(name="A5", pair="(1 2 3 4 5) | (1 2 3)")

# S3, which has a trivial centre, is too small for a non-abelian simple group
S3_RECORD = ("group S3\n  natural_degree: 3\n"
             "  generators: (1 2 3) | (1 2)\n"
             "  aut_generator: (1 2 3) | (1 2)\n"
             "  gen_pair_distinct_orders: (1 2 3) | (1 2)\n"
             "  involution_pair: (1 2 3) | (1 2)\n"
             "  min_index: 3\nend\n")

# not simple: its classes of 3-cycles, double transpositions and 5-cycles
# close to A5
S5_RECORD = ("group S5\n  natural_degree: 5\n"
             "  generators: (1 2 3 4 5) | (1 2)\n"
             "  aut_generator: (1 2 3 4 5) | (1 2)\n"
             "  gen_pair_distinct_orders: (1 2 3 4 5) | (1 2)\n"
             "  involution_pair: (1 2 3 4 5) | (1 2)\n"
             "  min_index: 5\nend\n")

# |T| = 2520, the catalog's ELEMENT_BUDGET; the outer automorphism is
# conjugation by (6 7)
A7_RECORD = ("group A7\n  natural_degree: 7\n"
             "  generators: (1 2 3 4 5 6 7) | (1 2 3)\n"
             "  aut_generator: (1 2 3 4 5 7 6) | (1 2 3)\n"
             "  gen_pair_distinct_orders: (1 2 3 4 5 6 7) | (1 2 3)\n"
             "  involution_pair: (1 2 3 4 5 6 7) | (1 2)(3 4)\n"
             "  min_index: 7\nend\n")


@pytest.fixture(scope="module")
def A7():
    (T,) = load_catalog(source=A7_RECORD)
    return T


def _perm_order(row):
    """Order of the permutation x -> row[x]: the lcm of its cycle lengths."""
    seen, order = [False] * len(row), 1
    for start in range(len(row)):
        length, x = 0, start
        while not seen[x]:
            seen[x], x, length = True, row[x], length + 1
        if length:
            order = math.lcm(order, length)
    return order


class TestParsing:
    def test_default_catalog_has_all_five(self):
        names = catalog_names()
        for want in ("A5", "A6", "L2(7)", "L2(8)", "L2(11)"):
            assert want in names

    def test_parse_error_reports_line(self):
        bad = "group X\n  natural_degree: 5\n  bogus line here\nend\n"
        with pytest.raises(ValidationError) as err:
            parse_catalog(bad)
        assert "line 3" in str(err.value)

    def test_missing_field_reports_field(self):
        bad = ("group X\n  natural_degree: 5\n"
               "  generators: (1 2 3 4 5) | (1 2 3)\nend\n")
        with pytest.raises(ValidationError) as err:
            parse_catalog(bad)
        assert "field" in str(err.value)

    def test_bad_cycles_report_field_and_line(self):
        bad = ("group X\n  natural_degree: 5\n"
               "  generators: (1 2 99) | (1 2 3)\n"
               "  aut_generator: (1 2) | (1 2)\n"
               "  gen_pair_distinct_orders: (1 2) | (1 2)\n"
               "  involution_pair: (1 2) | (1 2)\n"
               "  min_index: 5\nend\n")
        with pytest.raises(ValidationError) as err:
            parse_catalog(bad)
        assert "generators" in str(err.value) and "line 3" in str(err.value)

    @pytest.mark.parametrize("text,message,field,line", [
        (A5_PAIRED.replace("(1 2 3 4 5) | (1 2 3)\n", "(1 2 3 4 5)\n", 1),
         "expected two cycle expressions separated by '|'", "generators",
         3),
        ("group X\ngroup Y\n", "nested group block", None, 2),
        ("# comment\nend\n", "'end' outside a group block", None, 2),
        ("natural_degree: 5\n", "unexpected line 'natural_degree: 5'", None,
         1),
        (A5_PAIRED.replace("end\n", "  min_index: 6\nend\n"),
         "duplicate field", "min_index", 8),
        (A5_PAIRED.replace("end\n", ""), "group 'A5' not closed with 'end'",
         None, None),
        (A5_PAIRED.replace("  aut_generator: (1 2 3 5 4) | (1 2 3)\n", ""),
         "at least one aut_generator required", "aut_generator", None),
        (A5_PAIRED.replace("min_index: 5", "min_index: five"),
         "expected an integer", "min_index", 7),
        # int() alone reads each of these as an integer
        (A5_PAIRED.replace("min_index: 5", "min_index: 1_2"),
         "expected an integer", "min_index", 7),
        (A5_PAIRED.replace("min_index: 5", "min_index: +12"),
         "expected an integer", "min_index", 7),
        (A5_PAIRED.replace("natural_degree: 5", "natural_degree: \uff15"),
         "expected an integer", "natural_degree", 2),
        (A5_PAIRED.replace("natural_degree: 5", "natural_degree: 0"),
         "degree must be positive", "natural_degree", None)])
    def test_grammar_errors(self, text, message, field, line):
        with pytest.raises(ValidationError) as err:
            parse_catalog(text)
        assert str(err.value).endswith(message)
        assert (err.value.field, err.value.line) == (field, line)


class TestBuild:
    def test_a5_orders(self, A5):
        assert A5.order == 60
        assert A5.out_order == 2
        assert A5.aut.n_aut == 120

    def test_a6_orders(self, A6):
        assert A6.order == 360
        assert A6.out_order == 4
        assert A6.aut.n_aut == 1440

    def test_l28_aut(self):
        T = get_group("L2(8)")
        assert T.order == 504 and T.aut.n_aut == 504 * 3

    def test_mul_inv_tables(self, A5):
        n = A5.order
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j = rng.integers(0, n, 2)
            p = A5.table.element(i) * A5.table.element(j)
            assert A5.table.position(p) == A5.mul[i, j]
        assert all(A5.mul[i, A5.inv[i]] == 0 for i in range(n))

    def test_out_bound_check_fires(self):
        with pytest.raises(ValidationError):
            SimpleGroup._check_out_bound(60, 4, "fake")  # 64 >= 60
        SimpleGroup._check_out_bound(60, 2, "A5")

    def test_min_index_statuses(self):
        expected = {"A5": "verified", "A6": "verified",
                    "L2(7)": "lower-verified", "L2(8)": "literature",
                    "L2(11)": "lower-verified"}
        for name, status in expected.items():
            assert get_group(name).min_index_status == status

    def test_load_catalog_validates_everything(self):
        groups = load_catalog()
        assert len(groups) >= 5
        for T in groups:
            assert T.out_order ** 3 < T.order


class TestAutTable:
    def test_coset_partition(self, A5):
        aut = A5.aut
        counts = np.bincount(aut.labels)
        assert len(counts) == aut.out_order
        assert all(c == A5.order for c in counts)

    def test_inn_homomorphism_law(self, A5):
        aut = A5.aut
        rng = np.random.default_rng(1)
        for _ in range(40):
            s, t = (int(v) for v in rng.integers(0, A5.order, 2))
            lhs = compose_rows(aut, aut.inn_of(s), aut.inn_of(t))
            assert lhs == aut.inn_of(int(A5.mul[s, t]))

    def test_inn_of_identity(self, A5):
        row = A5.aut.inn_of(0)
        assert np.array_equal(A5.aut.rows[row], np.arange(A5.order))

    def test_inn_kernel_trivial(self, A5):
        # phi_t = identity only for t = identity
        ident = np.arange(A5.order)
        hits = [t for t in range(A5.order)
                if np.array_equal(A5.aut.rows[A5.aut.inn_of(t)], ident)]
        assert hits == [0]

    def test_recover_conjugator_roundtrip(self, A5):
        aut = A5.aut
        for t in range(A5.order):
            assert recover_conjugator(aut, aut.inn_of(t)) == t

    def test_recover_conjugator_rejects_outer(self, A5):
        aut = A5.aut
        outer = aut.label_reps[1]
        with pytest.raises(NotInnerError):
            recover_conjugator(aut, outer)

    def test_label_group_structure(self, A6):
        lm = A6.aut.label_mul
        assert A6.aut.out_order == 4
        # Out(A6) is elementary abelian of order 4
        assert all(lm[a, a] == 0 for a in range(4))
        assert np.array_equal(lm, lm.T)

    def test_aut_rows_are_automorphisms(self, A5):
        rng = np.random.default_rng(2)
        rows = A5.aut.rows
        for _ in range(30):
            r = int(rng.integers(0, A5.aut.n_aut))
            s, t = (int(v) for v in rng.integers(0, A5.order, 2))
            assert rows[r, A5.mul[s, t]] == \
                A5.mul[rows[r, s], rows[r, t]]

    def test_bad_aut_generator_rejected(self):
        text = ("group A5bad\n  natural_degree: 5\n"
                "  generators: (1 2 3 4 5) | (1 2 3)\n"
                "  aut_generator: (1 2 3 4 5) | (1 3 2)\n"
                "  gen_pair_distinct_orders: (1 2 3 4 5) | (1 2 3)\n"
                "  involution_pair: (1 2 3 4 5) | (2 4)(3 5)\n"
                "  min_index: 5\nend\n")
        rec = parse_catalog(text)[0]
        with pytest.raises(ValidationError) as err:
            SimpleGroup(rec)
        assert "aut_generator" in str(err.value)


class TestPairs:
    @pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(8)", "L2(11)"])
    def test_distinct_order_pair(self, name):
        T = get_group(name)
        x, y = T.record.gen_pair_distinct_orders
        assert x.order() != y.order()

    @pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(8)", "L2(11)"])
    def test_involution_pair(self, name):
        T = get_group(name)
        x, y = T.record.involution_pair
        assert y.order() == 2 and x.order() != 2

    def test_third_order_element(self, A5):
        z = A5.third_order_ids[0]
        assert int(A5.order_of[z]) == 2  # A5 pair is (5,3); third order is 2

    def test_order_census_excluding(self, A5):
        # elements with order not in {1, 5, 3}: the 15 involutions, in
        # ascending id order
        assert sorted(A5.order_of[list(A5.distinct_order_ids)]) == [3, 5]
        ids = A5.third_order_ids
        assert len(ids) == 15 and ids == sorted(ids)
        assert all(int(A5.order_of[t]) == 2 for t in ids)


class TestValidationOnTables:
    def test_non_simple_group_rejected(self):
        # S5: the 3-cycle class closes only to A5
        with pytest.raises(ValidationError) as err:
            load_catalog(S5_RECORD)
        assert "not simple" in str(err.value)

    @pytest.mark.parametrize("name", ["S5", *catalog_names()])
    def test_normal_closures_are_three_map_orbits(self, name, monkeypatch):
        # each class of T, an orbit of the inner maps of its generators,
        # against the subgroup its whole class generates: the orbit of 1
        # under right multiplication by the class rep and those two maps.
        # S5 is built unvalidated; its closures are 1, A5 and S5
        if name == "S5":
            monkeypatch.setattr(SimpleGroup, "validate", lambda self: None)
            (T,) = load_catalog(S5_RECORD)
        else:
            T = get_group(name)
        inner = T.aut.rows[T.gen_ids]
        labels = orbit_labels(inner)
        sizes = set()
        for x in np.flatnonzero(labels == np.arange(T.order)):
            orbit = orbit_labels(np.vstack([T.mul.T[x], inner])) == 0
            want = _closure_ids(T.mul, np.flatnonzero(labels == x))
            assert np.array_equal(np.flatnonzero(orbit), want)
            sizes.add(len(want))
        assert sizes == ({1, 60, 120} if name == "S5" else {1, T.order})

    def test_non_bijective_aut_generator_rejected(self):
        # both generators sent to the 5-cycle: the map lands in <(1 2 3 4 5)>
        text = A5_RECORD.format(name="A5", pair="(1 2 3 4 5) | (1 2 3)") \
            .replace("(1 2 3 5 4) | (1 2 3)", "(1 2 3 4 5) | (1 2 3 4 5)")
        with pytest.raises(ValidationError) as err:
            load_catalog(text)
        assert "do not induce a bijection" in str(err.value)

    def test_nontrivial_center_rejected(self):
        # A5 x C2: the central involution conjugates trivially
        text = ("group A5xC2\n  natural_degree: 7\n"
                "  generators: (1 2 3 4 5)(6 7) | (1 2 3)\n"
                "  aut_generator: (1 2 3 4 5)(6 7) | (1 2 3)\n"
                "  gen_pair_distinct_orders: (1 2 3 4 5)(6 7) | (1 2 3)\n"
                "  involution_pair: (1 2 3) | (6 7)\n"
                "  min_index: 7\nend\n")
        with pytest.raises(ValidationError) as err:
            load_catalog(text)
        assert "center is nontrivial" in str(err.value)

    @pytest.mark.parametrize("text,message,field", [
        (S3_RECORD, "group too small to be non-abelian simple", None),
        # two 3-cycles generate A5, but have one order
        (A5_RECORD.format(name="A5", pair="(1 2 3) | (3 4 5)"),
         "gen_pair_distinct_orders have equal orders",
         "gen_pair_distinct_orders"),
        (A5_PAIRED.replace("(2 4)(3 5)", "(1 2 3)"),
         "second element of involution_pair is not an involution",
         "involution_pair"),
        # an odd permutation cannot be the image of an element of A5
        (A5_PAIRED.replace("aut_generator: (1 2 3 5 4)",
                           "aut_generator: (1 2)"),
         "aut_generator image is not an element of the group",
         "aut_generator"),
        # S7 has 5040 elements, past the budget
        (A7_RECORD.replace("A7", "S7").replace(
            "  generators: (1 2 3 4 5 6 7) | (1 2 3)",
            "  generators: (1 2) | (1 2 3 4 5 6 7)"),
         "closure exceeded element budget 2520", None),
        # on S3 = <(1 2), (2 3)> the images (1 2), (1 3 2) extend to a
        # bijection along the closure tree, but (1 2)^2 = 1 goes to
        # (1 3 2)(1 2)(1 3 2) != 1 through the other generator's edges
        (S3_RECORD.replace("  generators: (1 2 3) | (1 2)",
                           "  generators: (1 2) | (2 3)")
         .replace("aut_generator: (1 2 3) | (1 2)",
                  "aut_generator: (1 2) | (1 3 2)"),
         "aut_generator images do not normalize the group structure "
         "(homomorphism law fails)", "aut_generator"),
        (A5_PAIRED.replace("min_index: 5", "min_index: 4"),
         "min_index 4 impossible: |T| does not divide 4!", "min_index")])
    def test_record_invariant_errors(self, text, message, field):
        with pytest.raises(ValidationError) as err:
            load_catalog(text)
        assert str(err.value).endswith(message)
        assert (err.value.spec, err.value.field, err.value.line) == \
            (text.split()[1], field, None)

    def test_pair_generating_proper_subgroup_rejected(self):
        text = A5_RECORD.format(name="A5sub", pair="(1 2 3) | (1 2)(4 5)")
        with pytest.raises(ValidationError) as err:
            load_catalog(text)
        assert "gen_pair_distinct_orders" in str(err.value)

    def test_pair_element_outside_group_rejected(self):
        text = A5_RECORD.format(name="A5odd", pair="(1 2 3 4 5) | (1 2)")
        with pytest.raises(ValidationError) as err:
            load_catalog(text)
        assert not isinstance(err.value, MembershipError)
        assert "gen_pair_distinct_orders" in str(err.value)

    @pytest.mark.parametrize("gens", [["(1 2 3)", "(1 2)(4 5)"],
                                      ["(1 2 3 4 5)"],
                                      ["(1 2 3)", "(3 4 5)"],
                                      ["(1 2 3)", "()", "(1 2 3)",
                                       "(3 4 5)", "()"]])
    def test_table_closure_matches_perm_closure(self, A5, gens):
        perms = [Perm.parse(c, 5) for c in gens]
        want = GroupTable.generate(perms)
        got = _closure_ids(A5.mul, [A5.table.position(p) for p in perms])
        assert sorted(got) == sorted(A5.table.position(e) for e in want)

    def test_good_record_builds_fresh_from_source(self):
        text = A5_RECORD.format(name="A5", pair="(1 2 3 4 5) | (1 2 3)")
        (T,) = load_catalog(text)
        assert T.order == 60 and T is not get_group("A5")

    def test_default_catalog_shares_get_group_cache(self):
        assert all(T is get_group(T.name) for T in load_catalog())

    @pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(8)", "L2(11)"])
    def test_aut_orders_match_perm_orders(self, name):
        # Aut(T) orders and T's own, against label doubling on the Aut rows
        # and on the inner rows (phi_t has the order of t, as Z(T) = 1)
        T = get_group(name)
        rows = T.aut.rows
        assert np.array_equal(T.aut.orders,
                              GroupTable(rows, rows[:1]).element_orders())
        assert np.array_equal(T.order_of,
                              GroupTable(rows[:T.order],
                                         rows[:1]).element_orders())

    @pytest.mark.parametrize("name", catalog_names())
    def test_class_reps_match_conjugacy_classes(self, name):
        # positions in T.table are element ids; the Aut(T) table is
        # generated by the inner maps of T's generators and the label reps
        T = get_group(name)
        assert T.class_reps.tolist() == T.table.conjugacy_classes().reps
        gens = list(T.gen_ids) + T.aut.label_reps[1:]
        table = GroupTable(T.aut.rows, T.aut.rows[gens])
        assert T.aut.class_reps.tolist() == table.conjugacy_classes().reps

    @pytest.mark.parametrize("name", catalog_names() + ["from source"])
    def test_aut_orders_match_cycle_lengths(self, name):
        if name == "from source":
            (T,) = load_catalog(source=A5_RECORD.format(
                name="A5", pair="(1 2 3 4 5) | (1 2 3)"))
        else:
            T = get_group(name)
        want = [_perm_order(row) for row in T.aut.rows.tolist()]
        assert T.aut.orders.tolist() == want

    @pytest.mark.parametrize("name", catalog_names())
    def test_rows_with_labels_is_label_membership(self, name):
        aut = get_group(name).aut
        # every subset of outer labels, so every out part among them
        for mask in range(1 << aut.out_order):
            labels = {x for x in range(aut.out_order) if mask >> x & 1}
            got = aut.rows_with_labels(labels)
            assert got.dtype == np.int32
            assert got.tolist() == [r for r in range(aut.n_aut)
                                    if int(aut.labels[r]) in labels]

    @pytest.mark.parametrize("name", catalog_names())
    def test_composition_table_composes_rows(self, name):
        aut = get_group(name).aut
        rows, comp = aut.rows, aut.composition_table()
        step = max(1, (1 << 22) // rows.size)
        for s in range(0, aut.n_aut, step):
            # [a, b, x] = x under (apply a, then b)
            want = rows[:, rows[s:s + step]].transpose(1, 0, 2)
            assert np.array_equal(rows[comp[s:s + step]], want)

    @pytest.mark.parametrize("name", catalog_names())
    def test_image_index_matches_direct_scan(self, name):
        aut = get_group(name).aut
        for labels in ((0,), tuple(range(aut.out_order))):   # inner, full
            order, bounds = aut.image_index(labels)
            assert aut.image_index(labels)[0] is order      # built once
            rows = aut.rows[aut.rows_with_labels(labels)]
            for t in range(aut.T.order):
                images = rows[:, t].tolist()
                # a stable sort of the rows by image; run u starts after
                # the rows with a smaller image
                assert order[t].tolist() == sorted(range(len(images)),
                                                   key=images.__getitem__)
                count = Counter(images)
                assert bounds[t].tolist() == list(accumulate(
                    (count[u] for u in range(aut.T.order)), initial=0))

    def test_prob_path_builds_no_perm_aut_table(self):
        # a fresh process: other tests fill the classes of Aut(T) on
        # purpose, in the shared get_group cache
        code = ("import contextlib, io\n"
                "from diagbase.catalog import get_group\n"
                "from diagbase.cli import main\n"
                "T = get_group('A5')\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['prob-exact', '--group', 'A5', '--k', '3',\n"
                "                 '--out-part', 'full', '--top', 'sym-table'])\n"
                "assert code == 0, code\n"
                "assert 'class_reps' not in vars(T.aut)\n")
        src = os.path.dirname(os.path.dirname(diagbase.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_setup_and_prob_mc_never_import_numpy_ma(self):
        # numpy 2 imports numpy.ma inside the first plain np.unique(x); a
        # fresh process, since other tests may have imported it already.
        # Exit 3: a bare ``import numpy`` loads numpy.ma (numpy 1.x).
        code = ("import contextlib, io, sys\n"
                "import numpy\n"
                "if 'numpy.ma' in sys.modules:\n"
                "    sys.exit(3)\n"
                "from diagbase.catalog import load_catalog\n"
                "from diagbase.cli import main\n"
                "load_catalog()\n"
                "assert 'numpy.ma' not in sys.modules, 'set-up'\n"
                "for k, top in (('5', 'dihedral'), ('6', 'alt')):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = main(['prob-mc', '--group', 'A5', '--k', k,\n"
                "                     '--out-part', 'full', '--top', top,\n"
                "                     '--samples', '200', '--seed', '7'])\n"
                "    assert code == 0, code\n"
                "    assert 'numpy.ma' not in sys.modules, top\n")
        src = os.path.dirname(os.path.dirname(diagbase.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode == 3:
            pytest.skip("a bare import numpy already loads numpy.ma")
        assert proc.returncode == 0, proc.stderr


def _reference_tables(T):
    """mul, inv and element orders of T straight from its permutations."""
    table = T.table
    arr = table.arrays()
    # row i: e_i * e_j = apply e_i, then e_j, for every j
    mul = np.stack([table.positions(arr[:, row]) for row in arr])
    inv = table.positions(np.argsort(arr, axis=1).astype(np.int32))
    orders = [e.order() for e in table]
    return mul, inv, orders


def _reference_aut(T, mul, inv):
    """Aut(T) closed on whole candidate rows, and its Inn-cosets labelled
    with full n x n gathers: the slow build, kept as an oracle."""
    n, (g1, g2) = T.order, T.gen_ids
    row_of_code = np.full(n * n, -1, dtype=np.int32)
    blocks = []

    def codes(images):
        return images[..., g1] * n + images[..., g2]

    def add_new(candidates):
        c = codes(candidates)
        first = np.sort(np.unique(c, return_index=True)[1])
        first = first[row_of_code[c[first]] < 0]
        row_of_code[c[first]] = sum(map(len, blocks)) + np.arange(len(first))
        blocks.append(candidates[first])
        return blocks[-1]

    # phi_t[x] = t^-1 x t
    inner = mul[mul[inv], np.arange(n)[:, None]].astype(np.int32)
    assert len(add_new(inner)) == n
    outer = []
    for images in T.record.aut_generators:
        ids = [T.table.position(p) for p in images]
        f = np.zeros(n, dtype=np.int32)
        for i, (parent, gi) in enumerate(zip(*T.table.deriv)):
            if parent >= 0:
                f[i] = mul[f[parent], ids[gi]]
        outer.append(f)
    outer = np.array(outer)
    gens = np.concatenate([inner[T.gen_ids], outer])
    frontier = add_new(outer)
    while len(frontier):
        # every frontier row, then every generator, as whole rows
        frontier = add_new(gens[:, frontier].transpose(1, 0, 2)
                           .reshape(-1, n))
    rows = np.concatenate(blocks)
    labels = np.full(len(rows), -1, dtype=np.int32)
    reps = []
    for r in range(len(rows)):
        if labels[r] < 0:
            labels[row_of_code[codes(rows[r][rows[:n]])]] = len(reps)
            reps.append(r)
    rep_rows = rows[reps]
    label_mul = labels[row_of_code[codes(rep_rows[:, rep_rows])]].T
    return {"rows": rows, "row_of_code": row_of_code, "labels": labels,
            "label_mul": label_mul,
            "label_inv": np.argmin(label_mul, axis=1).astype(np.int32),
            "generator_labels": labels[row_of_code[codes(outer)]]}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_build_matches_reference(name):
    T = get_group(name)
    mul, inv, orders = _reference_tables(T)
    assert np.array_equal(T.mul, mul) and T.mul.dtype == np.int16
    assert np.array_equal(T.inv, inv) and T.inv.dtype == np.int32
    assert T.order_of.tolist() == orders
    ref = _reference_aut(T, mul, inv)
    aut, n, (g1, g2) = T.aut, T.order, T.gen_ids
    rows, labels = aut.rows, aut.labels
    # the same automorphisms, each with the same label, and Inn(T) first
    # in element order
    assert rows.dtype == np.int16 and labels.dtype == np.int32
    assert np.array_equal(rows[:n], ref["rows"][:n])
    row_of_code = np.full(n * n, -1)
    row_of_code[rows[:, g1].astype(np.int64) * n + rows[:, g2]] = \
        np.arange(aut.n_aut)
    assert np.array_equal(row_of_code >= 0, ref["row_of_code"] >= 0)
    at = row_of_code[ref["rows"][:, g1] * n + ref["rows"][:, g2]]
    assert np.array_equal(rows[at], ref["rows"])
    assert np.array_equal(labels[at], ref["labels"])
    for attr in ("label_mul", "label_inv"):
        got, want = getattr(aut, attr), ref[attr]
        assert got.dtype == want.dtype and np.array_equal(got, want), attr
    assert aut.generator_labels == tuple(ref["generator_labels"].tolist())
    # row l n + t applies phi_t, then the label rep l n
    reps = rows[aut.label_reps]
    assert aut.label_reps == list(range(0, aut.n_aut, n))
    assert np.array_equal(rows.reshape(-1, n, n), reps[:, rows[:n]])
    # every row is found through its coset; an image array that is no
    # automorphism finds none
    assert np.array_equal(aut._lookup(ref["rows"]), at)
    images = np.tile(np.arange(n), (n, 1))
    images[:, g2] = np.arange(n)
    for a in range(n):
        images[:, g1] = a
        assert np.array_equal(aut._lookup(images),
                              row_of_code[a * n + np.arange(n)])


@pytest.mark.parametrize("name", catalog_names() + ["A7"])
def test_codes_exact_on_int16_tables(name, request):
    # an int16 id times |T| wraps (659 * 660 = 434,940 is past 2^15), so
    # codes are widened first; A7 has the largest |T| the budget admits
    T = request.getfixturevalue("A7") if name == "A7" else get_group(name)
    aut, n, (g1, g2) = T.aut, T.order, T.gen_ids
    rows = aut.rows
    assert T.mul.dtype == rows.dtype == np.int16
    wide = rows[:, g1].astype(np.int64) * n + rows[:, g2]
    assert np.array_equal(aut._code(rows[:, T.gen_ids]), wide)
    assert len(np.unique(wide)) == aut.n_aut
    assert np.array_equal(aut._lookup(rows), np.arange(aut.n_aut))
    # [a, b] is (apply a, then b): every pair at the images of g1 and g2,
    # which fix an automorphism, and whole rows for five b
    comp, step = aut.composition_table(), 256
    for s in range(0, aut.n_aut, step):
        for g in (g1, g2):
            assert np.array_equal(rows[comp[s:s + step], g],
                                  rows[:, rows[s:s + step, g]].T)
    for b in np.linspace(0, aut.n_aut - 1, 5).astype(int):
        assert np.array_equal(rows[comp[:, b]], rows[b][rows])


def test_a7_tables_retain_under_40_mb():
    # int16 tables and an index of the |T| inner codes, no |T|^2 map: A7's
    # mul (12.1 MB) and Aut rows (24.2 MB) are most of what the build
    # keeps; the rows are built 2^14 entries at a time, so the peak stays
    # near that (40.4 MB; 48.3 MB when built a closure level at a time)
    tracemalloc.start()
    try:
        (T,) = load_catalog(source=A7_RECORD)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"A7 tables: retained {retained / 2**20:.1f} MB, "
          f"peak {peak / 2**20:.1f} MB")
    assert (T.order, T.aut.n_aut, T.min_index_status) == \
        (2520, 5040, "verified")
    assert retained < 40 * 2**20
    assert peak < 44 * 2**20


def test_catalog_build_peak_in_fresh_process():
    # the five catalog groups keep 6.2 MB of tables; built in blocks, the
    # build adds 0.3 MB to that (7.1 MB peak a closure level at a time,
    # 13.7 MB with the Aut rows built in one piece)
    code = ("import tracemalloc\n"
            "from diagbase.catalog import load_catalog\n"
            "tracemalloc.start()\n"
            "load_catalog()\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src = os.path.dirname(os.path.dirname(diagbase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout)
    print(f"load_catalog(): peak {peak / 2**20:.2f} MB")
    assert peak < 6.8 * 2**20


@pytest.mark.parametrize("labels", [(0, 1), (0,)], ids=["full", "inner"])
def test_a7_image_index_without_dense_histogram(A7, labels):
    # the index is built a block of rows of T at a time; the reference is
    # the one-shot build through a dense |T|^2 histogram (193.8 MB peak on
    # the full out part)
    aut, n = A7.aut, A7.order
    aut._image_index.pop(labels, None)
    tracemalloc.start()
    try:
        order, bounds = aut.image_index(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"A7 image_index{labels}: peak {peak / 2**20:.1f} MB")
    assert peak < 64 * 2**20
    img = np.ascontiguousarray(aut.rows[aut.rows_with_labels(labels)].T)
    hist = np.bincount((img + n * np.arange(n)[:, None]).ravel(),
                       minlength=n * n).reshape(n, n)
    assert order.dtype == bounds.dtype == np.int16
    assert np.array_equal(order, np.argsort(img, axis=1, kind="stable"))
    assert np.array_equal(bounds, np.pad(hist.cumsum(axis=1),
                                         ((0, 0), (1, 0))))
