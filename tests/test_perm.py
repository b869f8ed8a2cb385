import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbase.catalog import catalog_names, get_group
from diagbase.diag import TopGroup
from diagbase.errors import (BudgetExceededError, MembershipError,
                             PreconditionError)
from diagbase.perm import (GroupTable, Perm, _minimal_block_size,
                           alternating_table, cyclic_table, dihedral_table,
                           symmetric_table)


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


# -- arithmetic ---------------------------------------------------------------

class TestPermArithmetic:
    def test_identity_order(self):
        assert Perm.identity(5).order() == 1

    def test_cycle_order(self):
        assert Perm.from_cycles([[0, 1, 2, 3, 4]], 5).order() == 5

    def test_compose_then_invert(self):
        p = Perm.parse("(1 2 3)(4 5)", 6)
        assert (p * p.inverse()).is_identity()

    @pytest.mark.parametrize("make,error,message", [
        (lambda: Perm([]), ValueError, "must be a bijection"),
        (lambda: Perm([0, 3, 1]), ValueError, "must be a bijection"),
        (lambda: Perm.identity(2) * Perm.identity(3), ValueError,
         "different degrees"),
        (lambda: GroupTable.generate([]), PreconditionError,
         "at least one generator"),
        (lambda: GroupTable.generate([Perm.identity(2), Perm.identity(3)]),
         PreconditionError, "share a degree")],
        ids=["empty", "out-of-range", "mixed-product", "no-generators",
             "mixed-generators"])
    def test_malformed_input_refused(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    @given(p=perms(6), q=perms(6))
    @settings(max_examples=60, deadline=None)
    def test_inverse_antihomomorphism(self, p, q):
        assert (p * q).inverse() == q.inverse() * p.inverse()

    @given(p=perms(5), q=perms(5), r=perms(5))
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    def test_parse_roundtrip(self):
        for text in ["()", "(1 2)", "(1 2 3)(4 5)", "(2 5)(3 4)"]:
            p = Perm.parse(text, 5)
            assert Perm.parse(str(p), 5) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Perm.parse("(1 2", 5)
        with pytest.raises(ValueError):
            Perm.parse("(1 9)", 5)
        with pytest.raises(ValueError):
            Perm.parse("(1 1 2)", 5)
        # ASCII digits only: \d would also read the full-width 2
        with pytest.raises(ValueError, match="malformed cycle notation"):
            Perm.parse("(1 \uff12 3)", 5)
        # a point in two cycles: the notation is of disjoint cycles
        for text in ("(1 2)(1 2)", "(1 2 3)(3 2 1)", "(1 2)(2 3)"):
            with pytest.raises(ValueError, match="point in two cycles"):
                Perm.parse(text, 5)

    def test_identity_serializes_as_unit(self):
        assert str(Perm.identity(4)) == "()"

    def test_sign(self):
        assert Perm.parse("(1 2)", 4).sign() == -1
        assert Perm.parse("(1 2 3)", 4).sign() == 1


# -- closure ------------------------------------------------------------------

def _perm_closure(gens, budget=10**7):
    """The Perm-object closure, kept as the oracle of the array closure:
    breadth-first, each element times each generator in turn, new
    elements appended as found.  Returns (elements, deriv pairs)."""
    ident = Perm.identity(gens[0].degree)
    elements, deriv, index = [ident], [(-1, -1)], {ident}
    for head, e in enumerate(elements):     # grows while it is walked
        for gi, g in enumerate(gens):
            f = e * g
            if f not in index:
                if len(elements) >= budget:
                    raise BudgetExceededError(
                        f"group closure exceeded budget {budget}")
                index.add(f)
                elements.append(f)
                deriv.append((head, gi))
    return elements, deriv


def _assert_matches_oracle(table, gens):
    elements, deriv = _perm_closure(gens)
    assert table.arrays().tolist() == [e.images.tolist() for e in elements]
    assert list(zip(*(d.tolist() for d in table.deriv))) == deriv
    assert table.generators == list(gens)


# the generators of D37 as a gens: top: a 37-cycle and a reflection
D37_SPEC = "(" + " ".join(map(str, range(1, 38))) + ")|" + "".join(
    f"({i} {39 - i})" for i in range(2, 20))


class TestClosure:
    def test_trivial(self):
        assert GroupTable.generate([Perm.identity(3)]).order == 1

    def test_a5(self):
        g = GroupTable.generate([Perm.parse("(1 2 3 4 5)", 5),
                                 Perm.parse("(1 2 3)", 5)])
        assert g.order == 60

    def test_s5_from_a5_plus_transposition(self):
        g = GroupTable.generate([Perm.parse("(1 2 3 4 5)", 5),
                                 Perm.parse("(1 2 3)", 5),
                                 Perm.parse("(1 2)", 5)])
        assert g.order == 120
        # every element is its recorded parent times its generator, and
        # parents come first: the breadth-first derivations
        parents, gis = (d.tolist() for d in g.deriv)
        assert (parents[0], gis[0]) == (-1, -1)
        for i, (parent, gi) in enumerate(zip(parents[1:], gis[1:]), start=1):
            assert parent < i
            assert g.element(parent) * g.generators[gi] == g.element(i)

    def test_idempotent(self):
        g = GroupTable.generate([Perm.parse("(1 2 3 4)", 4)])
        again = GroupTable.generate(list(g))
        assert {e._key for e in again} == {e._key for e in g}

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            GroupTable.generate([Perm.parse("(1 2 3 4 5 6 7)", 7),
                                 Perm.parse("(1 2)", 7)], budget=100)

    @pytest.mark.parametrize("budget", [1, 2, 59, 60, 61])
    def test_budget_matches_oracle(self, budget):
        # both closures refuse exactly the groups of more than budget
        # elements
        gens = [Perm.parse("(1 2 3 4 5)", 5), Perm.parse("(1 2 3)", 5)]
        for closure in (GroupTable.generate, _perm_closure):
            if budget < 60:
                with pytest.raises(BudgetExceededError,
                                   match=f"budget {budget}$"):
                    closure(gens, budget)
            else:
                closure(gens, budget)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("make", [symmetric_table, alternating_table])
    def test_sym_alt_tables_match_oracle(self, make, k):
        table = make(k)
        _assert_matches_oracle(table, table.generators)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_closures_match_oracle(self, name):
        T = get_group(name)
        _assert_matches_oracle(T.table, T.record.generators)

    def test_degree_37_closure_matches_oracle(self):
        # row keys stay exact past degree 15, where an int64 code of a
        # whole row would overflow
        gens = [Perm.parse(part, 37) for part in D37_SPEC.split("|")]
        table = GroupTable.generate(gens, 1000)
        assert table.order == 74
        _assert_matches_oracle(table, gens)
        assert table.arrays().tolist() == dihedral_table(37).arrays().tolist()

    def test_membership(self, A5):
        table = A5.table
        for p in (Perm.parse("(1 2)", 5), Perm.identity(6),
                  Perm.parse("(1 2 3)", 6)):
            assert p not in table
            with pytest.raises(MembershipError):
                table.position(p)
        with pytest.raises(MembershipError):
            table.positions(table.arrays()[:, :4])
        for i, p in enumerate(table):
            assert p in table and table.position(p) == i
        assert table.positions(table.arrays()[::-1]).tolist() == \
            list(range(table.order - 1, -1, -1))

    def test_symmetric_8_retains_under_4mb(self):
        # the element array, the derivations and, once a position is asked
        # for, the sorted row keys; no Perm per element: about 2.9 MB
        symmetric_table(3).position(Perm.identity(3))
        tracemalloc.start()
        try:
            table = symmetric_table(8)
            table.position(Perm.identity(8))
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.order == 40320
        assert retained < 4 * 2**20

    @pytest.mark.parametrize("make,k", [
        *((make, k) for make in (symmetric_table, alternating_table,
                                 cyclic_table, dihedral_table)
          for k in range(2, 9)),
        (cyclic_table, 37), (dihedral_table, 37), (symmetric_table, 1)])
    def test_element_orders_match_perm_order(self, make, k):
        table = make(k)
        assert table.element_orders().tolist() == [e.order() for e in table]

    def test_element_orders_cached(self):
        for table in (symmetric_table(5), GroupTable.generate(
                [Perm.parse("(1 2 3)(4 5)", 5)])):
            assert table.element_orders() is table.element_orders()

    @pytest.mark.parametrize("k", range(1, 41))
    def test_closed_form_tables_match_closure(self, k):
        # the closed-form cyclic and dihedral tables equal the closure of
        # the same generators, and both the Perm oracle: rows, generators,
        # derivations and orders
        cycle = Perm.from_cycles([list(range(k))], k)
        reflection = Perm([(-i) % k for i in range(k)])
        for table, gens in ((cyclic_table(k), [cycle]),
                            (dihedral_table(k), [cycle, reflection])):
            closed = GroupTable.generate(gens)
            _assert_matches_oracle(table, gens)
            _assert_matches_oracle(closed, gens)
            assert table.element_orders().tolist() == \
                closed.element_orders().tolist()

    def test_a5_order_five_census(self, A5):
        orders = A5.table.element_orders()
        assert int((orders == 5).sum()) == 24


# -- conjugacy machinery -------------------------------------------------------

def _brute_force_classes(table):
    """(reps, class_of, sizes) from {g^-1 x g : g in G} per element, the
    classes ordered by least position."""
    conj = [{table.position(g.inverse() * x * g) for g in table}
            for x in table]
    reps = sorted({min(c) for c in conj})
    cid = {r: i for i, r in enumerate(reps)}
    return reps, [cid[min(c)] for c in conj], [len(conj[r]) for r in reps]


class TestClasses:
    @pytest.mark.parametrize("make", [
        lambda: symmetric_table(5), lambda: dihedral_table(8),
        lambda: get_group("A5").aut.group_table()],
        ids=["S5", "D8", "Aut(A5)"])
    def test_classes_match_brute_force(self, make):
        table = make()
        part = table.conjugacy_classes()
        assert (part.reps, part.class_of.tolist(), part.sizes) == \
            _brute_force_classes(table)

    def test_trivial_group(self):
        g = GroupTable.generate([Perm.identity(2)])
        assert len(g.conjugacy_classes()) == 1

    def test_a5_classes(self, A5):
        part = A5.table.conjugacy_classes()
        assert len(part) == 5
        assert sorted(part.sizes) == [1, 12, 12, 15, 20]

    def test_s5_classes(self):
        s5 = symmetric_table(5)
        assert len(s5.conjugacy_classes()) == 7

    def test_orbit_stabilizer(self, A5):
        g = A5.table
        part = g.conjugacy_classes()
        for rep, size in zip(part.reps, part.sizes):
            cent = g.centralizer(g.element(rep))
            assert size * cent.order == g.order

    def test_centralizer_of_identity(self, A5):
        assert A5.table.centralizer(Perm.identity(5)).order == 60

    def test_centralizer_of_five_cycle(self, A5):
        assert A5.table.centralizer(Perm.parse("(1 2 3 4 5)", 5)).order == 5

    def test_centralizer_membership_error(self, A5):
        with pytest.raises(MembershipError):
            A5.table.centralizer(Perm.parse("(1 2)", 5))

    def test_fp_trivial(self):
        g = GroupTable.generate([Perm.identity(2)])
        assert g.prime_order_class_count() == 0

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_fp_bound_symmetric(self, m):
        assert symmetric_table(m).prime_order_class_count() <= m * m / 2

    def test_fp_subgroup_inequality(self, A5):
        s5 = symmetric_table(5)
        a5 = alternating_table(5)
        assert a5.prime_order_class_count() <= \
            2 * s5.prime_order_class_count()


# -- bases, degrees, subsets ---------------------------------------------------

class TestMinimalBase:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_symmetric_natural(self, m):
        assert len(symmetric_table(m).base()) == m - 1

    def test_a4_natural(self):
        assert len(alternating_table(4).base()) == 2

    def test_base_is_verified(self):
        g = dihedral_table(5)
        base = g.base()
        size = len(base)
        # only the identity fixes every base point
        assert [p for p in g if set(base) <= set(p.fixed_points())] == \
            [Perm.identity(5)]
        # exhaustiveness: no smaller subset works
        from itertools import combinations
        for smaller in combinations(range(5), size - 1):
            assert any(set(smaller) <= set(p.fixed_points())
                       for p in g if not p.is_identity())


class TestStructure:
    def test_primitive_prime_degree(self):
        assert cyclic_table(5).is_primitive()
        assert dihedral_table(5).is_primitive()

    @pytest.mark.parametrize("k", range(2, 14))
    @pytest.mark.parametrize("make", [cyclic_table, dihedral_table])
    def test_primitive_agrees_with_block_test(self, make, k):
        table = make(k)
        gens = [g.images for g in table.generators]
        blocks = all(_minimal_block_size(gens, k, 0, a) == k
                     for a in range(1, k))
        assert table.is_primitive() == (table.is_transitive() and blocks)

    def test_intransitive_orbits(self):
        table = GroupTable.generate([Perm.parse("(1 2)(3 4 5)", 6)])
        assert not table.is_transitive()
        assert not table.is_primitive()
        assert cyclic_table(6).is_transitive()

    def test_imprimitive(self):
        assert not cyclic_table(4).is_primitive()
        assert not dihedral_table(6).is_primitive()

    def test_contains_alternating(self):
        # a table top's order alone decides it (Alt(k) is the only
        # subgroup of index 2 in Sym(k))
        assert TopGroup(5, symmetric_table(5)).alternating
        assert TopGroup(5, alternating_table(5)).alternating
        assert not TopGroup(5, dihedral_table(5)).alternating

    def test_bochert_bound_on_test_tops(self):
        # primitive tops without the alternating group have small bases
        for table in (cyclic_table(5), dihedral_table(5), cyclic_table(7)):
            k = table.degree
            assert len(table.base()) <= k / 2
