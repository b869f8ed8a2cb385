import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbase.catalog import get_group
from diagbase.errors import BudgetExceededError, MembershipError
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

    def test_identity_serializes_as_unit(self):
        assert str(Perm.identity(4)) == "()"

    def test_sign(self):
        assert Perm.parse("(1 2)", 4).sign() == -1
        assert Perm.parse("(1 2 3)", 4).sign() == 1

    def test_pow(self):
        p = Perm.from_cycles([[0, 1, 2, 3, 4]], 5)
        assert p ** 5 == Perm.identity(5)
        assert p ** -1 == p.inverse()


# -- closure ------------------------------------------------------------------

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
        assert g.deriv[0] == (-1, -1)
        for i, (parent, gi) in enumerate(g.deriv[1:], start=1):
            assert parent < i
            assert g.elements[parent] * g.generators[gi] == g.elements[i]

    def test_idempotent(self):
        g = GroupTable.generate([Perm.parse("(1 2 3 4)", 4)])
        again = GroupTable.generate(g.elements)
        assert {e._key for e in again.elements} == \
            {e._key for e in g.elements}

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            GroupTable.generate([Perm.parse("(1 2 3 4 5 6 7)", 7),
                                 Perm.parse("(1 2)", 7)], budget=100)

    @pytest.mark.parametrize("make,k", [
        *((make, k) for make in (symmetric_table, alternating_table,
                                 cyclic_table, dihedral_table)
          for k in range(2, 9)),
        (cyclic_table, 37), (dihedral_table, 37), (symmetric_table, 1)])
    def test_element_orders_match_perm_order(self, make, k):
        table = make(k)
        assert table.element_orders().tolist() == \
            [e.order() for e in table.elements]

    def test_a5_order_five_census(self, A5):
        orders = A5.table.element_orders()
        assert int((orders == 5).sum()) == 24


# -- conjugacy machinery -------------------------------------------------------

def _brute_force_classes(table):
    """(reps, class_of, sizes) from {g^-1 x g : g in G} per element, the
    classes ordered by least position."""
    conj = [{table.position(g.inverse() * x * g) for g in table.elements}
            for x in table.elements]
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
        g = GroupTable.from_elements([Perm.identity(2)])
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
            cent = g.centralizer(g.elements[rep])
            assert size * cent.order == g.order

    def test_centralizer_of_identity(self, A5):
        assert A5.table.centralizer(Perm.identity(5)).order == 60

    def test_centralizer_of_five_cycle(self, A5):
        assert A5.table.centralizer(Perm.parse("(1 2 3 4 5)", 5)).order == 5

    def test_centralizer_membership_error(self, A5):
        with pytest.raises(MembershipError):
            A5.table.centralizer(Perm.parse("(1 2)", 5))

    def test_fp_trivial(self):
        g = GroupTable.from_elements([Perm.identity(2)])
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
        size, base = symmetric_table(m).minimal_base()
        assert size == m - 1

    def test_a4_natural(self):
        size, _ = alternating_table(4).minimal_base()
        assert size == 2

    def test_base_is_verified(self):
        g = dihedral_table(5)
        size, base = g.minimal_base()
        assert len(g.pointwise_stabilizer_elements(base)) == 1
        # exhaustiveness: no smaller subset works
        from itertools import combinations
        for smaller in combinations(range(5), size - 1):
            assert len(g.pointwise_stabilizer_elements(smaller)) > 1


class TestDistinguishingSubset:
    def test_prime_regular(self):
        delta, exhaustive = cyclic_table(37).distinguishing_subset()
        assert delta is not None and not exhaustive
        assert len(delta) >= 37 - len(delta)

    def test_symmetric_absent(self):
        delta, exhaustive = symmetric_table(5).distinguishing_subset()
        assert delta is None and exhaustive

    def test_dihedral_verified(self):
        g = dihedral_table(5)
        delta, exhaustive = g.distinguishing_subset()
        assert exhaustive
        if delta is not None:
            assert g.setwise_stabilizer_is_trivial(delta)

    def test_deterministic(self):
        a = cyclic_table(37).distinguishing_subset()
        b = cyclic_table(37).distinguishing_subset()
        assert a == b


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
        assert table.orbits() == [[0, 1], [2, 3, 4], [5]]
        assert not table.is_transitive()
        assert not table.is_primitive()
        assert cyclic_table(6).orbits() == [list(range(6))]

    def test_imprimitive(self):
        assert not cyclic_table(4).is_primitive()
        assert not dihedral_table(6).is_primitive()

    def test_contains_alternating(self):
        assert symmetric_table(5).contains_alternating()
        assert alternating_table(5).contains_alternating()
        assert not dihedral_table(5).contains_alternating()

    def test_bochert_bound_on_test_tops(self):
        # primitive tops without the alternating group have small bases
        for table in (cyclic_table(5), dihedral_table(5), cyclic_table(7)):
            k = table.degree
            size, _ = table.minimal_base()
            assert size <= k / 2
