import functools

import pytest

from diagbase.catalog import get_group
from diagbase.diag import OmegaPoint, act_diag, build_group, omega_tuples
from diagbase.perm import Perm


@pytest.fixture(scope="session")
def A5():
    return get_group("A5")


@pytest.fixture(scope="session")
def A6():
    return get_group("A6")


@pytest.fixture(scope="session")
def L27():
    return get_group("L2(7)")


def _gd_generators(g):
    """A generating set of G_D as (aut row, Perm) pairs: the inner maps of
    the generators of T, one automorphism per nontrivial outer label, and
    the generators of the top."""
    aut = g.T.aut
    ident = Perm.identity(g.k)
    return ([(aut.inn_of(gid), ident) for gid in g.T.gen_ids]
            + [(int(aut.label_reps[lab]), ident)
               for lab in g.out_labels if lab]
            + [(aut.identity_row, p) for p in g.top.table.generators])


@functools.cache
def _orbits_by_action(name, k, out_part, top):
    """The G_D orbits on the point set as sets of tuples, walked with
    act_diag from each least unvisited tuple, in order of that tuple
    (lexicographic tuple order is the omega_tuples row order)."""
    g = build_group(get_group(name), k, out_part, top)
    gens = _gd_generators(g)
    visited, orbits = set(), []
    for row in omega_tuples(g).tolist():
        start = tuple(row)
        if start in visited:
            continue
        orbit, frontier = {start}, [OmegaPoint(start)]
        while frontier:
            p = frontier.pop()
            for a, perm in gens:
                q = act_diag(g.T, p, a, perm)
                if q.tuple_ids not in orbit:
                    orbit.add(q.tuple_ids)
                    frontier.append(q)
        visited |= orbit
        orbits.append(orbit)
    return orbits


@pytest.fixture(scope="session")
def orbits_by_action():
    """(name, k, out_part, top) -> the G_D orbits, an action-based oracle
    for diag.gd_orbits, each shape walked once per session."""
    return _orbits_by_action
