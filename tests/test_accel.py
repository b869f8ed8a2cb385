"""The scan kernel against the fixing-condition oracle."""

import numpy as np
import pytest

from diagbase import _accel
from diagbase.baseengine import element_fixes_points
from diagbase.diag import OmegaPoint, build_group


def _random_inputs(T, seed, n_cand=200, n_tuples=40, k=3):
    """Random candidates of G_D (all of G_D if ``n_cand`` is None) and random
    canonical k-tuples whose entries come from three elements of T, so that
    many pairs fix and many do not."""
    g = build_group(T, k, "full", "sym-table")
    rng = np.random.default_rng(seed)
    perms = g.top.table.arrays().astype(np.int32)
    if n_cand is None:
        cand_a, cand_p = np.divmod(np.arange(T.aut.n_aut * len(perms),
                                             dtype=np.int32), len(perms))
    else:
        cand_a = rng.integers(0, T.aut.n_aut, n_cand).astype(np.int32)
        cand_p = rng.integers(0, len(perms), n_cand).astype(np.int32)
    entries = np.concatenate([[0], rng.choice(np.arange(1, T.order), 2,
                                              replace=False)])
    tuples = np.zeros((n_tuples, k), dtype=np.int32)
    tuples[:, 1:] = rng.choice(entries, (n_tuples, k - 1))
    return g, (T.aut.rows, perms, cand_a, cand_p, tuples, T.mul, T.inv)


def _oracle(g, args):
    """fixes[c, j]: candidate c fixes tuple j, by element_fixes_points."""
    _, _, cand_a, cand_p, tuples, _, _ = args
    points = [OmegaPoint(tuple(int(v) for v in t)) for t in tuples]
    return np.array([[element_fixes_points(g, int(a),
                                           g.top.table.elements[int(p)], [pt])
                      for pt in points]
                     for a, p in zip(cand_a, cand_p)], dtype=bool)


@pytest.fixture(params=["A5", "L27"])
def T(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_filter_candidates_matches_oracle(T, seed):
    g, args = _random_inputs(T, seed, n_cand=None, n_tuples=2)
    fixes = _oracle(g, args)
    mask = _accel.filter_candidates(*args)
    assert mask.dtype == np.uint8
    np.testing.assert_array_equal(mask.astype(bool), fixes.all(axis=1))
    assert 0 < mask.sum() < len(mask)


@pytest.mark.parametrize("seed", [3, 4])
def test_count_per_tuple_matches_oracle(T, seed):
    g, args = _random_inputs(T, seed)
    fixes = _oracle(g, args)
    counts = _accel.count_per_tuple(*args)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, fixes.sum(axis=0))
    assert 0 < counts.sum() < fixes.size


def test_counts_bound_detections(A5):
    _, args = _random_inputs(A5, 7)
    counts = _accel.count_per_tuple(*args)
    detected = _accel.detect_per_tuple(*args)
    assert detected.dtype == np.uint8
    np.testing.assert_array_equal(detected.astype(bool), counts > 0)


@pytest.mark.parametrize("seed", [11, 12])
def test_k2_block_pass_matches_oracle(T, seed):
    # at k = 2 the block pass over coordinate 1 is the only test made
    g, args = _random_inputs(T, seed, n_cand=None, n_tuples=30, k=2)
    fixes = _oracle(g, args)
    assert 0 < fixes.sum() < fixes.size
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  fixes.all(axis=1))
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  fixes.any(axis=0))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  fixes.sum(axis=0))


def test_pairs_span_several_chunks(A5):
    g, args = _random_inputs(A5, 8, n_cand=200, n_tuples=400)
    assert 200 * 400 > _accel._CHUNK_PAIRS
    fixes = _oracle(g, args)
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  fixes.sum(axis=0))
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  fixes.any(axis=0))
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  fixes.all(axis=1))


def test_chunk_dying_at_coordinate_2_then_a_fixing_chunk(A5, monkeypatch):
    # conjugation by x fixes (1, t1, t2, t2) iff x centralizes t1 and t2;
    # with t1, t2 of order 5 in different cyclic subgroups, the candidates
    # x in <t1> \ {1} pass coordinate 1 of the first tuple and all fail at
    # coordinate 2, so its chunk stops before coordinate 3, while they fix
    # the second tuple (1, t1, t1, t1)
    g = build_group(A5, 4, "full", "sym-table")
    t1 = int(np.flatnonzero(A5.order_of == 5)[0])
    powers = [t1]
    while len(powers) < 4:
        powers.append(int(A5.mul[powers[-1], t1]))
    t2 = next(int(t) for t in np.flatnonzero(A5.order_of == 5)
              if t not in powers)
    cand_a = np.array([A5.aut.inn_of(x) for x in [t2, *powers]], np.int32)
    cand_p = np.zeros(len(cand_a), np.int32)
    tuples = np.array([[0, t1, t2, t2], [0, t1, t1, t1]], np.int32)
    args = (A5.aut.rows, g.top.table.arrays().astype(np.int32), cand_a,
            cand_p, tuples, A5.mul, A5.inv)
    fixes = _oracle(g, args)
    np.testing.assert_array_equal(fixes[:, 0], False)
    np.testing.assert_array_equal(fixes[:, 1], [False, True, True, True, True])
    # one tuple per chunk
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", len(cand_a))
    c, j = _accel._fixing_pairs(*args)
    assert sorted(zip(c.tolist(), j.tolist())) == [(1, 1), (2, 1), (3, 1),
                                                   (4, 1)]
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  fixes.sum(axis=0))
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  fixes.all(axis=1))


def test_no_candidates(A5):
    _, (auts, perms, cand_a, cand_p, tuples, mul, inv) = _random_inputs(A5, 9)
    args = (auts, perms, cand_a[:0], cand_p[:0], tuples, mul, inv)
    assert _accel.filter_candidates(*args).shape == (0,)
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  np.zeros(len(tuples), np.uint8))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  np.zeros(len(tuples), np.int64))


def test_no_tuples(A5):
    _, (auts, perms, cand_a, cand_p, tuples, mul, inv) = _random_inputs(A5, 10)
    args = (auts, perms, cand_a, cand_p, tuples[:0], mul, inv)
    # every candidate fixes all of no tuples
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  np.ones(len(cand_a), np.uint8))
    assert _accel.detect_per_tuple(*args).shape == (0,)
    assert _accel.count_per_tuple(*args).shape == (0,)
