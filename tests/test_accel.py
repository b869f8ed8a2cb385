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
    return g, (T.aut.rows, perms, cand_a, cand_p, tuples, T.mul, T.inv,
               T.order_of)


def _oracle(g, args):
    """fixes[c, j]: candidate c fixes tuple j, by element_fixes_points."""
    _, _, cand_a, cand_p, tuples, _, _, _ = args
    points = [OmegaPoint(tuple(int(v) for v in t)) for t in tuples]
    return np.array([[element_fixes_points(g, int(a),
                                           g.top.table.element(int(p)), [pt])
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
            cand_p, tuples, A5.mul, A5.inv, A5.order_of)
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


def _spy_order_test(monkeypatch):
    """Make every call with a moved perm run the element-order test, and
    collect the masks it returns."""
    masks, test = [], _accel._order_passes

    def spy(*args):
        masks.append(test(*args))
        return masks[-1]
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", 16)
    monkeypatch.setattr(_accel, "_order_passes", spy)
    return masks


@pytest.mark.parametrize("k,n_cand", [(3, None), (4, 300)])
@pytest.mark.parametrize("seed", [6, 11])
def test_order_test_matches_oracle(T, seed, k, n_cand, monkeypatch):
    g, args = _random_inputs(T, seed, n_cand=n_cand, n_tuples=12, k=k)
    fixes = _oracle(g, args)
    assert fixes[args[3] != 0].any()
    masks = _spy_order_test(monkeypatch)
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  fixes.all(axis=1))
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  fixes.any(axis=0))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  fixes.sum(axis=0))
    # the test ran on every call and dropped some perms
    assert len(masks) == 3 and not masks[0].all()


def test_order_test_keeps_exactly_the_fixing_pairs(A5, monkeypatch):
    # with pi = (1 2) at k = 3, (alpha, pi) fixes (1, x, y) iff alpha swaps
    # x and y; pi passes the order test on (1, x, y) iff |x| = |y|
    g = build_group(A5, 3, "full", "sym-table")
    perms = g.top.table.arrays().astype(np.int32)
    swap = next(r for r, p in enumerate(perms) if list(p) == [0, 2, 1])
    rows, fives = A5.aut.rows, np.flatnonzero(A5.order_of == 5)
    x = int(fives[0])
    lone = next(int(y) for y in fives if y != x and
                not np.any((rows[:, x] == y) & (rows[:, y] == x)))
    three = int(np.flatnonzero(A5.order_of == 3)[0])
    # the perm passes on tuples 0 and 1, but only tuple 1 is fixed by a
    # moved-perm candidate; it fails on tuple 2
    tuples = np.array([[0, x, lone], [0, x, A5.inv[x]], [0, x, three]],
                      np.int32)
    cand_a = np.repeat(np.arange(A5.aut.n_aut, dtype=np.int32), 2)
    cand_p = np.tile(np.array([0, swap], np.int32), A5.aut.n_aut)
    args = (rows, perms, cand_a, cand_p, tuples, A5.mul, A5.inv, A5.order_of)
    fixes = _oracle(g, args)
    moved = cand_p == swap
    assert not fixes[moved, 0].any() and fixes[moved, 1].any()
    masks = _spy_order_test(monkeypatch)
    for picked in ([0, 1, 2], [0, 2], [2]):
        sub = args[:4] + (tuples[picked],) + args[5:]
        c, j = _accel._fixing_pairs(*sub)
        assert sorted(zip(c.tolist(), j.tolist())) == \
            sorted(zip(*np.nonzero(fixes[:, picked])))
        assert masks[-1][0] and masks[-1][swap] == (picked != [2])
    # on tuple 2 alone every moved-perm candidate is dropped, while the
    # identity-perm candidates that fix it are all reported
    assert fixes[~moved, 2].any()
    np.testing.assert_array_equal(
        _accel.count_per_tuple(*args[:4], tuples[[2]], *args[5:]),
        [fixes[~moved, 2].sum()])


def test_no_candidates(A5):
    _, (auts, perms, cand_a, cand_p, tuples, mul, inv, orders) = \
        _random_inputs(A5, 9)
    args = (auts, perms, cand_a[:0], cand_p[:0], tuples, mul, inv, orders)
    assert _accel.filter_candidates(*args).shape == (0,)
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  np.zeros(len(tuples), np.uint8))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  np.zeros(len(tuples), np.int64))


def test_no_tuples(A5):
    _, (auts, perms, cand_a, cand_p, tuples, mul, inv, orders) = \
        _random_inputs(A5, 10)
    args = (auts, perms, cand_a, cand_p, tuples[:0], mul, inv, orders)
    # every candidate fixes all of no tuples
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  np.ones(len(cand_a), np.uint8))
    assert _accel.detect_per_tuple(*args).shape == (0,)
    assert _accel.count_per_tuple(*args).shape == (0,)
