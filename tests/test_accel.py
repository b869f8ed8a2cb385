"""The scan kernel against the candidate x tuple broadcast, the fixing
condition and the group action."""

import zlib

import numpy as np
import pytest

from diagbase import _accel
from diagbase.baseengine import (element_fixes_points,
                                 pointwise_stabilizer_by_action)
from diagbase.catalog import catalog_names, get_group
from diagbase.diag import OmegaPoint, build_group
from diagbase.prob import prime_order_candidates

from scan_oracle import fixes


def _random_inputs(T, seed, n_cand=200, n_tuples=40, k=3):
    """Random candidates of G_D, repeats allowed (all of G_D if ``n_cand``
    is None), perm-major as G_D is listed, and random canonical k-tuples
    whose entries come from three elements of T, so that many pairs fix
    and many do not."""
    g = build_group(T, k, "full", "sym-table")
    rng = np.random.default_rng(seed)
    perms = g.top.table.arrays()
    if n_cand is None:
        cand_p, cand_a = np.divmod(np.arange(T.aut.n_aut * len(perms),
                                             dtype=np.int32), T.aut.n_aut)
    else:
        cand_a = rng.integers(0, T.aut.n_aut, n_cand).astype(np.int32)
        cand_p = rng.integers(0, len(perms), n_cand).astype(np.int32)
        by_perm = np.argsort(cand_p, kind="stable")
        cand_a, cand_p = cand_a[by_perm], cand_p[by_perm]
    entries = np.concatenate([[0], rng.choice(np.arange(1, T.order), 2,
                                              replace=False)])
    tuples = np.zeros((n_tuples, k), dtype=np.int32)
    tuples[:, 1:] = rng.choice(entries, (n_tuples, k - 1))
    return g, (T, perms, cand_a, cand_p, tuples)


def _oracle(g, args):
    """fixes[c, j]: candidate c fixes tuple j, by element_fixes_points."""
    _, _, cand_a, cand_p, tuples = args
    points = [OmegaPoint(tuple(int(v) for v in t)) for t in tuples]
    return np.array([[element_fixes_points(g, int(a),
                                           g.top.table.element(int(p)), [pt])
                      for pt in points]
                     for a, p in zip(cand_a, cand_p)], dtype=bool)


def _assert_reductions(args, want):
    """The three scans are the reductions of the fixing matrix ``want``."""
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  want.all(axis=1))
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  want.any(axis=0))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  want.sum(axis=0))


@pytest.fixture(params=["A5", "L27"])
def T(request):
    return request.getfixturevalue(request.param)


def _chunks(monkeypatch):
    """Run the loop body at the default chunk, where these inputs are one
    block, then at chunks so small that they go to the scan."""
    for chunk in (_accel._CHUNK_PAIRS, 61):
        monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
        yield


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_filter_candidates_matches_oracle(T, seed, monkeypatch):
    g, args = _random_inputs(T, seed, n_cand=None, n_tuples=2)
    want = _oracle(g, args)
    # the broadcast oracle is the fixing condition itself
    np.testing.assert_array_equal(fixes(*args), want)
    for _ in _chunks(monkeypatch):
        mask = _accel.filter_candidates(*args)
        assert mask.dtype == np.uint8
        np.testing.assert_array_equal(mask.astype(bool), want.all(axis=1))
    assert 0 < mask.sum() < len(mask)


@pytest.mark.parametrize("seed", [3, 4])
def test_count_per_tuple_matches_oracle(T, seed, monkeypatch):
    g, args = _random_inputs(T, seed)
    want = _oracle(g, args)
    for _ in _chunks(monkeypatch):
        counts = _accel.count_per_tuple(*args)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, want.sum(axis=0))
    assert 0 < counts.sum() < want.size


def test_counts_bound_detections(A5, monkeypatch):
    _, args = _random_inputs(A5, 7)
    for _ in _chunks(monkeypatch):
        counts = _accel.count_per_tuple(*args)
        detected = _accel.detect_per_tuple(*args)
        assert detected.dtype == np.uint8
        np.testing.assert_array_equal(detected.astype(bool), counts > 0)


@pytest.mark.parametrize("seed", [11, 12])
def test_k2_block_pass_matches_oracle(T, seed, monkeypatch):
    # at k = 2 coordinate 1 is the only one, both the order test's block
    # and the comparison at the first non-identity entry
    g, args = _random_inputs(T, seed, n_cand=None, n_tuples=30, k=2)
    want = _oracle(g, args)
    assert 0 < want.sum() < want.size
    for _ in _chunks(monkeypatch):
        _assert_reductions(args, want)


# (candidates, tuples) at exactly one chunk of pairs, one block (at k = 3
# four candidates are fewer than the perms), and at one pair more, which
# goes to the scan; then with no candidates or no tuples
GATE = _accel._CHUNK_PAIRS
GATE_SHAPES = [(GATE // 256, 256), (4, GATE // 4), (1, GATE + 1),
               (GATE + 1, 1), (0, GATE + 1), (GATE + 1, 0)]


@pytest.mark.parametrize("perms_of", ["identity", "moved"])
@pytest.mark.parametrize("k", [2, 3])
def test_one_block_up_to_one_chunk(A5, k, perms_of, monkeypatch):
    _, (T, perms, cand_a, cand_p, tuples) = _random_inputs(
        A5, 13 + k, n_cand=GATE + 1, n_tuples=GATE + 1, k=k)
    cand_p = np.zeros_like(cand_p) if perms_of == "identity" else \
        cand_p % (len(perms) - 1) + 1
    scans, scan = [], _accel._scan
    monkeypatch.setattr(_accel, "_scan",
                        lambda *a: scans.append(1) or scan(*a))
    for n_cand, n_tuples in GATE_SHAPES:
        args = (T, perms, cand_a[:n_cand], cand_p[:n_cand], tuples[:n_tuples])
        want = fixes(*args)
        assert not want.size or 0 < want.sum() < want.size
        _assert_reductions(args, want)
        assert len(scans) == 3 * (n_cand * n_tuples > GATE)
        scans.clear()


def _spy_order_test(monkeypatch, chunk=16):
    """Shrink the chunks and collect every run of the element-order test
    as (perm rows, tuples, the pairs that pass), one pair per row."""
    calls, holding = [], _accel._holding

    def spy(T, P, g, alpha, t, j, c, order=False):
        ok = holding(T, P, g, alpha, t, j, c, order)
        if order:
            calls.append((P[g], t[j], set(ok.tolist())))
        return ok
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
    monkeypatch.setattr(_accel, "_holding", spy)
    return calls


def _passes_order_test(T, perm, t):
    """The element-order test of one (perm, tuple) pair, entry by entry."""
    rhs = T.mul[T.inv[t[perm[0]]], t[perm]]
    return bool((T.order_of[t] == T.order_of[rhs]).all())


def test_pairs_span_several_chunks(A5, monkeypatch):
    g, args = _random_inputs(A5, 8, n_cand=200, n_tuples=400)
    want = fixes(*args)
    calls = _spy_order_test(monkeypatch, chunk=64)
    _assert_reductions(args, want)
    # each scan took the tuples in blocks of 64 // 5 moved perms
    assert len(calls) == 3 * -(-400 // (64 // 5))


@pytest.mark.parametrize("chunk", [_accel._CHUNK_PAIRS, 64])
def test_any_candidate_order_gives_the_same_answers(A5, chunk, monkeypatch):
    # the kernel cuts runs where cand_p changes, in the order given: all of
    # G_D perm-major, shuffled, reversed (the identity's run last) and with
    # the identity's run split in two (first and last) gives the same
    # answers, past one chunk already at the default chunk
    _, args = _random_inputs(A5, 21, n_cand=None, n_tuples=30, k=4)
    T, perms, cand_a, cand_p, tuples = args
    assert len(cand_a) * len(tuples) > _accel._CHUNK_PAIRS
    want = fixes(*args)
    assert 0 < want.sum() < want.size
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
    every = np.arange(len(cand_a))
    for order in (every, np.random.default_rng(21).permutation(every),
                  every[::-1], np.roll(every, -T.aut.n_aut // 2)):
        _assert_reductions((T, perms, cand_a[order], cand_p[order], tuples),
                           want[order])


def test_chunk_dying_at_coordinate_2_then_a_fixing_chunk(A5, monkeypatch):
    # conjugation by x fixes (1, t1, t2, t2) iff x centralizes t1 and t2;
    # with t1, t2 of order 5 in different cyclic subgroups, the candidates
    # x in <t1> \ {1} fix the first non-identity entry t1 of the first
    # tuple and all fail at coordinate 2, while they fix the second tuple
    # (1, t1, t1, t1)
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
    args = (A5, g.top.table.arrays(), cand_a, cand_p, tuples)
    want = _oracle(g, args)
    np.testing.assert_array_equal(want[:, 0], False)
    np.testing.assert_array_equal(want[:, 1], [False, True, True, True, True])
    # one tuple per chunk, one candidate per block of the fixer runs
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", 1)
    c, j = _accel._fixing_pairs(*args)
    assert sorted(zip(c.tolist(), j.tolist())) == [(1, 1), (2, 1), (3, 1),
                                                   (4, 1)]
    _assert_reductions(args, want)


@pytest.mark.parametrize("k,n_cand", [(3, None), (4, 300)])
@pytest.mark.parametrize("seed", [6, 11])
def test_order_test_matches_oracle(T, seed, k, n_cand, monkeypatch):
    g, args = _random_inputs(T, seed, n_cand=n_cand, n_tuples=12, k=k)
    _, perms, cand_a, cand_p, tuples = args
    want = _oracle(g, args)
    assert want[cand_p != 0].any()
    calls = _spy_order_test(monkeypatch)
    _assert_reductions(args, want)
    # the test ran on every scan, chunk by chunk, and kept exactly the
    # (moved perm, tuple) pairs that pass it, which include every pair of
    # a fixing moved-perm candidate
    assert len(calls) > 3
    kept = set()
    for perm_rows, tuple_rows, passed in calls:
        for q, (perm, t) in enumerate(zip(perm_rows, tuple_rows)):
            assert (q in passed) == _passes_order_test(T, perm, t)
        kept |= {(tuple(perm_rows[q]), tuple(tuple_rows[q])) for q in passed}
    assert len(kept) < len(tuples) * (len(perms) - 1)
    for c, j in zip(*np.nonzero(want)):
        if cand_p[c]:
            assert (tuple(perms[cand_p[c]]), tuple(tuples[j])) in kept


def test_order_test_keeps_exactly_the_fixing_pairs(A5, monkeypatch):
    # with pi = (1 2) at k = 3, (alpha, pi) fixes (1, x, y) iff alpha swaps
    # x and y; the pair (pi, (1, x, y)) passes the order test iff |x| = |y|
    g = build_group(A5, 3, "full", "sym-table")
    perms = g.top.table.arrays()
    swap = next(r for r, p in enumerate(perms) if list(p) == [0, 2, 1])
    rows, fives = A5.aut.rows, np.flatnonzero(A5.order_of == 5)
    x = int(fives[0])
    lone = next(int(y) for y in fives if y != x and
                not np.any((rows[:, x] == y) & (rows[:, y] == x)))
    three = int(np.flatnonzero(A5.order_of == 3)[0])
    # the pair passes on tuples 0 and 1, but only tuple 1 is fixed by a
    # moved-perm candidate; it fails on tuple 2
    tuples = np.array([[0, x, lone], [0, x, A5.inv[x]], [0, x, three]],
                      np.int32)
    passed = _accel._holding(A5, perms[[swap]], np.zeros(3, np.intp), None,
                             tuples, np.arange(3), 1, order=True)
    assert passed.tolist() == [0, 1]
    cand_a = np.tile(np.arange(A5.aut.n_aut, dtype=np.int32), 2)
    cand_p = np.repeat(np.array([0, swap], np.int32), A5.aut.n_aut)
    args = (A5, perms, cand_a, cand_p, tuples)
    want = _oracle(g, args)
    moved = cand_p == swap
    assert not want[moved, 0].any() and want[moved, 1].any()
    calls = _spy_order_test(monkeypatch)
    for picked in ([0, 1, 2], [0, 2], [2]):
        sub = args[:4] + (tuples[picked],)
        c, j = _accel._fixing_pairs(*sub)
        assert sorted(zip(c.tolist(), j.tolist())) == \
            sorted(zip(*np.nonzero(want[:, picked])))
        _, tuple_rows, passed = calls[-1]
        assert sorted(tuple(tuple_rows[q]) for q in passed) == \
            sorted(tuple(t) for t in tuples[[t for t in picked if t != 2]])
    # on tuple 2 alone every moved-perm candidate is dropped, while the
    # identity-perm candidates that fix it are all reported
    assert want[~moved, 2].any()
    np.testing.assert_array_equal(
        _accel.count_per_tuple(*args[:4], tuples[[2]]),
        [want[~moved, 2].sum()])


def test_no_candidates(A5):
    _, (T, perms, cand_a, cand_p, tuples) = _random_inputs(A5, 9)
    args = (T, perms, cand_a[:0], cand_p[:0], tuples)
    assert _accel.filter_candidates(*args).shape == (0,)
    np.testing.assert_array_equal(_accel.detect_per_tuple(*args),
                                  np.zeros(len(tuples), np.uint8))
    np.testing.assert_array_equal(_accel.count_per_tuple(*args),
                                  np.zeros(len(tuples), np.int64))


def test_no_tuples(A5):
    _, (T, perms, cand_a, cand_p, tuples) = _random_inputs(A5, 10)
    args = (T, perms, cand_a, cand_p, tuples[:0])
    # every candidate fixes all of no tuples
    np.testing.assert_array_equal(_accel.filter_candidates(*args),
                                  np.ones(len(cand_a), np.uint8))
    assert _accel.detect_per_tuple(*args).shape == (0,)
    assert _accel.count_per_tuple(*args).shape == (0,)


@pytest.mark.parametrize("name", catalog_names())
def test_fixer_index(name, monkeypatch):
    # the fixer index lists, per element, exactly the aut rows fixing it
    T = get_group(name)
    ptr, rows = T.aut.fixers
    fixed = T.aut.rows == np.arange(T.order)
    for x in range(T.order):
        assert rows[ptr[x]:ptr[x + 1]].tolist() == \
            np.flatnonzero(fixed[:, x]).tolist()
    assert ptr[1] - ptr[0] == T.aut.n_aut
    # the identity's candidates, every aut row once, are read off it on a
    # scan past one chunk: an index that lists no row for any element but
    # the identity then leaves only D fixed; with a repeated row the scan
    # compares every candidate instead, and the index is not read
    g = build_group(T, 3, "full", "sym-table")
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    tuples = _edge_tuples(T, 3, rng)
    monkeypatch.setattr(_accel, "_CHUNK_PAIRS", 64)
    for cand_a in (rng.permutation(T.aut.n_aut),
                   np.append(np.arange(T.aut.n_aut), 5)):
        args = (T, g.top.table.arrays(), cand_a.astype(np.int32),
                np.zeros(len(cand_a), np.int32), tuples)
        want = fixes(*args)
        _assert_reductions(args, want)
        with monkeypatch.context() as patch:
            patch.setattr(type(T.aut), "fixers", property(lambda aut: (
                np.r_[0, np.full(T.order, aut.n_aut)], np.arange(aut.n_aut))))
            counts = _accel.count_per_tuple(*args)
        if len(cand_a) == T.aut.n_aut:
            moved = tuples.any(axis=1)
            assert want[:, moved].any() and not counts[moved].any()
        else:
            np.testing.assert_array_equal(counts, want.sum(axis=0))


# every k from 2 to 8 on the four explicit tops; cyclic and dihedral tops
# need a prime k to be primitive
KERNEL_SHAPES = [("sym-table", 2), ("cyclic", 3), ("dihedral", 3),
                 ("sym-table", 4), ("alt-table", 4), ("cyclic", 5),
                 ("dihedral", 5), ("alt-table", 6), ("cyclic", 7),
                 ("dihedral", 7), ("alt-table", 7), ("sym-table", 8)]
# candidate sets above this size are scanned through a random sample
MAX_CANDIDATES = 4000
# the action oracle walks G_D in Python, about 14 us an element
ACTION_ORACLE_MAX_GD = 3000


def _edge_tuples(T, k, rng):
    """D itself, a leading run of identity entries, tuples over {1, x, y}
    (nontrivial stabilizers), and random tuples."""
    pool = [0, *rng.choice(np.arange(1, T.order), 2, replace=False)]
    tuples = np.zeros((10, k), dtype=np.int32)
    tuples[1, -1] = pool[1]
    tuples[2, k // 2:] = rng.choice(pool[1:], k - k // 2)
    tuples[3:7, 1:] = rng.choice(pool, (4, k - 1))
    tuples[7:, 1:] = rng.integers(0, T.order, (3, k - 1))
    return tuples


@pytest.mark.parametrize("out", ["inner", "full", "g1"])
@pytest.mark.parametrize("top,k", KERNEL_SHAPES)
@pytest.mark.parametrize("name", catalog_names())
def test_kernel_matches_the_broadcast(name, top, k, out, monkeypatch):
    # random flat subsets of G_D, all of G_D and the prime-order set,
    # against the candidate x tuple broadcast, with the default chunks and
    # with chunks so small that every block boundary falls somewhere
    g = build_group(get_group(name), k, out, top)
    T, perms = g.T, g.top.table.arrays()
    n_a = len(g.aut_rows)
    rng = np.random.default_rng(zlib.crc32(f"{name} {top} {k} {out}".encode()))
    tuples = _edge_tuples(T, k, rng)
    everything = np.arange(g.gd_order)
    prime_a, prime_p = prime_order_candidates(g)
    sets = {
        "subset": rng.choice(everything, min(300, g.gd_order),
                             replace=False),
        "all": everything if g.gd_order <= MAX_CANDIDATES else
        rng.choice(everything, MAX_CANDIDATES, replace=False),
    }
    for label, flat in sets.items():
        sets[label] = (g.aut_rows[flat % n_a], flat // n_a)
    prime = rng.permutation(len(prime_a))[:MAX_CANDIDATES]
    sets["prime"] = (prime_a[prime], prime_p[prime])
    for label, (cand_a, cand_p) in sets.items():
        args = (T, perms, cand_a, cand_p, tuples)
        want = fixes(*args)
        assert want[:, 0].all()         # D
        for chunk in (_accel._CHUNK_PAIRS, 61):
            monkeypatch.setattr(_accel, "_CHUNK_PAIRS", chunk)
            _assert_reductions(args, want)
        monkeypatch.undo()
    if g.gd_order <= ACTION_ORACLE_MAX_GD:
        # all of G_D at one point: its stabilizer, by the group action
        for t in tuples[[1, 2, 3]]:
            pt = OmegaPoint(tuple(t.tolist()))
            cand_a, cand_p = sets["all"]
            mask = _accel.filter_candidates(T, perms, cand_a, cand_p, t[None])
            by_action = pointwise_stabilizer_by_action(g, [pt])
            assert sorted(zip(cand_a[mask == 1].tolist(),
                              cand_p[mask == 1].tolist())) == \
                sorted((a, g.top.table.position(p)) for a, p in by_action)
