"""Seeded op lists for the three benchmark workloads.

Every op is one ``diagbase`` CLI argv.  A workload is a fixed *round* (the
same multiset of op shapes every time) repeated ``rounds_for(seconds)``
times; the seed decides the random point sets and the Monte Carlo seeds,
while the interleaving of ops within a round is fixed.  Keeping the multiset
fixed keeps the number of heavy ops, and hence every metric, comparable
between seeds, and fixing the op count from ``--seconds`` (instead of
stopping on the clock) means a slower program runs the same ops for longer
rather than fewer ops.  Every op records its round; the traced run's
overhead baseline uses the first round.

The round counts and contents are chosen so that ``op_tail_ms`` (the
11th-largest op time) falls inside a group of ops of the same shape at the
usual ``--seconds`` (24), not on the edge between two shapes of very
different cost, where a small change of speed would swap which shape it
reads.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import random

# catalog orders, needed to draw points without importing diagbase (the
# benchmark times that import as set-up)
ORDER = {"A5": 60, "A6": 360, "L2(7)": 168, "L2(8)": 504, "L2(11)": 660}


def _random_points(rng, instance, n_points):
    group, k = instance[0], instance[1]
    pts = []
    for _ in range(n_points):
        ids = [0] + [rng.randrange(ORDER[group]) for _ in range(k - 1)]
        pts.append(" ".join(map(str, ids)))
    return "; ".join(pts)


def _op(command, instance, *extra):
    group, k, out, top = instance
    return {"kind": command, "instance": instance,
            "argv": [command, "--group", group, "--k", str(k),
                     "--out-part", out, "--top", top, *extra]}


def _mc_op(rng, instance, samples):
    return _op("prob-mc", instance, "--samples", str(samples),
               "--seed", str(rng.randrange(2**31)))


# ---------------------------------------------------------------------------
# base-search: exact minimal base sizes and explicit-top verification

BASE_MIN = [
    ("A5", 2, "inner", "sym-table"), ("A5", 2, "full", "sym-table"),
    ("A6", 2, "inner", "sym-table"), ("A6", 2, "full", "sym-table"),
    ("L2(7)", 2, "inner", "sym-table"),
    ("L2(7)", 2, "full", "sym-table"),
    ("A5", 3, "full", "alt-table"), ("A5", 3, "full", "sym-table"),
    ("A5", 4, "full", "alt-table"),
    ("L2(7)", 3, "full", "alt-table"),
    ("L2(7)", 3, "full", "sym-table"),
    ("L2(7)", 4, "full", "alt-table"),
]
# left out, one op each longer than a whole run: A6 k=3 sym-table (15 s),
# A5 k=4 sym-table (18 s), L2(7) k=4 sym-table (>7 min)
# three times per round, so that with four rounds op_tail_ms reads inside
# this group of twelve
BASE_MIN_AGAIN = [("A6", 2, "full", "sym-table")] * 2
# three base-verify ops per instance, on 1, 2 and 3 seeded points
BASE_VERIFY_POINTS = (1, 2, 3)


def _base_search_round(rng):
    ops = [_op("base-min", i) for i in BASE_MIN + BASE_MIN_AGAIN]
    for i in BASE_MIN:
        for n in BASE_VERIFY_POINTS:
            ops.append(_op("base-verify", i, "--points",
                           _random_points(rng, i, n)))
    return ops


# ---------------------------------------------------------------------------
# prob-sweep: exact second-moment data, class oracle and Monte Carlo

# the instances of PROB_R_SPLIT run only with --r-split, which computes the
# plain values too
PROB_EXACT = [
    ("A5", 2, "inner", "trivial"),
    ("A6", 2, "full", "sym-table"), ("A6", 2, "inner", "trivial"),
    ("L2(7)", 2, "inner", "trivial"),
    ("L2(8)", 2, "full", "sym-table"),
    ("L2(11)", 2, "full", "sym-table"),
    ("A5", 3, "full", "sym-table"), ("L2(7)", 3, "full", "alt-table"),
]
# --r-split enumerates the whole group; A6 and L2(8) take 9-11 s each and
# are left out
PROB_R_SPLIT = [
    ("A5", 2, "full", "sym-table"),
    ("L2(7)", 2, "full", "sym-table"),
    ("A5", 3, "inner", "alt-table"),
]
MC_SAMPLES = 200
# large-k estimates: (group, k, top); exact values are out of reach here
PROB_MC_LARGE = [
    ("A5", 5, "dihedral"), ("A5", 37, "cyclic"), ("A5", 37, "dihedral"),
    ("A6", 5, "cyclic"), ("A6", 37, "dihedral"),
    ("L2(7)", 5, "cyclic"), ("L2(7)", 37, "dihedral"),
    ("L2(8)", 5, "dihedral"), ("L2(8)", 37, "cyclic"),
    ("L2(11)", 5, "dihedral"), ("L2(11)", 37, "cyclic"),
    # four times per round, so that with two rounds op_tail_ms reads inside
    # this group of eight
    ("A6", 37, "dihedral"), ("A6", 37, "dihedral"), ("A6", 37, "dihedral"),
]
# estimates of instances whose exact value is in golden.json, so the
# estimate can be checked statistically
PROB_MC_KNOWN = [
    ("A5", 2, "full", "sym-table"), ("A5", 3, "full", "sym-table"),
    ("L2(7)", 2, "full", "sym-table"),
]


def _prob_sweep_round(rng):
    ops = [_op("prob-exact", i) for i in PROB_EXACT]
    ops += [_op("prob-exact", i, "--r-split") for i in PROB_R_SPLIT]
    ops += [_mc_op(rng, (group, k, "full", top), MC_SAMPLES)
            for group, k, top in PROB_MC_LARGE]
    ops += [_mc_op(rng, i, MC_SAMPLES) for i in PROB_MC_KNOWN]
    return ops


# ---------------------------------------------------------------------------
# symbolic-sweep: the constraint solver, past |T|^2 = 3600 for A5

# log-spaced over [5, 5000] plus 3601 = |A5|^2 + 1 and two k past it, tops
# alternating sym/alt.  Every k from about 800 up hits the 4300-digit
# int-to-str limit in DiagTypeGroup.describe(); those ops are kept and count
# as failed.
CONSTRUCT_K = {"A5": [5, 12, 30, 75, 180, 450, 1100, 2700, 3601, 4200, 5000],
               "L2(7)": [5, 20, 80, 300, 1000]}
# these also run with the other top: with two rounds op_tail_ms then reads
# inside the group of eight A5 k = 2700 and L2(7) k = 1000 ops (about 0.85 s
# each), below the eight k = 3601, 4200 and 5000 ops
CONSTRUCT_BOTH_TOPS = {("A5", 2700), ("A5", 3601), ("L2(7)", 1000)}
# base-verify at ten log-spaced k in [5, 200], three times for each group
# and top, on 1-3 seeded points
SYM_VERIFY_K = [5, 8, 11, 17, 26, 39, 58, 88, 132, 200]
SYM_MC = [(k, top) for k in (6, 8, 10, 12) for top in ("sym", "alt")]
SYM_MC_SAMPLES = 200


def _symbolic_sweep_round(rng):
    ops = []
    for group, ks in CONSTRUCT_K.items():
        for n, k in enumerate(ks):
            tops = (("sym", "alt") if (group, k) in CONSTRUCT_BOTH_TOPS
                    else (("sym", "alt")[n % 2],))
            ops += [_op("base-construct", (group, k, "full", top))
                    for top in tops]
    for n, k in enumerate(SYM_VERIFY_K):
        for group in ("A5", "L2(7)"):
            for top in ("sym", "alt"):
                i = (group, k, "full", top)
                for m in range(n, n + 3):
                    ops.append(_op("base-verify", i, "--points",
                                   _random_points(rng, i, 1 + m % 3)))
    ops += [_mc_op(rng, ("A5", k, "full", top), SYM_MC_SAMPLES)
            for k, top in SYM_MC]
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (round builder, catalog groups used, rounds at --seconds 24).
    # On a 2-CPU VM a round takes about 4, 12 and 17 s.
    "base-search": (_base_search_round, ["A5", "A6", "L2(7)"], 4),
    "prob-sweep": (_prob_sweep_round,
                   ["A5", "A6", "L2(7)", "L2(8)", "L2(11)"], 2),
    "symbolic-sweep": (_symbolic_sweep_round, ["A5", "L2(7)"], 2),
}


def rounds_for(workload, seconds):
    """Rounds in one run: in proportion to --seconds, at least 1."""
    return max(1, round(WORKLOADS[workload][2] * seconds / 24))


def build_ops(workload, seed, seconds):
    """The op list for one run: deterministic in (workload, seed, seconds)."""
    make_round = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    # the interleaving is the same for every seed, so the ops that pay the
    # process's first-touch costs are the same ones on every run
    order = random.Random(workload)
    ops = []
    for r in range(rounds_for(workload, seconds)):
        batch = make_round(rng)
        order.shuffle(batch)
        ops.extend(dict(op, round=r) for op in batch)
    return ops


def groups_for(workload):
    return list(WORKLOADS[workload][1])
