"""The full verification suite: every headline fact this package must
reproduce, runnable as one battery with a pass/fail line per criterion.

Each criterion function returns a dict with ``passed``, human-readable
``details`` lines, and timing.  The CLI ``paper-suite`` command renders the
battery as a table; the test suite asserts every criterion individually.
"""

from __future__ import annotations

import random
import time
from math import sqrt

from .baseengine import (alt_formula_bounds, construct_auto,
                         construct_digit_base, construct_small_k_base,
                         element_fixes_points, is_base, minimal_base_size,
                         pointwise_stabilizer, pointwise_stabilizer_by_action,
                         pyber_check, stabilizer_witness)
from .catalog import get_group, load_catalog
from .diag import OmegaPoint, build_group
from .prob import (RowCodedGroup, centralizer_order_formula,
                   class_count_inequality_check, class_intersection_formula,
                   exact_nonbase_pair_proportion, monte_carlo_nonbase,
                   q2_bound_exact, r_split_formula)

MC_SAMPLES = 10**4


def _criterion(cid, name):
    def deco(fn):
        fn.criterion_id = cid
        fn.criterion_name = name
        return fn
    return deco


@_criterion(1, "k=2 minimal base sizes (A5, A6)")
def criterion_1():
    details, passed = [], True
    expected = [
        ("A5", "inner", 3), ("A5", "full", 4),
        ("A6", "inner", 3), ("A6", "full", 4),
    ]
    for name, out_part, want in expected:
        g = build_group(get_group(name), 2, out_part, "sym-table")
        size, base = minimal_base_size(g)
        # the witness base, re-checked through the group action
        faithful = len(pointwise_stabilizer_by_action(g, base[1:])) == 1
        passed &= size == want and faithful
        label = f"Inn({name})^2:S2" if out_part == "inner" else f"W(2,{name})"
        details.append(f"b({label}) = {size} (want {want}), witness base "
                       f"verified by action: {faithful}")
    return passed, details


@_criterion(2, "small-k constructions and exact b=2 for Alt tops")
def criterion_2():
    details, passed = [], True
    combos = [(2, "trivial"), (2, "sym-table"), (3, "alt-table"),
              (3, "sym-table"), (4, "alt-table"), (4, "sym-table")]
    for tname in ("A5", "L2(7)"):
        T = get_group(tname)
        for k, top in combos:
            g = build_group(T, k, "full", top)
            pts = construct_small_k_base(g)
            cert = is_base(g, pts[1:])
            passed &= cert.verdict
            details.append(
                f"{tname} k={k} top={top}: {len(pts)}-point set "
                f"base={cert.verdict}")
            if top == "alt-table" and k in (3, 4):
                size, _ = minimal_base_size(g)
                passed &= size == 2
                details.append(f"  minimal_base_size = {size} (want 2)")
    return passed, details


@_criterion(3, "digit bases of size 3 with b >= 3 witnesses at k in {60,61}")
def criterion_3():
    details, passed = [], True
    T = get_group("A5")
    rng = random.Random(0x5EED)
    for k in (5, 10, 60, 61):
        g = build_group(T, k, "full", "sym")
        pts = construct_digit_base(g)
        cert = is_base(g, pts[1:])
        ok = cert.verdict and len(pts) == 3 and \
            cert.method == "constraint-solver"
        passed &= ok
        details.append(f"k={k}: digit base |B|={len(pts)} verified="
                       f"{cert.verdict} via {cert.method}")
        if k in (60, 61):
            wit_ok = True
            probes = [pts[1], pts[2]] + [
                OmegaPoint.from_tuple(
                    T, [0, *(rng.randrange(T.order) for _ in range(k - 1))])
                for _ in range(10)]
            # b = 3 says no pair {D, om} is a base: each has a witness
            bounds = alt_formula_bounds(g)
            pinned = bounds["exact"] == 3
            for om in probes:
                w = stabilizer_witness(g, [om])
                wit_ok &= w is not None and element_fixes_points(
                    g, w[0], w[1], [om])
            passed &= wit_ok and pinned
            details.append(
                f"  k={k}: pair witnesses on {len(probes)} points ok="
                f"{wit_ok}; formula bounds pin b = {bounds['exact']}")
    return passed, details


@_criterion(4, "generator base pair for (A5, k=37, C37)")
def criterion_4():
    g = build_group(get_group("A5"), 37, "full", "cyclic")
    name, pts = construct_auto(g)
    cert = is_base(g, pts[1:])
    # the pair, re-checked through the group action
    faithful = len(pointwise_stabilizer_by_action(g, pts[1:])) == 1
    passed = name == "generator" and cert.verdict and faithful
    return passed, [f"{name} construction, {len(pts)} points, "
                    f"base={cert.verdict} via {cert.method}, verified by "
                    f"action: {faithful}"]


@_criterion(5, "condition-based stabilizers equal action-based stabilizers")
def criterion_5():
    details, passed = [], True
    rng = random.Random(1234)
    cases = [("A5", 2, "sym-table", 250), ("A5", 3, "sym-table", 125),
             ("A5", 3, "alt-table", 125)]
    total = 0
    for tname, k, top, n_sets in cases:
        T = get_group(tname)
        g = build_group(T, k, "full", top)
        for _ in range(n_sets):
            pts = [OmegaPoint.from_tuple(
                T, [0, *(rng.randrange(T.order) for _ in range(k - 1))])
                for _ in range(rng.randrange(1, 4))]
            scanned = {(a, p._key)
                       for a, p in pointwise_stabilizer(g, pts)}
            action = {(a, p._key)
                      for a, p in pointwise_stabilizer_by_action(g, pts)}
            if scanned != action:
                passed = False
                details.append(f"MISMATCH at {tname} k={k} top={top}")
            total += 1
    details.insert(0, f"{total} random point sets, exact set equality "
                      f"{'held' if passed else 'FAILED'}")
    return passed, details


@_criterion(6, "class/centralizer formulas match brute force")
def criterion_6():
    details, passed = [], True
    T = get_group("A5")
    instances = [("W(2,A5)", build_group(T, 2, "full", "sym-table")),
                 ("Inn(A5)^3:S3", build_group(T, 3, "inner", "sym-table"))]
    for label, g in instances:
        rc = RowCodedGroup(g)
        checked = 0
        ok = True
        for cls in rc.class_data():
            c_brute = rc.order // cls["size"]
            for m in cls["diag_members"]:
                a = m[0][0]
                perm = g.top.table.element(m[1])
                ok &= centralizer_order_formula(g, a, perm) == c_brute
                checked += 1
                ok &= class_intersection_formula(g, a, perm) == \
                    len(cls["diag_members"])
        # independent cross-check of orbit-stabilizer on one representative
        cls = rc.class_data()[0]
        ok &= rc.centralizer_count(cls["rep"]) == rc.order // cls["size"]
        passed &= ok
        details.append(f"{label}: {checked} centralizer and intersection "
                       f"checks, all equal: {ok}")
    return passed, details


@_criterion(7, "logarithmic upper and lower bounds on every pinned instance")
def criterion_7():
    details, passed = [], True
    T5 = get_group("A5")
    instances = []
    for name, out_part, b in [("A5", "inner", 3), ("A5", "full", 4),
                              ("A6", "inner", 3), ("A6", "full", 4)]:
        instances.append((build_group(get_group(name), 2, out_part,
                                      "sym-table"), b, True))
    for k in (3, 4):
        instances.append((build_group(T5, k, "full", "alt-table"), 2, True))
    for k, exact in [(5, False), (10, False), (60, True), (61, True)]:
        instances.append((build_group(T5, k, "full", "sym"), 3, exact))
    instances.append((build_group(T5, 37, "full", "cyclic"), 2, True))
    for g, b, exact in instances:
        rep = pyber_check(g, b, exact=exact)
        ok = rep["upper_holds"] and rep.get("lower_holds", True)
        passed &= ok
        details.append(
            f"{g.T.name} k={g.k} top={g.top.name}: b={b} "
            f"{'(exact)' if exact else '(upper)'} <= ceil+2 = "
            f"{rep['upper_bound']}: {ok}")
    return passed, details


@_criterion(8, "probability suite: exact values, bound, MC, trend")
def criterion_8():
    details, passed = [], True
    T = get_group("A5")
    inn2 = build_group(T, 2, "inner", "sym-table")
    alt3 = build_group(T, 3, "inner", "alt-table")

    prop_inn2 = exact_nonbase_pair_proportion(inn2)
    bound_inn2 = q2_bound_exact(inn2)
    passed &= prop_inn2 == 1
    details.append(f"nonbase proportion Inn(A5)^2:S2 = {prop_inn2} (want 1)")

    prop_alt3 = exact_nonbase_pair_proportion(alt3)
    bound_alt3 = q2_bound_exact(alt3)
    passed &= prop_alt3 < 1
    details.append(f"nonbase proportion (A5,3,Alt(3)) = {prop_alt3} < 1: "
                   f"{prop_alt3 < 1}")

    for label, g, prop, bound in [
            ("Inn(A5)^2:S2", inn2, prop_inn2, bound_inn2),
            ("(A5,3,Alt(3))", alt3, prop_alt3, bound_alt3)]:
        passed &= prop <= bound
        details.append(f"  {label}: exact {prop} <= bound {bound}: "
                       f"{prop <= bound}")
        mc = monte_carlo_nonbase(g, MC_SAMPLES, seed=0x5EED)
        p = float(prop)
        sigma = sqrt(p * (1 - p) / MC_SAMPLES)
        ok = abs(mc["fraction"] - p) <= 3 * sigma + 1e-12
        passed &= ok
        details.append(f"  {label}: MC {mc['fraction']:.4f} vs exact "
                       f"{p:.4f} within 3 sigma: {ok}")

    # the bound from the class formulas alone: below 1 at k = 5 certifies
    # b = 2 without enumerating a point, and it falls with k
    trend = []
    for name in ("A5", "A6", "L2(7)", "L2(8)", "L2(11)"):
        T = get_group(name)
        g = build_group(T, 5, "full", "cyclic")
        q5 = sum(r_split_formula(g))
        q7 = sum(r_split_formula(build_group(T, 7, "full", "cyclic")))
        mc = monte_carlo_nonbase(g, MC_SAMPLES, seed=0x5EED)
        # the estimate is of the non-base fraction, which the bound caps
        q = float(q5)
        ok = q5 < 1 and q7 < q5 and \
            mc["fraction"] <= q + 3 * sqrt(q * (1 - q) / MC_SAMPLES)
        passed &= ok
        trend.append((name, mc["fraction"]))
        details.append(f"  {name} cyclic top: bound {q:.2e} at k=5 < 1, "
                       f"{float(q7):.2e} at k=7 < k=5, MC {mc['fraction']:.4f}"
                       f" <= bound + 3 sigma: {ok}")
    details.append("nonbase-fraction trend at k=5, cyclic top: " +
                   ", ".join(f"{n}={f:.4f}" for n, f in trend))
    return passed, details


@_criterion(9, "catalog validation and class-count inequality spot checks")
def criterion_9():
    details, passed = [], True
    groups = load_catalog()
    for T in groups:
        ok = T.out_order ** 3 < T.order
        x, y = T.record.gen_pair_distinct_orders
        ok &= x.order() != y.order()
        _, invol = T.record.involution_pair
        ok &= invol.order() == 2
        c = class_count_inequality_check(T)
        ok &= c["holds"]
        passed &= ok
        details.append(
            f"{T.name}: |Out|^3 = {T.out_order ** 3} < |T| = {T.order}; "
            f"distinct orders ({x.order()},{y.order()}); involution pair ok; "
            f"f_p({T.name}) = {c['f_p_sub']} <= {c['index']} * f_p(Aut) = "
            f"{c['index'] * c['f_p_whole']}: {c['holds']}")
    return passed, details


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9]


def run_criterion(fn, timing=False):
    """One criterion's result; its wall time is null without ``timing``."""
    start = time.perf_counter()
    passed, details = fn()
    return {
        "id": fn.criterion_id,
        "name": fn.criterion_name,
        "passed": passed,
        "details": details,
        "elapsed_seconds": round(time.perf_counter() - start, 3)
        if timing else None,
    }


def run_suite(ids=None, timing=False):
    """Run the selected criteria (all by default); returns result dicts."""
    return [run_criterion(fn, timing) for fn in ALL_CRITERIA
            if ids is None or fn.criterion_id in ids]


def format_table(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        elapsed = r["elapsed_seconds"]
        lines.append(f"[{status}] criterion {r['id']}: {r['name']}"
                     + ("" if elapsed is None else f" ({elapsed:.1f}s)"))
        for d in r["details"]:
            lines.append(f"    {d}")
    total = sum(1 for r in results if r["passed"])
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
