"""Regenerate golden.json, the exact answers the benchmark checks ops against.

    PYTHONPATH=src python3 perfbench/golden.py

Every value is computed by the library and, where it is cheap enough,
cross-checked by an independent path before it is written:

* base sizes against the published values (A5/A6 at k = 2: 3 inner, 4
  full; Alt-containing tops at k = 3, 4: 2), and each witness base against
  the action-based stabilizer oracle;
* the exact non-base pair proportion against a per-point scan of G_D
  through the group action (degree x |G_D| up to 3e6);
* the second-moment bound against its per-class evaluation on the
  row-coded copy of the group (group order up to 3e6), and against the sum
  of the r-split when that is recorded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (BASE_MIN, PROB_EXACT, PROB_MC_KNOWN,  # noqa: E402
                       PROB_R_SPLIT)

from diagbase import (build_group, get_group,  # noqa: E402
                      exact_nonbase_pair_proportion, minimal_base_size,
                      q2_bound_exact)
from diagbase.baseengine import pointwise_stabilizer_by_action  # noqa: E402
from diagbase.diag import omega_iter  # noqa: E402
from diagbase.prob import q2_bound_by_classes, r_split_exact  # noqa: E402

PUBLISHED_BASE_SIZE = {
    ("A5", 2, "inner", "sym-table"): 3, ("A5", 2, "full", "sym-table"): 4,
    ("A6", 2, "inner", "sym-table"): 3, ("A6", 2, "full", "sym-table"): 4,
    ("A5", 3, "full", "alt-table"): 2, ("A5", 4, "full", "alt-table"): 2,
    ("L2(7)", 3, "full", "alt-table"): 2,
    ("L2(7)", 4, "full", "alt-table"): 2,
}
CROSS_CHECK_LIMIT = 3 * 10**6


def key(instance):
    return "|".join(map(str, instance))


def rational(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def base_sizes():
    out = {}
    for i in BASE_MIN:
        g = build_group(get_group(i[0]), *i[1:])
        size, pts = minimal_base_size(g)
        if i in PUBLISHED_BASE_SIZE and size != PUBLISHED_BASE_SIZE[i]:
            raise SystemExit(f"{i}: b = {size}, published "
                             f"{PUBLISHED_BASE_SIZE[i]}")
        if len(pointwise_stabilizer_by_action(g, pts[1:])) != 1:
            raise SystemExit(f"{i}: witness base is not a base")
        out[key(i)] = size
        print(f"base {i}: {size}", flush=True)
    return out


def nonbase_by_action(g):
    # the pair (D, D) counts: its stabilizer is all of G_D
    hits = sum(1 for p in omega_iter(g)
               if len(pointwise_stabilizer_by_action(g, [p])) > 1)
    return Fraction(hits, g.degree)


def prob_values():
    out = {}
    for i in dict.fromkeys(PROB_EXACT + PROB_R_SPLIT + PROB_MC_KNOWN):
        g = build_group(get_group(i[0]), *i[1:])
        frac = exact_nonbase_pair_proportion(g)
        q2 = q2_bound_exact(g)
        entry = {"degree": str(g.degree),
                 "exact_nonbase_pair_fraction": rational(frac),
                 "q2_bound": rational(q2), "cross_checked": []}
        if g.degree * g.gd_order <= CROSS_CHECK_LIMIT:
            if nonbase_by_action(g) != frac:
                raise SystemExit(f"{i}: non-base fraction disagrees")
            entry["cross_checked"].append("fraction-by-action")
        if g.order <= CROSS_CHECK_LIMIT:
            if q2_bound_by_classes(g) != q2:
                raise SystemExit(f"{i}: q2 bound disagrees by classes")
            entry["cross_checked"].append("q2-by-classes")
        if i in PROB_R_SPLIT:
            split = r_split_exact(g)
            if sum(split) != q2:
                raise SystemExit(f"{i}: r-split does not sum to q2")
            entry["r_split"] = [rational(r) for r in split]
            entry["cross_checked"].append("r-split-sum")
        out[key(i)] = entry
        print(f"prob {i}: {frac} {q2} {entry['cross_checked']}", flush=True)
    return out


def main():
    golden = {"base_min_size": base_sizes(), "prob": prob_values()}
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
