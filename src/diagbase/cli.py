"""Command-line surface over the whole package.

Subcommands: catalog-validate, base-construct, base-min, base-verify,
prob-exact, prob-mc, paper-suite.  Reports are deterministic given the same
configuration (timing is opt-in via --timing), JSON by default; CSV is meant
for sweep tables, plain text for eyeballing.

Exit codes: 0 success, 2 usage, 3 validation failure, 4 budget exceeded,
5 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import report as report_mod
from .baseengine import (construct_auto, is_base, minimal_base_size,
                         pyber_check)
from .catalog import catalog_names, get_group
from .diag import OmegaPoint, build_group
from .errors import (BudgetExceededError, PreconditionError, ValidationError)
from .prob import (ProbReport, monte_carlo_nonbase,
                   nonbase_fraction_and_q2_bound, r_split_exact)
from .suite import format_table, run_suite

EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_PRECONDITION = 5

DEFAULT_BUDGET = 10**7
DEFAULT_SAMPLES = 10**4
DEFAULT_SEED = 0x5EED


def _group_flags(p, multi=False):
    if multi:
        p.add_argument("--group", required=True,
                       help="catalog group name, or a comma list for sweeps")
    else:
        p.add_argument("--group", required=True, help="catalog group name")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-part", default="full",
                   help="inner | full | g<i>[,g<j>] (catalog outer "
                        "generator refs)")
    p.add_argument("--top", default="sym",
                   help="trivial | sym | alt | sym-table | alt-table | "
                        "cyclic | dihedral | gens:<cycles>|<cycles>")


def _output_flags(p):
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="json")
    p.add_argument("--output", default=None, help="write report here "
                   "instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="embed wall-clock timing in the report")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="diagbase",
        description="base sizes and base probabilities of diagonal-type "
                    "permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog-validate",
                       help="build and validate catalog groups")
    p.add_argument("--group", default=None,
                   help="single group (default: all)")
    _output_flags(p)

    p = sub.add_parser("base-construct",
                       help="run the applicable explicit base construction")
    _group_flags(p)
    _output_flags(p)

    p = sub.add_parser("base-min", help="exact minimal base size")
    _group_flags(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _output_flags(p)

    p = sub.add_parser("base-verify",
                       help="verify a candidate base (points as "
                            "semicolon-separated canonical tuples)")
    _group_flags(p)
    p.add_argument("--points", required=True,
                   help="e.g. '0 5 3; 0 7 2' (element ids into T, first 0)")
    _output_flags(p)

    p = sub.add_parser("prob-exact",
                       help="exact non-base pair proportion and bound")
    _group_flags(p, multi=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most points scanned, and most class members "
                        "walked by --r-split")
    p.add_argument("--r-split", action="store_true",
                   help="also compute the per-class split (walks the "
                        "prime-order conjugacy classes of the whole group)")
    _output_flags(p)

    p = sub.add_parser("prob-mc", help="Monte-Carlo non-base fraction")
    _group_flags(p, multi=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _output_flags(p)

    p = sub.add_parser("paper-suite",
                       help="run the acceptance battery")
    p.add_argument("--criteria", default=None,
                   help="comma list of criterion ids (default: all)")
    _output_flags(p)
    return parser


def _emit(args, command, config, payload, elapsed):
    rep = report_mod.make_report(
        command, config, payload,
        timing_seconds=round(elapsed, 3) if args.timing else None)
    text = report_mod.render(rep, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_from_args(args, name=None):
    for attr in ("budget", "samples"):
        if getattr(args, attr, 1) < 1:
            raise PreconditionError(f"--{attr} must be positive")
    T = get_group(name or args.group)
    return build_group(T, args.k, args.out_part, args.top)


def _config_echo(args):
    skip = {"format", "output", "timing", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_catalog_validate(args):
    names = [args.group] if args.group else catalog_names()
    payload = []
    for name in names:
        T = get_group(name)
        payload.append({
            "name": T.name,
            "order": T.order,
            "out_order": T.out_order,
            "natural_degree": T.natural_degree,
            "min_index": T.min_index,
            "min_index_status": T.min_index_status,
            "aut_order": T.aut.n_aut,
        })
    return payload


def cmd_base_construct(args):
    g = _build_from_args(args)
    name, pts = construct_auto(g)
    if pts is None:
        raise PreconditionError("no construction applies to this instance")
    cert = is_base(g, pts[1:])
    if not cert.verdict:
        raise ValidationError(
            f"construction {name!r} produced a non-base (this is a hard "
            f"failure)")
    return {
        "group": g.describe(),
        "construction": name,
        "certificate": cert.describe(),
        "size": len(pts),
    }


def cmd_base_min(args):
    g = _build_from_args(args)
    size, pts = minimal_base_size(g, budget=args.budget)
    return {
        "group": g.describe(),
        "size": size,
        "base": [p.serialize() for p in pts],
        "pyber": pyber_check(g, size, exact=True),
    }


def cmd_base_verify(args):
    g = _build_from_args(args)
    pts = [OmegaPoint.parse(part, g.T)
           for part in args.points.split(";") if part.strip()]
    for p in pts:
        if p.k != g.k:
            raise PreconditionError(
                f"point {p} has {p.k} entries, expected k = {g.k}")
    cert = is_base(g, pts)
    return {"group": g.describe(), "certificate": cert.describe()}


def cmd_prob_exact(args):
    payload = []
    for name in args.group.split(","):
        g = _build_from_args(args, name.strip())
        rep = ProbReport(group=g.describe(), n=g.degree)
        # the class walk first, so that a group too large to code exits 5
        # whatever the size of its point set
        if args.r_split:
            rep.r_split = r_split_exact(g, budget=args.budget)
        rep.exact_nonbase_pair_fraction, rep.q2_bound = \
            nonbase_fraction_and_q2_bound(g, budget=args.budget)
        payload.append(rep.describe())
    return payload


def cmd_prob_mc(args):
    payload = []
    for name in args.group.split(","):
        g = _build_from_args(args, name.strip())
        rep = ProbReport(group=g.describe(), n=g.degree)
        rep.mc_estimate = monte_carlo_nonbase(
            g, args.samples, seed=args.seed)
        payload.append(rep.describe())
    return payload


def cmd_paper_suite(args):
    ids = None
    if args.criteria:
        try:
            ids = {int(v) for v in args.criteria.split(",")}
        except ValueError:
            raise PreconditionError(
                f"--criteria takes integer ids: {args.criteria!r}") from None
    return run_suite(ids)


COMMANDS = {
    "catalog-validate": cmd_catalog_validate,
    "base-construct": cmd_base_construct,
    "base-min": cmd_base_min,
    "base-verify": cmd_base_verify,
    "prob-exact": cmd_prob_exact,
    "prob-mc": cmd_prob_mc,
    "paper-suite": cmd_paper_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        payload = COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    suite = args.command == "paper-suite"
    if suite and args.format == "text" and not args.output:
        print(format_table(payload))
    else:
        _emit(args, args.command, _config_echo(args), payload,
              time.perf_counter() - start)
    return 1 if suite and not all(r["passed"] for r in payload) else 0


if __name__ == "__main__":
    sys.exit(main())
