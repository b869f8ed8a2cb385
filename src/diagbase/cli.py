"""Command-line surface over the whole package.

Subcommands: catalog-validate, base-construct, base-min, base-verify,
prob-exact, prob-mc, paper-suite.  Reports are deterministic given the same
configuration (timing is opt-in via --timing), JSON by default; CSV is meant
for sweep tables, plain text for eyeballing.

Exit codes: 0 success, 1 paper-suite criterion failed, 2 usage, 3 validation
failure, 4 budget exceeded (or out of memory), 5 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

from . import report as report_mod
from .baseengine import (construct_auto, is_base, minimal_base_size,
                         pyber_check)
from .catalog import catalog_names, get_group
from .diag import OMEGA_BUDGET, OmegaPoint, build_group
from .errors import (BudgetExceededError, PreconditionError, ValidationError)
from .prob import (DEFAULT_SEED, exact_nonbase_pair_proportion,
                   monte_carlo_nonbase, r_split_formula)

EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_PRECONDITION = 5

DEFAULT_SAMPLES = 10**4


def _decimal(text):
    """An integer option value: -?[0-9]+ with surrounding whitespace (int()
    alone also reads '1_0', '+7' and the digits of other scripts)."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _group_flags(p, multi=False):
    if multi:
        p.add_argument("--group", required=True,
                       help="catalog group name, or a comma list for sweeps")
    else:
        p.add_argument("--group", required=True, help="catalog group name")
    p.add_argument("--k", type=_decimal, required=True)
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
    """The top-level parser and its subcommand parsers by name."""
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
    p.add_argument("--budget", type=_decimal, default=OMEGA_BUDGET,
                   help="most points in the point set, |T|^(k-1)")
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
    p.add_argument("--budget", type=_decimal, default=OMEGA_BUDGET,
                   help="most points in the point set, |T|^(k-1)")
    p.add_argument("--r-split", action="store_true",
                   help="also split the bound by permutation part "
                        "(fixed-point-free / trivial / mixed), from the "
                        "class and centralizer formulas")
    _output_flags(p)

    p = sub.add_parser("prob-mc", help="Monte-Carlo non-base fraction")
    _group_flags(p, multi=True)
    p.add_argument("--samples", type=_decimal, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_decimal, default=DEFAULT_SEED)
    _output_flags(p)

    p = sub.add_parser("paper-suite",
                       help="run the acceptance battery")
    p.add_argument("--criteria", default=None,
                   help="comma list of criterion ids (default: all)")
    _output_flags(p)
    return parser, sub.choices


def parse_args(argv):
    """The two-level parse of ``argv``, without argparse's top-level pass
    when argv[0] names a subcommand: its parser reads the rest alone."""
    parser, commands = build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _emit(args, payload, elapsed):
    if args.command == "paper-suite" and args.format == "text":
        from .suite import format_table
        text = format_table(payload) + "\n"
    else:
        text = report_mod.render(report_mod.make_report(
            args.command, _config_echo(args), payload,
            timing_seconds=round(elapsed, 3) if args.timing else None),
            args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text)


def _build_from_args(args, name=None):
    for attr, least in (("budget", 1), ("samples", 1), ("seed", 0)):
        if getattr(args, attr, least) < least:
            raise PreconditionError(f"--{attr} must be at least {least}")
    T = get_group((args.group if name is None else name).strip())
    return build_group(T, args.k, args.out_part, args.top)


def _prob_groups(args):
    """The group of each entry of the --group comma list."""
    names = [name.strip() for name in args.group.split(",")]
    if not all(names):
        raise PreconditionError(
            f"empty entry in --group list {args.group!r}")
    for name in names:
        yield _build_from_args(args, name)


def _prob_report(g, exact_nonbase_pair_fraction=None, q2_bound=None,
                 r_split=None, mc_estimate=None):
    """The report entry of one group (the report formatters write the
    rationals as {"num", "den"})."""
    return {
        "group": (group := g.describe()),
        "n": group["degree"],
        "exact_nonbase_pair_fraction": exact_nonbase_pair_fraction,
        "q2_bound": q2_bound,
        "r_split": r_split,
        "mc_estimate": mc_estimate,
    }


def _config_echo(args):
    skip = {"format", "output", "timing", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_catalog_validate(args):
    names = catalog_names() if args.group is None else [args.group.strip()]
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
    for g in _prob_groups(args):
        fraction = exact_nonbase_pair_proportion(g, budget=args.budget)
        split = r_split_formula(g)
        payload.append(_prob_report(
            g, exact_nonbase_pair_fraction=fraction, q2_bound=sum(split),
            r_split=split if args.r_split else None))
    return payload


def cmd_prob_mc(args):
    return [_prob_report(g, mc_estimate=monte_carlo_nonbase(
                g, args.samples, seed=args.seed))
            for g in _prob_groups(args)]


def cmd_paper_suite(args):
    # the battery is imported here, so that the other commands skip it
    from . import suite
    ids = None
    if args.criteria is not None:
        try:
            ids = {_decimal(v) for v in args.criteria.split(",")}
        except argparse.ArgumentTypeError:
            raise PreconditionError(
                f"--criteria takes integer ids: {args.criteria!r}") from None
        known = [fn.criterion_id for fn in suite.ALL_CRITERIA]
        unknown = sorted(ids.difference(known))
        if unknown:
            raise PreconditionError(
                f"--criteria: no criterion {', '.join(map(str, unknown))}; "
                f"the ids are {', '.join(map(str, known))}")
    return suite.run_suite(ids)


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
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    start = time.perf_counter()
    suite = args.command == "paper-suite"
    try:
        payload = COMMANDS[args.command](args)
        _emit(args, payload, time.perf_counter() - start)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return 1 if suite and not all(r["passed"] for r in payload) else 0


if __name__ == "__main__":
    sys.exit(main())
