"""Output checks for benchmark ops, run after the timed phase.

Each op's captured output is checked independently of the code path that
produced it:

* every JSON report is validated against the shipped report schema;
* base sizes and exact rationals are compared with golden.json;
* every returned base is re-verified: through the group action
  (``pointwise_stabilizer_by_action``) for explicit tops, and against
  ``alt_formula_bounds`` / ``pyber_check`` for symbolic ones;
* a non-base verdict is re-verified by applying its witness to the points;
* Monte Carlo estimates must lie within a few standard deviations of the
  exact value where golden.json has it, never compared with a recorded hit
  count, so a valid change to the random stream does not read as a failure.

``check`` returns ``(status, detail)``, status one of ``ok``, ``defect`` (the
known large-k failure, see KNOWN_DEFECT) or ``failed``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from sys import get_int_max_str_digits

from jsonschema import Draft202012Validator

from diagbase import build_group, get_group
from diagbase.baseengine import (alt_formula_bounds,
                                 pointwise_stabilizer_by_action, pyber_check)
from diagbase.diag import OmegaPoint, act_diag
from diagbase.perm import Perm
from diagbase.report import schema

# DiagTypeGroup.describe() calls str() on |G|, which raises once |G| has
# more digits than Python's int-to-str limit (4300).  Such ops verify their
# base first and only then fail; they stay in the workload and count as
# failed, but they do not make the run incorrect.
KNOWN_DEFECT = ("ValueError", "integer string conversion")
MC_SIGMAS = 5


def _key(instance):
    return "|".join(map(str, instance))


def _frac(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


class Checker:
    def __init__(self, golden):
        self.golden = golden
        self.validator = Draft202012Validator(schema())
        self._groups = {}
        self._seen = {}          # argv -> output, for deterministic commands

    def group(self, instance):
        if instance not in self._groups:
            group, k, out, top = instance
            self._groups[instance] = build_group(get_group(group), k, out,
                                                 top)
        return self._groups[instance]

    def check(self, op, res):
        """Status and detail for one op result."""
        if res["exc"] is not None:
            name, msg = res["exc"]
            if name == KNOWN_DEFECT[0] and KNOWN_DEFECT[1] in msg \
                    and self._too_many_digits(op["instance"]):
                return "defect", name
            return "failed", f"uncaught {name}: {msg[:200]}"
        if res["rc"] != 0:
            return "failed", f"exit {res['rc']}: {res['err'][:200]}"
        try:
            report = json.loads(res["out"])
        except ValueError as exc:
            return "failed", f"output is not JSON: {exc}"
        errors = list(self.validator.iter_errors(report))
        if errors:
            return "failed", f"schema: {errors[0].message[:200]}"
        try:
            getattr(self, "_" + op["kind"].replace("-", "_"))(
                op, report["payload"], res["out"])
        except AssertionError as exc:
            return "failed", f"{op['kind']}: {exc}"
        except Exception as exc:  # an output the checks cannot even read
            return "failed", f"{op['kind']}: {type(exc).__name__}: {exc}"
        return "ok", None

    def _too_many_digits(self, instance):
        g = self.group(instance)
        digits = max(g.order, g.degree).bit_length() * math.log10(2)
        return digits > get_int_max_str_digits()

    def _deterministic(self, op, out):
        """True when the same argv was already checked; its output must
        then repeat byte for byte."""
        argv = tuple(op["argv"])
        if argv in self._seen:
            _check(self._seen[argv] == out, "output differs between runs "
                   "of the same command")
            return True
        self._seen[argv] = out
        return False

    def _points(self, g, texts):
        pts = [OmegaPoint.parse(t, g.T) for t in texts]
        _check(all(p.k == g.k for p in pts), "point of the wrong length")
        return pts

    def _verify_base(self, g, pts, size):
        """Independent re-verification of a returned base (D first)."""
        _check(len(pts) == size, "size differs from the number of points")
        _check(pts[0].is_diagonal(), "base does not start with D")
        _check(len({p.tuple_ids for p in pts}) == len(pts),
               "base repeats a point")
        if g.top.is_symbolic:
            lo, hi = alt_formula_bounds(g)["interval"]
            _check(lo <= size <= hi, f"size {size} outside [{lo}, {hi}]")
        else:
            stab = pointwise_stabilizer_by_action(g, pts[1:])
            _check(len(stab) == 1, "returned base has a nontrivial "
                   "stabilizer under the group action")
        pyber = pyber_check(g, size, exact=False)
        _check(pyber["upper_holds"], "size above the logarithmic bound")

    def _verify_witness(self, g, pts, witness):
        a, perm = witness["aut_row"], Perm.parse(witness["perm"], g.k)
        _check(a != g.T.aut.identity_row or not perm.is_identity(),
               "witness is the identity")
        _check(g.contains_diag(a, perm), "witness outside G_D")
        _check(all(act_diag(g.T, p, a, perm) == p for p in pts),
               "witness does not fix the points under the action")

    # -- per command ------------------------------------------------------------

    def _base_min(self, op, payload, out):
        if self._deterministic(op, out):
            return
        g = self.group(op["instance"])
        want = self.golden["base_min_size"][_key(op["instance"])]
        _check(payload["size"] == want,
               f"b = {payload['size']}, golden {want}")
        self._verify_base(g, self._points(g, payload["base"]),
                          payload["size"])
        _check(payload["pyber"]["upper_holds"]
               and payload["pyber"]["lower_holds"], "pyber check failed")

    def _base_construct(self, op, payload, out):
        if self._deterministic(op, out):
            return
        g = self.group(op["instance"])
        cert = payload["certificate"]
        _check(cert["verdict"] is True, "construction is not a base")
        self._verify_base(g, self._points(g, cert["points"]),
                          payload["size"])

    def _base_verify(self, op, payload, out):
        g = self.group(op["instance"])
        asked = op["argv"][op["argv"].index("--points") + 1].split(";")
        pts = [p for p in self._points(g, asked) if not p.is_diagonal()]
        cert = payload["certificate"]
        _check(cert["points"] == [g.diagonal_point().serialize()]
               + [p.serialize() for p in pts], "certificate points differ")
        method = "constraint-solver" if g.top.is_symbolic else "enumeration"
        _check(cert["method"] == method, "unexpected method")
        if not cert["verdict"]:
            _check(cert["witness"] is not None, "non-base without witness")
            self._verify_witness(g, pts, cert["witness"])
        elif g.top.is_symbolic:
            lo = alt_formula_bounds(g)["interval"][0]
            _check(len(pts) + 1 >= lo, "base smaller than the lower bound")
        else:
            _check(len(pointwise_stabilizer_by_action(g, pts)) == 1,
                   "claimed base has a nontrivial stabilizer")

    def _prob_exact(self, op, payload, out):
        if self._deterministic(op, out):
            return
        (entry,) = payload
        gold = self.golden["prob"][_key(op["instance"])]
        frac = _frac(entry["exact_nonbase_pair_fraction"])
        q2 = _frac(entry["q2_bound"])
        _check(entry["n"] == gold["degree"], "degree differs")
        _check(frac == _frac(gold["exact_nonbase_pair_fraction"]),
               f"non-base fraction {frac} differs from golden")
        _check(q2 == _frac(gold["q2_bound"]), f"q2 {q2} differs from golden")
        _check(frac <= q2, "non-base fraction above the q2 bound")
        if "--r-split" in op["argv"]:
            split = [_frac(r) for r in entry["r_split"]]
            _check(split == [_frac(r) for r in gold["r_split"]],
                   "r-split differs from golden")
            _check(sum(split) == q2, "r-split does not sum to q2")
        else:
            _check(entry["r_split"] is None, "unrequested r-split")

    def _prob_mc(self, op, payload, out):
        (entry,) = payload
        est = entry["mc_estimate"]
        argv = op["argv"]
        samples = int(argv[argv.index("--samples") + 1])
        seed = int(argv[argv.index("--seed") + 1])
        _check(est["samples"] == samples and est["seed"] == seed,
               "estimate echoes the wrong configuration")
        hits = est["hits"]
        _check(0 <= hits <= samples, "hit count out of range")
        _check(est["fraction"] == hits / samples, "fraction != hits/samples")
        gold = self.golden["prob"].get(_key(op["instance"]))
        if gold is not None:
            p = float(_frac(gold["exact_nonbase_pair_fraction"]))
            sigma = math.sqrt(samples * p * (1 - p))
            _check(abs(hits - samples * p) <= MC_SIGMAS * sigma,
                   f"{hits}/{samples} hits is more than {MC_SIGMAS} sigma "
                   f"from the exact {p:.4f}")


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)
