import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbase import _accel, cli, diag, prob, suite
from diagbase import report as report_mod
from diagbase.catalog import get_group
from diagbase.cli import main
from diagbase.diag import build_group
from diagbase.errors import BudgetExceededError
from diagbase.prob import r_split_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_base_min_w2a5(self, capsys):
        code, out = run_cli(capsys, "base-min", "--group", "A5", "--k", "2",
                            "--out-part", "full", "--top", "sym-table")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["size"] == 4
        assert rep["payload"]["pyber"]["upper_holds"] is True

    def test_base_construct(self, capsys):
        code, out = run_cli(capsys, "base-construct", "--group", "A5",
                            "--k", "5", "--top", "sym")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["construction"] == "digit"
        assert rep["payload"]["certificate"]["verdict"] is True

    def test_base_verify(self, capsys):
        code, out = run_cli(capsys, "base-verify", "--group", "A5", "--k", "2",
                            "--top", "sym-table", "--points", "0 0")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["certificate"]["verdict"] is False
        assert rep["payload"]["certificate"]["witness"] is not None

    def test_base_verify_s8_top(self, capsys):
        # 120 x 40,320 G_D candidates against one point: the scan kernel
        # reads the permutation parts of coordinate-1 survivors only
        code, out = run_cli(capsys, "base-verify", "--group", "A5", "--k",
                            "8", "--top", "gens:(1 2)|(1 2 3 4 5 6 7 8)",
                            "--points", "0 1 2 3 4 5 6 7")
        assert code == 0
        cert = json.loads(out)["payload"]["certificate"]
        assert cert["verdict"] is True and cert["witness"] is None

    def test_catalog_validate_single(self, capsys):
        code, out = run_cli(capsys, "catalog-validate", "--group", "A5")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"][0]["order"] == 60

    @pytest.mark.parametrize("argv", [
        ("catalog-validate",),
        ("base-construct", "--k", "5", "--top", "sym"),
        ("base-verify", "--k", "3", "--top", "sym", "--points", "0 1 2"),
        ("prob-exact", "--k", "2", "--out-part", "inner", "--top", "trivial"),
    ])
    def test_group_name_is_stripped(self, capsys, argv):
        # every command reads --group as the prob sweeps read each entry
        payloads = []
        for name in ("A5", " A5 "):
            code, out = run_cli(capsys, *argv, "--group", name)
            assert code == 0
            payloads.append(json.loads(out)["payload"])
        assert payloads[0] == payloads[1]

    def test_prob_exact(self, capsys):
        code, out = run_cli(capsys, "prob-exact", "--group", "A5", "--k", "2",
                            "--out-part", "inner", "--top", "sym-table")
        assert code == 0
        rep = json.loads(out)
        entry = rep["payload"][0]
        assert entry["exact_nonbase_pair_fraction"] == {
            "num": "1", "den": "1"}

    def test_prob_exact_scans_once_per_group(self, capsys, monkeypatch):
        walks, kernel_calls = [], []
        walk, scan = prob.gd_orbits, _accel._scan

        def counting_walk(g, budget):
            walks.append(0)
            for orbit in walk(g, budget):
                walks[-1] += 1
                yield orbit

        def counting_scan(*args):
            kernel_calls.append(len(args[-1]))
            return scan(*args)

        monkeypatch.setattr(prob, "gd_orbits", counting_walk)
        monkeypatch.setattr(_accel, "_scan", counting_scan)
        code, _ = run_cli(capsys, "prob-exact", "--group", "A5,L2(7)",
                          "--k", "2", "--out-part", "inner",
                          "--top", "trivial")
        assert code == 0
        # one orbit walk per group, reading one point per G_D orbit: G_D =
        # Inn(T) acts on the points (1, t) by conjugation, so the orbits are
        # the 5 and 6 conjugacy classes of A5 and L2(7).  The counts come
        # from the stabilizers the walk yields, with no kernel scan.
        assert walks == [5, 6]
        assert kernel_calls == []

    def test_prob_exact_sums_one_split_per_group(self, capsys, monkeypatch):
        calls, formula = [], prob.r_split_formula

        def spy(g):
            calls.append(g.T.name)
            return formula(g)

        monkeypatch.setattr(prob, "r_split_formula", spy)
        monkeypatch.setattr(cli, "r_split_formula", spy)
        code, out = run_cli(capsys, "prob-exact", "--group", "A5,L2(7)",
                            "--k", "3", "--top", "alt-table", "--r-split")
        assert code == 0
        # one formula call per group gives both the split and the bound
        assert calls == ["A5", "L2(7)"]
        for entry in json.loads(out)["payload"]:
            split = [Fraction(int(r["num"]), int(r["den"]))
                     for r in entry["r_split"]]
            bound = entry["q2_bound"]
            assert sum(split) == Fraction(int(bound["num"]),
                                          int(bound["den"]))

    def test_prob_mc_sweep_csv(self, capsys):
        code, out = run_cli(capsys, "prob-mc", "--group", "A5,A6", "--k", "5",
                            "--top", "cyclic", "--samples", "200",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + one row per group

    def test_paper_suite_subset(self, capsys):
        code, out = run_cli(capsys, "paper-suite", "--criteria", "4",
                            "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"][0]["passed"] is True

    def test_paper_suite_text_output_equals_stdout(self, capsys, tmp_path):
        # the criterion table goes to --output as it goes to stdout
        argv = ["paper-suite", "--criteria", "7", "--format", "text"]
        code, out = run_cli(capsys, *argv)
        target = tmp_path / "suite.txt"
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "")
        assert code == 0 and out.startswith("[PASS] criterion 7: ")
        assert target.read_text(encoding="utf-8") == out

    def test_commands_load_only_what_they_run(self):
        # a fresh process, since this session has loaded both: the battery
        # is imported by paper-suite alone, and csv by CSV reports alone
        code = ("import contextlib, io, sys\n"
                "from diagbase.cli import main\n"
                "def run(*argv):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(list(argv)) in (0, 1), argv\n"
                "    loaded = {'csv', 'diagbase.suite'} & set(sys.modules)\n"
                "    print(sorted(loaded))\n"
                "run('prob-mc', '--group', 'A5', '--k', '5', '--top',\n"
                "    'dihedral', '--samples', '50', '--format', 'text')\n"
                "run('base-min', '--group', 'A5', '--k', '2', '--top',\n"
                "    'sym-table')\n"
                "run('catalog-validate', '--group', 'A5', '--format', 'csv')\n"
                "run('paper-suite', '--criteria', '4', '--format', 'text')\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]", "[]", "['csv']", "['csv', 'diagbase.suite']"]


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, capsys):
        args = ("prob-mc", "--group", "A5", "--k", "2", "--out-part", "inner",
                "--top", "sym-table", "--samples", "500", "--seed", "7")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_timing_opt_in(self, capsys):
        args = ("catalog-validate", "--group", "A5")
        _, out = run_cli(capsys, *args)
        assert json.loads(out)["timing_seconds"] is None
        _, out = run_cli(capsys, *args, "--timing")
        assert json.loads(out)["timing_seconds"] is not None

    def test_criterion_times_opt_in(self, capsys):
        # without --timing a criterion has no wall time, so two runs print
        # the same bytes; the text table shows a time only when it has one
        args = ("paper-suite", "--criteria", "4,7")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2
        assert [r["elapsed_seconds"] for r in json.loads(out1)["payload"]] \
            == [None, None]
        _, out = run_cli(capsys, *args, "--timing")
        assert all(isinstance(r["elapsed_seconds"], float)
                   for r in json.loads(out)["payload"])
        _, out = run_cli(capsys, *args, "--format", "text")
        assert out.splitlines()[0] == \
            "[PASS] criterion 4: " + suite.criterion_4.criterion_name
        _, out = run_cli(capsys, *args, "--format", "text", "--timing")
        assert re.fullmatch(r"\[PASS\] criterion 4: .* \([0-9]+\.[0-9]s\)",
                            out.splitlines()[0])

    # one argv per command, and a failing spec; the ops share groups
    # through the build_group memo when run in one process
    REPEATED = [
        ["catalog-validate", "--group", "A5"],
        ["base-construct", "--group", "A5", "--k", "3601", "--top", "sym"],
        ["base-min", "--group", "L2(7)", "--k", "3", "--top", "alt-table"],
        ["base-verify", "--group", "A5", "--k", "3", "--top", "sym-table",
         "--points", "0 1 2; 0 7 30"],
        ["prob-exact", "--group", "A5,L2(7)", "--k", "3", "--top",
         "sym-table", "--r-split"],
        ["prob-mc", "--group", "A5,A6", "--k", "5", "--top", "dihedral",
         "--samples", "200", "--seed", "3"],
        ["prob-mc", "--group", "A5", "--k", "8", "--top", "alt",
         "--samples", "200", "--seed", "3"],
        ["prob-mc", "--group", "A5", "--k", "9", "--top", "cyclic"],
        ["paper-suite", "--criteria", "1,4"],
    ]

    def _run_each(self, capsys, cold=False):
        results = []
        for argv in self.REPEATED:
            if cold:
                diag._GROUP_MEMO.clear()
            code = main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    def test_repeated_commands_in_one_process(self, capsys, monkeypatch):
        monkeypatch.setattr(diag, "_GROUP_MEMO",
                            diag.GroupMemo(diag.GROUP_MEMO_CAP))
        first = self._run_each(capsys)
        assert [code for code, _, _ in first] == [0] * 7 + [5, 0]
        assert "not primitive" in first[7][2]
        assert len(diag._GROUP_MEMO) > 0
        assert self._run_each(capsys) == first
        assert self._run_each(capsys, cold=True) == first


class TestSchema:
    def test_reports_validate_against_shipped_schema(self, capsys):
        schema = report_mod.schema()
        for args in [("catalog-validate", "--group", "A5"),
                     ("base-min", "--group", "A5", "--k", "2",
                      "--out-part", "inner", "--top", "sym-table"),
                     ("prob-exact", "--group", "A5", "--k", "2",
                      "--out-part", "inner", "--top", "sym-table")]:
            _, out = run_cli(capsys, *args)
            jsonschema.validate(json.loads(out), schema)

    def test_config_echoed(self, capsys):
        _, out = run_cli(capsys, "base-min", "--group", "A5", "--k", "2",
                         "--out-part", "inner", "--top", "sym-table")
        rep = json.loads(out)
        assert rep["config"]["group"] == "A5"
        assert rep["config"]["k"] == 2


BAD_BASE_VERIFY_INPUT = [
    (("--k", "3", "--top", "sym-table", "--points", "0 5"),
     "point 0 5 has 2 entries, expected k = 3"),
    (("--k", "2", "--top", "sym-table", "--points", "0 5 7"),
     "point 0 5 7 has 3 entries, expected k = 2"),
    (("--k", "2", "--top", "sym-table", "--points", "0,5"),
     "tuple entries must be integers: '0,5'"),
    (("--k", "5", "--top", "gens:(1 2 9)", "--points", "0 0 0 0 0"),
     "bad top generator: cycle entry out of range 1..5: '(1 2 9)'"),
    (("--k", "3", "--top", "bogus", "--points", "0 1 2"),
     "unknown top descriptor 'bogus'"),
    (("--k", "9", "--top", "sym-table", "--points", "0 1 2 3 4 5 6 7 8"),
     "explicit sym-table table unreasonable for k=9; use the symbolic form"),
    (("--k", "4", "--top", "gens:(1 2)(3 4)", "--points", "0 1 2 3"),
     "top group is not primitive on k points"),
    (("--k", "2", "--top", "sym", "--points", "0 1"),
     "symbolic tops need k >= 3"),
    (("--k", "3", "--top", "sym", "--points", "0 60 1"),
     "tuple entry out of range for |T|"),
    # a top that make_top does not admit is reported before a bad out part
    (("--k", "4", "--out-part", "bogus", "--top", "gens:(1 2)(3 4)",
      "--points", "0 1 2 3"), "top group is not primitive on k points"),
    (("--k", "4", "--out-part", "bogus", "--top", "trivial",
      "--points", "0 1 2 3"), "trivial top group only allowed at k = 2"),
    (("--k", "2", "--out-part", "bogus", "--top", "sym", "--points", "0 1"),
     "symbolic tops need k >= 3"),
    (("--k", "5", "--top", "gens:(1 2 3 4 5)|(1 2)(1 2)", "--points",
      "0 0 0 0 0"),
     "bad top generator: point in two cycles: '(1 2)(1 2)'"),
    # entries are ASCII decimal: int() alone reads the next three as 10, 7
    # and 5, and \d the cycle's full-width 5; a negative one is out of range
    (("--k", "2", "--top", "sym-table", "--points", "0 1_0"),
     "tuple entries must be integers: '0 1_0'"),
    (("--k", "2", "--top", "sym-table", "--points", "0 +7"),
     "tuple entries must be integers: '0 +7'"),
    (("--k", "2", "--top", "sym-table", "--points", "0 \uff15"),
     "tuple entries must be integers: '0 \uff15'"),
    (("--k", "5", "--top", "gens:(1 2 3 4 \uff15)", "--points", "0 0 0 0 0"),
     "bad top generator: malformed cycle notation: '(1 2 3 4 \uff15)'"),
    (("--k", "2", "--top", "sym-table", "--points", "0 -1"),
     "tuple entry out of range for |T|"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,message", BAD_BASE_VERIFY_INPUT,
        ids=[f"argv{i}" for i in range(len(BAD_BASE_VERIFY_INPUT))])
    def test_malformed_base_verify_input(self, capsys, argv, message):
        code = main(["base-verify", "--group", "A5", *argv])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == f"precondition error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("base-min", "--group", "A5", "--k", "2", "--out-part", "gx",
         "--top", "sym-table"),
        ("paper-suite", "--criteria", "x"),
        ("paper-suite", "--criteria", ""),
        ("paper-suite", "--criteria", "99"),
    ])
    def test_malformed_numbers_are_preconditions(self, capsys, argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 5
        assert "precondition error" in err and "Traceback" not in err

    # int() also reads '1_1', '+1_0' and full-width digits; integer options
    # take ASCII decimal only, and --criteria ids by the same rule
    @pytest.mark.parametrize("argv", [
        ("base-construct", "--group", "A5", "--k", "1_1", "--top", "cyclic"),
        ("prob-mc", "--group", "A5", "--k", "\uff17", "--top", "cyclic",
         "--samples", "+1_0", "--seed", "\uff13"),
        ("prob-mc", "--group", "A5", "--k", "7", "--top", "cyclic",
         "--samples", "+1_0"),
        ("prob-mc", "--group", "A5", "--k", "7", "--top", "cyclic",
         "--seed", "\uff13"),
        ("base-min", "--group", "A5", "--k", "3", "--top", "alt-table",
         "--budget", "1_000"),
        ("prob-exact", "--group", "A5", "--k", "3", "--top", "alt-table",
         "--budget", "+5000"),
    ], ids=["k", "mc-all", "samples", "seed", "budget", "exact-budget"])
    def test_integer_options_are_ascii_decimal(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "invalid int value" in captured.err

    def test_integer_options_keep_surrounding_whitespace(self, capsys):
        code, out = run_cli(capsys, "base-min", "--group", "A5", "--k", " 3 ",
                            "--top", "alt-table", "--budget", "\t1000\n")
        assert code == 0 and json.loads(out)["payload"]["size"] == 2
        assert main(["paper-suite", "--criteria", " 4 "]) == 0
        capsys.readouterr()

    def test_criteria_ids_are_ascii_decimal(self, capsys):
        code = main(["paper-suite", "--criteria", "\uff14"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "precondition error: --criteria takes " \
            "integer ids: '\uff14'\n"

    # str.isdecimal() also reads full-width and Arabic-Indic digits; a
    # generator reference g<i> takes ASCII decimal only
    @pytest.mark.parametrize("out", ["g\uff11", "g\u0661", "g1\uff10"],
                             ids=["full-width", "arabic-indic", "mixed"])
    def test_out_part_generators_are_ascii_decimal(self, capsys, out):
        code = main(["base-construct", "--group", "A5", "--k", "5",
                     "--out-part", out, "--top", "cyclic"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "precondition error: unknown out-part " \
            f"descriptor {out!r}\n"

    def test_unknown_criteria_id_names_the_ids(self, capsys):
        code = main(["paper-suite", "--criteria", "2,99"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert "no criterion 99; the ids are 1, 2, 3, 4, 5, 6, 7, 8, 9" \
            in captured.err

    def test_negative_seed_precondition(self, capsys):
        code = main(["prob-mc", "--group", "A5", "--k", "2", "--top",
                     "sym-table", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 5
        assert "--seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["prob-exact", "prob-mc"])
    @pytest.mark.parametrize("groups", ["A5,", "A5,,A6"])
    def test_empty_group_list_entry(self, capsys, command, groups):
        code = main([command, "--group", groups, "--k", "2", "--top",
                     "trivial"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert f"empty entry in --group list {groups!r}" in captured.err

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output(self, capsys, tmp_path, target):
        code = main(["base-verify", "--group", "A5", "--k", "2", "--top",
                     "sym-table", "--points", "0 1",
                     "--output", str(tmp_path / target)])
        err = capsys.readouterr().err
        assert code == 5
        assert "precondition error: cannot write --output" in err
        assert "Traceback" not in err

    def test_invalid_top_precondition(self, capsys):
        code, _ = run_cli(capsys, "base-min", "--group", "A5", "--k", "4",
                          "--top", "cyclic")
        assert code == 5

    def test_budget_exceeded(self, capsys):
        for argv in [
                ["base-min", "--group", "A5", "--k", "2", "--out-part",
                 "inner", "--top", "trivial", "--budget", "10"],
                # S9's 9! x 9 entries are past the 8! x 8 cap on explicit
                # top tables
                ["base-verify", "--group", "A5", "--k", "9", "--top",
                 "gens:(1 2)|(1 2 3 4 5 6 7 8 9)", "--points",
                 "0 1 2 3 4 5 6 7 8"]]:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 4, argv
            assert "budget exceeded" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,budget", [
        (["prob-mc", "--k", "3", "--samples", "99999999999999999999"],
         diag.ENTRY_BUDGET),
        (["prob-mc", "--k", "3", "--samples", "1000000000"],
         diag.ENTRY_BUDGET),
        # 1.38e8 entries at the largest k the digit budget describes
        (["prob-mc", "--k", "13771", "--samples", "10000"],
         diag.ENTRY_BUDGET),
        # past both budgets: the group is described, and refused, first
        (["base-construct", "--k", "100000000"], diag.DIGIT_BUDGET),
    ], ids=["samples-past-int64", "samples", "k", "construction"])
    def test_user_sized_matrices_refused(self, capsys, argv, budget):
        # samples x k and construction points x k are checked against
        # ENTRY_BUDGET before a row is allocated
        get_group("A5")
        tracemalloc.start()
        start = time.perf_counter()
        code = main([*argv, "--group", "A5", "--top", "sym"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4 and "budget exceeded" in err
        assert err.endswith(f"the budget {budget}\n")
        assert peak < 2**20 and elapsed < 1

    @pytest.mark.parametrize("argv", [
        ["base-construct", "--group", "A5", "--k", "100000"],
        ["prob-mc", "--group", "A5", "--k", "100000", "--samples", "2"],
        ["base-construct", "--group", "L2(7)", "--k", "28224"],
        ["prob-mc", "--group", "A5", "--k", "100000", "--samples", "1000"],
    ], ids=["construction", "samples", "construction-L2(7)",
            "samples-1000"])
    def test_symbolic_digits_refused(self, capsys, monkeypatch, argv):
        # a symbolic top's degree and order past DIGIT_BUDGET digits are
        # refused before they are written out (at k = 10^5 they have
        # 812,204 digits, whose conversion took about 5 s), and before a
        # base is built or a sample drawn
        def unreached(*args, **kwargs):
            raise AssertionError("work done before the digit budget check")
        monkeypatch.setattr(cli, "construct_auto", unreached)
        monkeypatch.setattr(cli, "monte_carlo_nonbase", unreached)
        start = time.perf_counter()
        code = main([*argv, "--top", "sym"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 4 and "budget exceeded" in err
        assert str(diag.DIGIT_BUDGET) in err and elapsed < 2

    def test_digit_budget_edge(self, A5):
        # A5 k=13771 sym weighs 99,993 digits and is described; k=13772
        # weighs 100,001 and is refused
        g = build_group(A5, 13771, "full", "sym")
        assert diag.group_weight(g) <= diag.DIGIT_BUDGET
        rep = g.describe()
        assert len(rep["degree"]) + len(rep["order"]) in \
            range(diag.group_weight(g) - 1, diag.group_weight(g) + 2)
        g = build_group(A5, 13772, "full", "sym")
        assert diag.group_weight(g) > diag.DIGIT_BUDGET
        with pytest.raises(BudgetExceededError):
            g.describe()

    def test_memory_error_exits_4(self, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError("Unable to allocate 4.28 GiB")
        monkeypatch.setitem(cli.COMMANDS, "base-min", out_of_memory)
        code = main(["base-min", "--group", "A5", "--k", "2"])
        err = capsys.readouterr().err
        assert code == 4 and "out of memory: Unable to allocate" in err

    def test_oversized_cyclic_dihedral_tops(self, capsys):
        # C_k and D_k are primitive only at a prime k, so a composite k is
        # refused before any k-point table is built; a prime k past the
        # entry cap on explicit top tables is refused as over budget
        argv = ["prob-mc", "--group", "A5", "--out-part", "full",
                "--samples", "10", "--k"]
        get_group("A5")    # the catalog build is not the top's
        tracemalloc.start()
        code = main(argv + [str(10**6), "--top", "cyclic"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 5 and "not primitive" in err
        assert peak < 2**20    # a 10^6-entry int32 row alone is 4 MB
        # primes: 20011, and one past 10^12, whose factor search stops at
        # 10^6 instead of running to its square root
        for k in (20011, 10**18 + 3):
            assert main(argv + [str(k), "--top", "dihedral"]) == 4
            assert "budget exceeded" in capsys.readouterr().err
        assert main(argv + ["37", "--top", "dihedral"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("k,top", [
        (10**8, "gens:(1 2)"), (1000003, "gens:(1 2 3)")])
    def test_oversized_gens_tops(self, capsys, k, top):
        # past TOP_TABLE_MAX_ENTRIES the identity row alone is over the
        # cap, so the top is refused before a k-entry generator is parsed
        get_group("A5")
        tracemalloc.start()
        code = main(["base-construct", "--group", "A5", "--k", str(k),
                     "--top", top])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4 and "budget exceeded" in err
        assert str(k) in err and str(diag.TOP_TABLE_MAX_ENTRIES) in err
        assert peak < 2**20    # a 10^6-entry int32 row alone is 4 MB

    @pytest.mark.parametrize("k,top,most", [
        (300007, "gens:(1 2 3)", 1),
        (9, "gens:(1 2)|(1 2 3 4 5 6 7 8 9)", 35840)])
    def test_gens_closure_past_cap(self, capsys, k, top, most):
        # within the cap on k, the closure is allowed cap // k elements;
        # past them the refusal names k and the cap, as cyclic's does
        code = main(["base-construct", "--group", "A5", "--k", str(k),
                     "--top", top])
        err = capsys.readouterr().err
        assert code == 4
        assert err == (f"budget exceeded: gens: top table of more than "
                       f"{most} x {k} entries exceeds "
                       f"{diag.TOP_TABLE_MAX_ENTRIES}\n")

    @pytest.mark.parametrize("out,top,message", [
        ("full", "sym", "the Sym(10000000) top has no table; this "
         "computation needs an explicit top"),
        ("bogus", "sym", "unknown out-part descriptor"),
        ("bogus", "cyclic", "not primitive"),
    ], ids=["sym", "bad-out-part", "bad-top"])
    def test_symbolic_top_refused_at_huge_k(self, capsys, out, top, message):
        # |T|^(k-1) and k! at k = 10^7 would take minutes; none is worked
        # out before the refusal, and a bad top still comes first
        get_group("A5")
        start = time.perf_counter()
        code = main(["base-min", "--group", "A5", "--k", str(10**7),
                     "--out-part", out, "--top", top])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 5 and message in err
        assert elapsed < 1

    def test_base_construct_takes_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["base-construct", "--group", "A5", "--k", "5", "--top",
                  "sym", "--budget", "10"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_class_walk_budget_exceeded(self, capsys):
        # --r-split reads the class formulas, so only the 3,600-point scan
        # counts against the budget, not the 22,031 members a class walk
        # would visit (test_prob.py pins that walk's budget)
        argv = ["prob-exact", "--group", "A5", "--k", "3", "--out-part",
                "inner", "--top", "alt-table", "--budget", "5000",
                "--r-split"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        g = build_group(get_group("A5"), 3, "inner", "alt-table")
        want = r_split_exact(g)
        split = json.loads(out)["payload"][0]["r_split"]
        assert [Fraction(int(r["num"]), int(r["den"])) for r in split] == \
            list(want)

    def test_class_walk_codes_too_wide(self, capsys):
        # 120^11 * 11 element codes of A5 at k = 11 would not fit int64
        # (test_prob.py pins that refusal of the class walk); the formulas
        # build no codes, and the 60^10 points exceed the scan budget
        code = main(["prob-exact", "--group", "A5", "--k", "11",
                     "--top", "cyclic", "--r-split"])
        err = capsys.readouterr().err
        assert code == 4
        assert "budget exceeded" in err and "Traceback" not in err

    def test_unknown_group_validation(self, capsys):
        code, _ = run_cli(capsys, "base-min", "--group", "M11", "--k", "2",
                          "--top", "sym-table")
        assert code == 3

    # an empty or blank name is a name no entry has: catalog-validate
    # validates every group only without --group
    @pytest.mark.parametrize("argv", [
        ("catalog-validate", "--group", ""),
        ("catalog-validate", "--group", "  "),
        ("base-min", "--group", "", "--k", "2", "--top", "sym-table"),
    ], ids=["validate-empty", "validate-blank", "base-min-empty"])
    def test_empty_group_name_validation(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == \
            "validation failure: no catalog entry named ''\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("passed,want", [(True, 0), (False, 1)])
    def test_paper_suite_exit_code(self, capsys, monkeypatch, fmt, passed,
                                   want):
        result = {"id": 1, "name": "stub", "passed": passed,
                  "details": ["d"], "elapsed_seconds": None}
        monkeypatch.setattr(suite, "run_suite", lambda ids, timing: [result])
        code, out = run_cli(capsys, "paper-suite", "--format", fmt)
        assert code == want
        if fmt == "text":
            assert out.startswith("[PASS]" if passed else "[FAIL]")
        else:
            assert json.loads(out)["payload"] == [result]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "catalog-validate", "--group", "A5",
                            "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "catalog-validate"


class TestLargeIntegers:
    def test_int_str_matches_str_without_limit(self):
        values = [0, 7, -12, 10 ** 4299, 10 ** 4300, 60 ** 4999,
                  -(60 ** 4999), 10 ** 9000 + 7, 2 ** 40000 - 1,
                  10 ** 100000, 10 ** 100000 - 1, -(10 ** 100000 - 1)]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [report_mod.int_str(v) for v in values] == want
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("argv", [
        ("base-construct", "--group", "A5", "--k", "5000", "--top", "sym"),
        ("prob-mc", "--group", "A5", "--k", "3000", "--top", "sym",
         "--samples", "2"),
    ])
    def test_large_k_reports(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0 and "Traceback" not in captured.err
        rep = json.loads(captured.out)
        payload = rep["payload"]
        group = payload["group"] if isinstance(payload, dict) else \
            payload[0]["group"]
        k = rep["config"]["k"]
        assert group["degree"] == report_mod.int_str(60 ** (k - 1))
        assert len(group["degree"]) > 4300


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_JSON_TEXT = (st.text(st.characters(exclude_categories=()))
              | st.text('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600 a'))
_JSON_VALUES = st.recursive(
    _JSON_TEXT | st.booleans() | st.none()
    | st.integers() | st.integers(-10 ** 60, 10 ** 60)
    | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                     float("-inf"), -0.0, 5e-324, 2e-310]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24)


class _Described:
    def __init__(self, value):
        self.value = value

    def describe(self):
        return self.value


# past the 4300-digit int-to-str limit
_BIG = st.integers(4300, 4400).map(lambda n: 10 ** n + 7)
_REPORT_VALUES = st.recursive(
    _JSON_TEXT | st.booleans() | st.none() | st.integers()
    | st.floats() | st.sampled_from([float("nan"), -0.0])
    | st.builds(Fraction, st.integers() | _BIG | _BIG.map(lambda n: -n),
                st.integers(1, 10 ** 6) | _BIG)
    | st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32)
    | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
    | st.floats().map(np.float64) | st.booleans().map(np.bool_),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4)
    | st.builds(_Described, inner),
    max_leaves=24)


class TestJsonWriter:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_JSON_VALUES)
    def test_to_json_equals_json_dumps(self, value):
        assert report_mod.to_json(value) == _dumps(value)
        assert report_mod.to_json({"payload": value}) == \
            _dumps({"payload": value})

    # a format nobody writes, and a dict key json cannot write either
    @pytest.mark.parametrize("write,error,message", [
        (lambda: report_mod.render({}, "xml"), ValueError,
         "unknown report format 'xml'"),
        (lambda: report_mod.to_json({(1, 2): 0}), TypeError,
         "tuple is not JSON serializable")], ids=["format", "key"])
    def test_refusals(self, write, error, message):
        with pytest.raises(error, match=message):
            write()

    @pytest.mark.parametrize("timing", [None, 0.0, 1.25, 1e-07, 12345.678])
    def test_report_with_digit_strings_and_timing(self, timing):
        payload = {"degree": report_mod.int_str(60 ** 4999),
                   "order": Fraction(-(7 ** 6000), 3),
                   "ratios": [Fraction(1, 2), Fraction(10 ** 4400 + 1, 9)],
                   "empty": {}, "none": [], "name": "L2(11) \u00d7 \"k\""}
        rep = report_mod.make_report("base-construct", {"k": 5000}, payload,
                                     timing_seconds=timing)
        text = report_mod.to_json(rep)
        assert json.loads(text)["payload"]["order"]["num"].startswith("-")
        assert text == _dumps(report_mod.encode_value(rep))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_REPORT_VALUES, _REPORT_VALUES)
    def test_report_writers_encode_in_one_pass(self, config, payload):
        # to_json writes the raw envelope as json.dumps writes it once
        # encoded; CSV and text give the same text for it as for the
        # encoded envelope
        rep = report_mod.make_report("prob-exact", config, payload, 0.5)
        encoded = report_mod.encode_value(rep)
        assert report_mod.to_json(rep) == _dumps(encoded)
        assert report_mod.to_csv(rep) == report_mod.to_csv(encoded)
        assert report_mod.to_text(rep) == report_mod.to_text(encoded)


# the CLI grammar, with malformed values mixed in
_NUMBERS = st.sampled_from(["-1", "0", "1", "50"])
_TOPS = st.sampled_from(["trivial", "sym", "alt", "sym-table", "alt-table",
                         "cyclic", "dihedral", "gens:(0 1 2)",
                         "gens:(0 1)|(0 1 2)", "gens:(0 1", "gens:(0 9)",
                         "gens:", "gens:x"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["catalog-validate", "base-construct",
                                    "base-min", "base-verify", "prob-exact",
                                    "prob-mc"]))
    group = draw(st.sampled_from(["A5", "junk"]))
    argv = [command]
    if command == "catalog-validate":
        if draw(st.booleans()):
            argv += ["--group", group]
    else:
        argv += ["--group", group,
                 "--k", draw(st.sampled_from(["-1", "0", "1", "2", "3",
                                              "5"])),
                 "--out-part", draw(st.sampled_from(["inner", "full", "g1",
                                                     "g9", "gx", ""])),
                 "--top", draw(_TOPS)]
    if command in ("base-min", "prob-exact") and draw(st.booleans()):
        argv += ["--budget", draw(_NUMBERS)]
    if command == "prob-exact" and draw(st.booleans()):
        argv.append("--r-split")
    if command == "prob-mc":
        argv += ["--samples", draw(_NUMBERS)]
    if command == "base-verify":
        argv += ["--points", draw(st.text("015 ;x-", max_size=12))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.pop()          # a flag without its value, or no command
    return argv


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_argv())
def test_cli_fuzz_exits_with_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _workload_argvs():
    """Every distinct argv of the benchmark's seed-1 op lists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = {tuple(op["argv"]) for name in workloads.WORKLOADS
             for op in workloads.build_ops(name, 1, 24)}
    return sorted(argvs)


@pytest.mark.parametrize("argvs", [
    _workload_argvs(),
    [["bogus"], ["base-construct", "--k", "5"],
     ["base-min", "--group", "A5", "--k", "x"], ["base-verify", "-h"],
     [], ["-h"], ["prob-mc", "--group", "A5", "--k", "6", "--zzz", "1"],
     ["prob-mc", "--group", "A5", "--k", "6", "--samples", "--seed", "1"]],
], ids=["workloads", "usage-errors"])
def test_direct_parse_matches_two_level_parse(capsys, argvs):
    # the namespace (or exit code), stdout and stderr of cli.parse_args
    # equal those of the top-level parser's own two-level parse
    two_level = cli.build_parser()[0].parse_args
    for argv in argvs:
        seen = []
        for parse in (cli.parse_args, two_level):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
            seen.append((result, *capsys.readouterr()))
        assert seen[0] == seen[1], argv
