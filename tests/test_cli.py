import contextlib
import io
import json
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbase import _accel, cli
from diagbase import report as report_mod
from diagbase.cli import main


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

    def test_catalog_validate_single(self, capsys):
        code, out = run_cli(capsys, "catalog-validate", "--group", "A5")
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"][0]["order"] == 60

    def test_prob_exact(self, capsys):
        code, out = run_cli(capsys, "prob-exact", "--group", "A5", "--k", "2",
                            "--out-part", "inner", "--top", "sym-table")
        assert code == 0
        rep = json.loads(out)
        entry = rep["payload"][0]
        assert entry["exact_nonbase_pair_fraction"] == {
            "num": "1", "den": "1"}

    def test_prob_exact_scans_once_per_group(self, capsys, monkeypatch):
        calls = []
        scan = _accel._fixing_pairs

        def counting(*args):
            calls.append(len(args[4]))
            return scan(*args)

        monkeypatch.setattr(_accel, "_fixing_pairs", counting)
        code, _ = run_cli(capsys, "prob-exact", "--group", "A5,L2(7)",
                          "--k", "2", "--out-part", "inner",
                          "--top", "trivial")
        assert code == 0
        # one scan per group, over one point per G_D orbit: G_D = Inn(T)
        # acts on the points (1, t) by conjugation, so the orbits are the
        # 5 and 6 conjugacy classes of A5 and L2(7)
        assert calls == [5, 6]

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


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("--k", "3", "--top", "sym-table", "--points", "0 5"),
        ("--k", "2", "--top", "sym-table", "--points", "0 5 7"),
        ("--k", "2", "--top", "sym-table", "--points", "0,5"),
        ("--k", "5", "--top", "gens:(1 2 9)", "--points", "0 0 0 0 0"),
    ])
    def test_malformed_base_verify_input(self, capsys, argv):
        code = main(["base-verify", "--group", "A5", *argv])
        err = capsys.readouterr().err
        assert code == 5
        assert "precondition error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("base-min", "--group", "A5", "--k", "2", "--out-part", "gx",
         "--top", "sym-table"),
        ("paper-suite", "--criteria", "x"),
    ])
    def test_malformed_numbers_are_preconditions(self, capsys, argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 5
        assert "precondition error" in err and "Traceback" not in err

    def test_invalid_top_precondition(self, capsys):
        code, _ = run_cli(capsys, "base-min", "--group", "A5", "--k", "4",
                          "--top", "cyclic")
        assert code == 5

    def test_budget_exceeded(self, capsys):
        for argv in [
                ["base-min", "--group", "A5", "--k", "2", "--out-part",
                 "inner", "--top", "trivial", "--budget", "10"],
                # S9 is one element past the 8! cap on gens: closures
                ["base-verify", "--group", "A5", "--k", "9", "--top",
                 "gens:(1 2)|(1 2 3 4 5 6 7 8 9)", "--points",
                 "0 1 2 3 4 5 6 7 8"]]:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 4, argv
            assert "budget exceeded" in err and "Traceback" not in err

    def test_base_construct_takes_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["base-construct", "--group", "A5", "--k", "5", "--top",
                  "sym", "--budget", "10"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_class_walk_budget_exceeded(self, capsys):
        # the 3,600-point scan fits the budget, the 22,031 class members
        # walked by --r-split do not
        argv = ["prob-exact", "--group", "A5", "--k", "3", "--out-part",
                "inner", "--top", "alt-table", "--budget", "5000"]
        assert run_cli(capsys, *argv)[0] == 0
        code = main(argv + ["--r-split"])
        err = capsys.readouterr().err
        assert code == 4
        assert "class walk" in err and "Traceback" not in err

    def test_class_walk_codes_too_wide(self, capsys):
        # 120^11 * 11 element codes of A5 at k = 11 exceed int64
        code = main(["prob-exact", "--group", "A5", "--k", "11",
                     "--top", "cyclic", "--r-split"])
        err = capsys.readouterr().err
        assert code == 5
        assert "int64" in err and "Traceback" not in err

    def test_unknown_group_validation(self, capsys):
        code, _ = run_cli(capsys, "base-min", "--group", "M11", "--k", "2",
                          "--top", "sym-table")
        assert code == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("passed,want", [(True, 0), (False, 1)])
    def test_paper_suite_exit_code(self, capsys, monkeypatch, fmt, passed,
                                   want):
        result = {"id": 1, "name": "stub", "passed": passed,
                  "details": ["d"], "elapsed_seconds": 0.0}
        monkeypatch.setattr(cli, "run_suite", lambda ids: [result])
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
                  -(60 ** 4999), 10 ** 9000 + 7, 2 ** 40000 - 1]
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


# the CLI grammar, with malformed values mixed in; --r-split is never drawn
# because it enumerates the whole group
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
