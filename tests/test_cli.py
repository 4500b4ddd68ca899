"""CLI: command surface, formats, exit codes, batch behavior."""

import ast
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import k3linsys
import k3linsys.batch as batch
import k3linsys.classify as classify
import k3linsys.cli as cli
import k3linsys.parts as parts
import k3linsys.verify as verify
from k3linsys.classify import decompose
from k3linsys.cli import main
from k3linsys.literals import parse_literal
from k3linsys.records import RECORD_FIELDS
from k3linsys.verify import Certificate, VerificationReport
from oracles import classification_record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# Every spelling argparse takes for a pairs bound: each prefix past "--" of
# an option, mapped to an option it abbreviates (the only one unless another
# bound shares the prefix).
PAIR_BOUND_SPELLINGS = {
    option[:end]: option
    for option in ("--mass-bound", "--max-points", "--max-n")
    for end in range(3, len(option) + 1)
}


# Child interpreters find the package where this process imported it from.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(k3linsys.__file__).parents[1])}


# The kernel's affinity calls, which the forks fixture fakes (see conftest.py).
SCHED_GETAFFINITY, SCHED_SETAFFINITY = os.sched_getaffinity, os.sched_setaffinity


def run_capped(megabytes, *argv, timeout=10):
    """The CLI on argv in a child process whose address space is capped at
    its own size plus `megabytes` MB, stopped after `timeout` seconds."""
    capped = (
        "import resource, sys; from k3linsys.cli import main; "
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize(); "
        "cap = size + int(sys.argv[1]) * 1024 * 1024; resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
        "sys.exit(main(sys.argv[2:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", capped, str(megabytes), *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=timeout,
    )


class TestDim:
    def test_special_text(self, capsys):
        code, out, _ = run(capsys, "dim", "L4(3;6)")
        assert code == 0
        assert out.strip() == "0 (special; v = -2, h1 = 2)"

    def test_empty_exact_h1(self, capsys):
        code, out, _ = run(capsys, "dim", "L2(1;2)")  # v = -1
        assert code == 0
        assert out.strip() == "-1 (empty; v = -1, h1 = 0)"

    def test_empty_bound_only(self, capsys):
        code, out, _ = run(capsys, "dim", "L4(1;3)")  # v = -3
        assert out.strip() == "-1 (empty; v = -3, h1 >= 2)"

    def test_plain_dimension(self, capsys):
        code, out, _ = run(capsys, "dim", "L4(5;1,1)")
        assert out.strip() == "49"

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "dim", "L4(3;6)", "--format", "json")
        rec = json.loads(out)
        assert list(rec) == list(RECORD_FIELDS)
        assert rec["dim"] == 0 and rec["v"] == -2 and rec["special"] == "L4(d;2d)"


class TestClassify:
    def test_text_block(self, capsys):
        code, out, _ = run(capsys, "classify", "L2(4;4,3)")
        assert code == 0
        assert "dim = 1 (conjectural)" in out
        assert "fixed part: 3*L2(1;1^2)" in out
        assert "free part: L2(1;1)" in out
        assert "member kind: FIXED_PLUS_PENCIL" in out

    def test_json_field_order(self, capsys):
        _, out, _ = run(capsys, "classify", "L2(2;2)", "--format", "json")
        rec = json.loads(out)
        assert list(rec) == list(RECORD_FIELDS)
        assert rec["member_kind"] == "COMPOSITE_WITH_PENCIL"
        assert rec["fixed_part"] == [] and rec["dim"] == 2

    def test_csv_header_order(self, capsys):
        _, out, _ = run(capsys, "classify", "L2(4;4,3)", "--format", "csv")
        rows = parse_csv(out)
        assert rows[0] == list(RECORD_FIELDS)
        assert rows[1][rows[0].index("mults")] == "4,3"
        assert rows[1][rows[0].index("conjectural")] == "true"

    def test_h1_null_when_indefinite(self, capsys):
        _, out, _ = run(capsys, "classify", "L4(1;3)", "--format", "json")
        rec = json.loads(out)
        assert rec["h1"] is None and rec["h1_lower_bound"] == 2

    def test_unsorted_input_canonicalized(self, capsys):
        _, out, _ = run(capsys, "classify", "L2(3;1,2,0,2)", "--format", "json")
        assert json.loads(out)["mults"] == [2, 2, 1]

    def test_degree_zero_is_not_conjectural(self, capsys):
        # d = 0 is decided without the conjecture, in every format
        _, out, _ = run(capsys, "classify", "L2(0;3,2)")
        assert "  dim = -1\n" in out and "conjectural" not in out
        _, out, _ = run(capsys, "classify", "L4(0)")
        assert "  dim = 0\n" in out and "conjectural" not in out
        for literal, dim in [("L2(0;3,2)", -1), ("L4(0)", 0)]:
            _, out, _ = run(capsys, "classify", literal, "--format", "json")
            rec = json.loads(out)
            assert rec["dim"] == dim and rec["conjectural"] is False
            _, out, _ = run(capsys, "classify", literal, "--format", "csv")
            rows = parse_csv(out)
            assert rows[1][rows[0].index("conjectural")] == "false"


class TestIntersect:
    def test_positional_padding(self, capsys):
        code, out, _ = run(capsys, "intersect", "L2(1;1,1)", "L2(1;0,0,1,1)")
        assert code == 0 and out.strip() == "2"
        # padded to the 100,000-point literal cap, in a child given 10 s:
        # the zeros are stripped in linear time
        padded = [sys.executable, "-m", "k3linsys", "intersect", "L2(1;1,0^99999)", "L2(1;1)"]
        proc = subprocess.run(padded, capture_output=True, text=True, env=CHILD_ENV, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    def test_aligned(self, capsys):
        _, out, _ = run(capsys, "intersect", "L2(1;1,1)", "L2(1;1,1)")
        assert out.strip() == "0"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "intersect", "L2(2;2,1)", "L2(3;1,1,1)", "--format", "json")
        assert json.loads(out)["intersection"] == 9

    def test_csv(self, capsys):
        code, out, err = run(capsys, "intersect", "L2(2;2,1)", " L2(3;1^3) ", "--format", "csv")
        # the sources are stripped, not canonicalized; csv quotes only the one with a comma
        assert (code, out, err) == (0, 'a,b,intersection\n"L2(2;2,1)",L2(3;1^3),9\n', "")

    def test_surface_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "intersect", "L2(1;1)", "L4(1;1)")
        assert code == 2 and "different surfaces" in err


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "v0", "--self-int=-2..1")
        assert code == 0
        assert out.strip().endswith("total: 5")
        assert "L10(1;3)" in out

    def test_json_lines(self, capsys):
        _, out, _ = run(capsys, "enumerate", "v0", "--self-int", "0..0")
        # text is default; now json
        _, out, _ = run(capsys, "enumerate", "v0", "--self-int", "0..0", "--format", "json")
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert {o["literal"] for o in objs} == {"L2(1;1^2)", "L4(1;2)"}

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "enumerate", "v0", "--self-int", "1..1", "--format", "csv")
        rows = parse_csv(out)
        assert rows[0] == ["c2", "n", "t", "mults", "v", "literal"]
        assert len(rows) == 4

    def test_large_window_under_address_space_cap(self):
        # each record is rendered as it is made, so the 104,071 classes fit
        # in 64 MB of address space over the child's own size
        proc = run_capped(64, "enumerate", "v0", "--self-int=-2..32", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 104_071
        assert json.loads(lines[0]) == {
            "n": 2, "t": 1, "mults": [1, 1], "v": 0, "c2": 0, "literal": "L2(1;1^2)"
        }  # fmt: skip
        assert json.loads(lines[-1]) == {
            "n": 1188, "t": 1, "mults": [34], "v": 0, "c2": 32, "literal": "L1188(1;34)"
        }  # fmt: skip

    def test_bad_range_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "v0", "--self-int", "nope")
        assert code == 2

    @pytest.mark.parametrize("text", ["٠..١", "０..１", "0..१", "-٠..1"])
    def test_non_ascii_digits_rejected(self, capsys, text):
        # Arabic-Indic, full-width and Devanagari digits are not read as 0..1
        code, out, err = run(capsys, "enumerate", "v0", f"--self-int={text}")
        assert code == 2 and out == ""
        assert "expected A..B integer range" in err

    @pytest.mark.parametrize("digits", [1200, 5000])
    def test_long_self_int_is_a_usage_error(self, capsys, digits):
        # each end takes at most MAX_INTEGER_DIGITS digits, as a bound option
        # does: 1,200 digits ran silently, and 5,000 echoed the value back
        code, out, err = run(capsys, "enumerate", "v0", f"--self-int=-2..{'9' * digits}")
        assert (code, out) == (2, "")
        message = "argument --self-int: expected an integer of at most 1000 digits"
        assert err.endswith(f": error: {message}\n") and "999" not in err

    def test_longest_self_int_runs(self, capsys):
        code, out, err = run(capsys, "enumerate", "v0", f"--self-int=-{LONGEST_BOUND}..-3")
        assert (code, out, err) == (0, "total: 0\n", "")

    def test_inverted_range_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "v0", "--self-int", "3..1")
        assert code == 2 and "empty self-intersection range" in err


class TestVerifyCommands:
    def test_lemma_table_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-table")
        assert code == 0
        assert "lemma-table: PASS" in out
        assert out.count("  class: ") == 5

    def test_pairs_small_bounds(self, capsys):
        code, out, _ = run(
            capsys, "verify", "pairs", "--mass-bound", "40", "--max-points", "4", "--max-n", "12"
        )
        assert code == 0
        assert "exceptions=2" in out

    @pytest.mark.parametrize(
        "mass_bound,max_points,checked,details,exceptions",
        [
            # 30,866 of 185,786 classes built; a list of every class does
            # not fit in 64 MB over the child's own size
            ("600", "9", 659_404_301, {"v0_classes": 185_786, "alignments_checked": 30_866}, 2),
            # at most two points: each cell's vectors are counted one by one,
            # with no table of every mass up to the bound
            ("10000000", "1", 138, {"v0_classes": 74, "alignments_checked": 1}, 1),
            ("500000", "1", 96, {"v0_classes": 60, "alignments_checked": 1}, 1),
            ("200000", "2", 286_117, {"v0_classes": 3_390, "alignments_checked": 293}, 2),
        ],
    )
    def test_large_pair_bounds_under_address_space_cap(
        self, mass_bound, max_points, checked, details, exceptions
    ):
        # verify pairs counts the classes and builds only those of n = 2 and
        # n = 4, so it fits in 40 MB of address space over the child's own,
        # and in 10 s.
        bounds = ["--mass-bound", mass_bound, "--max-points", max_points, "--max-n", "80"]
        proc = run_capped(40, "verify", "pairs", *bounds, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] and report["checked_count"] == checked
        assert report["details"] == details
        assert len(report["expected_exceptions_found"]) == exceptions

    @pytest.mark.parametrize(
        "mass_bound,checked,details,timeout",
        [
            ("1000000", 2_214, {"v0_classes": 2_152, "alignments_checked": 1}, 1),
            ("10000000", 7_053, {"v0_classes": 6_956, "alignments_checked": 1}, 4),
        ],
    )
    def test_pair_bounds_with_max_n_at_the_mass_bound(self, mass_bound, checked, details, timeout):
        # Past n = sqrt(mass_bound) the cells are counted off the vectors,
        # one pass for each degree t, not one cell at a time: about 0.1 and
        # 0.4 s here, where counting every cell took 1.5 and 15 s.
        bounds = ["--mass-bound", mass_bound, "--max-points", "1", "--max-n", mass_bound]
        proc = run_capped(40, "verify", "pairs", *bounds, "--format", "json", timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] and report["checked_count"] == checked
        assert report["details"] == details
        assert len(report["expected_exceptions_found"]) == 1

    def test_identity(self, capsys):
        # the addition identities are tier-1 properties of the lattice, not a check
        code, out, err = run(capsys, "verify", "identity", "--samples", "500", "--seed", "5")
        assert code == 2 and out == ""
        assert "invalid choice: 'identity' (choose from 'lemma-table', 'pairs')" in err

    def test_lemma_table_rejects_pair_bounds(self, capsys):
        code, out, err = run(capsys, "verify", "lemma-table", "--mass-bound", "5", "--max-n", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --mass-bound 5 --max-n 2" in err

    @pytest.mark.parametrize("option", ["--mass-bound", "--max-points", "--max-n"])
    def test_pair_bound_before_the_check_is_named(self, capsys, option):
        # verify's own parser has no bounds; the error names the misplaced one
        # rather than reading its value as the check name
        for argv in (["verify", option, "12", "pairs"], ["verify", f"{option}=12", "pairs"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert f"error: {option} is an option of 'verify pairs' and goes after 'pairs'" in err
            assert "invalid choice" not in err

    @pytest.mark.parametrize("given", sorted(PAIR_BOUND_SPELLINGS))
    def test_abbreviated_pair_bound_before_the_check_is_named(self, capsys, given):
        # after 'pairs' argparse takes the spelling for one bound, or rejects it
        # as ambiguous, as --max (--max-points or --max-n); before 'pairs' the
        # error names that bound, or the ambiguous spelling as given
        code, _, err = run(capsys, "verify", "pairs", given, "0", "--quiet")
        assert code == 0 or f"ambiguous option: {given} could match" in err
        named = PAIR_BOUND_SPELLINGS[given] if code == 0 else given
        for argv in (["verify", given, "3", "pairs"], ["verify", f"{given}=3", "pairs"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert f"error: {named} is an option of 'verify pairs' and goes after 'pairs'" in err
            assert "invalid choice" not in err

    def test_abbreviated_verify_options_before_the_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--fo", "csv", "pairs", "--mass-b", "0")
        assert code == 0 and parse_csv(out)[1][:3] == ["summary", "pair-inequality", "PASS"]
        code, out, _ = run(capsys, "verify", "--q", "pairs", "--mass-b", "0")
        assert code == 0 and out == ""

    def test_csv_violation_row(self, capsys, monkeypatch):
        monkeypatch.setattr(classify, "RIGID_CURVES", classify.RIGID_CURVES[:-1])
        code, out, err = run(capsys, "verify", "lemma-table", "--format", "csv")
        assert code == 1 and err == ""
        assert out == (
            "section,kind,message,data\n"
            'summary,lemma-table,FAIL,"{""bounds"": {""mass_bound"": 12, ""max_points"": 3, '
            '""n_range"": [2, 10], ""self_int_range"": [-2, 1], ""t_range"": [1, 2]}, ""checked_count"": 6}"\n'
            "violation,unexpected-class,found class L10(1;3) not in the table,"
            '"{""c2"": 1, ""literal"": ""L10(1;3)"", ""mults"": [3], ""n"": 10, ""t"": 1, ""v"": 0}"\n'
        )

    def test_pairs_rejects_sampling_options(self, capsys):
        code, out, err = run(capsys, "verify", "pairs", "--samples", "3", "--seed", "9")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --samples 3 --seed 9" in err

    def test_format_before_or_after_the_check(self, capsys):
        bounds = ["--mass-bound", "40", "--max-points", "4", "--max-n", "12"]
        reports = []
        for argv in (
            ["verify", "pairs", *bounds, "--format", "json"],
            ["verify", "--format", "json", "pairs", *bounds],
            ["--format", "json", "verify", "pairs", *bounds],
        ):
            code, out, _ = run(capsys, *argv)
            report = json.loads(out)
            assert code == 0 and report.pop("elapsed") >= 0
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["bounds"]["mass_bound"] == 40

    def test_negative_pair_bounds_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "pairs", "--max-points", "-1")
        assert code == 2 and out == ""
        assert err == "error: mass_bound and max_points must be >= 0\n"

    def test_json_report(self, capsys):
        _, out, _ = run(capsys, "verify", "lemma-table", "--format", "json")
        report = json.loads(out)
        assert report["passed"] is True
        assert report["checked_count"] >= 5
        assert "elapsed" in report

    def test_csv_report(self, capsys):
        _, out, _ = run(
            capsys,
            "verify",
            "pairs",
            "--mass-bound",
            "40",
            "--max-points",
            "4",
            "--max-n",
            "12",
            "--format",
            "csv",
        )
        rows = parse_csv(out)
        assert rows[0] == ["section", "kind", "message", "data"]
        assert rows[1][0] == "summary" and rows[1][2] == "PASS"
        assert sum(1 for r in rows if r[0] == "exception") == 2

    def test_violation_forces_exit_1(self, capsys, monkeypatch):
        broken = VerificationReport(
            name="lemma-table",
            bounds={},
            checked_count=1,
            violations=(Certificate("missing-class", "synthetic", {}),),
            expected_exceptions_found=(),
            elapsed=0.0,
        )
        monkeypatch.setattr(cli, "verify_lemma_table", lambda: broken)
        code, out, _ = run(capsys, "verify", "lemma-table")
        assert code == 1 and "FAIL" in out

    def test_dispatch_keeps_a_name_bound_before_it(self, capsys, monkeypatch):
        # As in a fresh process, the verify and v0 names are not bound yet; a
        # name set before dispatch survives a read binding the rest.
        from k3linsys import v0, verify

        space = vars(cli)
        for name in (*cli._LAZY["verify"], *cli._LAZY["v0"]):
            monkeypatch.delitem(space, name, raising=False)
        assert cli.verify_pair_inequality is verify.verify_pair_inequality  # module __getattr__
        broken = VerificationReport(
            name="lemma-table",
            bounds={},
            checked_count=1,
            violations=(Certificate("missing-class", "synthetic", {}),),
            expected_exceptions_found=(),
            elapsed=0.0,
        )
        monkeypatch.setitem(space, "verify_lemma_table", lambda: broken)
        code, out, _ = run(capsys, "verify", "lemma-table")
        assert code == 1 and "FAIL" in out
        assert cli.class_record is v0.class_record and cli.verify_lemma_table() is broken
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    def test_violation_exit_1_even_quiet(self, capsys, monkeypatch):
        broken = VerificationReport(
            name="lemma-table",
            bounds={},
            checked_count=1,
            violations=(Certificate("missing-class", "synthetic", {}),),
            expected_exceptions_found=(),
            elapsed=0.0,
        )
        monkeypatch.setattr(cli, "verify_lemma_table", lambda: broken)
        code, out, _ = run(capsys, "verify", "lemma-table", "--quiet")
        assert code == 1 and out == ""


class TestHunt:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "hunt", "--max-n", "4", "--max-degree", "2", "--mass-bound", "12")
        assert code == 0 and "counterexample-hunt: PASS" in out

    @pytest.mark.parametrize("flag", ["--max-points", "--mass-bound"])
    def test_negative_bound_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "hunt", flag, "-3")
        assert code == 2 and out == ""
        assert err == "error: mass_bound and max_points must be >= 0\n"

    def test_empty_ranges_pass(self, capsys):
        code, out, _ = run(capsys, "hunt", "--max-n", "0", "--max-degree", "-1")
        assert code == 0 and "PASS  checked=0 " in out

    @pytest.mark.parametrize(
        "max_n,max_degree,mass_bound,checked",
        [
            ("1000000000", "1000", "0", 500_500_000_000),
            ("100000", "100000", "2", 10_000_100_000),
            # more surfaces than a range's len() can count
            (str(10**20), "1000", "0", 5 * 10**19 * 1001),
        ],
    )
    def test_huge_grid_under_address_space_cap(self, max_n, max_degree, mass_bound, checked):
        # At these masses no cell can fire, and hunt visits only cells that
        # can, so a 512 MB address-space cap set in the child holds however
        # many (n, d) cells the bounds span.
        capped = (
            "import resource, sys; from k3linsys.cli import main; cap = 512 * 1024 * 1024; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); sys.exit(main(sys.argv[1:]))"
        )
        bounds = ["--max-n", max_n, "--max-degree", max_degree, "--mass-bound", mass_bound]
        proc = subprocess.run(
            [sys.executable, "-c", capped, "hunt", *bounds, "--format", "json"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] and report["checked_count"] == checked


# A bound of MAX_INTEGER_DIGITS digits, and longer or non-integer ones: at
# 4,300 digits Python stops converting ints to text, and argparse echoed a
# value it could not read.  A bound is an optional '-' and ASCII digits, as
# each end of --self-int is: int() also read the last four, as 3, 10, 5, 12.
LONGEST_BOUND = "9" * k3linsys.MAX_INTEGER_DIGITS
LONG_BOUNDS = {
    "1001-digits": LONGEST_BOUND + "9",
    "5000-digits": "9" * 5000,
    "digits-then-text": LONGEST_BOUND + "x" * 5000,
    "text": "ten",
    "arabic-indic-digit": "\u0663",
    "underscore": "1_0",
    "plus-sign": "+5",
    "leading-space": " 12",
}
HUNT_BOUNDS = ("--max-n", "--max-degree", "--mass-bound", "--max-points")
PAIR_BOUNDS = ("--mass-bound", "--max-points", "--max-n")


@pytest.mark.parametrize("value", LONG_BOUNDS.values(), ids=LONG_BOUNDS)
@pytest.mark.parametrize(
    "command, option",
    # each command with bounds that finish fast whatever the long bound's value
    [(["hunt", "--max-points", "0", "--max-degree", "0"], option) for option in HUNT_BOUNDS]
    + [(["verify", "pairs", "--max-n", "0", "--max-points", "0"], option) for option in PAIR_BOUNDS],
    ids=lambda arg: arg if isinstance(arg, str) else arg[0],
)
def test_long_bound_is_a_usage_error_naming_the_option(capsys, command, option, value):
    code, out, err = run(capsys, *command, option, value)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {option}: expected an integer of at most 1000 digits\n")
    assert value[-3:] not in err


def test_longest_bounds_run(capsys):
    hunt = ["hunt", "--max-n", LONGEST_BOUND, "--max-degree", LONGEST_BOUND, "--mass-bound", "10"]
    code, out, err = run(capsys, *hunt, "--format", "json")
    report = json.loads(out)
    assert (code, err) == (0, "") and report["passed"]
    # 9 vectors of mass <= 10 on (10^1000 - 2)/2 surfaces in 10^1000 degrees: 2,000 digits
    assert report["checked_count"] == 9 * (10**1000 - 2) // 2 * 10**1000
    code, out, err = run(capsys, "verify", "pairs", "--max-n", LONGEST_BOUND, "--mass-bound", "10", "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["bounds"]["n_range"] == [2, 10**1000 - 2]


class TestBatch:
    def good_file(self, tmp_path):
        path = tmp_path / "systems.txt"
        path.write_text("L2(4;4,3)\n# full comment\nL4(1;2)  # trailing comment\n\nL2(2;2)\n")
        return str(path)

    def bad_file(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("L2(4;4,3)\nL3(1;1)\nL2(2;2)\n")
        return str(path)

    def test_clean_batch_exit_0(self, capsys, tmp_path):
        code, out, _ = run(capsys, "batch", self.good_file(tmp_path))
        assert code == 0
        assert [line.split(":")[0] for line in out.strip().splitlines()] == [
            "L2(4;4,3)",
            "L4(1;2)",
            "L2(2;2)",
        ]

    def test_error_isolation_and_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "batch", self.bad_file(tmp_path), "--format", "json")
        assert code == 2
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[1]["error"]["line"] == 2
        assert lines[0]["dim"] == 1 and lines[2]["dim"] == 2
        assert ":2: n must be even" in err

    @pytest.mark.parametrize(
        "hostile", ["L2(1;1^100001)", "L2(" + "9" * 5000 + ";1)"], ids=["points", "digits"]
    )
    def test_oversized_line_isolated(self, capsys, tmp_path, hostile):
        path = tmp_path / "oversized.txt"
        path.write_text(f"L2(4;4,3)\n{hostile}\nL2(2;2)\n")
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        assert code == 2
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert ["error" in line for line in lines] == [False, True, False]
        assert lines[1]["error"]["line"] == 2
        assert ":2: " in err

    def test_non_ascii_digit_line_isolated(self, capsys, tmp_path):
        path = tmp_path / "superscript.txt"
        path.write_text("L2(4;4,3)\nL2(\u00b2)\nL2(2;2)\n", encoding="utf-8")
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        assert code == 2
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert ["error" in line for line in lines] == [False, True, False]
        assert lines[1]["error"] == {
            "line": 2,
            "position": 3,
            "message": "expected integer for the degree d, found '\u00b2'",
            "source": "L2(\u00b2)",
        }
        assert ":2: expected integer" in err

    def test_streamed_json_spans_blocks(self, capsys, tmp_path, monkeypatch):
        lines = []
        for i in range(3000):
            if i % 97 == 5:
                lines.append(f"L3({i % 11};1)")  # odd n: an error record
            elif i % 89 == 7:
                lines.append("# comment only")
            else:
                lines.append(f"L{2 * (i % 7 + 1)}({i % 13};{i % 5 + 1}^{i % 4 + 1},{i % 3})")
        path = tmp_path / "long.txt"
        path.write_text("\n".join(lines) + "\n")
        writes = []
        real_write = sys.stdout.write

        def counting_write(text):
            writes.append(len(text))
            return real_write(text)

        monkeypatch.setattr(sys.stdout, "write", counting_write)
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        monkeypatch.undo()
        assert code == 2
        assert len(out) > 3 * cli.BLOCK_CHARS
        assert len(writes) >= 3 and all(size >= cli.BLOCK_CHARS for size in writes[:-1])
        records = [json.loads(line) for line in out.splitlines()]
        expected = []
        for lineno, text in enumerate(lines, start=1):
            if text.startswith("#"):
                continue
            if text.startswith("L3("):
                expected.append({"line": lineno, "position": 1, "message": "n must be even (n = 2g-2)", "source": text})
            else:
                expected.append(classification_record(decompose(parse_literal(text).to_spec())))
        assert [rec.get("error", rec) for rec in records] == expected
        assert err.count("n must be even") == sum(1 for text in lines if text.startswith("L3("))
        code, out, _ = run(capsys, "batch", str(path), "--format", "json", "--quiet")
        assert code == 2 and out == ""

    def test_line_numbers_follow_str_splitlines(self, capsys, tmp_path):
        # Line breaks str.splitlines() knows besides CR/LF, inside and between
        # lines; the line numbers are the ones read().splitlines() gave.
        text = (
            "L2(1)\x0cL3(1)\nL2(2)\u2028L2(3;1)\r\nL5(1)\rL2(4)\x0bL2(1;1^2)"
            "\x85x\u2029L4(1;2)\n\x1cL7(0)\n"
        )
        path = tmp_path / "breaks.txt"
        path.write_text(text, encoding="utf-8", newline="")
        code, out, _ = run(capsys, "batch", str(path), "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 2
        assert [rec["error"]["line"] for rec in records if "error" in rec] == [2, 5, 8, 11]
        assert [rec["free_part"] or rec["fixed_part"] for rec in records if "error" not in rec] == [
            "L2(1)", "L2(2)", "L2(3;1)", "L2(4)", ["1*L2(1;1^2)"], ["1*L4(1;2)"],
        ]  # fmt: skip

    @given(
        # every break str.splitlines() knows but CR, which text mode turns into LF
        st.text(alphabet="ab#\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
        st.integers(1, 9),
        st.integers(0, 12),
    )
    def test_chunked_reader_matches_splitlines(self, text, piece, cap):
        old = batch.READ_CHARS, batch.MAX_LINE_CHARS
        batch.READ_CHARS, batch.MAX_LINE_CHARS = piece, cap
        try:
            got = list(batch._file_lines(io.StringIO(text)))
        finally:
            batch.READ_CHARS, batch.MAX_LINE_CHARS = old
        expected = text.splitlines()
        assert len(got) == len(expected)
        for line, full in zip(got, expected):
            if len(full) <= cap:
                assert line == full
            else:
                assert full.startswith(line) and cap < len(line) <= cap + piece

    @pytest.mark.parametrize("piece", [5, 64, 1 << 16])
    def test_long_line_is_an_error_record(self, capsys, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", 50)
        monkeypatch.setattr(batch, "READ_CHARS", piece)
        long = "L2(1" + " " * 100 + ")"
        path = tmp_path / "long.txt"
        path.write_text(f"L2(4;4,3)\nL2(1)\x0c{long}\x0cL2(2;2)\n# {'x' * 60}\nL4(1;2)\n")
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        error = {"position": 50, "message": "line longer than 50 characters"}
        assert [rec.get("error", rec) for rec in records] == [
            classification_record(decompose(parse_literal("L2(4;4,3)").to_spec())),
            classification_record(decompose(parse_literal("L2(1)").to_spec())),
            {"line": 3, **error, "source": "L2(1..."},
            classification_record(decompose(parse_literal("L2(2;2)").to_spec())),
            {"line": 5, **error, "source": "# xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx..."},
            classification_record(decompose(parse_literal("L4(1;2)").to_spec())),
        ]
        assert err.splitlines() == [
            f"{path}:3: line longer than 50 characters (byte 50)",
            f"{path}:5: line longer than 50 characters (byte 50)",
        ]

    @pytest.mark.parametrize("piece", [7, 64, 1 << 16])
    def test_line_of_exactly_the_cap_is_a_record(self, capsys, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", 50)
        monkeypatch.setattr(batch, "READ_CHARS", piece)
        path, records = capped_file(tmp_path / "cap.txt", 50, 4)
        code, out, err = run(capsys, "batch", path, "--format", "json")
        assert (code, err) == (0, "")
        assert [json.loads(line) for line in out.splitlines()] == records

    def test_huge_line_bounded_memory(self, tmp_path):
        # A 50-million-character line costs the reader no more than its cap;
        # the batch runs in a child of a small wrapper so that RUSAGE_CHILDREN
        # sees only the batch process.
        path = tmp_path / "huge.txt"
        with open(path, "w") as handle:
            handle.write("L2(1")
            for _ in range(50):
                handle.write(" " * 1_000_000)
            handle.write(")\nL2(2;2)\n")
        wrapper = textwrap.dedent(
            f"""
            import resource, subprocess, sys
            proc = subprocess.run(
                [sys.executable, "-m", "k3linsys", "batch", {str(path)!r}, "--format", "json"],
                capture_output=True, text=True,
            )
            print(proc.returncode)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            sys.stdout.write(proc.stdout)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper], capture_output=True, text=True, env=CHILD_ENV, timeout=120
        )
        path.unlink()  # pytest keeps the temporary directories of recent runs
        code, peak_kb, *records = proc.stdout.splitlines()
        assert int(code) == 2
        assert int(peak_kb) < 40 * 1024
        assert [json.loads(line).get("error", {}).get("line") for line in records] == [1, None]
        assert json.loads(records[1])["free_part"] == "L2(2;2)"

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"L2(1)\nL2(\xff)\n")
        code, _, err = run(capsys, "batch", str(path))
        assert code == 2 and "not UTF-8" in err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_undecodable_line_is_named_after_every_earlier_record(self, capsys, tmp_path, fmt):
        # The bad byte sits past the first 8 KB the decoder reads at once.
        path = tmp_path / "late.txt"
        path.write_bytes("L2(1)  # \u00e9\n".encode() * 3000 + b"L2(\xff)\nL2(2)\n")
        code, out, err = run(capsys, "batch", str(path), "--format", fmt)
        assert code == 2 and err == f"{path}: not UTF-8 at line 3001\n"
        one = tmp_path / "one.txt"
        one.write_text("L2(1)\n")
        _, single, _ = run(capsys, "batch", str(one), "--format", fmt)
        header = f"{','.join(RECORD_FIELDS)}\n" if fmt == "csv" else ""
        record = single.removeprefix(header)
        assert out == header + record * 3000

    @pytest.mark.parametrize("piece", [1, 8, 64])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_undecodable_byte_past_the_kept_prefix_ends_the_run(self, capsys, tmp_path, monkeypatch, fmt, piece):
        # The reader drops the pieces of a line past MAX_LINE_CHARS; a byte
        # that is not UTF-8 in them still names the line and ends the run.
        monkeypatch.setattr(batch, "READ_CHARS", piece)
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", 50)
        path = tmp_path / "long.txt"
        path.write_bytes(b"L2(1)\nL2(1" + (b" " * 100 + b"\xff") * 3 + b")\nL2(2)\n")
        code, out, err = run(capsys, "batch", str(path), "--format", fmt)
        assert code == 2 and err == f"{path}: not UTF-8 at line 2\n"
        one = tmp_path / "one.txt"
        one.write_text("L2(1)\n")
        assert out == run(capsys, "batch", str(one), "--format", fmt)[1]
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            lines = list(batch._file_lines(handle))
        assert len(lines) == 3 and 50 < len(lines[1]) <= 50 + piece + 1
        assert lines[1].count("\udcff") == 1

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, fmt):
        text = "L2(3;2^4,1)\n# note\nL4(1;2)\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = run(capsys, "batch", str(plain), "--format", fmt)
        assert expected[0] == 0 and expected[1]
        assert run(capsys, "batch", str(marked), "--format", fmt) == expected

    def test_byte_order_mark_elsewhere_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "marks.txt"
        path.write_bytes("\ufeffL2(1)\n\ufeffL2(2)\nL2(\ufeff3)\n".encode())
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["free_part"] == "L2(1)"
        assert [rec["error"] for rec in records[1:]] == [
            {"line": 2, "position": 0, "message": "expected 'L' at start of system, found '\\ufeff'", "source": "\ufeffL2(2)"},
            {"line": 3, "position": 3, "message": "expected integer for the degree d, found '\\ufeff'", "source": "L2(\ufeff3)"},
        ]  # fmt: skip
        assert err.splitlines() == [
            f"{path}:2: expected 'L' at start of system, found '\\ufeff' (byte 0)",
            f"{path}:3: expected integer for the degree d, found '\\ufeff' (byte 3)",
        ]

    def test_positions_are_utf8_byte_offsets(self, capsys, tmp_path, monkeypatch):
        # into the stripped literal, the record's source: an em space is 3
        # bytes, a no-break space 2, and the long line's first 50 characters 100
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", 50)
        path = tmp_path / "wide.txt"
        path.write_text("  L2(\u2003x)  # \u00e9\nL2(1;\xa01,x)\n" + "\u00e9" * 60 + "\n", encoding="utf-8")
        code, out, err = run(capsys, "batch", str(path), "--format", "json")
        assert code == 2
        assert [json.loads(line)["error"] for line in out.splitlines()] == [
            {"line": 1, "position": 6, "message": "expected integer for the degree d, found 'x'", "source": "L2(\u2003x)"},
            {"line": 2, "position": 9, "message": "expected integer for a multiplicity, found 'x'", "source": "L2(1;\xa01,x)"},
            {"line": 3, "position": 100, "message": "line longer than 50 characters", "source": "\u00e9" * 40 + "..."},
        ]  # fmt: skip
        assert err.splitlines() == [
            f"{path}:1: expected integer for the degree d, found 'x' (byte 6)",
            f"{path}:2: expected integer for a multiplicity, found 'x' (byte 9)",
            f"{path}:3: line longer than 50 characters (byte 100)",
        ]
        code, _, err = run(capsys, "dim", "\u2003L2(x)")
        assert code == 2 and err == "parse error: expected integer for the degree d, found 'x' (byte 6)\n"

    @pytest.mark.parametrize("piece", [1, 2, 3, 4, 5, 7, 8])
    def test_chunked_reader_on_text_mode_files(self, tmp_path, monkeypatch, piece):
        # Each break lands on every offset of a piece as the prefix grows:
        # CR LF and lone CR (one LF once text mode has read them), form
        # feed, file separator and line separator; then a line over the cap
        # that spans pieces, and a last line with no break after it.
        cap = 12
        monkeypatch.setattr(batch, "READ_CHARS", piece)
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", cap)
        for shift in range(piece + 1):
            for brk in ("\r\n", "\r", "\x0c", "\x1c", "\u2028"):
                text = "a" * shift + brk + "L2(1)" + brk + brk + "b" * 40 + brk + "L4(1;2)"
                path = tmp_path / "piece.txt"
                path.write_text(text, encoding="utf-8", newline="")
                with open(path, encoding="utf-8-sig") as handle:
                    expected = handle.read().splitlines()
                with open(path, encoding="utf-8-sig") as handle:
                    got = list(batch._file_lines(handle))
                assert len(got) == len(expected), (shift, brk)
                for line, full in zip(got, expected):
                    if len(full) <= cap:
                        assert line == full
                    else:
                        assert full.startswith(line) and cap < len(line) <= cap + piece

    def test_csv_error_row_empty(self, capsys, tmp_path):
        code, out, _ = run(capsys, "batch", self.bad_file(tmp_path), "--format", "csv")
        rows = parse_csv(out)
        assert rows[0] == list(RECORD_FIELDS)
        assert rows[2] == [""] * len(RECORD_FIELDS)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "batch", "/nonexistent/path.txt")
        assert code == 2 and "cannot read batch file" in err

    def test_json_csv_field_equivalence(self, capsys, tmp_path):
        path = self.good_file(tmp_path)
        _, json_out, _ = run(capsys, "batch", path, "--format", "json")
        _, csv_out, _ = run(capsys, "batch", path, "--format", "csv")
        json_rows = [json.loads(line) for line in json_out.strip().splitlines()]
        csv_rows = parse_csv(csv_out)
        assert csv_rows[0] == list(RECORD_FIELDS)
        for rec, row in zip(json_rows, csv_rows[1:]):
            for key, cell in zip(RECORD_FIELDS, row):
                assert cell == cli._csv_cell(key, rec[key])


def capped_file(path, cap, count):
    """A batch file of `count` literals, each padded by a comment to exactly
    `cap` characters, and the records of its lines."""
    literals = [f"L{2 * (i % 5 + 1)}({i % 9};{i % 4 + 1}^{i % 3 + 1})" for i in range(count)]
    path.write_text("".join(f"{text}  # ".ljust(cap, "x") + "\n" for text in literals))
    return str(path), [classification_record(decompose(parse_literal(text).to_spec())) for text in literals]


def parts_file(path, bad_line=None):
    """A 40-line batch file: a byte-order mark, CR LF endings, comments,
    error lines, wide lines, lines over a MAX_LINE_CHARS of 100 on both
    sides of the boundaries after lines 10 and 14, and the bytes of
    `bad_line`, if given, not UTF-8.  On three processes it splits into
    parts of 14 lines (1-14, 15-28, 29-40), or of 5 lines in three rounds
    with MIN_PART_LINES and MAX_PART_LINES 5 (see batch._plan)."""
    lines = [f"L{2 * (i % 5 + 1)}({i % 9};{i % 4 + 1}^{i % 3 + 1},{i % 2})" for i in range(40)]
    lines[2] = "# comment only"
    lines[4] = "L3(2;1)  # odd n: an error record"
    lines[7] = "L2(6;" + ",".join(str(m % 4 + 1) for m in range(30)) + ")"  # wide
    lines[9] = "L2(1" + " " * 130 + ")"  # over the cap, last line of a part of 5
    lines[10] = "L4(2" + " " * 130 + ")"  # over the cap, first line of the next
    lines[13] = "L6(1" + " " * 130 + ")"  # over the cap, last line of a part of 14
    lines[14] = "L8(3" + " " * 130 + ")"  # over the cap, first line of the next
    lines[17] = ""
    lines[21] = "L2(1;1"  # unclosed
    lines[30] = "L2(12;" + ",".join("1" * 40) + ")  # wide"
    data = b"\xef\xbb\xbf" + "".join(line + "\r\n" for line in lines).encode()
    if bad_line:
        head = data.split(b"\r\n")
        head[bad_line - 1] = b"L2(\xff)"
        data = b"\r\n".join(head)
    path.write_bytes(data)
    return str(path)


class TestBatchParts:
    """batch in parts, forked children included, writes the serial loop's
    stdout, stderr and exit code, and leaves no process behind."""

    @pytest.fixture
    def forks(self, monkeypatch, forks):
        monkeypatch.setattr(batch, "MIN_PART_LINES", 8)
        monkeypatch.setattr(batch, "MAX_LINE_CHARS", 100)
        return forks

    def test_plan(self, tmp_path, monkeypatch, forks):
        with batch._open_batch(parts_file(tmp_path / "parts.txt")) as handle:
            assert batch._plan(handle) == (3, 14)
            assert handle.read(5) == "L2(0;"  # back at the start, past the mark
            monkeypatch.setattr(batch, "MIN_PART_LINES", 5)
            monkeypatch.setattr(batch, "MAX_PART_LINES", 5)  # rounds of three parts
            assert batch._plan(handle) == (3, 5)
            monkeypatch.setattr(batch, "MAX_PART_LINES", 100)
            monkeypatch.setattr(batch, "MIN_PART_LINES", 14)  # 40 lines: two parts
            assert batch._plan(handle)[0] == 2
            monkeypatch.setattr(batch, "MIN_PART_LINES", 21)  # fewer than two parts
            assert batch._plan(handle) == (1, sys.maxsize)
            monkeypatch.setattr(batch, "MIN_PART_LINES", 8)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert batch._plan(handle) == (1, sys.maxsize)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert batch._plan(handle)[0] == 2
            isdir = os.path.isdir
            monkeypatch.setattr(os.path, "isdir", lambda path: path != "/proc/self/fd" and isdir(path))
            assert batch._plan(handle) == (1, sys.maxsize)
            monkeypatch.setattr(os.path, "isdir", isdir)
            monkeypatch.delattr(os, "memfd_create")
            assert batch._plan(handle) == (1, sys.maxsize)
        assert forks == []

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ([], 8),
            ([["max 100000"]], 8),  # cgroup v2, no quota
            ([["150000 100000"]], 2),  # 1.5 CPUs
            ([["40000 100000"]], 1),  # never below one
            ([["missing"], ["-1", "100000"]], 8),  # cgroup v1, no quota
            ([["missing"], ["300000", "100000"]], 3),
            ([["200000 100000"], ["100000", "100000"]], 1),  # the smaller quota
        ],
    )
    def test_usable_cpus_keeps_to_the_cpu_quota(self, tmp_path, monkeypatch, files, cpus):
        quota_files = []
        for i, contents in enumerate(files):
            paths = [tmp_path / f"{i}.{k}" for k in range(len(contents))]
            for path, text in zip(paths, contents):
                if text != "missing":
                    path.write_text(text + "\n")
            quota_files.append(tuple(map(str, paths)))
        monkeypatch.setattr(parts, "CPU_QUOTA_FILES", tuple(quota_files))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert parts.usable_cpus() == cpus

    @pytest.mark.parametrize("bad_line", [None, 3, 8, 23], ids=["clean", "part0", "part1", "round2"])
    @pytest.mark.parametrize("quiet", [False, True], ids=["", "quiet"])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("max_part", [100, 5], ids=["one-round", "rounds"])
    def test_parts_write_the_serial_output(
        self, capsys, tmp_path, monkeypatch, forks, pins, max_part, fmt, quiet, bad_line
    ):
        monkeypatch.setattr(batch, "MIN_PART_LINES", min(max_part, 8))
        monkeypatch.setattr(batch, "MAX_PART_LINES", max_part)
        copies, copy_part = [], batch._copy_part
        monkeypatch.setattr(batch, "_copy_part", lambda *a: copies.append(a[3]) or copy_part(*a))
        argv = ["batch", parts_file(tmp_path / "parts.txt", bad_line), "--format", fmt] + ["--quiet"] * quiet
        parallel = run(capsys, *argv)
        assert len(forks) == 2
        # three parts on the three CPUs of the fake mask: batch on the first,
        # then back on the mask (CPU 2 may be missing: the pins are best effort)
        assert pins == [{0}, {0, 1, 2}]
        if bad_line is None:  # parts 1 and 2, or 1, 2, 4, 5 and 7 of 8, come from the children
            assert copies == ([15, 29] if max_part == 100 else [6, 11, 21, 26, 36])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run(capsys, *argv)
        assert len(forks) == 2 and len(pins) == 2
        assert parallel == serial
        code, out, err = serial
        assert code == 2 and (out == "") == quiet
        assert err.count(": line longer than 100 characters") == (0 if bad_line in (3, 8) else 4)
        if bad_line:
            assert err.endswith(f"not UTF-8 at line {bad_line}\n")

    def test_lines_of_exactly_the_cap_are_records(self, capsys, tmp_path, forks):
        # three parts of 10 lines, each line as long as the MAX_LINE_CHARS of 100
        path, records = capped_file(tmp_path / "cap.txt", 100, 30)
        code, out, err = run(capsys, "batch", path, "--format", "json")
        assert (code, err, len(forks)) == (0, "", 2)
        assert [json.loads(line) for line in out.splitlines()] == records

    @pytest.mark.parametrize("max_part", [100, 5], ids=["one-round", "rounds"])
    def test_crash_in_a_child_is_reported(self, capsys, tmp_path, monkeypatch, forks, max_part):
        monkeypatch.setattr(batch, "MIN_PART_LINES", min(max_part, 8))
        monkeypatch.setattr(batch, "MAX_PART_LINES", max_part)
        parent, parse_spec = os.getpid(), cli.parse_spec

        def crash_in_children(text):
            if os.getpid() != parent and text == "L8(5;4^3,1)":  # line 24
                raise RuntimeError("part crashed")
            return parse_spec(text)

        path = parts_file(tmp_path / "parts.txt")
        _, expected, _ = run(capsys, "batch", path, "--format", "json")
        monkeypatch.setattr(cli, "parse_spec", crash_in_children)
        code, out, err = run(capsys, "batch", path, "--format", "json")
        assert code == 1 and len(forks) == 4
        assert "Traceback" in err and "RuntimeError: part crashed" in err
        part = "15-28" if max_part == 100 else "21-25"
        assert err.endswith(f"{path}: the part of lines {part} ended with exit status 1\n")
        # the records of lines 1-23, of which line 3 is a comment and line 18 empty
        assert out.splitlines() == expected.splitlines()[:21]

    def test_killed_child_is_reported(self, capsys, tmp_path, monkeypatch, forks):
        parent, parse_spec = os.getpid(), cli.parse_spec

        def kill_children(text):
            if os.getpid() != parent:
                os.kill(os.getpid(), 9)
            return parse_spec(text)

        path = parts_file(tmp_path / "parts.txt")
        monkeypatch.setattr(cli, "parse_spec", kill_children)
        code, _, err = run(capsys, "batch", path, "--format", "text")
        assert code == 1 and len(forks) == 2
        assert err.endswith(f"{path}: the part of lines 15-28 ended with exit status -9\n")

    @pytest.mark.parametrize("path", ["clean", "error-records", "crash", "killed"])
    def test_parts_give_back_the_callers_mask(self, capsys, tmp_path, monkeypatch, forks, pins, path):
        mask = set(sorted(SCHED_GETAFFINITY(0))[:3])  # the parts use every CPU of it
        if len(mask) < 2:
            pytest.skip("one CPU: batch is one pass")
        SCHED_SETAFFINITY(0, mask)  # forks gives back the whole mask
        monkeypatch.setattr(os, "sched_getaffinity", SCHED_GETAFFINITY)
        parent, parse_spec = os.getpid(), cli.parse_spec

        def end_children(text):
            if os.getpid() != parent and path == "crash":
                raise RuntimeError("part crashed")
            if os.getpid() != parent and path == "killed":
                os.kill(os.getpid(), 9)
            return parse_spec(text)

        monkeypatch.setattr(cli, "parse_spec", end_children)
        if path == "error-records":
            file = parts_file(tmp_path / "parts.txt")
        else:
            file = tmp_path / "clean.txt"
            file.write_text("L2(4;4,3)\nL4(5;2^6,1)\n" * 20)
        code, _, _ = run(capsys, "batch", str(file))
        assert code == {"clean": 0, "error-records": 2, "crash": 1, "killed": 1}[path]
        assert len(forks) == len(mask) - 1
        assert pins == [{min(mask)}, mask]
        assert SCHED_GETAFFINITY(0) == mask

    @pytest.mark.parametrize(
        "min_part, mask, forked", [(14, {0, 1, 2}, 1), (8, {0}, 0)], ids=["two-of-three", "one-pass"]
    )
    def test_fewer_parts_than_cpus_stay_unpinned(
        self, capsys, tmp_path, monkeypatch, forks, pins, min_part, mask, forked
    ):
        monkeypatch.setattr(batch, "MIN_PART_LINES", min_part)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
        code, _, _ = run(capsys, "batch", parts_file(tmp_path / "parts.txt"))
        assert code == 2 and len(forks) == forked and pins == []

    def test_fifo_stays_serial(self, capsys, tmp_path, forks):
        path = parts_file(tmp_path / "parts.txt")
        expected = run(capsys, "batch", path, "--format", "json")
        assert len(forks) == 2
        fifo = tmp_path / "parts.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(Path(path).read_bytes(),), daemon=True)
        writer.start()
        got = run(capsys, "batch", str(fifo), "--format", "json")
        writer.join(timeout=60)
        assert not writer.is_alive() and len(forks) == 2
        assert got == (expected[0], expected[1], expected[2].replace(path, str(fifo)))


# Runs the console entry point with batch forced into parts of argv[1] to
# argv[2] lines on two CPUs, then reports on stderr any child left behind.
PARTS_PROBE = """
import os, sys
from k3linsys import batch, cli, parts
batch.MIN_PART_LINES = int(sys.argv.pop(1))
batch.MAX_PART_LINES = int(sys.argv.pop(1))
parts.CPU_QUOTA_FILES = ()
os.sched_getaffinity = lambda pid: {0, 1}
try:
    cli.entrypoint()
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        sys.stderr.write("a child is left\\n")
    except ChildProcessError:
        pass
"""


@pytest.mark.parametrize("max_part", ["100000", "1000"], ids=["one-round", "rounds"])
def test_parts_on_closed_stdout_exit_141_and_leave_no_child(tmp_path, max_part):
    path = tmp_path / "many.txt"
    path.write_text("L2(4;4,3)\nL4(5;2^6,1)\n" * 10_000)  # about 4 MB of JSON
    proc = subprocess.Popen(
        [sys.executable, "-c", PARTS_PROBE, "1000", max_part, "batch", str(path), "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    )  # fmt: skip
    try:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert err == b""


# PARTS_PROBE with the batch process's first part interrupted, as Ctrl-C
# would, once its children are forked; it writes how many it forked.
INTERRUPT_PROBE = """
import os
from k3linsys import batch
forks, fork, batch_lines, parent = [], os.fork, batch._batch_lines, os.getpid()
def counted_fork():
    pid = fork()
    forks.append(pid)
    return pid
def interrupted(*args):
    if os.getpid() == parent:
        os.write(1, b"%d forked\\n" % len(forks))
        raise KeyboardInterrupt
    return batch_lines(*args)
os.fork, batch._batch_lines = counted_fork, interrupted
""" + PARTS_PROBE


def test_interrupt_exits_130_and_reaps_the_children(tmp_path):
    path = tmp_path / "many.txt"
    path.write_text("L2(4;4,3)\nL4(5;2^6,1)\n" * 2_000)
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPT_PROBE, "1000", "1000", "batch", str(path), "--format", "json"],
        capture_output=True, env=CHILD_ENV, timeout=120,
    )  # fmt: skip
    # one line on stderr, no traceback, and no child left behind
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"1 forked\n", b"interrupted\n")


# Batch in parts of five lines on at most four CPUs of this process's own
# mask: each part process writes the CPUs it may run on to stderr, and the
# batch process writes its mask when the run is over.
AFFINITY_PROBE = """
import os, sys
from k3linsys import batch, cli, parts
batch.MIN_PART_LINES = batch.MAX_PART_LINES = 5
parts.CPU_QUOTA_FILES = ()
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:4])
batch_lines = batch._batch_lines
def recorded(*args):
    sys.stderr.write(f"part {os.getpid()} {sorted(os.sched_getaffinity(0))}\\n")
    return batch_lines(*args)
batch._batch_lines = recorded
try:
    cli.entrypoint()
finally:
    sys.stderr.write(f"after {sorted(os.sched_getaffinity(0))}\\n")
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: batch is one pass")
def test_parts_run_each_on_its_own_cpu(tmp_path):
    path = tmp_path / "many.txt"
    path.write_text("L2(4;4,3)\nL4(5;2^6,1)\n" * 20)
    proc = subprocess.run(
        [sys.executable, "-c", AFFINITY_PROBE, "batch", str(path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )  # fmt: skip
    *records, after = proc.stderr.splitlines()
    assert proc.returncode == 0 and after.startswith("after ")
    cpus = {}  # each part process's CPUs, by pid
    for record in records:
        _, pid, on = record.split(" ", 2)
        assert cpus.setdefault(pid, json.loads(on)) == json.loads(on)
    mask = json.loads(after.split(" ", 1)[1])
    assert sorted(cpus.values()) == [[cpu] for cpu in mask] and len(mask) >= 2


def test_dev_stdin_stays_serial(tmp_path):
    path = parts_file(tmp_path / "parts.txt")
    argv = [sys.executable, "-c", PARTS_PROBE, "5", "5", "batch"]
    from_file = subprocess.run([*argv, path], capture_output=True, env=CHILD_ENV, timeout=120)
    piped = subprocess.run(
        [*argv, "/dev/stdin"], input=Path(path).read_bytes(), capture_output=True, env=CHILD_ENV, timeout=120
    )
    assert from_file.returncode == piped.returncode == 2
    assert piped.stdout == from_file.stdout and piped.stdout
    assert piped.stderr == from_file.stderr.replace(path.encode(), b"/dev/stdin")


class TestQuietAndUsage:
    def test_quiet_suppresses_stdout(self, capsys):
        code, out, _ = run(capsys, "classify", "L2(2;2)", "--quiet")
        assert code == 0 and out == ""

    def test_global_flag_position(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "classify", "L2(2;2)")
        assert code == 0 and json.loads(out)["dim"] == 2

    def test_parse_error_diagnostic(self, capsys):
        code, _, err = run(capsys, "dim", "L2(1;1")
        assert code == 2
        assert "byte 6" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_BATCH = str(GOLDEN / "batch.txt")
FORMATS = ("text", "json", "csv")
# The command lines tests/test_golden.py runs, and the README's examples.
GOLDEN_COMMAND_LINES = [
    *(
        [command, literal, "--format", fmt]
        for command in ("dim", "classify")
        for line in (GOLDEN / "batch.txt").read_text(encoding="utf-8").splitlines()
        if (literal := line.split("#", 1)[0].strip())
        for fmt in FORMATS
    ),
    *(
        ["intersect", *line.split(), "--format", fmt]
        for line in (GOLDEN / "intersect.txt").read_text(encoding="utf-8").splitlines()
        for fmt in FORMATS
    ),
    *(
        [*command, "--format", fmt]
        for command in (
            ["batch", GOLDEN_BATCH],
            ["hunt"],
            ["hunt", "--max-n", "12", "--max-degree", "7", "--mass-bound", "64"],
            ["verify", "pairs"],
            ["verify", "pairs", "--mass-bound", "180", "--max-points", "6", "--max-n", "36"],
            ["verify", "lemma-table"],
            ["enumerate", "v0", "--self-int=-2..6"],
        )
        for fmt in FORMATS
    ),
]
README_COMMAND_LINES = [
    shlex.split(line.removeprefix("$ k3linsys ").partition(">")[0])
    for line in (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("$ k3linsys ")
]
# Command lines at the edges of what the reader reads.
EDGE_COMMAND_LINES = [
    ["enumerate", "v0"],  # a required option left out
    ["dim", "L2(2;2)", "extra"],
    ["enumerate", "v1", "--self-int", "0..1"],
    ["hunt", "--max-n", "-h"],  # a next-word value that starts with "-"
    ["hunt", "--max-n", "-1"],
    ["dim", "L2(2;2)", "--format", "--quiet"],
    ["dim", "L2(2;2)", "--quiet=1"],
    ["dim", "L2(2;2)", "--", "--quiet"],
    ["verify", "--mass-bound", "1", "pairs"],
    ["verify", "pairs", "--max", "1"],
    ["--format=json", "verify", "--format", "csv", "pairs", "--format=text"],
]

# Command lines for the reader's equivalence test: a command or check name,
# options before and after it, and about as many positionals as it takes.
# Mostly an option is one the level takes, spelled in full, with a value it
# reads, next to it or joined by "="; else it takes any value, or is any
# option, spelled in full or abbreviated, alone or with any value, or any
# word: a positional (empty, or starting with "-"), a command or check name,
# help or "--".
OPTION_VALUES = {
    "--format": st.sampled_from(FORMATS),
    "--quiet": st.nothing(),
    "--self-int": st.sampled_from(["0..2", "-2..1", "3..1"]),
    **dict.fromkeys(["--mass-bound", "--max-points", "--max-n", "--max-degree"], st.integers(0, 99).map(str)),
}
VALUES = st.one_of(
    *OPTION_VALUES.values(), st.sampled_from(["-1", "9" * 1001, "ten", "", "xml", "1_0", "v0", "-h", "--"])
)
COMMAND_SHAPES = [  # command words, positionals taken, options of its own
    (["dim"], 1, ()),
    (["classify"], 1, ()),
    (["intersect"], 2, ()),
    (["batch"], 1, ()),
    (["enumerate"], 1, ("--self-int",)),
    (["verify", "lemma-table"], 0, ()),
    (["verify", "pairs"], 0, ("--mass-bound", "--max-points", "--max-n")),
    (["hunt"], 0, ("--max-n", "--max-degree", "--mass-bound", "--max-points")),
]
POSITIONALS = st.sampled_from(["L2(2;2)", "L4(1;3)", "v0", ""])
ANY_NAME = st.sampled_from([name[:end] for name in OPTION_VALUES for end in range(3, len(name) + 1)])
ANY_WORD = st.one_of(
    ANY_NAME.map(lambda name: [name]),
    st.tuples(ANY_NAME, VALUES).map(list),
    st.tuples(ANY_NAME, VALUES).map(lambda pair: ["=".join(pair)]),
    st.sampled_from(["-L2(1;1)", "-1", "", "-h", "--help", "--", "verify", "pairs", "enumerate"]).map(
        lambda word: [word]
    ),
)


@st.composite
def command_lines(draw):
    words, taken, own = draw(st.sampled_from(COMMAND_SHAPES))

    def options(*names):
        pieces = []
        for _ in range(draw(st.integers(0, 3))):
            name, kind = draw(st.sampled_from(names)), draw(st.integers(0, 5))
            values = VALUES if kind == 1 else OPTION_VALUES[name]
            if kind == 0:
                pieces += draw(ANY_WORD)
            elif name == "--quiet" and kind > 1:
                pieces.append(name)
            elif draw(st.booleans()):
                pieces.append(f"{name}={draw(values)}")
            else:
                pieces += [name, draw(values)]
        return pieces

    count = max(taken + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    positionals = draw(st.lists(POSITIONALS, min_size=count, max_size=count))
    return [*options("--format", "--quiet"), *words, *positionals, *options("--format", "--quiet", *own)]


def with_examples(argvs):
    def add(test):
        for argv in argvs:
            test = example(argv=argv)(test)
        return test

    return add


@settings(max_examples=300, deadline=None)
@with_examples(GOLDEN_COMMAND_LINES + README_COMMAND_LINES + EDGE_COMMAND_LINES)
@given(argv=command_lines())
def test_reader_reads_as_argparse(argv):
    # A command line the table reads gives argparse's values; one argparse
    # exits on (help or a usage error) the reader declines.
    read = cli._read(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            parsed = None
    if parsed is None:
        assert read is None
    elif read is not None:
        assert vars(read) == vars(parsed)


def test_reader_reads_every_golden_and_readme_command_line():
    lines = GOLDEN_COMMAND_LINES + README_COMMAND_LINES
    assert len(README_COMMAND_LINES) >= 10
    assert [argv for argv in lines if cli._read(argv) is None] == []


def test_package_exports_lattice_lazily():
    from k3linsys import lattice

    for name in k3linsys.__all__:
        if name != "__version__":
            assert getattr(k3linsys, name) is getattr(lattice, name)
    namespace = {}
    exec("from k3linsys import *", namespace)
    assert set(k3linsys.__all__) <= set(namespace)
    assert set(k3linsys.__all__) <= set(dir(k3linsys))
    with pytest.raises(AttributeError, match="no_such_name"):
        k3linsys.no_such_name


def test_sources_parse_as_python_3_10():
    # pyproject.toml requires Python >= 3.10; the suite may run on a newer
    # one, where syntax that 3.10 lacks (except*, a type statement) compiles.
    sources = sorted(Path(k3linsys.__file__).parent.glob("*.py"))
    assert {"cli.py", "records.py", "verify.py", "v0.py", "hunt.py"} <= {path.name for path in sources}
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Runs main(argv) in a child without site-packages and writes the names in
# its sys.modules to the file named first.
IMPORT_PROBE = """
import sys
from k3linsys.cli import main
main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    handle.write("\\n".join(sys.modules))
"""
MATH = {"k3linsys.lattice", "k3linsys.classify", "k3linsys.literals", "k3linsys.verify"}
# The modules of one command or two each: classification records (dim,
# classify, batch), hunt, and the v = 0 window (enumerate, verify lemma-table).
RECORDS, HUNT, V0 = "k3linsys.records", "k3linsys.hunt", "k3linsys.v0"
# No command builds its value classes with dataclasses, which imports inspect.
CODEGEN = {"dataclasses", "inspect"}
# batch and hunt fork their parts by hand, with modules no other command loads:
# both with the core, batch with its own glue too.
POOLS = {"multiprocessing", "tempfile", "threading", "subprocess"}
PARTS = {"k3linsys.parts", "k3linsys.batch"}
# A valid command line is read without argparse; help and usage errors load it.
ARGPARSE = {"argparse", "gettext"}
PAIRS = ["verify", "pairs", "--mass-bound", "40", "--max-points", "4", "--max-n", "12"]
HUNT_ARGV = ["hunt", "--max-n", "4", "--max-degree", "2"]
INTERSECT = ["intersect", "L2(1;1)", "L2(1;1)"]


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["--help"], MATH | CODEGEN | PARTS | {RECORDS, HUNT, V0, "json", "csv"}, {"argparse"}),
        (["dim"], MATH | CODEGEN | PARTS | {RECORDS, HUNT, V0, "json", "csv"}, {"argparse"}),  # usage error
        (
            ["dim", "L2(3;2^4,1)"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json", "csv"},
            {"k3linsys.literals", RECORDS},
        ),
        (
            ["classify", "L2(4;4,3)", "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json", "csv"},
            {RECORDS},
        ),
        (
            ["classify", "L2(4;4,3)", "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json"},
            {RECORDS, "csv"},
        ),
        (
            ["batch", GOLDEN_BATCH, "--format", "json"],
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.verify", HUNT, V0, "csv"},
            {RECORDS, "json"},
        ),
        (
            ["batch", GOLDEN_BATCH, "--format", "csv"],
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.verify", HUNT, V0},
            {RECORDS, "csv"},
        ),
        (
            [*PAIRS, "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, V0, RECORDS, "csv"},
            {"k3linsys.verify", "json"},
        ),
        (
            PAIRS,
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, V0, RECORDS, "json", "csv"},
            {"k3linsys.verify"},
        ),
        (
            ["verify", "lemma-table", "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS},
            {"k3linsys.verify", V0, "csv", "json"},
        ),
        (
            ["verify", "lemma-table"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS, "json", "csv"},
            {"k3linsys.verify", V0},
        ),
        (
            [*HUNT_ARGV, "--format", "json"],
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.batch", "k3linsys.literals", V0, RECORDS, "csv"},
            {"k3linsys.verify", "k3linsys.parts", HUNT, "json"},
        ),
        (
            HUNT_ARGV,
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.batch", "k3linsys.literals", V0, RECORDS, "json", "csv"},
            {"k3linsys.verify", "k3linsys.parts", HUNT},
        ),
        (
            ["enumerate", "v0", "--self-int=-2..2", "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS, "csv"},
            {"k3linsys.verify", V0, "json"},
        ),
        (
            ["enumerate", "v0", "--self-int=-2..2"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS, "json", "csv"},
            {"k3linsys.verify", V0},
        ),
        (
            INTERSECT,
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, RECORDS, "json", "csv"},
            {"k3linsys.literals", "k3linsys.lattice"},
        ),
        (
            [*INTERSECT, "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, RECORDS, "csv"},
            {"k3linsys.literals", "k3linsys.lattice", "json"},
        ),
        (
            [*INTERSECT, "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, RECORDS, "json"},
            {"k3linsys.literals", "k3linsys.lattice", "csv"},
        ),
        (
            ["dim", "L2(3;2^4,1)", "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json", "csv"},
            {"k3linsys.literals", RECORDS},
        ),
        (
            ["dim", "L2(3;2^4,1)", "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json"},
            {"k3linsys.literals", RECORDS, "csv"},
        ),
        (
            ["classify", "L2(4;4,3)"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.verify", HUNT, V0, "json", "csv"},
            {"k3linsys.literals", RECORDS},
        ),
        (
            ["batch", GOLDEN_BATCH],
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.verify", HUNT, V0, "json", "csv"},
            PARTS | {RECORDS},
        ),
        (
            [*PAIRS, "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, V0, RECORDS},
            {"k3linsys.verify", "csv", "json"},
        ),
        (
            ["verify", "lemma-table", "--format", "json"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS, "csv"},
            {"k3linsys.verify", V0, "json"},
        ),
        (
            [*HUNT_ARGV, "--format", "csv"],
            CODEGEN | ARGPARSE | POOLS | {"k3linsys.batch", "k3linsys.literals", V0, RECORDS},
            {"k3linsys.verify", "k3linsys.parts", HUNT, "csv", "json"},
        ),
        (
            ["enumerate", "v0", "--self-int=-2..2", "--format", "csv"],
            CODEGEN | ARGPARSE | PARTS | {"k3linsys.literals", HUNT, RECORDS, "json"},
            {"k3linsys.verify", V0, "csv"},
        ),
        (
            ["verify", "--mass-bound", "1", "pairs"],  # usage error
            MATH | CODEGEN | PARTS | {RECORDS, HUNT, V0, "json", "csv"},
            {"argparse"},
        ),
    ],
)
def test_command_imports_only_its_modules(tmp_path, argv, absent, present):
    path = tmp_path / "modules.txt"
    subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(path), *argv],
        capture_output=True, env=CHILD_ENV, check=True, timeout=120,
    )  # fmt: skip
    loaded = set(path.read_text().split())
    assert "k3linsys.cli" in loaded
    assert not loaded & absent
    assert present <= loaded


def test_batch_in_parts_imports_no_pool(tmp_path):
    # 280 copies of the golden file: parts on a host with two usable CPUs
    path = tmp_path / "many.txt"
    path.write_text(Path(GOLDEN_BATCH).read_text(encoding="utf-8") * 280, encoding="utf-8")
    absent = CODEGEN | POOLS | ARGPARSE | {"k3linsys.verify"}
    test_command_imports_only_its_modules(tmp_path, ["batch", str(path)], absent, PARTS)


def test_json_batch_without_error_lines_imports_no_json(tmp_path):
    # records.json_record writes its records by a template; only an error record needs json
    path = tmp_path / "valid.txt"
    path.write_text("L2(4;4,3)\nL4(5;2^6,1)\n")
    argv = ["batch", str(path), "--format", "json"]
    test_command_imports_only_its_modules(tmp_path, argv, CODEGEN | POOLS | ARGPARSE | {"json"}, {RECORDS})


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "k3linsys", "dim", "L4(3;6)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 (special; v = -2, h1 = 2)"


def test_closed_stdout_exits_141_without_traceback():
    # about 2 MB of output, far past the pipe buffer, so the writer is still
    # printing when the reader closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "k3linsys", "enumerate", "v0", "--self-int", "0..30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    try:
        assert proc.stdout.readline().startswith(b"L")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert b"Traceback" not in err
