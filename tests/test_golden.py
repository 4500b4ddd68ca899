"""Byte identity of the classification record path.

tests/golden/batch.txt holds one line per decompose branch, the d = 0
face included, then spaced, unsorted, zero-padded, run-compressed, comment
and malformed lines.  Its batch output in each format (stdout, the shared
stderr and the exit code) was frozen from the renderer that went through a
record dict and json.dumps; the fused path must reproduce it byte for byte.
`<command>.<format>.out` holds, for each literal of that file in order, the
stdout, stderr and exit code of `dim` or `classify` on it, and
`intersect.<format>.out` the same for `intersect` on each pair of
`intersect.txt`: the README's zero-padded pair, two classes of different
lengths, a surface mismatch and a parse error.  `hunt.json`
holds the hunt report without `elapsed` at the CLI defaults and at the
benchmark's hunt_grid bounds, frozen from the scan that called every check
on every spec; its note was regenerated when the pattern-overlap check
left hunt.  `hunt.csv.out` holds hunt's csv stdout, stderr and exit code at
the same two bounds; csv carries no `elapsed`.  `pairs.json` holds the
`verify pairs` report the same way as `hunt.json`, at the CLI defaults and
at the benchmark's verify_pairs bounds.
`lemma-table.json` holds the `verify lemma-table` report without `elapsed`,
and `enumerate.<format>.out` the stdout of `enumerate v0 --self-int=-2..6`.
`<report>.<format>.out` holds the text and csv stdout, stderr and exit code
of `verify lemma-table`, of `verify pairs` and of `hunt` (at the bounds of
pairs.json and hunt.json), with a text report's `elapsed=...s` masked, and
`failed.<format>.out` those of a synthetic failed lemma-table report, with
a violation, an exception, a note and a class, in every format.  All of
them were frozen from the renderers that branched on the format one
command at a time.  tests/test_console.py diffs the console script's
batch, intersect and lemma-table output against the same files.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import k3linsys.cli as cli
from k3linsys.classify import decompose, normalize
from k3linsys.literals import parse_literal, parse_spec
from k3linsys.verify import (
    Certificate,
    VerificationReport,
    hunt_counterexamples,
    verify_lemma_table,
    verify_pair_inequality,
)
from oracles import classification_record

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path("tests") / "golden"
# A text report's time, which the golden files hold as "elapsed=...s".
ELAPSED = re.compile(r"elapsed=\d+\.\d{3}s")


def _blocks(capsys, *argvs) -> str:
    """The stdout, stderr and exit code of cli.main on each argv, one block
    each, with a text report's elapsed masked."""
    blocks = []
    for argv in argvs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        blocks.append(f"{captured.out}{captured.err}exit {code}\n")
    return ELAPSED.sub("elapsed=...s", "".join(blocks))


def _golden(name: str) -> str:
    return (ROOT / GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_batch_matches_golden(capsys, monkeypatch, fmt):
    monkeypatch.chdir(ROOT)  # stderr names the file as it was given
    code = cli.main(["batch", str(GOLDEN / "batch.txt"), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == _golden(f"batch.{fmt}.out")
    assert captured.err == _golden("batch.err")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("command", ["dim", "classify"])
def test_single_system_commands_match_golden(capsys, command, fmt):
    got = _blocks(capsys, *([command, text, "--format", fmt] for text in _golden_literals()))
    assert got == _golden(f"{command}.{fmt}.out")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_intersect_matches_golden(capsys, fmt):
    pairs = _golden("intersect.txt").splitlines()
    got = _blocks(capsys, *(["intersect", *line.split(), "--format", fmt] for line in pairs))
    assert got == _golden(f"intersect.{fmt}.out")


_HUNT_ARGS = {"defaults": [], "hunt_grid": ["--max-n", "12", "--max-degree", "7", "--mass-bound", "64"]}


@pytest.mark.parametrize("label", _HUNT_ARGS)
def test_hunt_matches_golden(capsys, label):
    argv = _HUNT_ARGS[label]
    golden = json.loads(_golden("hunt.json"))[label]
    code = cli.main(["hunt", *argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    bounds = {key.strip("-").replace("-", "_"): int(value) for key, value in zip(argv[::2], argv[1::2])}
    assert hunt_counterexamples(**bounds).canonical_json() == json.dumps(golden, sort_keys=True)


_PAIRS_ARGS = {"defaults": [], "verify_pairs": ["--mass-bound", "180", "--max-points", "6", "--max-n", "36"]}


@pytest.mark.parametrize("label", _PAIRS_ARGS)
def test_pairs_matches_golden(capsys, label):
    argv = _PAIRS_ARGS[label]
    golden = json.loads(_golden("pairs.json"))[label]
    code = cli.main(["verify", "pairs", *argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    bounds = {key.strip("-").replace("-", "_"): int(value) for key, value in zip(argv[::2], argv[1::2])}
    assert verify_pair_inequality(**bounds).canonical_json() == json.dumps(golden, sort_keys=True)


def test_lemma_table_matches_golden(capsys):
    golden = json.loads(_golden("lemma-table.json"))
    code = cli.main(["verify", "lemma-table", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    assert verify_lemma_table().canonical_json() == json.dumps(golden, sort_keys=True)


# The text and csv reports each golden file holds, one block per command line.
_REPORT_ARGS = {
    "lemma-table": [["verify", "lemma-table"]],
    "pairs": [["verify", "pairs", *argv] for argv in _PAIRS_ARGS.values()],
    "hunt": [["hunt", *argv] for argv in _HUNT_ARGS.values()],
}


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("report", _REPORT_ARGS)
def test_report_matches_golden(capsys, report, fmt):
    got = _blocks(capsys, *([*argv, "--format", fmt] for argv in _REPORT_ARGS[report]))
    assert got == _golden(f"{report}.{fmt}.out")


# A failed report with a violation and an exception, whose messages and
# data CSV must quote, a note and a class.
FAILED = VerificationReport(
    name="lemma-table",
    bounds={"n_range": [2, 4], "mass_bound": 12},
    checked_count=2,
    violations=(Certificate("missing-class", 'no "L4(1;2)", C^2 = 0', {"n": 4, "c2": 0, "mults": [2]}),),
    expected_exceptions_found=(Certificate("special-family", "L4(2;4) = 2*L4(1;2)", {"d": 2}),),
    elapsed=0.0,
    notes=("synthetic, with a comma",),
    details={"classes": [{"literal": "L2(1;1^2)", "c2": 0}]},
)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_failed_report_matches_golden(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "verify_lemma_table", lambda: FAILED)
    got = _blocks(capsys, ["verify", "lemma-table", "--format", fmt])
    assert got == _golden(f"failed.{fmt}.out")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_enumerate_v0_matches_golden(capsys, fmt):
    code = cli.main(["enumerate", "v0", "--self-int=-2..6", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == _golden(f"enumerate.{fmt}.out")


def _golden_literals():
    for line in _golden("batch.txt").splitlines():
        text = line.split("#", 1)[0].strip()
        if text:
            yield text


def test_parse_spec_is_parse_literal_to_spec():
    for text in _golden_literals():
        try:
            expected = parse_literal(text).to_spec()
        except ValueError as exc:
            with pytest.raises(type(exc)) as caught:
                parse_spec(text)
            assert str(caught.value) == str(exc)
            continue
        got = parse_spec(text)
        assert got == expected and vars(got) == vars(expected)


@given(
    st.integers(1, 30).map(lambda g: 2 * g),
    st.integers(0, 40),
    st.lists(st.integers(0, 25), max_size=12),
)
def test_json_template_equals_json_dumps(n, d, mults):
    spec = normalize(n, d, mults)
    dec = decompose(spec)
    assert cli.json_record(dec) == json.dumps(classification_record(dec))


@given(
    st.integers(1, 30).map(lambda g: 2 * g),
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=8),
    st.sampled_from(["", " ", "\t", "\x1f", " "]),
    st.booleans(),
)
def test_parse_spec_matches_normalize(n, d, runs, space, compress):
    parts = [f"{m}{space}^{space}{k}" if compress else ",".join([str(m)] * k) for m, k in runs]
    parts = [part for part in parts if part]
    body = f";{space}{f',{space}'.join(parts)}" if parts else ""
    text = f"{space}L{n}({space}{d}{space}{body}){space}"
    raw = [m for m, k in runs for _ in range(k)]
    got = parse_spec(text)
    expected = normalize(n, d, raw)
    assert vars(got) == vars(expected), text
