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
The CI workflow diffs the installed console script's output against the
same files.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import k3linsys.cli as cli
from k3linsys.classify import decompose, normalize
from k3linsys.literals import parse_literal, parse_spec
from k3linsys.verify import hunt_counterexamples, verify_lemma_table, verify_pair_inequality

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path("tests") / "golden"


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_batch_matches_golden(capsys, monkeypatch, fmt):
    monkeypatch.chdir(ROOT)  # stderr names the file as it was given
    code = cli.main(["batch", str(GOLDEN / "batch.txt"), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == (ROOT / GOLDEN / f"batch.{fmt}.out").read_text(encoding="utf-8")
    assert captured.err == (ROOT / GOLDEN / "batch.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("command", ["dim", "classify"])
def test_single_system_commands_match_golden(capsys, command, fmt):
    blocks = []
    for text in _golden_literals():
        code = cli.main([command, text, "--format", fmt])
        captured = capsys.readouterr()
        blocks.append(f"{captured.out}{captured.err}exit {code}\n")
    assert "".join(blocks) == (ROOT / GOLDEN / f"{command}.{fmt}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_intersect_matches_golden(capsys, fmt):
    blocks = []
    for line in (ROOT / GOLDEN / "intersect.txt").read_text(encoding="utf-8").splitlines():
        code = cli.main(["intersect", *line.split(), "--format", fmt])
        captured = capsys.readouterr()
        blocks.append(f"{captured.out}{captured.err}exit {code}\n")
    assert "".join(blocks) == (ROOT / GOLDEN / f"intersect.{fmt}.out").read_text(encoding="utf-8")


_HUNT_ARGS = {"defaults": [], "hunt_grid": ["--max-n", "12", "--max-degree", "7", "--mass-bound", "64"]}


@pytest.mark.parametrize("label", _HUNT_ARGS)
def test_hunt_matches_golden(capsys, label):
    argv = _HUNT_ARGS[label]
    golden = json.loads((ROOT / GOLDEN / "hunt.json").read_text(encoding="utf-8"))[label]
    code = cli.main(["hunt", *argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    bounds = {key.strip("-").replace("-", "_"): int(value) for key, value in zip(argv[::2], argv[1::2])}
    assert hunt_counterexamples(**bounds).canonical_json() == json.dumps(golden, sort_keys=True)


def test_hunt_csv_matches_golden(capsys):
    blocks = []
    for argv in _HUNT_ARGS.values():
        code = cli.main(["hunt", *argv, "--format", "csv"])
        captured = capsys.readouterr()
        blocks.append(f"{captured.out}{captured.err}exit {code}\n")
    assert "".join(blocks) == (ROOT / GOLDEN / "hunt.csv.out").read_text(encoding="utf-8")


_PAIRS_ARGS = {"defaults": [], "verify_pairs": ["--mass-bound", "180", "--max-points", "6", "--max-n", "36"]}


@pytest.mark.parametrize("label", _PAIRS_ARGS)
def test_pairs_matches_golden(capsys, label):
    argv = _PAIRS_ARGS[label]
    golden = json.loads((ROOT / GOLDEN / "pairs.json").read_text(encoding="utf-8"))[label]
    code = cli.main(["verify", "pairs", *argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    bounds = {key.strip("-").replace("-", "_"): int(value) for key, value in zip(argv[::2], argv[1::2])}
    assert verify_pair_inequality(**bounds).canonical_json() == json.dumps(golden, sort_keys=True)


def test_lemma_table_matches_golden(capsys):
    golden = json.loads((ROOT / GOLDEN / "lemma-table.json").read_text(encoding="utf-8"))
    code = cli.main(["verify", "lemma-table", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report.pop("elapsed") >= 0
    assert report == golden
    assert verify_lemma_table().canonical_json() == json.dumps(golden, sort_keys=True)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_enumerate_v0_matches_golden(capsys, fmt):
    code = cli.main(["enumerate", "v0", "--self-int=-2..6", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (ROOT / GOLDEN / f"enumerate.{fmt}.out").read_text(encoding="utf-8")


def _golden_literals():
    for line in (ROOT / GOLDEN / "batch.txt").read_text(encoding="utf-8").splitlines():
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
    assert cli.json_record(dec) == json.dumps(cli.classification_record(dec))


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
