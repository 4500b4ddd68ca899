"""Tests of the benchmark itself: generator, checks and span arithmetic.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
from itertools import combinations_with_replacement

import calibrate
import checks
import run
import spans
import workloads


def test_generator_is_deterministic_per_seed():
    a = workloads.generate_batch(7, lines=2000)
    b = workloads.generate_batch(7, lines=2000)
    c = workloads.generate_batch(8, lines=2000)
    assert a.text == b.text and a.expected == b.expected and a.stats == b.stats
    assert a.text != c.text
    errors = sum(exp[0] == "error" for exp in a.expected.values())
    assert errors == 20 and a.stats["items"] == 1980  # 1% malformed, 1% comments
    assert a.stats["d0_share"] == 0 and 0 < a.stats["repeated_spec_share"] < 1
    t0 = workloads.generate_batch(7, lines=300, degrees=(0,))
    assert t0.stats["d0_share"] == 1


def test_calibration_checksum():
    assert calibrate.work() == calibrate.CHECKSUM


def _record(n, d, mults, v, dim, h1, kind="IRREDUCIBLE"):
    return {
        "n": n, "d": d, "mults": mults, "v": v, "e": max(v, -1), "dim": dim,
        "special": None, "h1": h1, "h1_lower_bound": 0, "member_kind": kind,
        "fixed_part": [], "free_part": None, "conjectural": True,
    }  # fmt: skip


# L4(3;2,1,0): v = 4*9/2 + 1 - (3 + 1) = 15; L2(1;2): v = 2/2 + 1 - 3 = -1.
EXPECTED = {1: ("record", 4, 3, (2, 0, 1)), 3: ("error",), 4: ("record", 2, 1, (2,))}
GOOD = [
    _record(4, 3, [2, 1], 15, 15, 0),
    {"error": {"line": 3, "position": 2, "message": "n must be even (n = 2g-2)", "source": "L3(1)"}},
    _record(2, 1, [2], -1, -1, 0, kind="EMPTY"),
]


def _batch_output(records):
    return "".join(json.dumps(rec) + "\n" for rec in records)


def test_check_batch_accepts_correct_output():
    verdict = checks.check_batch(_batch_output(GOOD), 2, EXPECTED)
    assert (verdict.attempted, verdict.failed, verdict.complete) == (3, 0, True)


def test_check_batch_flags_v_off_by_one():
    bad = [dict(GOOD[0], v=16), *GOOD[1:]]
    verdict = checks.check_batch(_batch_output(bad), 2, EXPECTED)
    assert verdict.failed == 1
    assert list(verdict.reasons) == ["v != closed form, e != max(v,-1), h1 != dim - v"]


def test_check_batch_flags_unexpected_error_line():
    error = {"error": {"line": 4, "position": 0, "message": "x", "source": "L2(1;2)"}}
    verdict = checks.check_batch(_batch_output([*GOOD[:2], error]), 2, EXPECTED)
    assert verdict.failed == 1 and verdict.reasons["unexpected error record"] == 1


def test_check_batch_flags_missing_error_and_lost_records():
    verdict = checks.check_batch(_batch_output([GOOD[0], GOOD[0]]), 2, EXPECTED)
    assert not verdict.complete
    assert verdict.reasons["missing error record"] == 1 and verdict.reasons["missing record"] == 1


def test_mult_vector_count_matches_brute_force():
    for max_points, mass_bound in ((0, 10), (3, 12), (4, 30), (6, 40)):
        brute = 0
        for r in range(max_points + 1):
            for vec in combinations_with_replacement(range(1, 7), r):
                brute += sum(m * (m + 1) for m in vec) <= mass_bound
        assert checks.mult_vector_count(max_points, mass_bound) == brute


def test_v0_classes_contain_the_lemma_table():
    table = {(2, 1, (1, 1)), (4, 1, (2,)), (4, 1, (1, 1, 1)), (6, 1, (2, 1)), (10, 1, (3,))}
    found = set(checks.v0_classes(mass_bound=12, max_points=3, max_n=10))
    assert table <= found
    for n, t, mults in found:
        assert n * t * t == sum(m * (m + 1) for m in mults) - 2


def test_checks_accept_the_verifier_reports_at_small_bounds():
    main = run._load_package()["cli"].main
    pairs = {"mass_bound": 60, "max_points": 4, "max_n": 20}
    argv = ["verify", "pairs", "--format", "json", "--mass-bound", "60", "--max-points", "4", "--max-n", "20"]
    _, code, out = run._call_main(main, argv)
    assert checks.check_pairs(out, code, pairs).failed == 0
    hunt = {"max_n": 6, "max_degree": 3, "mass_bound": 24}
    argv = ["hunt", "--format", "json", "--max-n", "6", "--max-degree", "3", "--mass-bound", "24"]
    _, code, out = run._call_main(main, argv)
    assert checks.check_hunt(out, code, hunt).failed == 0
    assert checks.check_hunt(out, code, dict(hunt, max_degree=4)).reasons == {"specs scanned": 1}


def _recorder(rows):
    """Recorder filled by hand with (name, start, end, parent) rows."""
    rec = spans.SpanRecorder()
    for name, start, end, parent in rows:
        rec.names.append(rec.name_id(name))
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


def test_self_time_arithmetic_on_hand_built_tree():
    rec = _recorder(
        [
            ("cli.main", 0.0, 10.0, -1),
            ("classify.decompose", 1.0, 6.0, 0),
            ("lattice.virtual_dimension", 2.0, 3.0, 1),
            ("lattice.DivisorClass.__init__", 3.5, 4.0, 1),
            ("literals.parse_literal", 7.0, 9.0, 0),
        ]
    )
    agg = spans.aggregate(rec)
    assert agg["layer_self"] == {
        "literals": 2.0, "classify": 3.5, "lattice": 1.5, "verify": 0.0, "cli": 3.0,
    }  # fmt: skip
    assert sum(agg["layer_self"].values()) == agg["root_time"] == 10.0
    assert agg["inclusive"]["classify.decompose"] == 5.0
    assert agg["calls"]["lattice.virtual_dimension"] == 1


def test_spans_round_trip_through_file(tmp_path):
    rec = _recorder([("cli.main", 0.0, 2.0, -1), ("classify.normalize", 0.5, 1.0, 0)])
    spans.write_spans(rec, tmp_path / "spans.bin")
    header, cols = spans.read_spans(tmp_path / "spans.bin")
    assert header["names"] == ["cli.main", "classify.normalize"] and header["run"] == 0
    assert list(cols["parent"]) == [-1, 0]
    assert list(cols["end"]) == [2.0, 1.0]


def test_instrumented_batch_counts_and_restores(tmp_path):
    modules = run._load_package()
    cli, lattice = modules["cli"], modules["lattice"]
    original = (cli.parse_literal, lattice.DivisorClass.__init__)
    path = tmp_path / "in.txt"
    path.write_text("L4(3;2,1)\n# note\nL3(1)\nL2(0;1)\n")
    rec = spans.SpanRecorder()
    with spans.instrument(rec, modules):
        root = rec.wrap(cli.main, "cli.main")
        _, code, out = run._call_main(root, ["batch", str(path), "--format", "json"])
    assert (cli.parse_literal, lattice.DivisorClass.__init__) == original
    assert code == 2 and len(out.splitlines()) == 3
    agg = spans.aggregate(rec)
    assert agg["calls"]["literals.parse_literal"] == 3
    assert agg["calls"]["classify.decompose"] == 2
    assert agg["calls"]["lattice.virtual_dimension"] == 6  # three per record
    assert agg["calls"]["cli.main"] == 1
    assert abs(sum(agg["layer_self"].values()) - agg["root_time"]) < 1e-9
