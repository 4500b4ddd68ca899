"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -rA` to see the per-criterion lines.
Each criterion re-derives its expectations from scratch (naive oracles, hand
values) rather than trusting package internals, and enforces the stated wall
clock bounds on this suite's reference loads.
"""

import csv
import io
import itertools
import json
import random
import time

from k3linsys.classify import LinearSystemSpec, MemberKind, decompose, virtual_dim
from k3linsys.lattice import (
    DivisorClass,
    SurfaceParams,
    arithmetic_genus,
    euler_characteristic,
    exceptional,
    intersect,
    virtual_dimension,
)
from k3linsys.literals import parse_literal
from k3linsys.v0 import derive_bounds_v0, enumerate_v0_classes, verify_lemma_table
from k3linsys.verify import verify_pair_inequality
import k3linsys.cli as cli
import k3linsys.records as records
from oracles import reconstructs


def _report(idx: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {idx:2d} {status} {label}"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def _spec(n: int, d: int, mults) -> LinearSystemSpec:
    return LinearSystemSpec(SurfaceParams(n), d, tuple(mults))


def test_criterion_01_lemma_table():
    report = verify_lemma_table()
    found = {(c["c2"], c["n"], c["t"], tuple(c["mults"])) for c in report.details["classes"]}
    expected = {
        (0, 2, 1, (1, 1)),
        (0, 4, 1, (2,)),
        (1, 4, 1, (1, 1, 1)),
        (1, 6, 1, (2, 1)),
        (1, 10, 1, (3,)),
    }
    negative = [c for c in found if c[0] <= -1]
    ok = report.passed and found == expected and not negative and report.elapsed < 1.0
    _report(1, "lemma table: exact v=0 class set on C^2 in [-2,1]", ok,
            f"{len(found)} classes, {report.elapsed:.3f}s")


def test_criterion_02_pair_inequality():
    report = verify_pair_inequality(mass_bound=200, max_points=6, max_n=40)
    exc = report.expected_exceptions_found
    aligned_pairs = {
        (c.data["n"], c.data["t1"], tuple(c.data["mults1"])) for c in exc
    }
    self_pairs = all(
        c.data["t1"] == c.data["t2"] and c.data["mults1"] == c.data["mults2"] for c in exc
    )
    ok = (
        report.passed
        and len(report.violations) == 0
        and len(exc) == 2
        and self_pairs
        and all(c.data["v_sum"] == -1 for c in exc)
        and aligned_pairs == {(2, 1, (1, 1)), (4, 1, (2,))}
        and report.elapsed < 60.0
    )
    _report(2, "pair inequality: zero violations, two aligned self-pair exceptions", ok,
            f"checked={report.checked_count}, {report.elapsed:.2f}s")


def test_criterion_03_special_family_values():
    start = time.perf_counter()
    ok = True
    for d in range(2, 51):
        for spec in (_spec(4, d, [2 * d]), _spec(2, d, [d, d])):
            dec = decompose(spec)
            ok = ok and (
                virtual_dim(spec) == 1 - d
                and dec.dimension == 0
                and dec.is_special
                and dec.h1 == d - 1
            )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(3, "special families d in 2..50: v = 1-d, dim 0, h1 = d-1", ok,
            f"{elapsed:.3f}s")


def test_criterion_04_addition_identity():
    # chi(A+B) = chi(A) + chi(B) + A.B - 2 and v(A+B) = v(A) + v(B) + A.B - 1
    # on seeded pairs of classes with t >= 1 (so h^2 = 0) and coefficients
    # -4..9, negative ones included.
    start = time.perf_counter()
    rng = random.Random(1729)

    def random_class(surface):
        r = rng.randint(0, 6)
        return DivisorClass(surface, rng.randint(1, 8), tuple(rng.randint(-4, 9) for _ in range(r)))

    failures = 0
    for _ in range(10_000):
        surface = SurfaceParams(2 * rng.randint(1, 10))
        a, b = random_class(surface), random_class(surface)
        ab = intersect(a, b)
        failures += euler_characteristic(a + b) != euler_characteristic(a) + euler_characteristic(b) + ab - 2
        failures += virtual_dimension(a + b) != virtual_dimension(a) + virtual_dimension(b) + ab - 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _report(4, "v and chi addition identities on 10^4 seeded pairs", ok, f"{elapsed:.2f}s")


def test_criterion_05_fixed_plus_pencil_family():
    ok = True
    for m in range(1, 51):
        spec = _spec(2, m + 1, [m + 1, m])
        dec = decompose(spec)
        structural = (
            dec.dimension == 1
            and dec.member_kind is MemberKind.FIXED_PLUS_PENCIL
            and not dec.is_special
            and dec.fixed_part == ((m, _spec(2, 1, [1, 1])),)
            and dec.free_part == _spec(2, 1, [1])
        )
        total = dec.fixed_part[0][1].divisor_class() * m + dec.free_part.divisor_class()
        ok = ok and structural and total == spec.divisor_class() and reconstructs(dec)
    _report(5, "L2(m+1;m+1,m) for m in 1..50: dim 1, fixed m copies, free pencil", ok)


def test_criterion_06_double_curve_families():
    cases = [
        (_spec(4, 2, [2, 2, 2]), _spec(4, 1, [1, 1, 1])),
        (_spec(6, 2, [4, 2]), _spec(6, 1, [2, 1])),
        (_spec(10, 2, [6]), _spec(10, 1, [3])),
    ]
    ok = True
    for spec, curve in cases:
        dec = decompose(spec)
        ok = ok and (
            virtual_dim(spec) == 0
            and dec.dimension == 0
            and not dec.is_special
            and dec.fixed_part == ((2, curve),)
            and curve.divisor_class() * 2 == spec.divisor_class()
        )
    _report(6, "2C families: v = 0, rigid, decomposition 2 x C", ok)


def test_criterion_07_composite_with_pencil():
    dec = decompose(_spec(2, 2, [2]))
    ok = (
        dec.dimension == 2
        and dec.member_kind is MemberKind.COMPOSITE_WITH_PENCIL
        and dec.fixed_part == ()
        and not dec.is_special
    )
    _report(7, "L2(2;2): dim 2, composite with the genus-2 pencil, no fixed part", ok)


def test_criterion_08_genus_checks():
    def pa(n, d, mults):
        return arithmetic_genus(DivisorClass(SurfaceParams(n), d, tuple(mults)))

    genus_two = [pa(2, 1, [1, 1]), pa(2, 1, [1]), pa(4, 1, [2])]
    surface = SurfaceParams(2)
    exceptional_genera = [arithmetic_genus(exceptional(surface, i, 3)) for i in (1, 2, 3)]
    genus_three = [pa(4, 1, [1, 1, 1]), pa(6, 1, [2, 1]), pa(10, 1, [3])]
    ok = (
        genus_two == [2, 2, 2]
        and exceptional_genera == [0, 0, 0]
        and genus_three == [3, 3, 3]
    )
    _report(8, "arithmetic genus: 2 for the pencil classes, 0 for E_i, 3 for C^2=1", ok)


def _naive_grid_scan(window):
    """Intentionally naive oracle: full grid over the derived search box."""
    bounds = derive_bounds_v0(window)
    lo, hi = bounds["self_int_range"]
    mass_bound = bounds["mass_bound"]
    found = set()
    n_lo, n_hi = bounds["n_range"]
    for n in range(n_lo, n_hi + 1, 2):
        surface = SurfaceParams(n)
        for t in range(bounds["t_range"][0], bounds["t_range"][1] + 1):
            for r in range(0, bounds["max_points"] + 1):
                for mults in itertools.combinations_with_replacement(range(mass_bound, 0, -1), r):
                    if sum(m * (m + 1) for m in mults) > mass_bound:
                        continue
                    cls = DivisorClass(surface, t, mults)
                    c2 = intersect(cls, cls)
                    if virtual_dimension(cls) == 0 and lo <= c2 <= hi:
                        found.add((n, t, mults))
    return found


def test_criterion_09_oracle_equivalence():
    ok = True
    for window in ((-2, 1), (-2, 2)):
        fast = {(c.n, c.d, c.mults) for c in enumerate_v0_classes(window)}
        ok = ok and fast == _naive_grid_scan(window)
    _report(9, "enumerator matches naive grid oracle on [-2,1] and [-2,2]", ok)


def _expand_mults_cell(cell):
    if not cell:
        return []
    out = []
    for token in cell.split(","):
        if "^" in token:
            value, count = token.split("^")
            out.extend([int(value)] * int(count))
        else:
            out.append(int(token))
    return out


def _cell_to_value(key, cell):
    if key == "mults":
        return _expand_mults_cell(cell)
    if key == "fixed_part":
        return cell.split("+") if cell else []
    if key == "conjectural":
        return cell == "true"
    if cell == "":
        return None
    if key in ("n", "d", "v", "e", "dim", "h1", "h1_lower_bound"):
        return int(cell)
    return cell


def test_criterion_10_parser_and_cli_contract(tmp_path, capsys):
    rng = random.Random(20260814)

    round_trip_ok = True
    for _ in range(1000):
        n = 2 * rng.randint(1, 12)
        d = rng.randint(0, 9)
        mults = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
        source = f"L{n}({d};{','.join(str(m) for m in mults)})" if mults else f"L{n}({d})"
        lit = parse_literal(source)
        printed = lit.to_spec().literal()
        again = parse_literal(printed)
        round_trip_ok = round_trip_ok and (
            (lit.n, lit.d, lit.mults) == (n, d, tuple(mults)) and again.to_spec().literal() == printed
        )

    malformed = [("L3(1;1)", 1), ("L2(1;1", 6), ("L2(;1)", 3), ("x2(1;1)", 0), ("L2(1;1)x", 7)]
    diagnostics_ok = True
    for source, position in malformed:
        code = cli.main(["dim", source])
        err = capsys.readouterr().err
        diagnostics_ok = diagnostics_ok and code == 2 and f"(byte {position})" in err

    systems = []
    for _ in range(50):
        n = 2 * rng.randint(1, 8)
        d = rng.randint(0, 6)
        mults = sorted((rng.randint(0, 5) for _ in range(rng.randint(0, 5))), reverse=True)
        body = f"{d};{','.join(str(m) for m in mults)}" if mults else str(d)
        systems.append(f"L{n}({body})")
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(systems) + "\n")

    assert cli.main(["batch", str(batch), "--format", "json"]) == 0
    json_rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert cli.main(["batch", str(batch), "--format", "csv"]) == 0
    csv_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))

    equivalence_ok = len(json_rows) == 50 and csv_rows[0] == list(records.RECORD_FIELDS)
    for rec, row in zip(json_rows, csv_rows[1:]):
        for key, cell in zip(records.RECORD_FIELDS, row):
            equivalence_ok = equivalence_ok and _cell_to_value(key, cell) == rec[key]

    ok = round_trip_ok and diagnostics_ok and equivalence_ok
    _report(10, "literal round-trip, positioned diagnostics, JSON/CSV equivalence", ok)
