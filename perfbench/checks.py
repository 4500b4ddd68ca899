"""Independent checks of CLI output.

The checks recompute what they can from first principles (closed-form v,
an own enumeration of the search grids) and never import k3linsys.  Each
returns a Verdict: how many operations were checked, how many failed, and
a count per failure reason.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from math import isqrt

RECORD_FIELDS = [
    "n", "d", "mults", "v", "e", "dim", "special", "h1",
    "h1_lower_bound", "member_kind", "fixed_part", "free_part", "conjectural",
]  # fmt: skip

# Aligned self-pairs (n, t, mults) that the pair inequality permits to fail.
PERMITTED_PAIRS = {(2, 1, (1, 1)), (4, 1, (2,))}


@dataclass
class Verdict:
    attempted: int
    failed: int
    reasons: Counter = field(default_factory=Counter)
    complete: bool = True  # every operation's output was present and readable

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)
        self.complete &= other.complete


def _record_faults(rec: dict, n: int, d: int, points: tuple[int, ...]) -> list[str]:
    if list(rec) != RECORD_FIELDS:
        return ["field order"]
    faults = []
    mults = sorted((m for m in points if m), reverse=True)
    if (rec["n"], rec["d"], rec["mults"]) != (n, d, mults):
        faults.append("n/d/canonical mults")
    v, e, dim, h1 = rec["v"], rec["e"], rec["dim"], rec["h1"]
    if d >= 1 and v != n * d * d // 2 + 1 - sum(m * (m + 1) // 2 for m in mults):
        faults.append("v != closed form")
    if e != max(v, -1):
        faults.append("e != max(v,-1)")
    if dim < e:
        faults.append("dim < e")
    if h1 is not None and h1 != dim - v:
        faults.append("h1 != dim - v")
    if h1 is not None and h1 < rec["h1_lower_bound"]:
        faults.append("h1 < h1_lower_bound")
    return faults


def check_batch(stdout: str, returncode: int, expected: dict[int, tuple]) -> Verdict:
    """One operation per non-comment input line, in input order.

    A record line passes when its record satisfies the invariants; a
    malformed line passes when it yields an error record naming that line.
    """
    verdict = Verdict(attempted=len(expected), failed=0)
    lines = stdout.splitlines()
    if len(lines) != len(expected):
        verdict.complete = False
    want_code = 2 if any(exp[0] == "error" for exp in expected.values()) else 0
    if returncode != want_code:
        verdict.complete = False
    for (lineno, exp), text in zip(expected.items(), lines):
        try:
            rec = json.loads(text)
        except json.JSONDecodeError:
            verdict.fail("unreadable record")
            continue
        if exp[0] == "error":
            err = rec.get("error")
            if not isinstance(err, dict) or err.get("line") != lineno:
                verdict.fail("missing error record")
            continue
        if "error" in rec:
            verdict.fail("unexpected error record")
            continue
        faults = _record_faults(rec, *exp[1:])
        if faults:
            verdict.fail(", ".join(faults))
    for _ in range(len(lines), len(expected)):
        verdict.fail("missing record")
    return verdict


def mult_vector_count(max_points: int, mass_bound: int) -> int:
    """Non-increasing vectors of multiplicities >= 1 with r <= max_points
    and sum m(m+1) <= mass_bound, the empty vector included."""
    # ways[r][mass] counts multisets of r values from those added so far;
    # running r upward lets the value being added repeat.
    ways = [[0] * (mass_bound + 1) for _ in range(max_points + 1)]
    ways[0][0] = 1
    m = 1
    while m * (m + 1) <= mass_bound:
        cost = m * (m + 1)
        for r in range(1, max_points + 1):
            for mass in range(cost, mass_bound + 1):
                ways[r][mass] += ways[r - 1][mass - cost]
        m += 1
    return sum(map(sum, ways))


def v0_classes(mass_bound: int, max_points: int, max_n: int) -> list[tuple[int, int, tuple]]:
    """Every (n, t >= 1, mults) with v = 0 inside the verifier's bounds.

    v = 0 at t >= 1 reads n*t^2 = sum m(m+1) - 2, so each vector's
    solutions are the square divisors t^2 of that value with an even
    quotient n in [2, max_n].
    """
    found = []

    def walk(prefix, mass, cap):
        if mass >= 4:
            target = mass - 2
            for t in range(1, isqrt(target // 2) + 1):
                n, rem = divmod(target, t * t)
                if rem == 0 and n % 2 == 0 and n <= max_n:
                    found.append((n, t, prefix))
        if len(prefix) < max_points:
            for m in range(1, cap + 1):
                if mass + m * (m + 1) <= mass_bound:
                    walk(prefix + (m,), mass + m * (m + 1), m)

    walk((), 0, isqrt(mass_bound))
    return found


def _v_closed(n: int, t: int, l: list[int]) -> int:
    return n * t * t // 2 + 1 - sum(x * (x + 1) // 2 for x in l)


def check_pairs(stdout: str, returncode: int, bounds: dict) -> Verdict:
    """One operation per run: the pair report passes, with exactly the two
    permitted aligned self-pairs as exceptions, and counts that match an
    independent enumeration of the v = 0 classes."""
    verdict = Verdict(attempted=1, failed=0)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        verdict.complete = False
        verdict.fail("unreadable report")
        return verdict
    faults = []
    if returncode != 0 or not report.get("passed") or report.get("violations"):
        faults.append("not passed")
    seen = set()
    for cert in report.get("expected_exceptions_found", []):
        data = cert["data"]
        key = (data["n"], data["t1"], tuple(data["mults1"]))
        aligned = data["aligned_l1"] == data["aligned_l2"] == data["mults1"] == data["mults2"]
        l_sum = [a + b for a, b in zip(data["aligned_l1"], data["aligned_l2"])]
        v_sum = _v_closed(data["n"], data["t1"] + data["t2"], l_sum)
        if key not in PERMITTED_PAIRS or not aligned or data["v_sum"] != -1 or v_sum != -1:
            faults.append("unexpected exception")
        seen.add(key)
    if seen != PERMITTED_PAIRS or len(report.get("expected_exceptions_found", [])) != 2:
        faults.append("permitted exceptions")
    classes = v0_classes(bounds["mass_bound"], bounds["max_points"], bounds["max_n"])
    per_n = Counter(n for n, _, _ in classes)
    pairs = sum(k * (k + 1) // 2 for k in per_n.values())
    if report.get("details", {}).get("v0_classes") != len(classes):
        faults.append("v0 class count")
    if report.get("checked_count") != pairs:
        faults.append("pair count")
    if faults:
        verdict.fail(", ".join(faults))
    return verdict


def check_hunt(stdout: str, returncode: int, bounds: dict) -> Verdict:
    """One operation per run: the hunt passes, reports no exceptions, and
    scanned exactly the (n, d, multiplicity vector) grid."""
    verdict = Verdict(attempted=1, failed=0)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        verdict.complete = False
        verdict.fail("unreadable report")
        return verdict
    faults = []
    if returncode != 0 or not report.get("passed") or report.get("violations"):
        faults.append("not passed")
    if report.get("expected_exceptions_found"):
        faults.append("unexpected exception")
    max_points = bounds.get("max_points", bounds["mass_bound"] // 2)
    grid = (bounds["max_n"] // 2) * (bounds["max_degree"] + 1)
    grid *= mult_vector_count(max_points, bounds["mass_bound"])
    if report.get("details", {}).get("specs_scanned") != grid:
        faults.append("specs scanned")
    if faults:
        verdict.fail(", ".join(faults))
    return verdict
