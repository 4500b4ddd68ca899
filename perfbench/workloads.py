"""Workload definitions and the seeded batch-input generator.

Each workload is one CLI command.  `batch_mixed` classifies a generated
literal file; `verify_pairs` and `hunt_grid` run the bounded verifiers at
bounds above the CLI defaults.  The verifier inputs are the bounds
themselves, so those two workloads are the same for every seed.

Nothing here imports k3linsys: the generator and the expected values it
records are independent of the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BATCH_LINES = 10_000
MALFORMED_SHARE = 0.01
COMMENT_SHARE = 0.01
WIDE_SHARE = 0.005
# d = 0 is left out of the timed file: the program's t = 0 face breaks the
# record invariants (ROADMAP item 4), and no timed operation may fail.
# run.py checks a separate d = 0 file of T0_LINES lines and reports it.
BATCH_DEGREES = range(1, 13)
T0_LINES = 300

PAIRS_BOUNDS = {"mass_bound": 180, "max_points": 6, "max_n": 36}
HUNT_BOUNDS = {"max_n": 12, "max_degree": 7, "mass_bound": 64}


@dataclass
class BatchInput:
    """Generated batch file text plus what the checker expects of each line.

    `expected` maps a 1-based line number to ("record", n, d, points) or
    ("error",); comment lines are absent because they yield no record.
    """

    text: str
    expected: dict[int, tuple]
    stats: dict = field(default_factory=dict)


def _points(rng: random.Random, d: int, count: int) -> list[tuple[int, int]]:
    """Runs (multiplicity, repeat) covering `count` points, zeros included."""
    runs = []
    left = count
    while left:
        repeat = 1 if rng.random() < 0.7 else rng.randint(1, min(left, 8))
        mult = 0 if rng.random() < 0.15 else rng.randint(1, d + 2)
        runs.append((mult, repeat))
        left -= repeat
    rng.shuffle(runs)
    return runs


def _render(rng: random.Random, n: int, d: int, runs: list[tuple[int, int]], spaced: bool) -> str:
    parts = []
    for mult, repeat in runs:
        if repeat >= 2 and rng.random() < 0.5:
            parts.append(f"{mult}^{repeat}")
        else:
            parts.extend([str(mult)] * repeat)
    if spaced:
        body = f" {d} ; " + " , ".join(parts) if parts else f" {d} "
        return f"L{n}( {body} )"
    return f"L{n}({d};{','.join(parts)})" if parts else f"L{n}({d})"


def _malform(rng: random.Random, n: int, d: int, literal: str) -> str:
    """A variant of a valid literal that the grammar rejects."""
    kind = rng.randrange(6)
    if kind == 0:
        return literal.replace(f"L{n}(", f"L{n + 1}(", 1)  # odd surface degree
    if kind == 1:
        return literal[:-1]  # unclosed
    if kind == 2:
        return literal.replace(f"L{n}(", f"L{n}(-", 1)  # signed degree
    if kind == 3:
        return literal + " x"  # trailing input
    if kind == 4:
        return literal[:-1] + (",1^)" if ";" in literal else ";1^)")  # missing repeat count
    return literal.replace(f"L{n}(", "L0(", 1)  # surface degree below 2


def _surface_degree(rng: random.Random) -> int:
    # n = 2k with weight 1/k: small polarizations dominate, as in practice.
    ks = range(1, 11)
    return 2 * rng.choices(ks, weights=[1 / k for k in ks])[0]


def generate_batch(seed: int, lines: int = BATCH_LINES, degrees=BATCH_DEGREES) -> BatchInput:
    """Deterministic batch file for `seed` with exact shares of each line
    kind and each d drawn uniformly from `degrees`."""
    rng = random.Random(seed)
    slots = list(range(1, lines + 1))
    rng.shuffle(slots)
    n_bad = round(lines * MALFORMED_SHARE)
    n_comment = round(lines * COMMENT_SHARE)
    n_wide = round(lines * WIDE_SHARE)
    malformed = set(slots[:n_bad])
    comments = set(slots[n_bad : n_bad + n_comment])
    wide = set(slots[n_bad + n_comment : n_bad + n_comment + n_wide])

    out = []
    expected: dict[int, tuple] = {}
    seen = set()
    records = repeated = d_zero = 0
    for lineno in range(1, lines + 1):
        if lineno in comments:
            out.append(f"# note {rng.randrange(10**6)}")
            continue
        n = _surface_degree(rng)
        d = rng.choice(degrees)
        count = rng.randint(200, 400) if lineno in wide else rng.randint(0, 8)
        runs = _points(rng, d, count)
        literal = _render(rng, n, d, runs, spaced=rng.random() < 0.1)
        if lineno in malformed:
            out.append(_malform(rng, n, d, literal))
            expected[lineno] = ("error",)
            continue
        if rng.random() < 0.01:
            literal += "  # trailing note"
        out.append(literal)
        points = tuple(m for m, r in runs for _ in range(r))
        expected[lineno] = ("record", n, d, points)
        key = (n, d, tuple(sorted((m for m in points if m), reverse=True)))
        records += 1
        repeated += key in seen
        seen.add(key)
        d_zero += d == 0
    items = len(expected)
    stats = {
        "lines": lines,
        "items": items,
        "d0_share": d_zero / records,
        "malformed_share": n_bad / items,
        "wide_share": n_wide / items,
        "comment_share": n_comment / lines,
        "repeated_spec_share": repeated / records,
    }
    return BatchInput(text="\n".join(out) + "\n", expected=expected, stats=stats)


def pairs_argv() -> list[str]:
    b = PAIRS_BOUNDS
    return [
        "verify", "pairs", "--format", "json",
        "--mass-bound", str(b["mass_bound"]),
        "--max-points", str(b["max_points"]),
        "--max-n", str(b["max_n"]),
    ]  # fmt: skip


def hunt_argv() -> list[str]:
    b = HUNT_BOUNDS
    return [
        "hunt", "--format", "json",
        "--max-n", str(b["max_n"]),
        "--max-degree", str(b["max_degree"]),
        "--mass-bound", str(b["mass_bound"]),
    ]  # fmt: skip
