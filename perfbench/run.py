"""k3linsys benchmark: one workload per call, fresh CLI process per operation.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_mixed --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's CLI command runs again and again as a fresh
process (closed loop, one client) for --seconds, each next to a run of
calibrate.py, and the end-to-end metrics summarise those runs (see
`timed_run`).  With --trace 1 the same command
runs in this process through `k3linsys.cli.main`, alternating untraced and
traced calls, and the per-layer metrics come from the traced calls.  Every
output is checked by `checks`; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
MIN_RUNS = 5
MIN_TRACED_RUNS = 2
REF_CAL_S = 0.25  # calibrate.py's wall time on the reference host


class Workload:
    """A CLI command, its output check, and `items(stdout)`, the count of
    items one run processed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.stats: dict = {}
        if name == "batch_mixed":
            batch = workloads.generate_batch(seed)
            path = WORK / f"batch-{seed}.txt"
            path.write_text(batch.text, encoding="utf-8")
            self.argv = ["batch", str(path.relative_to(ROOT)), "--format", "json"]
            self.stats = batch.stats
            self._check = lambda out, code: checks.check_batch(out, code, batch.expected)
            self.items = lambda out: batch.stats["items"]
            t0 = workloads.generate_batch(seed, lines=workloads.T0_LINES, degrees=(0,))
            path = WORK / f"batch-t0-{seed}.txt"
            path.write_text(t0.text, encoding="utf-8")
            self.t0_argv = ["batch", str(path.relative_to(ROOT)), "--format", "json"]
            self.t0_check = lambda out, code: checks.check_batch(out, code, t0.expected)
        elif name == "verify_pairs":
            self.argv = workloads.pairs_argv()
            self._check = lambda out, code: checks.check_pairs(out, code, workloads.PAIRS_BOUNDS)
            self.items = lambda out: json.loads(out)["checked_count"]
        elif name == "hunt_grid":
            self.argv = workloads.hunt_argv()
            self._check = lambda out, code: checks.check_hunt(out, code, workloads.HUNT_BOUNDS)
            self.items = lambda out: json.loads(out)["details"]["specs_scanned"]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self._verdicts: dict = {}

    def check(self, stdout: str, returncode: int) -> checks.Verdict:
        """Verdict for one output; identical outputs are checked once."""
        key = (hashlib.sha256(stdout.encode()).digest(), returncode)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(stdout, returncode)
        return self._verdicts[key]


class Launcher:
    """Client of launcher.py, which spawns each CLI run from a small process.

    Wall time runs from spawn to exit, with stdout drained through a pipe.
    Peak RSS is the child's ru_maxrss from wait4 (KiB on Linux).
    """

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )  # fmt: skip
        self.out_path = WORK / "cli-stdout.txt"

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """One CLI process: (wall seconds, peak RSS MB, exit code, stdout)."""
        return self.spawn([sys.executable, "-m", "k3linsys", *argv])

    def calibrate(self) -> tuple[float, bool]:
        """One calibrate.py process: (wall seconds, whether its checksum is right)."""
        wall, _, code, out = self.spawn([sys.executable, str(BENCH_DIR / "calibrate.py")])
        return wall, code == 0 and out.strip() == calibrate.CHECKSUM

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str]:
        request = {"argv": argv, "out": str(self.out_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stdout = self.out_path.read_text(encoding="utf-8")
        return reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"], stdout

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def timed_run(workload: Workload, seconds: float, launcher: Launcher) -> tuple[dict, checks.Verdict, dict]:
    """Alternate calibrate.py, a set-up probe (`--help`) and one workload
    run until `seconds` have passed and at least MIN_RUNS of each were
    made, then run calibrate.py once more.

    The host's speed drifts by up to a factor of 1.7 over seconds to
    minutes, which moves raw times with it.  So each probe and workload
    time is divided by the mean of the two calibrate.py times around it and
    multiplied by REF_CAL_S: the time it would take on a host where
    calibrate.py takes REF_CAL_S.  wall_s and setup_s are the medians of
    these scaled times, throughput_per_s is items / wall_s, and
    peak_rss_mb is the median peak RSS.
    """
    launcher.run(["--help"])  # warm the file cache and bytecode before timing
    launcher.calibrate()
    total = checks.Verdict(attempted=0, failed=0)

    def calibrate_once():
        wall, ok = launcher.calibrate()
        total.complete &= ok
        return wall

    cal, setup, walls, rss, items = [calibrate_once()], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        wall, _, code, _ = launcher.run(["--help"])
        setup.append(wall)
        total.complete &= code == 0
        wall, peak, code, out = launcher.run(workload.argv)
        verdict = workload.check(out, code)
        total.add(verdict)
        walls.append(wall)
        rss.append(peak)
        items.append(workload.items(out) if verdict.complete else 0)
        cal.append(calibrate_once())
    scale = [2 * REF_CAL_S / (a + b) for a, b in zip(cal, cal[1:])]
    scaled = [w * k for w, k in zip(walls, scale)]
    wall_s = statistics.median(scaled)
    metrics = {
        "wall_s": (wall_s, "s"),
        "throughput_per_s": (statistics.median(items) / wall_s, "1/s"),
        "setup_s": (statistics.median(h * k for h, k in zip(setup, scale)), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    info = {
        "runs": len(walls),
        "raw_wall_s_quartiles": statistics.quantiles(walls, n=4),
        "raw_setup_s_median": statistics.median(setup),
        "calibrate_s_quartiles": statistics.quantiles(cal, n=4),
        "scaled_wall_s_quartiles": statistics.quantiles(scaled, n=4),
    }
    return metrics, total, info


def t0_face(workload: Workload, launcher: Launcher) -> checks.Verdict:
    """Check the d = 0 file once, untimed: the known t = 0 defect."""
    _, _, code, out = launcher.run(workload.t0_argv)
    return workload.t0_check(out, code)


def _load_package() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {"": importlib.import_module("k3linsys")}
    for layer in spans.LAYERS:
        modules[layer] = importlib.import_module(f"k3linsys.{layer}")
    return modules


def _call_main(main, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def _report_counters(workload: Workload, stdout: str) -> dict:
    """Verifier counters copied from the report's own details."""
    if workload.name == "batch_mixed":
        return dict.fromkeys(("pairs", "alignments", "specs", "v0"), 0)
    report = json.loads(stdout)
    details = report["details"]
    if workload.name == "verify_pairs":
        pairs, alignments = report["checked_count"], details.get("alignments_checked", 0)
    else:
        pairs, alignments = details.get("v0_pairs_examined", 0), details.get("pair_alignments_checked", 0)
    return {
        "pairs": pairs,
        "alignments": alignments,
        "specs": details.get("specs_scanned", 0),
        "v0": details.get("v0_classes", 0),
    }


def traced_run(workload: Workload, seconds: float) -> tuple[dict, checks.Verdict, dict]:
    """Alternate untraced and traced in-process calls of the CLI's main."""
    modules = _load_package()
    main = modules["cli"].main
    plain, traced, per_run = [], [], []
    total = checks.Verdict(attempted=0, failed=0)
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        wall, code, stdout = _call_main(main, workload.argv)
        plain.append(wall)
        recorder = spans.SpanRecorder(run_id=len(traced))  # memory for one call's spans
        root = recorder.wrap(main, "cli.main")
        with spans.instrument(recorder, modules):
            wall, traced_code, traced_out = _call_main(root, workload.argv)
        traced.append(wall)
        total.add(workload.check(stdout, code))
        total.add(workload.check(traced_out, traced_code))
        per_run.append(spans.aggregate(recorder))
    spans.write_spans(recorder, WORK / f"spans-{workload.name}.bin")

    def med(fn):
        return float(statistics.median(fn(agg) for agg in per_run))

    last = per_run[-1]
    overhead = statistics.median(traced) - statistics.median(plain)
    records = [json.loads(line) for line in stdout.splitlines()]
    counters = _report_counters(workload, stdout)
    metrics = {
        "literals.parse_s": (med(lambda a: a["inclusive"]["literals.parse_literal"]), "s"),
        "literals.parse_calls": (last["calls"]["literals.parse_literal"], "count"),
        "classify.normalize_s": (med(lambda a: a["inclusive"]["classify.normalize"]), "s"),
        "classify.specs_built": (last["calls"]["classify.LinearSystemSpec.__init__"], "count"),
        "classify.decompose_s": (med(lambda a: a["inclusive"]["classify.decompose"]), "s"),
        "classify.decompose_calls": (last["calls"]["classify.decompose"], "count"),
        "classify.pattern_matches_s": (med(lambda a: a["inclusive"]["classify.pattern_matches"]), "s"),
        "lattice.virtual_dimension_calls": (last["calls"]["lattice.virtual_dimension"], "count"),
        "lattice.classes_built": (last["calls"]["lattice.DivisorClass.__init__"], "count"),
        "verify.pairs_checked": (counters["pairs"], "count"),
        "verify.alignments_checked": (counters["alignments"], "count"),
        "verify.alignments_per_pair": (counters["alignments"] / max(counters["pairs"], 1), "ratio"),
        "verify.specs_scanned": (counters["specs"], "count"),
        "verify.v0_classes": (counters["v0"], "count"),
        "cli.records_out": (len(records), "count"),
        "cli.error_records": (sum("error" in rec for rec in records), "count"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda a: a["layer_self"][layer]), "s")
    # The layer self times of one traced call add up to its root span, which
    # is the traced wall time less the time outside cli.main.
    gaps = [abs(wall - sum(agg["layer_self"].values())) for wall, agg in zip(traced, per_run)]
    total.complete &= max(gaps) <= max(overhead, 0.0)
    info = {
        "runs": len(traced),
        "spans_per_run": last["calls"].total(),
        "self_sum_gap_s": max(gaps),
    }
    return metrics, total, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("batch_mixed", "verify_pairs", "hunt_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3linsys" / "cli.py").is_file():
        print(f"no k3linsys sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    t0 = None
    if args.trace:
        workload = Workload(args.workload, args.seed)
        metrics, verdict, info = traced_run(workload, args.seconds)
    else:
        launcher = Launcher()  # before the inputs are built, so it stays small
        try:
            workload = Workload(args.workload, args.seed)
            metrics, verdict, info = timed_run(workload, args.seconds, launcher)
            t0 = t0_face(workload, launcher) if workload.name == "batch_mixed" else None
        finally:
            launcher.close()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {info}")
    if workload.stats:
        print(f"input: {json.dumps(workload.stats)}")
    print(f"check: {verdict.failed} of {verdict.attempted} operations failed; reasons {dict(verdict.reasons)}")
    if t0 is not None:
        print(
            f"t = 0 face, a separate untimed d = 0 file left out of the result (known defect, "
            f"ROADMAP item 4): {t0.failed} of {t0.attempted} lines failed; reasons {dict(t0.reasons)}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  failed_ratio = {verdict.failed / verdict.attempted} ratio")
    result = {
        "correct": verdict.complete,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
