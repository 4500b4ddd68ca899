"""The command line as a user runs it, one child process per command.

The console script is the `k3linsys` on PATH, with PYTHONPATH unset so
that it runs the installed package, when K3LINSYS_CONSOLE_SCRIPT is set:
the CI workflow sets it after `pip install .` of this checkout.  Otherwise
it is `python -m k3linsys` with this checkout's `src` on PYTHONPATH, so
that a stale install elsewhere on PATH is never the code under test.  Its
output does not depend on the command, so a few commands stand for all,
each in every format against its golden stdout, stderr and exit code:
batch on the golden file, intersect on the golden pairs, and the
`verify lemma-table` report (see test_golden.py, which diffs every
command in-process).

Batch in parts then runs at its production MIN_PART_LINES and
MAX_PART_LINES on the real CPU affinity, against one pass: on 280 copies
of the golden file against a child pinned to one CPU, and on perfbench's
seeded 100,000-line file against the same file fed through a pipe.  Hunt
runs at the benchmark's hunt_grid bounds in shares, one per usable CPU,
against a child pinned to one CPU.  On a host with one usable CPU both
sides run one pass.
"""

import json
import os
import re
import runpy
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ["json", "text", "csv"]

if os.environ.get("K3LINSYS_CONSOLE_SCRIPT"):
    COMMAND = ["k3linsys"]
    ENV = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
else:
    COMMAND = [sys.executable, "-m", "k3linsys"]
    ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def k3linsys(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Run the console script from the repository root, as the golden
    stderr names files, with stdout and stderr as bytes."""
    return subprocess.run([*COMMAND, *argv], capture_output=True, cwd=ROOT, env=ENV, timeout=300, **kwargs)


def outcome(proc: subprocess.CompletedProcess) -> tuple:
    """The exit code and the digests of stdout and stderr: megabytes of
    output compare as fast and print as short as a line."""
    return proc.returncode, sha256(proc.stdout).hexdigest(), sha256(proc.stderr).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
def test_batch_matches_golden(fmt):
    proc = k3linsys("batch", "tests/golden/batch.txt", "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == (GOLDEN / f"batch.{fmt}.out").read_bytes()
    assert proc.stderr == (GOLDEN / "batch.err").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_intersect_matches_golden(fmt):
    blocks = []
    for line in (GOLDEN / "intersect.txt").read_text(encoding="utf-8").splitlines():
        proc = k3linsys("intersect", *line.split(), "--format", fmt)
        blocks.append(proc.stdout + proc.stderr + b"exit %d\n" % proc.returncode)
    assert b"".join(blocks) == (GOLDEN / f"intersect.{fmt}.out").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_lemma_table_matches_golden(fmt):
    proc = k3linsys("verify", "lemma-table", "--format", fmt)
    if fmt == "json":
        report = json.loads(proc.stdout)
        assert (proc.returncode, proc.stderr) == (0, b"") and report.pop("elapsed") >= 0
        assert report == json.loads((GOLDEN / "lemma-table.json").read_bytes())
        return
    block = re.sub(rb"elapsed=\d+\.\d{3}s", b"elapsed=...s", proc.stdout + proc.stderr)
    assert block + b"exit %d\n" % proc.returncode == (GOLDEN / f"lemma-table.{fmt}.out").read_bytes()


def one_cpu() -> None:
    """Pin the child to one of its CPUs, so that batch runs one pass."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.fixture(scope="module")
def copies(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("parts") / "copies.txt"
    path.write_bytes((GOLDEN / "batch.txt").read_bytes() * 280)  # 10,080 lines
    return path


@pytest.fixture(scope="module")
def seeded(tmp_path_factory) -> Path:
    # run_path compiles the generator from source, writing no bytecode under perfbench/
    generate_batch = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["generate_batch"]
    path = tmp_path_factory.mktemp("parts") / "seeded.txt"
    path.write_bytes(generate_batch(42, lines=100_000).text.encode("utf-8"))
    return path


@pytest.mark.parametrize("fmt", FORMATS)
def test_parts_write_what_one_cpu_writes(copies, fmt):
    parts = k3linsys("batch", str(copies), "--format", fmt)
    one_pass = k3linsys("batch", str(copies), "--format", fmt, preexec_fn=one_cpu)
    assert parts.returncode == 2
    assert outcome(parts) == outcome(one_pass)


@pytest.mark.parametrize("fmt", FORMATS)
def test_parts_write_what_a_pipe_writes(seeded, fmt):
    parts = k3linsys("batch", str(seeded), "--format", fmt)
    piped = k3linsys("batch", "/dev/stdin", "--format", fmt, input=seeded.read_bytes())
    # stderr names the file as it was given
    piped.stderr = piped.stderr.replace(b"/dev/stdin:", f"{seeded}:".encode())
    assert parts.returncode == 2
    assert outcome(parts) == outcome(piped)


@pytest.mark.parametrize("fmt", FORMATS)
def test_hunt_in_parts_writes_what_one_cpu_writes(fmt):
    argv = ["hunt", "--max-n", "12", "--max-degree", "7", "--mass-bound", "64", "--format", fmt]
    parts = k3linsys(*argv)
    one_pass = k3linsys(*argv, preexec_fn=one_cpu)
    assert (parts.returncode, parts.stderr) == (0, b"")
    # the text and json reports give the run's wall time, which csv leaves out
    for proc in (parts, one_pass):
        proc.stdout = re.sub(rb'elapsed(=|": )\d+\.\d+(e-\d+)?', b"elapsed", proc.stdout)
    assert parts.stdout.count(b"elapsed") == (fmt != "csv")
    assert outcome(parts) == outcome(one_pass)
