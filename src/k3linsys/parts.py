"""batch in parts: a file's lines classified by one process per usable CPU.

With k processes, the file is cut into parts of equal length, or of
MAX_PART_LINES lines on a file of more than k such parts: the batch
process classifies parts 0, k, 2k, ... and the child forked for j parts
j, k + j, 2k + j, ...; each process reads the file through its own handle
and skips the parts of the others.  A child writes the stdout and
stderr of a part to two memfd files and waits; batch copies the part out
when every earlier part is out, empties the files and lets the child go on
to its next part.  So stdout, stderr and the exit status are those of one
pass, and the memfd files hold at most one part's output for each child.
One pass is the case k = 1: one part of every line, and no child.

When the k processes use every CPU of the affinity mask, each runs on its
own CPU of it: left alone, the kernel often keeps a child on its parent's
CPU for their whole life, and the two then share one core.  With fewer
parts than CPUs the kernel places them, so that concurrent runs do not all
pile onto the same first k CPUs.

The command-line module binds run_parts for batch only: no other command
compiles this module.
"""

from __future__ import annotations

import os
import stat
import sys
from itertools import count, islice

from . import cli

# batch classifies a file of at least two parts of this many lines in
# parts ...
MIN_PART_LINES = 1500
# ... of at most this many lines: each child's memfd files hold the output
# of one part, about 1 MB of JSON.
MAX_PART_LINES = 5000
# The CPU quota of the cgroup a container sees as its own: cgroup v2's
# "quota period" (or "max period"), then cgroup v1's quota (-1 for none)
# and period.
CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def usable_cpus() -> int:
    """The CPUs of sched_getaffinity, at most the cgroup CPU quota rounded
    to the nearest whole CPU (and at least one)."""
    cpus = len(os.sched_getaffinity(0))
    for paths in CPU_QUOTA_FILES:
        try:
            words = []
            for path in paths:
                with open(path) as handle:
                    words += handle.read().split()
            quota, period = int(words[0]), int(words[1])
        except (OSError, ValueError, IndexError):
            continue  # no such cgroup file, or no quota ("max")
        if quota > 0 < period:
            cpus = min(cpus, max(1, (quota + period // 2) // period))
    return cpus


def _plan(handle) -> tuple[int, int]:
    """How many processes classify handle's file, and the lines of a part:
    one process per usable CPU and at most one per MIN_PART_LINES lines.
    (1, sys.maxsize), one part of every line, where batch stays one pass:
    on a file that is not regular (a pipe cannot be read twice), with one
    usable CPU, on a file shorter than two parts, or without fork,
    memfd_create, sched_getaffinity or /proc/self/fd (through which a child
    opens the file batch has open)."""
    one_pass = 1, sys.maxsize
    if not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
        return one_pass
    if not os.path.isdir("/proc/self/fd"):
        return one_pass
    if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        return one_pass
    cpus = usable_cpus()
    if cpus < 2:
        return one_pass
    lines = sum(1 for _ in islice(cli._file_lines(handle), cpus * MAX_PART_LINES))
    handle.seek(0)
    k = min(cpus, lines // MIN_PART_LINES)
    if k < 2:
        return one_pass
    return k, min(MAX_PART_LINES, -(-lines // k))  # the ceiling of lines / k


def _numbered(lines, part: int, size: int):
    """The (line number, line) pairs of part `part`, of `size` lines, of
    `lines`, an iterator at the part's first line."""
    first = part * size + 1
    return zip(range(first, first + size), lines)


def _skip(lines, n: int) -> None:
    for _ in islice(lines, n):
        pass


def _memfd():
    """A text file in memory, for a part's stdout or stderr."""
    fd = os.memfd_create("k3linsys-batch")
    return open(fd, "w+", encoding="utf-8", errors="surrogateescape", newline="")


def _pin(cpus) -> None:
    """Run this process on `cpus` only; a mask the host refuses (it may name
    a CPU the host lacks) leaves the process where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _child(args, handle, j: int, k: int, size: int, sinks, done: int, go: int, cpus) -> None:
    """Classify parts j, k + j, ... of `size` lines of handle's file with
    `sinks` as stdout and stderr, on CPU cpus[j] if `cpus` names one per
    part.  After each part, write (its _batch_lines result, whether a line
    follows it) to the pipe `done`, then wait for a byte on `go`.  A crash
    writes its traceback and exits 1.  Never returns."""
    code = 1
    try:
        sys.stdout, sys.stderr = sinks
        if cpus:
            _pin({cpus[j]})
        out = cli._Output(args.quiet)
        emit, emit_error = cli._record_writer(args.format, out, cli._batch_text, header=False)
        lines = cli._file_lines(handle)
        _skip(lines, j * size)
        for part in count(j, k):
            try:
                result = cli._batch_lines(args, _numbered(lines, part, size), emit, emit_error)
            finally:
                out.flush()  # the part's records, also up to a crash
            more = result != cli._STOPPED and next(lines, None) is not None
            for sink in sinks:
                sink.flush()
            os.write(done, bytes((result, more)))
            if not more or not os.read(go, 1):
                break
            for sink in sinks:
                sink.seek(0)  # batch has copied and emptied them
            _skip(lines, (k - 1) * size - 1)  # next() read the first
        code = 0
    except BaseException:  # ends here: a forked child never unwinds into its parent's callers
        import traceback

        traceback.print_exc()
        for sink in sinks:
            sink.flush()
    finally:
        os._exit(code)


def run_parts(args, out, handle) -> int:
    """Classify handle's file in parts, one pass being one part of every
    line (see _plan).  Returns batch's exit status: 2 if a line gave an
    error record or a line that is not UTF-8 ended the run, 1 if a part
    crashed.  A part that ends the run ends it after its own output; no
    child outlives this call.  When the k parts use every CPU of the
    affinity mask, part process j runs on the mask's j-th CPU, and this
    process gets back its mask on return, for callers that run batch
    in-process."""
    k, size = _plan(handle)
    mask = os.sched_getaffinity(0) if k > 1 else ()
    cpus = sorted(mask) if len(mask) == k else ()
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # [pid, or 0 once reaped; stdout and stderr sinks; done; go]
    try:
        for j in range(1, k):
            # each child reads the open file, not its path, through its own handle
            reader = cli._open_batch(f"/proc/self/fd/{handle.fileno()}")
            sinks = (_memfd(), _memfd())
            done, done_w = os.pipe()
            go_r, go = os.pipe()
            children.append([0, sinks, done, go])
            try:
                pid = os.fork()
                if not pid:
                    _child(args, reader, j, k, size, sinks, done_w, go_r, cpus)
                children[-1][0] = pid
            finally:
                for fd in (done_w, go_r):
                    os.close(fd)
                reader.close()
        if cpus:
            _pin({cpus[0]})
        emit, emit_error = cli._record_writer(args.format, out, cli._batch_text)
        lines = cli._file_lines(handle)
        results = set()
        for part in count(0, k):
            results.add(cli._batch_lines(args, _numbered(lines, part, size), emit, emit_error))
            more = cli._STOPPED not in results and next(lines, None) is not None
            for j, child in enumerate(children, 1):
                if not more:
                    break
                result, more = _copy_part(args, out, child, (part + j) * size + 1, size)
                results.add(result)
            if not more:
                return 1 if 1 in results else min(max(results), 2)
            _skip(lines, (k - 1) * size - 1)  # next() read the first
    finally:
        if cpus:
            _pin(mask)
        for child in children:
            pid, sinks, *fds = child
            if pid:
                os.kill(pid, 9)  # SIGKILL, without importing signal
                os.waitpid(pid, 0)
            for sink in sinks:
                sink.close()
            for fd in fds:
                os.close(fd)


def _copy_part(args, out, child: list, first: int, size: int) -> tuple[int, bool]:
    """Wait for `child` to end its part of `size` lines from line `first`,
    copy its stdout to `out` and its stderr to stderr, and let it go on.
    Returns its _batch_lines result and whether a line follows the part;
    (1, False) if the child ended without a result, which is reported on
    stderr."""
    pid, sinks, done, go = child
    reply = os.read(done, 2)
    for sink, write in zip(sinks, (out.write, sys.stderr.write)):
        sink.seek(0)
        while piece := sink.read(cli.BLOCK_CHARS):
            write(piece)
        sink.seek(0)
        sink.truncate()
    if len(reply) == 2:
        if reply[1]:
            os.write(go, b"g")
        return reply[0], bool(reply[1])
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    child[0] = 0
    part = f"the part of lines {first}-{first + size - 1}"
    cli._Output.error(f"{args.file}: {part} ended with exit status {code}")
    return 1, False
