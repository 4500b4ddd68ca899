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
One pass is the case k = 1: one part of every line, and no child.  The
children are forked, pinned, killed and reaped by k3linsys.parts.Forks.

The command-line module binds run_parts for batch only: no other command
compiles this module.
"""

from __future__ import annotations

import os
import stat
import sys
from functools import partial
from itertools import count, islice

from . import cli, records
from .parts import Forks, processes

# batch classifies a file of at least two parts of this many lines in
# parts ...
MIN_PART_LINES = 1500
# ... of at most this many lines: each child's memfd files hold the output
# of one part, about 1 MB of JSON.
MAX_PART_LINES = 5000


def _plan(handle) -> tuple[int, int]:
    """How many processes classify handle's file, and the lines of a part:
    one process per usable CPU and at most one per MIN_PART_LINES lines.
    (1, sys.maxsize), one part of every line, where batch stays one pass:
    on a file that is not regular (a pipe cannot be read twice), with one
    usable CPU, on a file shorter than two parts, or without fork,
    memfd_create, sched_getaffinity or /proc/self/fd (through which a child
    opens the file batch has open)."""
    one_pass = 1, sys.maxsize
    if not hasattr(os, "memfd_create") or not os.path.isdir("/proc/self/fd"):
        return one_pass
    if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        return one_pass
    cpus = processes()
    if cpus < 2:
        return one_pass
    lines = sum(1 for _ in islice(records._file_lines(handle), cpus * MAX_PART_LINES))
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


def _child(args, handle, j: int, k: int, size: int, sinks, done: int, go: int) -> None:
    """Classify parts j, k + j, ... of `size` lines of handle's file with
    `sinks` as stdout and stderr.  After each part, write (its _batch_lines
    result, whether a line follows it) to the pipe `done`, then wait for a
    byte on `go`.  A crash writes its traceback and raises."""
    sys.stdout, sys.stderr = sinks
    try:
        out = cli._Output(args.quiet)
        emit, emit_error = records._record_writer(args.format, out, records._batch_text, header=False)
        lines = records._file_lines(handle)
        _skip(lines, j * size)
        for part in count(j, k):
            try:
                result = records._batch_lines(args, _numbered(lines, part, size), emit, emit_error)
            finally:
                out.flush()  # the part's records, also up to a crash
            more = result != records._STOPPED and next(lines, None) is not None
            for sink in sinks:
                sink.flush()
            os.write(done, bytes((result, more)))
            if not more or not os.read(go, 1):
                return
            for sink in sinks:
                sink.seek(0)  # batch has copied and emptied them
            _skip(lines, (k - 1) * size - 1)  # next() read the first
    except BaseException:
        import traceback

        traceback.print_exc()
        for sink in sinks:
            sink.flush()
        raise


def run_parts(args, out, handle) -> int:
    """Classify handle's file in parts, one pass being one part of every
    line (see _plan).  Returns batch's exit status: 2 if a line gave an
    error record or a line that is not UTF-8 ended the run, 1 if a part
    crashed.  A part that ends the run ends it after its own output; no
    child outlives this call, and this process gets back its affinity mask
    on return, for callers that run batch in-process (see Forks)."""
    k, size = _plan(handle)
    children = []  # [reap, stdout and stderr sinks, done, go] of each child
    try:
        with Forks(k) as forks:
            for j in range(1, k):
                # each child reads the open file, not its path, through its own handle
                with records._open_batch(f"/proc/self/fd/{handle.fileno()}") as reader:
                    sinks = (_memfd(), _memfd())
                    done, done_w = os.pipe()
                    go_r, go = os.pipe()
                    children.append([partial(forks.wait, j), sinks, done, go])
                    forks.fork(lambda: _child(args, reader, j, k, size, sinks, done_w, go_r), done_w, go_r)
            emit, emit_error = records._record_writer(args.format, out, records._batch_text)
            lines = records._file_lines(handle)
            results = set()
            for part in count(0, k):
                results.add(records._batch_lines(args, _numbered(lines, part, size), emit, emit_error))
                more = records._STOPPED not in results and next(lines, None) is not None
                for j, child in enumerate(children, 1):
                    if not more:
                        break
                    result, more = _copy_part(args, out, child, (part + j) * size + 1, size)
                    results.add(result)
                if not more:
                    return 1 if 1 in results else min(max(results), 2)
                _skip(lines, (k - 1) * size - 1)  # next() read the first
    finally:
        for _, sinks, *fds in children:
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
    reap, sinks, done, go = child
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
    part = f"the part of lines {first}-{first + size - 1}"
    cli._Output.error(f"{args.file}: {part} ended with exit status {reap()}")
    return 1, False
