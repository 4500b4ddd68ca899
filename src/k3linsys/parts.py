"""Work in parts: one process per usable CPU, each on its own CPU.

Forks forks part processes 1, ..., k - 1 from the calling process, which
is part process 0.  Each child runs its work and ends with os._exit, and on
every way out of the with block, exceptions and Ctrl-C included, each child
still running is killed and reaped.  When the k processes use every CPU of
the affinity mask, each runs on its own CPU of it: left alone, the kernel
often keeps a child on its parent's CPU for their whole life, and the two
then share one core.  With fewer processes than CPUs the kernel places
them, so that concurrent runs do not all pile onto the same first k CPUs.
The caller gets its mask back when the block ends.

Two commands run in parts: batch (k3linsys.batch), whose children classify
parts of the file in rounds, and hunt (map_shares), whose children each
scan one share of the grid and send back its result.  No other command
compiles this module.
"""

from __future__ import annotations

import os
import sys

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


def processes() -> int:
    """How many part processes a job may use: one per usable CPU, or one
    without fork or sched_getaffinity."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    return usable_cpus()


def _pin(cpus) -> None:
    """Run this process on `cpus` only; a mask the host refuses (it may name
    a CPU the host lacks) leaves the process where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


class Forks:
    """Part processes 1, ..., k - 1 of a job of k, forked from this process,
    part process 0, in a with block (see the module docstring)."""

    def __init__(self, k: int):
        self.k = k
        self.mask = os.sched_getaffinity(0) if k > 1 else ()
        self.cpus = sorted(self.mask) if len(self.mask) == k else ()
        self.pids: list[int] = []  # by part process, 0 once reaped

    def __enter__(self) -> Forks:
        sys.stdout.flush()  # or each child would inherit the buffered text
        sys.stderr.flush()
        return self

    def fork(self, work, *fds: int) -> None:
        """Fork the next part process, which runs work() and ends with exit
        status 0 if it returns and 1 if it raises, and close the file
        descriptors `fds`, the child's ends of its pipes, here.  Once the
        last one is forked this process runs on its own CPU, if each does."""
        j = len(self.pids) + 1
        try:
            pid = os.fork()
            if not pid:
                code = 1
                try:
                    if self.cpus:
                        _pin({self.cpus[j]})
                    work()
                    code = 0
                finally:
                    os._exit(code)  # a forked child never unwinds into its parent's callers
            self.pids.append(pid)
        finally:
            for fd in fds:
                os.close(fd)
        if self.cpus and j == self.k - 1:
            _pin({self.cpus[0]})

    def wait(self, j: int) -> int:
        """Reap part process j once it ends: its exit status, -N if signal N
        killed it."""
        pid, self.pids[j - 1] = self.pids[j - 1], 0
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def __exit__(self, *exc) -> None:
        if self.cpus:
            _pin(self.mask)
        for pid in self.pids:
            if pid:
                os.kill(pid, 9)  # SIGKILL, without importing signal
                os.waitpid(pid, 0)


def map_shares(k: int, work) -> list[list[int]]:
    """work({j}), a list of ints, of each share j of k: share 0 here and
    share j in part process j, which sends its ints back through a pipe.
    The shares whose work raised an Exception, here or in its process, or
    whose process ended any other way, run again here in one pass,
    work(those shares), the last list: so the caller sees what one pass
    raises.  k = 1 runs work({0}) alone, with no fork."""
    if k < 2:
        return [work({0})]
    pipes = []
    try:
        with Forks(k) as forks:
            for j in range(1, k):
                pipe, end = os.pipe()
                pipes.append(pipe)
                forks.fork(lambda: _send(end, work({j})), end)
            try:
                results = {0: work({0})}
            except Exception:
                results = {}
            for j, pipe in enumerate(pipes, 1):
                with open(pipe, "rb", closefd=False) as reader:
                    sent = reader.read()
                if forks.wait(j) == 0:
                    results[j] = list(map(int, sent.split()))
    finally:
        for pipe in pipes:
            os.close(pipe)
    failed = set(range(k)) - results.keys()
    return [*results.values(), *([work(failed)] if failed else [])]


def _send(fd: int, ints: list) -> None:
    with open(fd, "w") as pipe:
        pipe.write(" ".join(map(str, ints)))
