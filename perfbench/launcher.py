"""Small long-lived process that spawns and times CLI runs for run.py.

A child inherits its parent's peak RSS through fork and exec, so a child of
the harness would report at least the harness's own peak.  This process
stays small (about 11 MB when started with -I -S, below any CLI process):
it imports little and streams each child's stdout to a file instead of
holding it.

Protocol, one JSON line each way per request:
    request  {"argv": [...], "out": path}
    reply    {"wall_s": float, "maxrss_kb": int, "code": int}
"""

import json
import os
import subprocess
import sys
import time


def spawn(argv: list[str], out_path: str) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        with open(out_path, "wb") as sink:
            while chunk := proc.stdout.read1(1 << 16):
                sink.write(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(spawn(request["argv"], request["out"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
