"""Fixed pure-Python work that run.py times beside every CLI process.

The shared host's CPU speed drifts by up to 1.7x, in phases from seconds
to minutes.  This script does the same kind of work as the program
(frozen dataclass construction with validation, small tuples, integer
arithmetic, dict lookups) and is the same on every commit, so the ratio of
a CLI process's wall time to the wall time of this script, taken right
before and after it, cancels the host's speed and keeps the program's.

Prints a checksum that run.py compares with CHECKSUM.
"""

from dataclasses import dataclass

ROUNDS = 30_000
CHECKSUM = "-924711 4020"


@dataclass(frozen=True)
class Cls:
    n: int
    t: int
    l: tuple

    def __post_init__(self):
        if self.n % 2 or self.t < 0:
            raise ValueError(self)


def work(rounds: int = ROUNDS) -> str:
    seen: dict = {}
    total = 0
    for i in range(rounds):
        l = tuple(sorted(((i * 7 + k * 13) % 11 for k in range(i % 7)), reverse=True))
        c = Cls(2 + 2 * (i % 20), 1 + i % 12, l)
        v = c.n * c.t * c.t // 2 + 1 - sum(m * (m + 1) // 2 for m in c.l)
        key = (c.n, c.t, c.l)
        seen[key] = seen.get(key, 0) - v
        total += seen[key] % 1000 - v
    return f"{total} {len(seen)}"


if __name__ == "__main__":
    print(work())
