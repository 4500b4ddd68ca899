"""Bounded exhaustive verification of the numerical lemmas behind the classifier.

This module holds the pair check, in exact integer arithmetic, and the
report types and class walks every verifier shares:

  * verify_pair_inequality: v(C + C') >= 0 for all same-surface pairs of
    v = 0 classes and every identification of their base points, proved by
    the Hodge index theorem except for pairs with a C^2 = 0 class, which are
    evaluated at their worst alignment; the only permitted failures are the
    aligned self-pairs of the table's two C^2 = 0 classes.
  * k3linsys.v0: the v = 0 classes of a C^2 window (`enumerate v0`) and
    verify_lemma_table, which compares those with C^2 in [-2, 1] against
    the classifier's own five-entry table, classify.RIGID_CURVES.
  * k3linsys.hunt: hunt_counterexamples, a coherence scan of the
    classifier over bounded specs (v < 0 means empty or special).

A v = 0 class t*H - sum m_i E_i is the LinearSystemSpec L^n(t; m), with
d = t.  Reports are deterministic for fixed bounds once wall-clock time is
set aside: classes are enumerated in lexicographic (C^2, n, t, mults) order
(_order) and `canonical_json` serializes everything except `elapsed`.
"""

from __future__ import annotations

import time
from collections import Counter
from math import isqrt
from operator import add

from . import classify
from .classify import LinearSystemSpec
from .lattice import DivisorClass, SurfaceParams, Value, intersect, virtual_dimension


def _order(spec: LinearSystemSpec) -> tuple:
    """The report order of classes: (C^2, n, t, mults), t being the spec's d."""
    return spec.n * spec.d * spec.d - sum(m * m for m in spec.mults), spec.n, spec.d, spec.mults


class Certificate(Value):
    """Replayable record of one violation or permitted exception.

    `data` holds every input and intermediate integer needed to re-verify
    the claim with lattice operations alone.
    """

    kind: str
    message: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "data": self.data}


class VerificationReport(Value):
    name: str
    bounds: dict
    checked_count: int
    violations: tuple[Certificate, ...]
    expected_exceptions_found: tuple[Certificate, ...]
    elapsed: float
    notes: tuple[str, ...] = ()
    details: dict = {}

    # Unlike the other values, a report is mutable, so it has no hash.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "bounds": self.bounds,
            "checked_count": self.checked_count,
            "violations": [c.to_dict() for c in self.violations],
            "expected_exceptions_found": [c.to_dict() for c in self.expected_exceptions_found],
            "notes": list(self.notes),
            "details": self.details,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization: everything except wall-clock time."""
        import json  # here, not at the top: a text report loads no json

        return json.dumps(self.to_dict(include_elapsed=False), sort_keys=True)


def _mult_vectors(max_points: int, mass_bound: int, sum_bound: int | None = None):
    """All non-increasing vectors of multiplicities >= 1 within the bounds,
    each as (mults, mass) with mass = sum m_i(m_i+1), the condition count
    doubled: v = n*t^2/2 + 1 - mass/2 when t >= 1."""

    def extend(prefix, mass_left, sum_left, cap):
        yield prefix, mass_bound - mass_left
        if len(prefix) == max_points:
            return
        top = min(cap, (isqrt(4 * mass_left + 1) - 1) // 2)
        if sum_left is not None:
            top = min(top, sum_left)
        for m in range(top, 0, -1):
            yield from extend(
                prefix + (m,),
                mass_left - m * (m + 1),
                None if sum_left is None else sum_left - m,
                m,
            )

    yield from extend((), mass_bound, sum_bound, mass_bound)


def _cells(mass_bound: int, n_hi: int):
    """The cells (n, t, mass) of v = 0 classes within the bounds: each even
    n <= n_hi by ascending t >= 1, mass = n*t^2 + 2 <= mass_bound."""
    for n in range(2, min(n_hi, mass_bound - 2) + 1, 2):
        for t in range(1, isqrt((mass_bound - 2) // n) + 1):
            yield n, t, n * t * t + 2


# The most cells _pair_classes' table may have: 8 MB of references, and up
# to 32 MB more for counts past the small-int cache.
_MAX_TABLE_CELLS = 1 << 20


def _vectors_of_mass(mass: int, max_points: int, cap: int):
    """The non-increasing vectors of at most max_points parts in 1..cap of this mass."""
    if not mass:
        yield ()
    for m in range(min(cap, (isqrt(4 * mass + 1) - 1) // 2), 0, -1):
        if mass > max_points * m * (m + 1):
            return  # smaller parts fall shorter still
        for rest in _vectors_of_mass(mass - m * (m + 1), max_points - 1, m):
            yield (m,) + rest


def _pair_classes(bounds: dict) -> tuple[dict[int, int], dict[int, list[LinearSystemSpec]]]:
    """The v = 0 classes of a pair report's bounds, walked once by cell
    (_cells), a cell's classes the vectors of its mass.  Returns the count
    of each n that holds a class and, by ascending n, the classes in report
    order of the surfaces with a C^2 = sum m_i - 2 = 0 class, the only ones
    built: (1, 1) and (2,) have mass 4 and 6, so n = 2 and 4 if their t = 1
    cell, the first of their n, holds a class.  A count is read off a
    table, ways[k][s] the vectors of k points and mass s with the part
    sizes taken in turn, or counted vector by vector: with at most two
    points a cell costs O(sqrt(mass)), less than the table's
    O(points * mass_bound * sqrt(mass_bound)), and past _MAX_TABLE_CELLS no
    table is built.  Without a table the walk stops at
    n = sqrt(mass_bound) (n = 2 and 4 stay in it), and the cells (n, t) past
    it are counted off the vectors, one pass for each t, of mass
    n*t^2 + 2: the walk's sqrt(mass_bound * n_hi) cells, each counted
    vector by vector, fall to mass_bound^(3/4), for mass_bound^(1/4)
    passes."""
    mass_bound, n_hi = bounds["mass_bound"], bounds["n_range"][1]
    points = min(bounds["max_points"], mass_bound // 2)
    n_hi = min(n_hi, mass_bound - 2) if points else 0  # no point, no class
    walk_hi = max(4, isqrt(mass_bound))

    def count(mass):
        return sum(1 for _ in _vectors_of_mass(mass, points, mass))

    if points > 2 and (points + 1) * (mass_bound + 1) <= _MAX_TABLE_CELLS:
        ways = [[1] + [0] * mass_bound] + [[0] * (mass_bound + 1) for _ in range(points)]
        for m in range(1, (isqrt(4 * mass_bound + 1) - 1) // 2 + 1):
            for fewer, row in zip(ways, ways[1:]):
                row[m * (m + 1) :] = map(add, row[m * (m + 1) :], fewer)
        count = list(map(sum, zip(*ways))).__getitem__
        walk_hi = n_hi
    counts, lists = {}, {}
    for n, t, mass in _cells(mass_bound, min(n_hi, walk_hi)):
        if t == 1 and n <= 4 and count(mass):
            surface, lists[n] = SurfaceParams(n), []
        if n in lists:
            lists[n] += (LinearSystemSpec._from_canonical(surface, t, mults)
                         for mults in _vectors_of_mass(mass, points, mass_bound))  # fmt: skip
        elif k := count(mass):
            counts[n] = counts.get(n, 0) + k
    t = 1
    while (top := min(n_hi, (mass_bound - 2) // (t * t))) > walk_hi:
        for _, mass in _mult_vectors(points, top * t * t + 2):
            n, rest = divmod(mass - 2, t * t)
            if n > walk_hi and not rest and not n % 2:
                counts[n] = counts.get(n, 0) + 1
        t += 1
    for n, specs in lists.items():
        specs.sort(key=_order)
        counts[n] = len(specs)
    return counts, lists


_PAIR_NOTE = (
    "pairs of classes with C^2 >= 1 pass by the Hodge index theorem "
    "(C.C' >= sqrt(C^2 C'^2) >= 1, so v(C + C') = C.C' - 1 >= 0) and are not "
    "evaluated; every pair with a C^2 = 0 class is evaluated at its worst "
    "alignment, which bounds the others."
)


def verify_pair_inequality(
    *, mass_bound: int = 200, max_points: int = 6, max_n: int = 40
) -> VerificationReport:
    """Check v(C + C') >= 0 for all same-surface pairs of v = 0 classes.

    Every identification of base points (zero-padded alignment) counts as a
    distinct pair configuration.  Since v(C + C') = v(C) + v(C') + C.C' - 1
    = C.C' - 1, a pair fails only at an alignment with C.C' <= 0.  The Hodge
    index theorem decides most pairs without evaluating them.  The lattice
    diag(n, -1, ..., -1) has signature (1, r); every class has t >= 1, so
    C.H = n*t > 0, and C^2 = sum m_i - 2 >= 0 (no v = 0 class has C^2 < 0,
    see classify.RIGID_CURVES); aligning permutes and zero-pads l, keeping
    squares.  If both squares are >= 1, reverse Cauchy-Schwarz gives
    C.C' >= sqrt(C^2 C'^2) >= 1.  If C^2 = 0 < C'^2, the isotropic C is not
    in the negative-definite C'^perp and lies in the same half of the
    positive cone, so again C.C' >= 1.  The only C^2 = 0 classes,
    L2(1;1^2) and L4(1;2), lie on different surfaces, so each meets only
    itself, and C.C' = 0 only at the fully aligned alignment.

    So one alignment per pair decides it.  C.C' = n*t*t' - sum l_i l'_i,
    and by the rearrangement inequality the alignment that overlaps both
    sorted vectors index by index maximises the sum, so this worst
    alignment minimises C.C' and bounds all the others.  For an isotropic C
    against itself, Cauchy-Schwarz gives C.C' >= C^2 = 0, with equality only
    at the full alignment, which is the worst one.  There v(C + C) = -1: the
    two permitted exceptions are these self-pairs of the table's C^2 = 0
    rows, classify.RIGID_CURVES[:2], read at each call.  Any other dip would
    contradict the argument above, so it is a violation, reported once, at
    its worst alignment.  So only the C^2 = 0 classes are evaluated, each
    against every class of its surface in report order.  One walk over the
    cells (n, t) of mass n*t^2 + 2 builds those surfaces' classes and counts
    the rest, off a knapsack table or, with at most two points, vector by
    vector (_pair_classes).  checked_count counts every unordered same-surface
    pair, proved or evaluated, k(k + 1)/2 for a surface of k classes, and
    details["v0_classes"] the classes, details["alignments_checked"] the
    alignments evaluated.
    The classes have mass at most mass_bound, at most max_points points and
    even n <= max_n.  Negative mass_bound or max_points raise ValueError.
    """
    start = time.perf_counter()
    if mass_bound < 0 or max_points < 0:
        raise ValueError("mass_bound and max_points must be >= 0")
    bounds = {
        "mass_bound": mass_bound,
        "max_points": max_points,
        "n_range": [2, max_n - max_n % 2],
        "t_range": [1, max(1, isqrt(max(0, mass_bound - 2) // 2))],
        "self_int_range": None,
    }
    counts, partners = _pair_classes(bounds)
    checked = sum(k * (k + 1) // 2 for k in counts.values())
    alignments_checked = 0
    violations = []
    exceptions = []
    # each C^2 = sum m_i - 2 = 0 class, in report order, against its surface's classes
    for ca in [c for cs in partners.values() for c in cs if sum(c.mults) == 2]:
        surface = ca.surface
        for cb in partners[ca.n]:
            # worst alignment: both sorted vectors overlap index by index
            la = ca.mults + (0,) * max(0, len(cb.mults) - len(ca.mults))
            lb = cb.mults + (0,) * max(0, len(ca.mults) - len(cb.mults))
            a_cls = DivisorClass(surface, ca.d, la)
            b_cls = DivisorClass(surface, cb.d, lb)
            alignments_checked += 1
            v_sum = virtual_dimension(a_cls + b_cls)
            if v_sum >= 0:
                continue
            # the matched points as sorted (a-value, b-value, count) runs
            runs = sorted((x, y, k) for (x, y), k in Counter(zip(la, lb)).items() if x and y)
            cert = Certificate(
                kind="pair-inequality",
                message=f"v({ca.literal()} + {cb.literal()}) = {v_sum} < 0 at alignment {runs}",
                data={
                    "n": ca.n,
                    "t1": ca.d,
                    "mults1": list(ca.mults),
                    "t2": cb.d,
                    "mults2": list(cb.mults),
                    "aligned_l1": list(la),
                    "aligned_l2": list(lb),
                    "intersection": intersect(a_cls, b_cls),
                    "v1": virtual_dimension(a_cls),
                    "v2": virtual_dimension(b_cls),
                    "v_sum": v_sum,
                },
            )
            permitted = ca == cb and ca in classify.RIGID_CURVES[:2] and v_sum == -1
            (exceptions if permitted else violations).append(cert)
    return VerificationReport(
        name="pair-inequality",
        bounds=bounds,
        checked_count=checked,
        violations=tuple(violations),
        expected_exceptions_found=tuple(exceptions),
        elapsed=time.perf_counter() - start,
        notes=(_PAIR_NOTE,),
        details={"v0_classes": sum(counts.values()), "alignments_checked": alignments_checked},
    )


