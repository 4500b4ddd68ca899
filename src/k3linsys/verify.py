"""Bounded exhaustive verification of the numerical lemmas behind the classifier.

Three independent checks, all in exact integer arithmetic:

  * verify_lemma_table: enumerate every numerical class with v = 0, t >= 1
    and C^2 in [-2, 1] and compare against the classifier's own five-entry
    table, classify.RIGID_CURVES.
  * verify_pair_inequality: v(C + C') >= 0 for all same-surface pairs of
    v = 0 classes and every identification of their base points, proved by
    the Hodge index theorem except for pairs with a C^2 = 0 class, which are
    evaluated at their worst alignment; the only permitted failures are the
    aligned self-pairs of the table's two C^2 = 0 classes.
  * hunt_counterexamples: coherence scan of the classifier over bounded
    specs (v < 0 means empty or special).

A v = 0 class t*H - sum m_i E_i is the LinearSystemSpec L^n(t; m), with
d = t; `class_record` computes the v and C^2 that reports print from it.
Reports are deterministic for fixed bounds once wall-clock time is set
aside: classes are enumerated in lexicographic (C^2, n, t, mults) order and
`canonical_json` serializes everything except `elapsed`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from math import isqrt
from operator import add

from . import classify
from .classify import LinearSystemSpec
from .lattice import DivisorClass, SurfaceParams, Value, intersect, virtual_dimension


def derive_bounds_v0(self_int_range: tuple[int, int]) -> dict:
    """Finite bounds covering every v = 0, t >= 1 class with C^2 in range.

    For such classes C.K = C^2 + 2 with C.K = sum m_i and m_i >= 1, so
    r <= sum m_i <= hi + 2; and n*t^2 = C^2 + sum m_i^2 <= hi + (hi+2)^2,
    bounding n (at t = 1) and t (at n = 2).  n_range and t_range start at
    2 and 1, and n_range ends even, as in the pair verifier's bounds.
    """
    lo, hi = self_int_range
    if lo > hi:
        raise ValueError(f"empty self-intersection range [{lo}, {hi}]")
    sum_m_max = max(0, hi + 2)
    nt2_max = max(0, hi + sum_m_max * sum_m_max)
    return {
        "mass_bound": nt2_max + 2,
        "max_points": sum_m_max,
        "n_range": [2, nt2_max - nt2_max % 2],
        "t_range": [1, isqrt(nt2_max // 2)],
        "self_int_range": [lo, hi],
    }


def _order(spec: LinearSystemSpec) -> tuple:
    """The report order of classes: (C^2, n, t, mults), t being the spec's d."""
    return spec.n * spec.d * spec.d - sum(m * m for m in spec.mults), spec.n, spec.d, spec.mults


def class_record(spec: LinearSystemSpec) -> dict:
    """A class's report record: n, t, mults, v, C^2 = n*t^2 - sum m_i^2 and
    its literal, with t the spec's d."""
    c2, n, t, mults = _order(spec)
    v = classify.virtual_dim(spec)
    return {"n": n, "t": t, "mults": list(mults), "v": v, "c2": c2, "literal": spec.literal()}


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


def _v0_classes(bounds: dict) -> tuple[list[LinearSystemSpec], int]:
    """All v = 0 classes with t >= 1 in a C^2 window's bounds dict (see
    derive_bounds_v0), as specs with d = t in report order (see _order),
    plus the number of cells walked.

    v = 0 for t >= 1 is equivalent to n*t^2 + 2 = mass with mass equal to
    sum m_i(m_i+1), so a multiplicity vector's (n, t) are the cells of its
    mass, looked up in a dict built by one walk (_cells), and C^2 =
    n*t^2 - sum m_i^2 is sum m_i - 2.  The vectors are canonical, so specs
    are built unchecked, on one SurfaceParams per n.
    """
    lo_c2, hi_c2 = bounds["self_int_range"]
    cells: dict[int, list[tuple[int, int]]] = {}
    for n, t, mass in _cells(bounds["mass_bound"], bounds["n_range"][1]):
        cells.setdefault(mass, []).append((n, t))
    surfaces: dict[int, SurfaceParams] = {}
    found = []
    for mults, mass in _mult_vectors(bounds["max_points"], bounds["mass_bound"], max(0, hi_c2 + 2)):
        if lo_c2 <= sum(mults) - 2 <= hi_c2:
            for n, t in cells.get(mass, ()):
                if n not in surfaces:
                    surfaces[n] = SurfaceParams(n)
                found.append(LinearSystemSpec._from_canonical(surfaces[n], t, mults))
    found.sort(key=_order)
    return found, sum(map(len, cells.values()))


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


def enumerate_v0_classes(self_int_range: tuple[int, int]) -> list[LinearSystemSpec]:
    """Every class (n, t >= 1, mults) with v = 0 and C^2 in the range, as a
    spec with d = t, in report order (see _order)."""
    classes, _ = _v0_classes(derive_bounds_v0(self_int_range))
    return classes


_TABLE_C2_WINDOW = (-2, 1)

_EXCEPTIONAL_NOTE = (
    "t = 0 case handled out-of-band: the exceptional classes E_i have v = 0, "
    "C^2 = -1 and h^2 = 1; the table covers t >= 1 only."
)


def verify_lemma_table() -> VerificationReport:
    """Compare the v = 0 classes with C^2 in _TABLE_C2_WINDOW against the
    classifier's table, classify.RIGID_CURVES, read at each call.

    The enumerated classes must equal the table as a set; each class on one
    side only is a violation, with the class's record (see class_record) as
    its data.  details["classes"] and details["expected"] hold the records
    of both sides in report order.  checked_count is the number of cells
    (n, t) walked.
    """
    start = time.perf_counter()
    bounds = derive_bounds_v0(_TABLE_C2_WINDOW)
    classes, walked = _v0_classes(bounds)
    found, expected = set(classes), set(classify.RIGID_CURVES)
    violations = [
        Certificate("missing-class", f"expected class {c.literal()} was not found", class_record(c))
        for c in sorted(expected - found, key=_order)
    ] + [
        Certificate("unexpected-class", f"found class {c.literal()} not in the table", class_record(c))
        for c in sorted(found - expected, key=_order)
    ]
    return VerificationReport(
        name="lemma-table",
        bounds=bounds,
        checked_count=walked,
        violations=tuple(violations),
        expected_exceptions_found=(),
        elapsed=time.perf_counter() - start,
        notes=(_EXCEPTIONAL_NOTE,),
        details={
            "classes": [class_record(c) for c in classes],
            "expected": [class_record(c) for c in sorted(expected, key=_order)],
        },
    )


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


_HUNT_NOTE = (
    "any certificate from this scan is an implementation fault, not a counterexample: "
    "decompose makes every v < 0 spec outside the two special families EMPTY, and the "
    "other structure patterns all have v >= 0, so the scan compares decompose with its "
    "own patterns."
)


# hunt runs in at most one share per this many visited cells: forking and
# joining a part process took 3-5 ms of a CLI run, the time of about 1,000
# cells, on a 2-CPU host with Python 3.11.
MIN_SHARE_CELLS = 2000


def hunt_counterexamples(
    *,
    max_n: int = 10,
    max_degree: int = 6,
    mass_bound: int = 60,
    max_points: int | None = None,
) -> VerificationReport:
    """Coherence scan of the classifier over all specs within bounds.

    One check: every spec with d >= 1 and v < 0 is EMPTY or one of the two
    special families.  There is no pair check: v(C + C') = 0 <=> C.C' = 1
    for v = 0 classes is the v additivity identity, which
    tests/test_lattice.py::test_v_additivity_when_h2_vanishes covers.
    The scan covers n = 2..max_n even by d = 0..max_degree, over the
    multiplicity vectors of at most max_points points (mass_bound // 2 when
    None) within mass_bound, and checked_count counts all its specs:
    vectors times surfaces times degrees.  Only the cells where the check
    can fire are visited (see _hunt_scan).  With k usable CPUs
    (parts.processes), share j of the scan decomposes the vectors whose
    index in _mult_vectors order is j mod k: share 0 here, the others in
    part processes (parts.map_shares), which send back the index, n and d
    of each cell where the check fails.  The certificates are rebuilt here,
    in (n, d, vector) order, so the report is the one pass's.  k is at most
    one per MIN_SHARE_CELLS visited cells, so the scan is one pass on a
    small grid, on one usable CPU, or without fork or sched_getaffinity.
    Negative mass_bound or max_points raise ValueError.
    """
    from . import parts  # hunt alone runs in parts: no other verifier compiles the module

    start = time.perf_counter()
    if max_points is None:
        max_points = mass_bound // 2
    if mass_bound < 0 or max_points < 0:
        raise ValueError("mass_bound and max_points must be >= 0")
    bounds = {"max_n": max_n, "max_degree": max_degree, "mass_bound": mass_bound, "max_points": max_points}
    k = parts.processes()
    if k > 1:
        k = max(1, min(k, _visits(MIN_SHARE_CELLS * k, **bounds) // MIN_SHARE_CELLS))

    def cells(shares: set) -> list[int]:
        """The vector count, then the index, n and d of each failing cell."""
        found = []
        vectors = _hunt_scan(k, shares, lambda i, spec, dec: found.extend((i, spec.n, spec.d)), **bounds)
        return [vectors, *found]

    certs: dict[tuple[int, int, int], Certificate] = {}

    def certify(i, spec, dec) -> None:
        message = f"{spec.literal()} has v = {dec.v} < 0 but is neither empty nor in a special family"
        data = {"n": spec.n, "d": spec.d, "mults": list(spec.mults), "v": dec.v}
        data["member_kind"] = dec.member_kind.name
        certs[spec.n, spec.d, i] = Certificate("speciality-candidate", message, data)

    shares = parts.map_shares(k, cells)
    vectors = shares[0][0]
    if failing := {i for share in shares for i in share[1::3]}:
        _hunt_scan(vectors, failing, certify, **bounds)  # i % vectors is i
    # len(range(2, max_n + 1, 2)) and len(range(max_degree + 1)), past sys.maxsize too
    specs_scanned = vectors * max(0, max_n // 2) * max(0, max_degree + 1)

    return VerificationReport(
        name="counterexample-hunt",
        bounds=bounds,
        checked_count=specs_scanned,
        violations=tuple(certs[cell] for cell in sorted(certs)),
        expected_exceptions_found=(),
        elapsed=time.perf_counter() - start,
        notes=(_HUNT_NOTE,),
        details={"specs_scanned": specs_scanned},
    )


def _hunt_scan(k: int, shares: set, fail, *, max_n, max_degree, mass_bound, max_points) -> int:
    """Call fail(i, spec, decomposition) at each cell where hunt's check
    fails, of the vectors whose index i in _mult_vectors order has i % k in
    `shares`; returns the number of vectors (_mult_vectors yields at least
    the empty one).

    For a vector of mass M the cells where the check can fire have d >= 1
    and v = n*d^2/2 + 1 - M/2 < 0, that is n*d^2 <= M - 4 as both sides are
    even: n runs to M - 4, each over a prefix of degrees.  One SurfaceParams
    per visited n serves the whole scan, at most min(max_n, mass_bound - 4)
    // 2 of them, so memory does not grow with max_n or max_degree.  A spec
    is built in those cells only; classify.decompose is read at each call.
    An empty n or degree range visits no cell and builds no surface.
    """
    decompose = classify.decompose
    empty = classify.MemberKind.EMPTY
    surfaces: dict[int, SurfaceParams] = {}
    new_spec = LinearSystemSpec._from_canonical
    n_top = max_n if max_degree >= 1 else 0  # no degree to visit, no n either
    # _mult_vectors yields canonical tuples (ints >= 1, non-increasing) with
    # their mass, so specs are built without checks.
    for i, (mults, mass) in enumerate(_mult_vectors(max_points, mass_bound)):
        if i % k not in shares:
            continue
        top = mass - 4  # the cells with v < 0 < d have n*d^2 <= top
        for n in range(2, min(n_top, top) + 1, 2):
            if n not in surfaces:
                surfaces[n] = SurfaceParams(n)
            surface = surfaces[n]
            for d in range(1, min(max_degree, isqrt(top // n)) + 1):
                spec = new_spec(surface, d, mults)
                dec = decompose(spec)
                if dec.member_kind is not empty and not dec.is_special:
                    fail(i, spec, dec)
    return i + 1


def _visits(cap: int, *, max_n, max_degree, mass_bound, max_points) -> int:
    """The cells hunt's scan visits, counted off the vectors' masses until
    there are at least `cap`."""
    cells = 0
    for _, mass in _mult_vectors(max_points, mass_bound) if max_degree >= 1 else ():
        for n in range(2, min(max_n, mass - 4) + 1, 2):
            cells += min(max_degree, isqrt((mass - 4) // n))
            if cells >= cap:
                return cells
    return cells
