"""hunt: a coherence scan of the classifier over bounded specs.

One check: every spec with d >= 1 and v < 0 is EMPTY or one of the two
special families (see hunt_counterexamples).  The scan runs in shares, one
per usable CPU (k3linsys.parts).  The command-line module binds this
module for hunt only: no other command compiles it or parts.py.
"""

from __future__ import annotations

import time
from math import isqrt

from . import classify, parts
from .classify import LinearSystemSpec
from .lattice import SurfaceParams
from .verify import Certificate, VerificationReport, _mult_vectors


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
    part processes (parts.map_shares), which send back the index of each
    vector with a cell where the check fails.  The certificates are rebuilt
    here, in (n, d, vector) order, so the report is the one pass's.  k is at
    most one per MIN_SHARE_CELLS visited cells, so the scan is one pass on a
    small grid, on one usable CPU, or without fork or sched_getaffinity.
    Negative mass_bound or max_points raise ValueError.
    """
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
        """The vector count, then the index of each vector with a failing cell."""
        found = set()
        vectors = _hunt_scan(k, shares, lambda i, spec, dec: found.add(i), **bounds)
        return [vectors, *found]

    certs: dict[tuple[int, int, int], Certificate] = {}

    def certify(i, spec, dec) -> None:
        message = f"{spec.literal()} has v = {dec.v} < 0 but is neither empty nor in a special family"
        data = {"n": spec.n, "d": spec.d, "mults": list(spec.mults), "v": dec.v}
        data["member_kind"] = dec.member_kind.name
        certs[spec.n, spec.d, i] = Certificate("speciality-candidate", message, data)

    shares = parts.map_shares(k, cells)
    vectors = shares[0][0]
    if failing := {i for share in shares for i in share[1:]}:
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
