"""Bounded exhaustive verification of the numerical lemmas behind the classifier.

Four independent checks, all in exact integer arithmetic:

  * verify_lemma_table: enumerate every numerical class with v = 0, t >= 1
    and C^2 in a window and compare against the known five-entry table.
  * verify_pair_inequality: v(C + C') >= 0 for all same-surface pairs of
    v = 0 classes and every identification of their base points, proved by
    the Hodge index theorem except for pairs with a C^2 = 0 class, which are
    evaluated; the only permitted failures are the two aligned self-pairs.
  * verify_addition_identity: seeded random classes satisfy the chi and v
    additivity identities exactly.
  * hunt_counterexamples: coherence scan of the classifier over a grid of
    specs (v < 0 means empty or special; structure patterns disjoint).

Reports are deterministic for fixed bounds/seed once wall-clock time is set
aside: classes are enumerated in lexicographic (C^2, n, t, mults) order and
`canonical_json` serializes everything except `elapsed`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from math import isqrt

from . import classify
from .classify import LinearSystemSpec
from .lattice import (
    DivisorClass,
    SurfaceParams,
    euler_characteristic,
    intersect,
    virtual_dimension,
)

DEFAULT_IDENTITY_SEED = 1729


def _mass(mults) -> int:
    """Sum of m(m+1), the condition count doubled: v = n*t^2/2 + 1 - mass/2."""
    return sum(m * (m + 1) for m in mults)


@dataclass(frozen=True)
class SearchBounds:
    """Finite search window for the enumerators.

    mass_bound caps sum m_i(m_i+1) per class, max_points caps r, n_range is
    an even interval for the surface degree, t_range a positive interval for
    the curve degree; self_int_range optionally filters C^2.  Empty (hi < lo)
    ranges are legal and enumerate nothing.
    """

    mass_bound: int
    max_points: int
    n_range: tuple[int, int]
    t_range: tuple[int, int]
    self_int_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.mass_bound < 0 or self.max_points < 0:
            raise ValueError("mass_bound and max_points must be >= 0")
        n_lo, n_hi = self.n_range
        n_lo = max(2, n_lo + (n_lo % 2))
        n_hi = n_hi - (n_hi % 2)
        object.__setattr__(self, "n_range", (n_lo, n_hi))
        t_lo, t_hi = self.t_range
        if t_lo < 1:
            raise ValueError(f"t_range must be positive, got lower end {t_lo}")

    def to_dict(self) -> dict:
        return {
            "mass_bound": self.mass_bound,
            "max_points": self.max_points,
            "n_range": list(self.n_range),
            "t_range": list(self.t_range),
            "self_int_range": None if self.self_int_range is None else list(self.self_int_range),
        }


def derive_bounds_v0(self_int_range: tuple[int, int]) -> SearchBounds:
    """Finite bounds covering every v = 0, t >= 1 class with C^2 in range.

    For such classes C.K = C^2 + 2 with C.K = sum m_i and m_i >= 1, so
    r <= sum m_i <= hi + 2; and n*t^2 = C^2 + sum m_i^2 <= hi + (hi+2)^2,
    bounding n (at t = 1) and t (at n = 2).
    """
    lo, hi = self_int_range
    if lo > hi:
        raise ValueError(f"empty self-intersection range [{lo}, {hi}]")
    sum_m_max = max(0, hi + 2)
    nt2_max = max(0, hi + sum_m_max * sum_m_max)
    return SearchBounds(
        mass_bound=nt2_max + 2,
        max_points=sum_m_max,
        n_range=(2, nt2_max),
        t_range=(1, isqrt(nt2_max // 2)),
        self_int_range=(lo, hi),
    )


@dataclass(frozen=True)
class NumericalClass:
    """A class (n, t, mults) with its recomputed v and C^2.

    Instances are only built through the enumerators, which recompute v and
    C^2 in the lattice; sort_key gives the report order (C^2, n, t, mults).
    """

    n: int
    t: int
    mults: tuple[int, ...]
    v: int
    c2: int

    @property
    def sort_key(self):
        return (self.c2, self.n, self.t, self.mults)

    def spec(self) -> LinearSystemSpec:
        return LinearSystemSpec(SurfaceParams(self.n), self.t, self.mults)

    def divisor_class(self) -> DivisorClass:
        return DivisorClass(SurfaceParams(self.n), self.t, self.mults)

    def literal(self) -> str:
        return self.spec().literal()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "mults": list(self.mults),
            "v": self.v,
            "c2": self.c2,
            "literal": self.literal(),
        }


@dataclass(frozen=True)
class Certificate:
    """Replayable record of one violation or permitted exception.

    `data` holds every input and intermediate integer needed to re-verify
    the claim with lattice operations alone.
    """

    kind: str
    message: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "data": self.data}


@dataclass
class VerificationReport:
    name: str
    bounds: dict
    checked_count: int
    violations: tuple[Certificate, ...]
    expected_exceptions_found: tuple[Certificate, ...]
    elapsed: float
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

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
    """All non-increasing vectors of multiplicities >= 1 within the bounds."""

    def extend(prefix, mass_left, sum_left, cap):
        yield prefix
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


def _v0_classes(bounds: SearchBounds) -> tuple[list[NumericalClass], int]:
    """All v = 0 classes with t >= 1 in bounds, sorted, plus the probe count.

    v = 0 for t >= 1 is equivalent to n*t^2 = mass - 2 with mass equal to
    sum m_i(m_i+1), so for each multiplicity vector the (n, t) solutions are
    read off the divisors of mass - 2, and C^2 = n*t^2 - sum m_i^2 is
    sum m_i - 2.
    """
    lo_c2, hi_c2 = bounds.self_int_range if bounds.self_int_range else (None, None)
    sum_bound = None if hi_c2 is None else max(0, hi_c2 + 2)
    n_lo, n_hi = bounds.n_range
    t_lo, t_hi = bounds.t_range
    found = []
    probes = 0
    for mults in _mult_vectors(bounds.max_points, bounds.mass_bound, sum_bound):
        target = _mass(mults) - 2
        if target < 2:
            continue
        if lo_c2 is not None and not (lo_c2 <= sum(mults) - 2 <= hi_c2):
            continue
        for t in range(t_lo, min(t_hi, isqrt(target // 2)) + 1):
            probes += 1
            tt = t * t
            if target % tt != 0:
                continue
            n = target // tt
            if n % 2 != 0 or not (n_lo <= n <= n_hi):
                continue
            found.append(NumericalClass(n=n, t=t, mults=mults, v=0, c2=sum(mults) - 2))
    found.sort(key=lambda c: c.sort_key)
    return found, probes


def enumerate_v0_classes(self_int_range: tuple[int, int]) -> list[NumericalClass]:
    """Every (n, t >= 1, mults) with v = 0 and C^2 in the range, sorted."""
    classes, _ = _v0_classes(derive_bounds_v0(self_int_range))
    return classes


def _table_entry(n, t, mults, c2):
    return NumericalClass(n=n, t=t, mults=mults, v=0, c2=c2)


# The five v = 0 classes with t >= 1 and C^2 <= 1 (none exist at C^2 <= -1).
LEMMA_TABLE = (
    _table_entry(2, 1, (1, 1), 0),
    _table_entry(4, 1, (2,), 0),
    _table_entry(4, 1, (1, 1, 1), 1),
    _table_entry(6, 1, (2, 1), 1),
    _table_entry(10, 1, (3,), 1),
)

_TABLE_C2_WINDOW = (-2, 1)

_EXCEPTIONAL_NOTE = (
    "t = 0 case handled out-of-band: the exceptional classes E_i have v = 0, "
    "C^2 = -1 and h^2 = 1; the table covers t >= 1 only."
)


def verify_lemma_table(
    self_int_range: tuple[int, int] = _TABLE_C2_WINDOW,
    expected=LEMMA_TABLE,
) -> VerificationReport:
    """Compare the enumerated v = 0 classes against the expected table.

    Classes inside the C^2 window [-2, 1] must match `expected` as a set;
    classes outside the window (reachable when the range is widened) are
    reported as outside-table-scope exceptions, never as violations.
    checked_count is the number of (vector, t) divisibility probes.
    """
    start = time.perf_counter()
    bounds = derive_bounds_v0(self_int_range)
    classes, probes = _v0_classes(bounds)
    scope_lo = max(self_int_range[0], _TABLE_C2_WINDOW[0])
    scope_hi = min(self_int_range[1], _TABLE_C2_WINDOW[1])
    in_scope = {c for c in classes if scope_lo <= c.c2 <= scope_hi}
    out_of_scope = [c for c in classes if not (scope_lo <= c.c2 <= scope_hi)]
    expected_in_scope = {c for c in expected if scope_lo <= c.c2 <= scope_hi}

    violations = []
    for c in sorted(expected_in_scope - in_scope, key=lambda c: c.sort_key):
        violations.append(
            Certificate("missing-class", f"expected class {c.literal()} was not found", c.to_dict())
        )
    for c in sorted(in_scope - expected_in_scope, key=lambda c: c.sort_key):
        violations.append(
            Certificate("unexpected-class", f"found class {c.literal()} not in the table", c.to_dict())
        )
    exceptions = [
        Certificate(
            "outside-table-scope",
            f"class {c.literal()} has C^2 = {c.c2}, outside the table window",
            c.to_dict(),
        )
        for c in out_of_scope
    ]
    return VerificationReport(
        name="lemma-table",
        bounds=bounds.to_dict(),
        checked_count=probes,
        violations=tuple(violations),
        expected_exceptions_found=tuple(exceptions),
        elapsed=time.perf_counter() - start,
        notes=(_EXCEPTIONAL_NOTE,),
        details={
            "classes": [c.to_dict() for c in classes],
            "expected": [c.to_dict() for c in sorted(expected_in_scope, key=lambda c: c.sort_key)],
        },
    )


def _alignments(a: tuple[int, ...], b: tuple[int, ...], symmetric: bool):
    """Distinct identifications of base points between two multiplicity vectors.

    A matching is a multiset of (a-value, b-value) pairs; it is encoded as a
    sorted tuple of (a_val, b_val, count) with count >= 1.  Enumeration runs
    over count matrices between distinct values, so permutations of equal
    multiplicities never produce duplicates.  For symmetric (self) pairs,
    matchings equal to their own transpose-dual are kept once.
    """
    av = sorted(Counter(a).items(), reverse=True)
    bv = sorted(Counter(b).items(), reverse=True)
    results = []

    def over_a(i, caps, matched):
        if i == len(av):
            results.append(tuple(sorted(matched)))
            return
        aval, acnt = av[i]

        def over_b(j, rem, caps_now, cur):
            if j == len(bv):
                over_a(i + 1, caps_now, matched + cur)
                return
            bval = bv[j][0]
            for take in range(min(rem, caps_now[j]) + 1):
                nxt = caps_now
                add = cur
                if take:
                    nxt = list(caps_now)
                    nxt[j] -= take
                    add = cur + [(aval, bval, take)]
                over_b(j + 1, rem - take, nxt, add)

        over_b(0, acnt, caps, [])

    over_a(0, [cnt for _, cnt in bv], [])
    if symmetric:
        deduped = []
        for m in results:
            dual = tuple(sorted((y, x, c) for x, y, c in m))
            if m <= dual:
                deduped.append(m)
        results = deduped
    return results


def _aligned_vectors(a, b, matching):
    """Zero-padded coefficient vectors realizing a matching positionally."""
    rest_a = Counter(a)
    rest_b = Counter(b)
    la, lb = [], []
    for x, y, cnt in matching:
        la.extend([x] * cnt)
        lb.extend([y] * cnt)
        rest_a[x] -= cnt
        rest_b[y] -= cnt
    for x, cnt in sorted(rest_a.items(), reverse=True):
        la.extend([x] * cnt)
        lb.extend([0] * cnt)
    for y, cnt in sorted(rest_b.items(), reverse=True):
        la.extend([0] * cnt)
        lb.extend([y] * cnt)
    return tuple(la), tuple(lb)


# Aligned self-pairs allowed to fail the pair inequality, with v(C+C') = -1.
PERMITTED_PAIR_EXCEPTIONS = ((2, 1, (1, 1)), (4, 1, (2,)))

_PAIR_NOTE = (
    "pairs of classes with C^2 >= 1 pass by the Hodge index theorem "
    "(C.C' >= sqrt(C^2 C'^2) >= 1, so v(C + C') = C.C' - 1 >= 0) and are not "
    "evaluated; every pair with a C^2 = 0 class is evaluated over its alignments."
)


def verify_pair_inequality(
    bounds: SearchBounds | None = None,
    *,
    mass_bound: int = 200,
    max_points: int = 6,
    max_n: int = 40,
) -> VerificationReport:
    """Check v(C + C') >= 0 for all same-surface pairs of v = 0 classes.

    Every identification of base points (zero-padded alignment) counts as a
    distinct pair configuration.  Since v(C + C') = v(C) + v(C') + C.C' - 1
    = C.C' - 1, a pair fails only at an alignment with C.C' <= 0.  The Hodge
    index theorem decides most pairs without evaluating them.  The lattice
    diag(n, -1, ..., -1) has signature (1, r); every class has t >= 1, so
    C.H = n*t > 0, and C^2 = sum m_i - 2 >= 0 (no v = 0 class has C^2 < 0,
    see LEMMA_TABLE); aligning permutes and zero-pads l, keeping squares.
    If both squares are >= 1, reverse Cauchy-Schwarz gives
    C.C' >= sqrt(C^2 C'^2) >= 1.  If C^2 = 0 < C'^2, the isotropic C is not
    in the negative-definite C'^perp and lies in the same half of the
    positive cone, so again C.C' >= 1.  The only C^2 = 0 classes,
    L2(1;1^2) and L4(1;2), lie on different surfaces, so each meets only
    itself, and C.C' = 0 only at the fully aligned alignment.

    Each surface's classes are sorted by C^2, so only its leading C^2 = 0
    rows are evaluated, against all their partners: the worst alignment
    first (both sorted vectors overlapping, by the rearrangement
    inequality), the full alignment set only when that dips below zero.
    checked_count counts every unordered same-surface pair, proved or
    evaluated; details["alignments_checked"] counts alignments evaluated.
    """
    start = time.perf_counter()
    if bounds is None:
        bounds = SearchBounds(
            mass_bound=mass_bound,
            max_points=max_points,
            n_range=(2, max_n),
            t_range=(1, max(1, isqrt(max(0, mass_bound - 2) // 2))),
        )
    classes, _ = _v0_classes(bounds)
    by_n: dict[int, list[NumericalClass]] = {}
    for c in classes:
        by_n.setdefault(c.n, []).append(c)

    checked = 0
    alignments_checked = 0
    violations = []
    exceptions = []
    for n in sorted(by_n):
        surface = SurfaceParams(n)
        group = by_n[n]
        checked += len(group) * (len(group) + 1) // 2
        for i, ca in enumerate(group):
            if ca.c2 >= 1:
                break  # sorted by C^2: every remaining pair has both squares >= 1
            for cb in group[i:]:
                # worst alignment: both sorted vectors overlap index by index
                la = ca.mults + (0,) * max(0, len(cb.mults) - len(ca.mults))
                lb = cb.mults + (0,) * max(0, len(ca.mults) - len(cb.mults))
                a_cls = DivisorClass(surface, ca.t, la)
                b_cls = DivisorClass(surface, cb.t, lb)
                alignments_checked += 1
                if virtual_dimension(a_cls + b_cls) >= 0:
                    continue
                is_self = ca == cb
                for matching in _alignments(ca.mults, cb.mults, symmetric=is_self):
                    va, vb = _aligned_vectors(ca.mults, cb.mults, matching)
                    a_al = DivisorClass(surface, ca.t, va)
                    b_al = DivisorClass(surface, cb.t, vb)
                    alignments_checked += 1
                    v_sum = virtual_dimension(a_al + b_al)
                    if v_sum >= 0:
                        continue
                    matched_count = sum(cnt for _, _, cnt in matching)
                    fully_aligned = (
                        is_self
                        and matched_count == len(ca.mults)
                        and all(x == y for x, y, _ in matching)
                    )
                    cert = Certificate(
                        kind="pair-inequality",
                        message=(
                            f"v({ca.literal()} + {cb.literal()}) = {v_sum} < 0 "
                            f"at alignment {list(matching)}"
                        ),
                        data={
                            "n": n,
                            "t1": ca.t,
                            "mults1": list(ca.mults),
                            "t2": cb.t,
                            "mults2": list(cb.mults),
                            "aligned_l1": list(va),
                            "aligned_l2": list(vb),
                            "intersection": intersect(a_al, b_al),
                            "v1": virtual_dimension(a_al),
                            "v2": virtual_dimension(b_al),
                            "v_sum": v_sum,
                        },
                    )
                    permitted = (
                        fully_aligned
                        and (n, ca.t, ca.mults) in PERMITTED_PAIR_EXCEPTIONS
                        and v_sum == -1
                    )
                    (exceptions if permitted else violations).append(cert)
    return VerificationReport(
        name="pair-inequality",
        bounds=bounds.to_dict(),
        checked_count=checked,
        violations=tuple(violations),
        expected_exceptions_found=tuple(exceptions),
        elapsed=time.perf_counter() - start,
        notes=(_PAIR_NOTE,),
        details={"v0_classes": len(classes), "alignments_checked": alignments_checked},
    )


def verify_addition_identity(
    samples: int = 10_000, seed: int = DEFAULT_IDENTITY_SEED
) -> VerificationReport:
    """Exact check of chi and v additivity on seeded random classes.

    Generated classes have t >= 1 so h^2 vanishes for A, B and A + B and
    the v identity applies; coefficients may be negative, exercising the
    identities beyond fat-point systems.  checked_count counts sample pairs.
    A negative samples raises ValueError.
    """
    import random

    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    start = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    for index in range(samples):
        n = 2 * rng.randint(1, 10)
        surface = SurfaceParams(n)

        def rand_class():
            r = rng.randint(0, 6)
            return DivisorClass(
                surface, rng.randint(1, 8), tuple(rng.randint(-4, 9) for _ in range(r))
            )

        a, b = rand_class(), rand_class()
        ab = intersect(a, b)
        chi_lhs = euler_characteristic(a + b)
        chi_rhs = euler_characteristic(a) + euler_characteristic(b) + ab - 2
        v_lhs = virtual_dimension(a + b)
        v_rhs = virtual_dimension(a) + virtual_dimension(b) + ab - 1
        for name, lhs, rhs in (("chi", chi_lhs, chi_rhs), ("v", v_lhs, v_rhs)):
            if lhs != rhs:
                violations.append(
                    Certificate(
                        kind=f"{name}-additivity",
                        message=f"{name} additivity failed at sample {index}: {lhs} != {rhs}",
                        data={
                            "sample": index,
                            "n": n,
                            "t1": a.t,
                            "l1": list(a.l),
                            "t2": b.t,
                            "l2": list(b.l),
                            "intersection": ab,
                            "lhs": lhs,
                            "rhs": rhs,
                        },
                    )
                )
    return VerificationReport(
        name="addition-identity",
        bounds={"samples": samples, "seed": seed},
        checked_count=samples,
        violations=tuple(violations),
        expected_exceptions_found=(),
        elapsed=time.perf_counter() - start,
        details={"seed": seed},
    )


_HUNT_NOTE = (
    "any certificate from this scan is an implementation fault, not a counterexample: "
    "decompose makes every v < 0 spec outside the two special families EMPTY, and the "
    "other structure patterns all have v >= 0, so the scan compares decompose with its "
    "own patterns and the patterns with each other."
)


def hunt_counterexamples(
    bounds: SearchBounds | None = None,
    *,
    max_n: int = 10,
    max_degree: int = 6,
    mass_bound: int = 60,
    max_points: int | None = None,
    decompose_fn=None,
    patterns_fn=None,
) -> VerificationReport:
    """Coherence scan of the classifier over all specs within bounds.

    Checks: (a) every spec with v < 0 is EMPTY or one of the two special
    families; (c) no spec matches two structure patterns.  There is no
    pair check: v(C + C') = 0 <=> C.C' = 1 for v = 0 classes is the v
    additivity identity, which verify_addition_identity covers.
    decompose_fn/patterns_fn exist for harness self-tests.  checked_count
    counts scanned specs.  Negative mass_bound or max_points raise
    ValueError; empty n and degree ranges scan nothing.
    """
    start = time.perf_counter()
    if bounds is not None:
        max_n = bounds.n_range[1]
        max_degree = bounds.t_range[1]
        mass_bound = bounds.mass_bound
        max_points = bounds.max_points
    if max_points is None:
        max_points = mass_bound // 2
    if mass_bound < 0 or max_points < 0:
        raise ValueError("mass_bound and max_points must be >= 0")
    decompose_fn = decompose_fn or classify.decompose
    patterns_fn = patterns_fn or classify.pattern_matches

    # The (n, d) grid, each cell with v of its spec without points and the
    # cell's certificates; each SurfaceParams is checked once, and d >= 0
    # comes from the range.
    surfaces = [(n, SurfaceParams(n)) for n in range(2, max_n + 1, 2)]
    grid = [
        (surface, n, d, n * d * d // 2 + 1, [])
        for n, surface in surfaces
        for d in range(0, max_degree + 1)
    ]
    new_spec = LinearSystemSpec._from_canonical
    vector_count = 0
    # One vector at a time, checked once and then reused for every cell.
    for mults in _mult_vectors(max_points, mass_bound):
        classify._check_spec_fields(0, mults)
        vector_count += 1
        conditions = _mass(mults) // 2
        for surface, n, d, v_no_points, certs in grid:
            spec = new_spec(surface, d, mults)
            patterns = patterns_fn(spec)
            if len(patterns) > 1:
                certs.append(
                    Certificate(
                        kind="branch-overlap",
                        message=f"{spec.literal()} matches patterns {list(patterns)}",
                        data={"n": n, "d": d, "mults": list(mults), "patterns": list(patterns)},
                    )
                )
            if d >= 1:
                v = v_no_points - conditions  # = classify.virtual_dim(spec)
                if v < 0:
                    dec = decompose_fn(spec)
                    if dec.member_kind is not classify.MemberKind.EMPTY and not dec.is_special:
                        certs.append(
                            Certificate(
                                kind="speciality-candidate",
                                message=(
                                    f"{spec.literal()} has v = {v} < 0 but is neither empty "
                                    f"nor in a special family"
                                ),
                                data={
                                    "n": n,
                                    "d": d,
                                    "mults": list(mults),
                                    "v": v,
                                    "member_kind": dec.member_kind.name,
                                },
                            )
                        )
    # Cell by cell, the certificates are in (n, d, vector) order.
    violations = tuple(cert for *_, certs in grid for cert in certs)
    specs_scanned = vector_count * len(grid)

    return VerificationReport(
        name="counterexample-hunt",
        bounds={
            "max_n": max_n,
            "max_degree": max_degree,
            "mass_bound": mass_bound,
            "max_points": max_points,
        },
        checked_count=specs_scanned,
        violations=violations,
        expected_exceptions_found=(),
        elapsed=time.perf_counter() - start,
        notes=(_HUNT_NOTE,),
        details={"specs_scanned": specs_scanned},
    )
