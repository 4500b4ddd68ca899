"""Verifier: bounds, enumeration vs naive oracle, the four checks, fixtures.

The naive grid scan below is the intentionally dumb second implementation:
it loops over the raw (n, t, mults) grid and tests v = 0 through the
lattice, with no divisibility shortcuts.  The naive pair scan is the
brute-force pair search that evaluates every same-surface pair, which the
verifier replaces with the Hodge index argument for pairs of classes with
C^2 >= 1.  The naive hunt scan is the grid loop that rebuilds the
multiplicity vectors for every (n, d) and asks classify for every v.
"""

import dataclasses
import tracemalloc
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from k3linsys import classify
from k3linsys.classify import LinearSystemSpec, MemberKind, decompose
from k3linsys.lattice import (
    DivisorClass,
    SurfaceParams,
    intersect,
    self_intersection,
    virtual_dimension,
)
from k3linsys.verify import (
    LEMMA_TABLE,
    PERMITTED_PAIR_EXCEPTIONS,
    Certificate,
    NumericalClass,
    SearchBounds,
    _HUNT_NOTE,
    VerificationReport,
    _aligned_vectors,
    _alignments,
    _mult_vectors,
    _v0_classes,
    derive_bounds_v0,
    enumerate_v0_classes,
    hunt_counterexamples,
    verify_addition_identity,
    verify_lemma_table,
    verify_pair_inequality,
)


def naive_v0_scan(lo, hi):
    """Raw grid scan; returns {(n, t, mults)} with v = 0 and C^2 in range."""
    out = set()
    sum_max = hi + 2
    if sum_max < 0:
        return out
    nt2_max = hi + sum_max * sum_max
    for n in range(2, nt2_max + 1, 2):
        for t in range(1, isqrt(max(0, nt2_max // 2)) + 1):
            if n * t * t > nt2_max:
                break
            for r in range(0, sum_max + 1):
                for combo in combinations_with_replacement(range(1, sum_max + 1), r):
                    mults = tuple(sorted(combo, reverse=True))
                    if sum(mults) > sum_max:
                        continue
                    d = DivisorClass(SurfaceParams(n), t, mults)
                    if virtual_dimension(d) == 0 and lo <= self_intersection(d) <= hi:
                        out.add((n, t, mults))
    return out


def naive_pair_scan(bounds):
    """Every same-surface pair of v = 0 classes: the worst alignment, and on
    a dip below zero every alignment.  Returns the report fields the proof
    must not change."""
    classes, _ = _v0_classes(bounds)
    checked, violations, exceptions = 0, [], []
    for i, ca in enumerate(classes):
        for cb in classes[i:]:
            if cb.n != ca.n:
                continue
            checked += 1
            surface = SurfaceParams(ca.n)
            width = max(len(ca.mults), len(cb.mults))
            a_cls = DivisorClass(surface, ca.t, ca.mults + (0,) * (width - len(ca.mults)))
            b_cls = DivisorClass(surface, cb.t, cb.mults + (0,) * (width - len(cb.mults)))
            if virtual_dimension(a_cls + b_cls) >= 0:
                continue
            is_self = ca == cb
            for matching in _alignments(ca.mults, cb.mults, symmetric=is_self):
                va, vb = _aligned_vectors(ca.mults, cb.mults, matching)
                a_al = DivisorClass(surface, ca.t, va)
                b_al = DivisorClass(surface, cb.t, vb)
                v_sum = virtual_dimension(a_al + b_al)
                if v_sum >= 0:
                    continue
                cert = Certificate(
                    kind="pair-inequality",
                    message=(
                        f"v({ca.literal()} + {cb.literal()}) = {v_sum} < 0 "
                        f"at alignment {list(matching)}"
                    ),
                    data={
                        "n": ca.n,
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
                fully_aligned = (
                    is_self
                    and sum(cnt for _, _, cnt in matching) == len(ca.mults)
                    and all(x == y for x, y, _ in matching)
                )
                permitted = (
                    fully_aligned
                    and (ca.n, ca.t, ca.mults) in PERMITTED_PAIR_EXCEPTIONS
                    and v_sum == -1
                )
                (exceptions if permitted else violations).append(cert.to_dict())
    return {
        "passed": not violations,
        "checked_count": checked,
        "bounds": bounds.to_dict(),
        "violations": violations,
        "expected_exceptions_found": exceptions,
        "v0_classes": len(classes),
    }


def naive_hunt_scan(max_n, max_degree, mass_bound, max_points, decompose_fn, patterns_fn):
    """hunt_counterexamples' checks, with the vectors enumerated per (n, d)
    and v from classify.virtual_dim per spec."""
    violations = []
    scanned = 0
    for n in range(2, max_n + 1, 2):
        for d in range(0, max_degree + 1):
            for mults in _mult_vectors(max_points, mass_bound):
                spec = LinearSystemSpec(SurfaceParams(n), d, mults)
                scanned += 1
                patterns = patterns_fn(spec)
                if len(patterns) > 1:
                    violations.append(
                        Certificate(
                            kind="branch-overlap",
                            message=f"{spec.literal()} matches patterns {list(patterns)}",
                            data={"n": n, "d": d, "mults": list(mults), "patterns": list(patterns)},
                        )
                    )
                v = classify.virtual_dim(spec)
                if d >= 1 and v < 0:
                    dec = decompose_fn(spec)
                    if dec.member_kind is not MemberKind.EMPTY and not dec.is_special:
                        violations.append(
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
    return VerificationReport(
        name="counterexample-hunt",
        bounds={
            "max_n": max_n,
            "max_degree": max_degree,
            "mass_bound": mass_bound,
            "max_points": max_points,
        },
        checked_count=scanned,
        violations=tuple(violations),
        expected_exceptions_found=(),
        elapsed=0.0,
        notes=(_HUNT_NOTE,),
        details={"specs_scanned": scanned},
    )


def overlapping_patterns(spec):
    return (1, 2)


def bad_decompose(spec):
    dec = decompose(spec)
    if dec.member_kind is MemberKind.EMPTY:
        return dataclasses.replace(dec, member_kind=MemberKind.IRREDUCIBLE)
    return dec


_HUNT_INJECTIONS = {
    "default": {},
    "overlapping": {"patterns_fn": overlapping_patterns},
    "bad-decompose": {"decompose_fn": bad_decompose},
}


class TestSearchBounds:
    def test_derivation_table_window(self):
        b = derive_bounds_v0((-2, 1))
        assert b.max_points == 3  # sum m_i <= C^2 + 2 <= 3
        assert b.mass_bound == 12  # n t^2 <= 10, mass = n t^2 + 2
        assert b.n_range == (2, 10)
        assert b.t_range == (1, 2)

    def test_derivation_single_point(self):
        b = derive_bounds_v0((0, 0))
        assert b.max_points == 2
        assert b.mass_bound == 6  # n t^2 <= 4
        assert b.n_range == (2, 4)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty self-intersection range"):
            derive_bounds_v0((5, 4))

    def test_n_range_clamped_even(self):
        b = SearchBounds(mass_bound=10, max_points=3, n_range=(3, 9), t_range=(1, 2))
        assert b.n_range == (4, 8)

    def test_t_range_positive(self):
        with pytest.raises(ValueError, match="t_range must be positive"):
            SearchBounds(mass_bound=10, max_points=3, n_range=(2, 8), t_range=(0, 2))


class TestEnumeration:
    def test_c2_zero_row(self):
        got = {(c.n, c.t, c.mults) for c in enumerate_v0_classes((0, 0))}
        assert got == {(4, 1, (2,)), (2, 1, (1, 1))}

    def test_c2_one_row(self):
        got = {(c.n, c.t, c.mults) for c in enumerate_v0_classes((1, 1))}
        assert got == {(4, 1, (1, 1, 1)), (6, 1, (2, 1)), (10, 1, (3,))}

    def test_negative_c2_empty(self):
        assert enumerate_v0_classes((-2, -1)) == []

    def test_sorted_lexicographically(self):
        classes = enumerate_v0_classes((-2, 2))
        keys = [c.sort_key for c in classes]
        assert keys == sorted(keys)

    def test_recomputed_invariants(self):
        # The enumerator reads v = 0 and C^2 off n*t^2 = sum m(m+1) - 2;
        # the lattice recomputes both.
        for c in enumerate_v0_classes((-2, 8)):
            d = c.divisor_class()
            assert virtual_dimension(d) == c.v == 0
            assert self_intersection(d) == c.c2 == sum(c.mults) - 2

    def test_widened_window_c2_two(self):
        # frozen by hand from n t^2 = sum m(m+1) - 2 over sum m = 4 vectors
        got = {c.literal() for c in enumerate_v0_classes((2, 2))}
        assert got == {
            "L18(1;4)",
            "L2(3;4)",
            "L12(1;3,1)",
            "L10(1;2^2)",
            "L8(1;2,1^2)",
            "L2(2;2,1^2)",
            "L6(1;1^4)",
        }

    def test_matches_naive_oracle_table_window(self):
        fast = {(c.n, c.t, c.mults) for c in enumerate_v0_classes((-2, 1))}
        assert fast == naive_v0_scan(-2, 1)

    def test_matches_naive_oracle_widened(self):
        fast = {(c.n, c.t, c.mults) for c in enumerate_v0_classes((-2, 2))}
        assert fast == naive_v0_scan(-2, 2)

    def test_bound_monotonicity(self):
        small = set(enumerate_v0_classes((-2, 1)))
        big = set(enumerate_v0_classes((-2, 2)))
        bigger = set(enumerate_v0_classes((-2, 3)))
        assert small <= big <= bigger


class TestLemmaTable:
    def test_passes(self):
        report = verify_lemma_table()
        assert report.passed
        assert report.checked_count >= 5
        assert len(report.details["classes"]) == 5
        assert report.expected_exceptions_found == ()
        assert any("E_i" in note for note in report.notes)

    def test_expected_constant_is_sorted(self):
        keys = [c.sort_key for c in LEMMA_TABLE]
        assert keys == sorted(keys)

    def test_perturbed_expectation_missing(self):
        # the fake entry sits inside the window so it must be reported missing
        fake = LEMMA_TABLE + (NumericalClass(n=2, t=1, mults=(1,), v=0, c2=-1),)
        report = verify_lemma_table(expected=fake)
        assert not report.passed
        assert [c.kind for c in report.violations] == ["missing-class"]

    def test_perturbed_expectation_unexpected(self):
        shorter = LEMMA_TABLE[:-1]
        report = verify_lemma_table(expected=shorter)
        assert not report.passed
        assert [c.kind for c in report.violations] == ["unexpected-class"]
        assert report.violations[0].data["literal"] == "L10(1;3)"

    def test_widened_scope_reports_exceptions_not_violations(self):
        report = verify_lemma_table(self_int_range=(-2, 2))
        assert report.passed
        kinds = {c.kind for c in report.expected_exceptions_found}
        assert kinds == {"outside-table-scope"}
        assert len(report.expected_exceptions_found) == 7

    def test_determinism(self):
        a = verify_lemma_table()
        b = verify_lemma_table()
        assert a.canonical_json() == b.canonical_json()
        assert a.elapsed >= 0.0


class TestAlignments:
    def test_counts_two_ones(self):
        assert len(_alignments((1, 1), (1, 1), symmetric=False)) == 3
        assert len(_alignments((1, 1), (1, 1), symmetric=True)) == 3

    def test_counts_two_one(self):
        assert len(_alignments((2, 1), (2, 1), symmetric=False)) == 7
        assert len(_alignments((2, 1), (2, 1), symmetric=True)) == 6

    def test_empty_vectors(self):
        assert _alignments((), (), symmetric=False) == [()]

    def test_aligned_vector_realization(self):
        la, lb = _aligned_vectors((2, 1), (2, 1), ((1, 2, 1),))
        assert la == (1, 2, 0)
        assert lb == (2, 0, 1)

    def test_full_overlap_realization(self):
        la, lb = _aligned_vectors((1, 1), (1, 1), ((1, 1, 2),))
        assert la == (1, 1) and lb == (1, 1)

    def test_disjoint_realization(self):
        la, lb = _aligned_vectors((1, 1), (1, 1), ())
        assert la == (1, 1, 0, 0) and lb == (0, 0, 1, 1)


class TestPairInequality:
    def test_small_scan_finds_exactly_the_two_exceptions(self):
        report = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        assert report.passed
        assert len(report.expected_exceptions_found) == 2
        keys = {
            (c.data["n"], c.data["t1"], tuple(c.data["mults1"])) for c in report.expected_exceptions_found
        }
        assert keys == {(2, 1, (1, 1)), (4, 1, (2,))}
        for c in report.expected_exceptions_found:
            assert c.data["v_sum"] == -1

    def test_disjoint_placement_is_safe(self):
        # the padding example: two point-pair curves at four distinct points
        a = DivisorClass(SurfaceParams(2), 1, (1, 1, 0, 0))
        b = DivisorClass(SurfaceParams(2), 1, (0, 0, 1, 1))
        assert virtual_dimension(a + b) == 1

    def test_certificates_replay_in_lattice(self):
        report = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        for cert in report.expected_exceptions_found:
            data = cert.data
            s = SurfaceParams(data["n"])
            a = DivisorClass(s, data["t1"], tuple(data["aligned_l1"]))
            b = DivisorClass(s, data["t2"], tuple(data["aligned_l2"]))
            assert virtual_dimension(a) == data["v1"] == 0
            assert virtual_dimension(b) == data["v2"] == 0
            assert intersect(a, b) == data["intersection"]
            assert virtual_dimension(a + b) == data["v_sum"]

    def test_zero_violations_at_assorted_bounds(self):
        for kwargs in (
            {"mass_bound": 30, "max_points": 3, "max_n": 20},
            {"mass_bound": 80, "max_points": 5, "max_n": 10},
        ):
            assert verify_pair_inequality(**kwargs).violations == ()

    def test_exception_monotonicity(self):
        small = verify_pair_inequality(mass_bound=30, max_points=3, max_n=10)
        big = verify_pair_inequality(mass_bound=60, max_points=4, max_n=14)
        small_keys = {c.canonical for c in map(_cert_key, small.expected_exceptions_found)}
        big_keys = {c.canonical for c in map(_cert_key, big.expected_exceptions_found)}
        assert small_keys <= big_keys

    def test_determinism(self):
        a = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        b = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        assert a.canonical_json() == b.canonical_json()

    def test_explicit_bounds_object(self):
        bounds = SearchBounds(mass_bound=40, max_points=4, n_range=(2, 12), t_range=(1, 4))
        report = verify_pair_inequality(bounds)
        assert report.bounds["mass_bound"] == 40
        assert report.passed

    @pytest.mark.parametrize(
        "bounds,exceptions",
        [
            # only L2(1;1^2) is reachable
            (SearchBounds(mass_bound=5, max_points=2, n_range=(2, 4), t_range=(1, 1)), 1),
            # no C^2 = 0 class: every pair is decided by the proof
            (SearchBounds(mass_bound=60, max_points=4, n_range=(6, 20), t_range=(1, 5)), 0),
            (SearchBounds(mass_bound=120, max_points=6, n_range=(2, 30), t_range=(2, 7)), 0),
            (SearchBounds(mass_bound=0, max_points=0, n_range=(2, 10), t_range=(1, 1)), 0),
            (SearchBounds(mass_bound=40, max_points=4, n_range=(2, 12), t_range=(1, 4)), 2),
            (SearchBounds(mass_bound=80, max_points=5, n_range=(2, 20), t_range=(1, 6)), 2),
            (SearchBounds(mass_bound=120, max_points=6, n_range=(2, 40), t_range=(1, 7)), 2),
        ],
    )
    def test_matches_brute_force_oracle(self, bounds, exceptions):
        naive = naive_pair_scan(bounds)
        report = verify_pair_inequality(bounds)
        got = report.to_dict()
        for key in ("passed", "checked_count", "bounds", "violations", "expected_exceptions_found"):
            assert got[key] == naive[key], key
        assert report.details["v0_classes"] == naive["v0_classes"]
        assert len(report.expected_exceptions_found) == exceptions
        assert any("Hodge index" in note for note in report.notes)


@dataclasses.dataclass(frozen=True)
class _cert_key:
    cert: object

    @property
    def canonical(self):
        import json

        return json.dumps(self.cert.to_dict(), sort_keys=True)


class TestAdditionIdentity:
    def test_passes_default(self):
        report = verify_addition_identity(samples=2000, seed=11)
        assert report.passed and report.checked_count == 2000

    def test_hand_examples(self):
        s = SurfaceParams(2)
        a = DivisorClass(s, 1, (1, 1))
        b = DivisorClass(s, 1, (1,))
        assert virtual_dimension(a + b) == 1 == 0 + 1 + intersect(a, b) - 1
        s4 = SurfaceParams(4)
        c = DivisorClass(s4, 1, (2,))
        assert virtual_dimension(c + c) == -1 == 0 + 0 + intersect(c, c) - 1

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 0, got -5"):
            verify_addition_identity(samples=-5)
        assert verify_addition_identity(samples=0).checked_count == 0

    def test_seed_recorded_and_deterministic(self):
        a = verify_addition_identity(samples=500, seed=99)
        b = verify_addition_identity(samples=500, seed=99)
        assert a.bounds == {"samples": 500, "seed": 99}
        assert a.canonical_json() == b.canonical_json()


class TestHunt:
    def test_clean_at_small_bounds(self):
        report = hunt_counterexamples(max_n=6, max_degree=3, mass_bound=24, max_points=5)
        assert report.passed
        assert report.details["specs_scanned"] > 0
        assert any("implementation fault" in note for note in report.notes)

    def test_broken_pattern_guard_reported(self):
        report = hunt_counterexamples(
            max_n=4, max_degree=2, mass_bound=8, patterns_fn=overlapping_patterns
        )
        assert not report.passed
        assert all(c.kind == "branch-overlap" for c in report.violations)

    def test_broken_decompose_reported(self):
        report = hunt_counterexamples(
            max_n=4, max_degree=2, mass_bound=8, decompose_fn=bad_decompose
        )
        assert not report.passed
        assert any(c.kind == "speciality-candidate" for c in report.violations)

    @pytest.mark.parametrize(
        "bounds,fns",
        [
            pytest.param(bounds, fns, id=f"{bounds}-{name}")
            for bounds in [(6, 3, 24, 5), (8, 5, 40, 0), (4, 0, 12, 6), (2, 4, 0, 0), (14, 9, 30, 3)]
            for name, fns in _HUNT_INJECTIONS.items()
        ]
        # the CLI defaults and the benchmark's hunt_grid bounds
        + [pytest.param(bounds, {}, id=f"{bounds}-default") for bounds in [(10, 6, 60, 30), (12, 7, 64, 32)]],
    )
    def test_matches_naive_scan(self, bounds, fns):
        bounds = dict(zip(("max_n", "max_degree", "mass_bound", "max_points"), bounds))
        naive = naive_hunt_scan(
            **bounds,
            decompose_fn=fns.get("decompose_fn", decompose),
            patterns_fn=fns.get("patterns_fn", classify.pattern_matches),
        )
        got = hunt_counterexamples(**bounds, **fns).canonical_json()
        want = naive.canonical_json()
        # compare around the first difference: a diff of the whole report is slow
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(0, at - 100), at + 100)
        assert got[window] == want[window]

    def test_holds_one_vector_at_a_time(self):
        # 11,619 vectors at mass 120; a list of them all peaks near 2.7 MB
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            report = hunt_counterexamples(max_n=2, max_degree=0, mass_bound=120)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert report.checked_count == 11_619
        assert peak < 500_000

    def test_determinism(self):
        a = hunt_counterexamples(max_n=4, max_degree=2, mass_bound=12)
        b = hunt_counterexamples(max_n=4, max_degree=2, mass_bound=12)
        assert a.canonical_json() == b.canonical_json()

    def test_bounds_object_accepted(self):
        bounds = SearchBounds(mass_bound=12, max_points=4, n_range=(2, 4), t_range=(1, 2))
        report = hunt_counterexamples(bounds)
        assert report.passed
        assert report.bounds["max_n"] == 4 and report.bounds["max_degree"] == 2


class TestReportShape:
    def test_to_dict_fields(self):
        report = verify_lemma_table()
        d = report.to_dict()
        assert set(d) == {
            "name",
            "passed",
            "bounds",
            "checked_count",
            "violations",
            "expected_exceptions_found",
            "notes",
            "details",
            "elapsed",
        }
        assert "elapsed" not in report.to_dict(include_elapsed=False)

    def test_passed_iff_no_violations(self):
        report = verify_lemma_table(expected=LEMMA_TABLE[:-1])
        assert report.passed == (not report.violations) == False  # noqa: E712
