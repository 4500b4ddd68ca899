"""Verifier: bounds, enumeration vs naive oracle, the three checks, fixtures.

The naive grid scan below is the intentionally dumb second implementation:
it loops over the raw (n, t, mults) grid and tests v = 0 through the
lattice, with no divisibility shortcuts.  The naive pair scan is the
brute-force pair search that evaluates every same-surface pair, which the
verifier replaces with the Hodge index argument for pairs of classes with
C^2 >= 1; on a dip it evaluates every alignment of the pair, from
_alignments, where the verifier evaluates the worst alignment alone.  The
naive hunt scan is the grid loop that rebuilds the multiplicity vectors for
every (n, d) and asks classify for every v.  The broken classifiers that
the checks must catch, and the broken lemma tables, are monkeypatched
into classify.
"""

import dataclasses
import os
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from k3linsys import classify, parts, verify
from k3linsys.classify import Decomposition, LinearSystemSpec, MemberKind, decompose
from k3linsys.lattice import (
    DivisorClass,
    SurfaceParams,
    intersect,
    self_intersection,
    virtual_dimension,
)
from k3linsys.verify import (
    Certificate,
    _HUNT_NOTE,
    VerificationReport,
    _mult_vectors,
    _pair_classes,
    class_record,
    derive_bounds_v0,
    enumerate_v0_classes,
    hunt_counterexamples,
    verify_lemma_table,
    verify_pair_inequality,
)
from oracles import v0_classes


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


def pair_bounds(mass_bound, max_points, max_n):
    """The bounds dict of verify_pair_inequality's report."""
    t_max = max(1, isqrt(max(0, mass_bound - 2) // 2))
    return {
        "mass_bound": mass_bound,
        "max_points": max_points,
        "n_range": [2, max_n - max_n % 2],
        "t_range": [1, t_max],
        "self_int_range": None,
    }


def naive_pair_scan(bounds):
    """Every same-surface pair of v = 0 classes: the worst alignment, and on
    a dip below zero every alignment.  Returns the report fields the proof
    must not change, and the number of pairs holding a C^2 = 0 class."""
    classes, _ = v0_classes(bounds)
    checked, isotropic_pairs, violations, exceptions = 0, 0, [], []
    for i, ca in enumerate(classes):
        for cb in classes[i:]:
            if cb.n != ca.n:
                continue
            checked += 1
            surface = SurfaceParams(ca.n)
            width = max(len(ca.mults), len(cb.mults))
            a_cls = DivisorClass(surface, ca.d, ca.mults + (0,) * (width - len(ca.mults)))
            b_cls = DivisorClass(surface, cb.d, cb.mults + (0,) * (width - len(cb.mults)))
            isotropic_pairs += self_intersection(a_cls) == 0 or self_intersection(b_cls) == 0
            if virtual_dimension(a_cls + b_cls) >= 0:
                continue
            is_self = ca == cb
            for matching in _alignments(ca.mults, cb.mults, symmetric=is_self):
                va, vb = _aligned_vectors(ca.mults, cb.mults, matching)
                a_al = DivisorClass(surface, ca.d, va)
                b_al = DivisorClass(surface, cb.d, vb)
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
                        "t1": ca.d,
                        "mults1": list(ca.mults),
                        "t2": cb.d,
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
                    and (ca.n, ca.d, ca.mults) in {(2, 1, (1, 1)), (4, 1, (2,))}
                    and v_sum == -1
                )
                (exceptions if permitted else violations).append(cert.to_dict())
    return {
        "passed": not violations,
        "checked_count": checked,
        "bounds": bounds,
        "violations": violations,
        "expected_exceptions_found": exceptions,
        "v0_classes": len(classes),
        "isotropic_pairs": isotropic_pairs,
    }


def report_key(spec):
    """The report order of a v = 0 class, read off its record."""
    record = class_record(spec)
    return record["c2"], record["n"], record["t"], record["mults"]


def naive_mult_vectors(max_points, mass_bound, sum_bound=None):
    """Every multiset of at most max_points multiplicities >= 1 within the
    mass (and sum) bound, as a non-increasing tuple."""
    top = (isqrt(4 * mass_bound + 1) - 1) // 2
    return [
        mults
        for r in range(max_points + 1)
        for mults in combinations_with_replacement(range(top, 0, -1), r)
        if sum(m * (m + 1) for m in mults) <= mass_bound
        and (sum_bound is None or sum(mults) <= sum_bound)
    ]


def naive_hunt_scan(max_n, max_degree, mass_bound, max_points):
    """hunt_counterexamples' check, with the vectors enumerated per (n, d)
    and v from classify.virtual_dim per spec."""
    violations = []
    scanned = 0
    for n in range(2, max_n + 1, 2):
        for d in range(0, max_degree + 1):
            for mults, _ in _mult_vectors(max_points, mass_bound):
                spec = LinearSystemSpec(SurfaceParams(n), d, mults)
                scanned += 1
                v = classify.virtual_dim(spec)
                if d >= 1 and v < 0:
                    dec = classify.decompose(spec)
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


# L2(2;4) = 2 L2(1;2) has v = -5, and L2(1;2) (v = -1) is no curve: with
# this entry the doubles pattern's guard admits a v < 0 spec.
_LOOSE_DOUBLE_CURVES = {**classify._DOUBLE_CURVES, (2, 2, (4,)): LinearSystemSpec(SurfaceParams(2), 1, (2,))}


def bad_decompose(spec):
    dec = decompose(spec)
    if dec.member_kind is MemberKind.EMPTY:
        return Decomposition(**{**vars(dec), "member_kind": MemberKind.IRREDUCIBLE})
    return dec


# classify attributes replaced by broken ones in hunt's tests
_HUNT_INJECTIONS = {
    "default": {},
    "loose-guard": {"_DOUBLE_CURVES": _LOOSE_DOUBLE_CURVES},
    "bad-decompose": {"decompose": bad_decompose},
}


class TestSearchBounds:
    def test_derivation_table_window(self):
        b = derive_bounds_v0((-2, 1))
        assert b["max_points"] == 3  # sum m_i <= C^2 + 2 <= 3
        assert b["mass_bound"] == 12  # n t^2 <= 10, mass = n t^2 + 2
        assert b["n_range"] == [2, 10]
        assert b["t_range"] == [1, 2]
        assert b["self_int_range"] == [-2, 1]

    def test_derivation_single_point(self):
        b = derive_bounds_v0((0, 0))
        assert b["max_points"] == 2
        assert b["mass_bound"] == 6  # n t^2 <= 4
        assert b["n_range"] == [2, 4]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty self-intersection range"):
            derive_bounds_v0((5, 4))

    def test_n_range_clamped_even(self):
        # the upper end rounds down to even, also below the lower end
        for max_n, n_range in ((9, [2, 8]), (8, [2, 8]), (1, [2, 0]), (-3, [2, -4])):
            assert verify_pair_inequality(mass_bound=10, max_points=3, max_n=max_n).bounds["n_range"] == n_range
        # the C^2 window's n*t^2 bound 1 + 3^2 = 10 is even, 2 + 4^2 = 18 too; -1 + 1 is 0
        assert [derive_bounds_v0((lo, hi))["n_range"] for lo, hi in ((0, 1), (-5, 2), (-3, -1))] == [
            [2, 10],
            [2, 18],
            [2, 0],
        ]

    def test_t_range_positive(self):
        # t starts at 1; the pair verifier's upper end is at least 1, and
        # t^2 <= (mass - 2) / 2 since n >= 2
        for mass_bound, t_range in ((0, [1, 1]), (5, [1, 1]), (6, [1, 1]), (40, [1, 4]), (200, [1, 9])):
            assert verify_pair_inequality(mass_bound=mass_bound, max_points=0, max_n=2).bounds["t_range"] == t_range
        assert [derive_bounds_v0(window)["t_range"] for window in ((-5, -3), (-2, 1), (0, 3))] == [
            [1, 0],
            [1, 2],
            [1, 3],
        ]


class TestEnumeration:
    def test_c2_zero_row(self):
        got = {(c.n, c.d, c.mults) for c in enumerate_v0_classes((0, 0))}
        assert got == {(4, 1, (2,)), (2, 1, (1, 1))}

    def test_c2_one_row(self):
        got = {(c.n, c.d, c.mults) for c in enumerate_v0_classes((1, 1))}
        assert got == {(4, 1, (1, 1, 1)), (6, 1, (2, 1)), (10, 1, (3,))}

    def test_negative_c2_empty(self):
        assert enumerate_v0_classes((-2, -1)) == []

    def test_sorted_lexicographically(self):
        keys = [report_key(c) for c in enumerate_v0_classes((-2, 2))]
        assert keys == sorted(keys)

    def test_recomputed_invariants(self):
        # The enumerator reads v = 0 and C^2 off n*t^2 = sum m(m+1) - 2, and
        # class_record computes both from the spec; the lattice recomputes them.
        for c in enumerate_v0_classes((-2, 8)):
            d, record = c.divisor_class(), class_record(c)
            assert virtual_dimension(d) == record["v"] == 0
            assert self_intersection(d) == record["c2"] == sum(c.mults) - 2
            assert (record["n"], record["t"], record["mults"]) == (c.n, c.d, list(c.mults))
            assert record["literal"] == c.literal()

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
        fast = {(c.n, c.d, c.mults) for c in enumerate_v0_classes((-2, 1))}
        assert fast == naive_v0_scan(-2, 1)

    def test_matches_naive_oracle_widened(self):
        fast = {(c.n, c.d, c.mults) for c in enumerate_v0_classes((-2, 2))}
        assert fast == naive_v0_scan(-2, 2)

    def test_cell_walk_matches_the_divisor_probe(self):
        # the cells of each mass against oracles.v0_classes, which reads each
        # vector's (n, t) off the divisors of its mass - 2
        for lo in range(-6, 5):
            for hi in range(lo, 15):
                expected, _ = v0_classes(derive_bounds_v0((lo, hi)))
                assert enumerate_v0_classes((lo, hi)) == expected, (lo, hi)
        # lemma-table checks one cell per even n <= n_hi and t >= 1 with
        # n*t^2 + 2 <= mass_bound
        bounds = derive_bounds_v0((-2, 1))
        cells = [
            (n, t)
            for n in range(2, bounds["n_range"][1] + 1, 2)
            for t in range(1, bounds["mass_bound"])
            if n * t * t + 2 <= bounds["mass_bound"]
        ]
        assert verify_lemma_table().checked_count == len(cells) == 6

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
        keys = [report_key(c) for c in classify.RIGID_CURVES]
        assert keys == sorted(keys)

    def test_perturbed_expectation_missing(self, monkeypatch):
        # the fake entry (v = 1) has C^2 = 1, inside the window, so it must be
        # reported missing
        fake = classify.RIGID_CURVES + (LinearSystemSpec(SurfaceParams(2), 1, (1,)),)
        monkeypatch.setattr(classify, "RIGID_CURVES", fake)
        report = verify_lemma_table()
        assert not report.passed
        assert [c.kind for c in report.violations] == ["missing-class"]
        assert report.violations[0].message == "expected class L2(1;1) was not found"

    def test_perturbed_expectation_unexpected(self, monkeypatch):
        monkeypatch.setattr(classify, "RIGID_CURVES", classify.RIGID_CURVES[:-1])
        report = verify_lemma_table()
        assert not report.passed
        assert [c.kind for c in report.violations] == ["unexpected-class"]
        assert report.violations[0].data["literal"] == "L10(1;3)"
        assert len(report.details["expected"]) == 4

    @pytest.mark.parametrize("index, literal", enumerate(["L2(1;1^2)", "L4(1;2)", "L4(1;1^3)", "L6(1;2,1)"]))
    def test_curve_removed_from_the_classifier_table(self, monkeypatch, index, literal):
        # The check reads classify's table at each call: the enumerator finds
        # the removed curve, which the table no longer lists.  The last curve
        # is the case above.
        table = classify.RIGID_CURVES
        monkeypatch.setattr(classify, "RIGID_CURVES", table[:index] + table[index + 1 :])
        report = verify_lemma_table()
        assert [(c.kind, c.data["literal"]) for c in report.violations] == [("unexpected-class", literal)]

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

    def test_permitted_pairs_are_the_classifier_tables(self, monkeypatch):
        # without L2(1;1^2) in classify's table, read at each call, its
        # aligned self-pair is a violation
        monkeypatch.setattr(classify, "RIGID_CURVES", classify.RIGID_CURVES[1:])
        report = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        assert [c.message for c in report.violations] == [
            "v(L2(1;1^2) + L2(1;1^2)) = -1 < 0 at alignment [(1, 1, 2)]"
        ]
        assert [c.message for c in report.expected_exceptions_found] == [
            "v(L4(1;2) + L4(1;2)) = -1 < 0 at alignment [(2, 2, 1)]"
        ]

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

    def test_keyword_defaults(self):
        # the bounds are keywords only, with plain defaults
        defaults = verify_pair_inequality(max_n=2).bounds
        assert defaults == {
            "mass_bound": 200,
            "max_points": 6,
            "n_range": [2, 2],
            "t_range": [1, 9],
            "self_int_range": None,
        }
        with pytest.raises(TypeError):
            verify_pair_inequality(pair_bounds(40, 4, 12))

    @pytest.mark.parametrize("mass_bound,max_points", [(-1, 6), (200, -1), (-3, -2)])
    def test_negative_bounds_rejected(self, mass_bound, max_points):
        with pytest.raises(ValueError, match=r"^mass_bound and max_points must be >= 0$"):
            verify_pair_inequality(mass_bound=mass_bound, max_points=max_points)

    @pytest.mark.parametrize(
        "bounds,exceptions",
        [
            # only L2(1;1^2) is reachable
            ({"mass_bound": 5, "max_points": 2, "max_n": 4}, 1),
            # no C^2 = 0 class, so every pair is decided by the proof: on n = 2
            # with one point, L2(3;4) alone; then an empty n range
            ({"max_points": 1, "max_n": 2}, 0),
            ({"mass_bound": 120, "max_points": 6, "max_n": 1}, 0),
            ({"mass_bound": 0, "max_points": 0, "max_n": 10}, 0),
            ({"mass_bound": 40, "max_points": 4, "max_n": 12}, 2),
            ({"mass_bound": 80, "max_points": 5, "max_n": 20}, 2),
            ({"mass_bound": 120, "max_points": 6, "max_n": 40}, 2),
            # only L4(1;2) is reachable
            ({"mass_bound": 6, "max_points": 1, "max_n": 4}, 1),
        ],
    )
    def test_matches_brute_force_oracle(self, bounds, exceptions):
        naive = naive_pair_scan(pair_bounds(**{"mass_bound": 200, **bounds}))
        report = verify_pair_inequality(**bounds)
        got = report.to_dict()
        for key in ("passed", "checked_count", "bounds", "violations", "expected_exceptions_found"):
            assert got[key] == naive[key], key
        assert report.details["v0_classes"] == naive["v0_classes"]
        # one worst alignment for each pair that holds a C^2 = 0 class
        assert report.details["alignments_checked"] == naive["isotropic_pairs"]
        assert len(report.expected_exceptions_found) == exceptions
        assert any("Hodge index" in note for note in report.notes)

    @pytest.mark.parametrize("dip,permitted", [(-1, 2), (-2, 0)])
    def test_dips_are_reported_once_at_the_worst_alignment(self, monkeypatch, dip, permitted):
        # A broken lattice where every evaluated pair dips to `dip`: each pair
        # gives one certificate, at its worst alignment, and only the two
        # aligned self-pairs at -1 are permitted.
        monkeypatch.setattr(verify, "virtual_dimension", lambda d: dip)
        report = verify_pair_inequality(mass_bound=40, max_points=4, max_n=12)
        exceptions = [c.message for c in report.expected_exceptions_found]
        assert exceptions == [
            "v(L2(1;1^2) + L2(1;1^2)) = -1 < 0 at alignment [(1, 1, 2)]",
            "v(L4(1;2) + L4(1;2)) = -1 < 0 at alignment [(2, 2, 1)]",
        ][:permitted]
        assert len(report.violations) + permitted == report.details["alignments_checked"] == 17
        by_message = {c.message: c.data for c in report.violations}
        for partner, runs, aligned in (
            ("L2(2;2,1^2)", "[(1, 1, 1), (1, 2, 1)]", ([1, 1, 0], [2, 1, 1])),
            ("L2(3;4)", "[(1, 4, 1)]", ([1, 1], [4, 0])),
        ):
            data = by_message[f"v(L2(1;1^2) + {partner}) = {dip} < 0 at alignment {runs}"]
            assert (data["aligned_l1"], data["aligned_l2"]) == aligned

    def test_every_alignment_of_every_pair(self):
        # The proof with no shortcut: every alignment of every same-surface
        # pair, 57 classes and 5,428 alignments.  Only the two fully aligned
        # self-pairs dip, to v = -1, each at its pair's worst alignment.
        classes, _ = v0_classes(pair_bounds(60, 4, 14))
        dips, alignments = [], 0
        for i, ca in enumerate(classes):
            for cb in classes[i:]:
                if cb.n != ca.n:
                    continue
                surface = SurfaceParams(ca.n)
                values = {}
                for matching in _alignments(ca.mults, cb.mults, symmetric=ca == cb):
                    va, vb = _aligned_vectors(ca.mults, cb.mults, matching)
                    values[matching] = virtual_dimension(
                        DivisorClass(surface, ca.d, va) + DivisorClass(surface, cb.d, vb)
                    )
                alignments += len(values)
                # the verifier's worst alignment, both sorted vectors overlapping,
                # is the minimum over all of them (the rearrangement inequality)
                width = max(len(ca.mults), len(cb.mults))
                worst = virtual_dimension(
                    DivisorClass(surface, ca.d, ca.mults + (0,) * (width - len(ca.mults)))
                    + DivisorClass(surface, cb.d, cb.mults + (0,) * (width - len(cb.mults)))
                )
                lowest = min(values.values())
                assert lowest == worst, (ca.literal(), cb.literal())
                dips += [
                    (ca.literal(), cb.literal(), matching, v, lowest)
                    for matching, v in values.items()
                    if v < 0
                ]
        assert (len(classes), alignments) == (57, 5428)
        assert dips == [
            ("L2(1;1^2)", "L2(1;1^2)", ((1, 1, 2),), -1, -1),
            ("L4(1;2)", "L4(1;2)", ((2, 2, 1),), -1, -1),
        ]


class TestPairCounts:
    """verify_pair_inequality walks its cells once, counting the classes and
    building only those on the surfaces of the C^2 = 0 classes;
    oracles.v0_classes, which builds every class, is the oracle of both."""

    @pytest.mark.parametrize("table", [True, False], ids=["table", "vector-by-vector"])
    @pytest.mark.parametrize("max_points", range(6))
    def test_counts_and_partner_lists_match_the_enumeration(self, monkeypatch, max_points, table):
        if not table:
            monkeypatch.setattr(verify, "_MAX_TABLE_CELLS", 0)
        for mass_bound in range(61):
            for max_n in range(2, 15):
                bounds = pair_bounds(mass_bound, max_points, max_n)
                classes, _ = v0_classes(bounds)
                counts, built = _pair_classes(bounds)
                assert counts == Counter(c.n for c in classes), bounds
                # built: exactly the surfaces with a C^2 = 0 class, ascending
                assert list(built) == sorted({c.n for c in classes if sum(c.mults) == 2}), bounds
                for n, specs in built.items():
                    assert specs == [c for c in classes if c.n == n], bounds

    def test_large_bounds_without_the_class_list(self, monkeypatch):
        def every_class(*args):
            raise AssertionError("verify pairs built every class")

        monkeypatch.setattr(verify, "_v0_classes", every_class)
        report = verify_pair_inequality(mass_bound=400, max_points=8, max_n=80)
        assert report.passed and len(report.expected_exceptions_found) == 2
        assert report.checked_count == 22_769_785
        assert report.details == {"v0_classes": 34_677, "alignments_checked": 5_018}


@dataclasses.dataclass(frozen=True)
class _cert_key:
    cert: object

    @property
    def canonical(self):
        import json

        return json.dumps(self.cert.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "max_points,mass_bound,sum_bound",
    [(0, 30, None), (6, 0, None), (0, 0, None), (5, 30, None), (20, 40, None), (8, 40, 6), (4, 20, 0)],
)
def test_mult_vectors_are_canonical(max_points, mass_bound, sum_bound):
    # hunt and the v = 0 enumerator build specs from these vectors without
    # checking them, and read the mass from the enumerator
    vectors = []
    for mults, mass in _mult_vectors(max_points, mass_bound, sum_bound):
        assert type(mults) is tuple
        classify._check_spec_fields(0, mults)
        assert mass == sum(m * (m + 1) for m in mults) <= mass_bound
        vectors.append(mults)
    expected = naive_mult_vectors(max_points, mass_bound, sum_bound)
    assert len(vectors) == len(set(vectors)) and set(vectors) == set(expected)


@pytest.fixture
def one_cpu(monkeypatch):
    """hunt in one pass: every call it makes is made in this process."""
    monkeypatch.setattr(parts, "usable_cpus", lambda: 1)


class TestHunt:
    def test_clean_at_small_bounds(self):
        report = hunt_counterexamples(max_n=6, max_degree=3, mass_bound=24, max_points=5)
        assert report.passed
        assert report.details["specs_scanned"] > 0
        assert any("implementation fault" in note for note in report.notes)

    def test_broken_pattern_guard_reported(self, monkeypatch):
        monkeypatch.setattr(classify, "_DOUBLE_CURVES", _LOOSE_DOUBLE_CURVES)
        report = hunt_counterexamples(max_n=4, max_degree=2, mass_bound=20)
        assert not report.passed
        [cert] = report.violations
        assert cert.kind == "speciality-candidate"
        assert cert.data == {"n": 2, "d": 2, "mults": [4], "v": -5, "member_kind": "RIGID"}

    def test_broken_decompose_reported(self, monkeypatch):
        monkeypatch.setattr(classify, "decompose", bad_decompose)
        report = hunt_counterexamples(max_n=4, max_degree=2, mass_bound=8)
        assert not report.passed
        assert any(c.kind == "speciality-candidate" for c in report.violations)

    @pytest.mark.parametrize(
        "bounds,fns",
        [
            pytest.param(bounds, fns, id=f"{bounds}-{name}")
            for bounds in [(6, 3, 24, 5), (8, 5, 40, 0), (4, 0, 12, 6), (2, 4, 0, 0), (14, 9, 30, 3)]
            # empty n and degree ranges, only d = 0, no mass, odd and negative ends
            + [(0, 4, 24, 5), (6, 0, 24, 5), (6, -1, 24, 5), (6, 3, 0, 5)]
            + [(7, 3, 24, 5), (-3, 2, 12, 6), (6, -2, 12, 6)]
            for name, fns in _HUNT_INJECTIONS.items()
        ]
        # the CLI defaults and the benchmark's hunt_grid bounds
        + [pytest.param(bounds, {}, id=f"{bounds}-default") for bounds in [(10, 6, 60, 30), (12, 7, 64, 32)]],
    )
    def test_matches_naive_scan(self, monkeypatch, bounds, fns):
        for name, fake in fns.items():
            monkeypatch.setattr(classify, name, fake)
        bounds = dict(zip(("max_n", "max_degree", "mass_bound", "max_points"), bounds))
        naive = naive_hunt_scan(**bounds)
        got = hunt_counterexamples(**bounds).canonical_json()
        want = naive.canonical_json()
        # compare around the first difference: a diff of the whole report is slow
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(0, at - 100), at + 100)
        assert got[window] == want[window]

    @pytest.mark.parametrize("max_n,max_degree,mass_bound,max_points", [(12, 5, 30, 15), (4, 3, 12, 2)])
    def test_checks_are_called_only_where_they_can_fire(
        self, monkeypatch, one_cpu, max_n, max_degree, mass_bound, max_points
    ):
        built, decompose_calls = [], []
        original_decompose = classify.decompose
        original_new = LinearSystemSpec._from_canonical.__func__

        def counting_new(cls, surface, d, mults):
            built.append((surface.n, d, mults))
            return original_new(cls, surface, d, mults)

        def counting_decompose(spec):
            decompose_calls.append((spec.n, spec.d, spec.mults))
            return original_decompose(spec)

        monkeypatch.setattr(classify, "decompose", counting_decompose)
        monkeypatch.setattr(LinearSystemSpec, "_from_canonical", classmethod(counting_new))
        bounds = dict(max_n=max_n, max_degree=max_degree, mass_bound=mass_bound, max_points=max_points)
        report = hunt_counterexamples(**bounds)
        assert report.passed

        vectors = naive_mult_vectors(max_points, mass_bound)
        surfaces = range(2, max_n + 1, 2)
        degrees = range(0, max_degree + 1)
        assert report.checked_count == len(surfaces) * len(degrees) * len(vectors)
        # the d >= 1 cells with v < 0, where 2v = n*d^2 + 2 - sum m(m+1)
        masses = [sum(m * (m + 1) for m in mults) for mults in vectors]
        negative = sum(
            n * d * d + 2 < mass for n in surfaces for d in degrees if d >= 1 for mass in masses
        )
        assert len(decompose_calls) == len(set(decompose_calls)) == negative
        assert all(
            d >= 1 and classify.virtual_dim(LinearSystemSpec(SurfaceParams(n), d, mults)) < 0
            for n, d, mults in decompose_calls
        )
        # a spec is built only where the check is called
        assert built == decompose_calls

    def test_hunt_grid_decompositions_equal_their_keyword_construction(self, monkeypatch, one_cpu):
        # decompose sets each Decomposition's dict, and hunt each spec's, as
        # one dict display; at the benchmark's hunt_grid bounds every one of
        # them is the value the keyword constructors build from its fields
        seen = []
        original_decompose = classify.decompose

        def recording_decompose(spec):
            seen.append(original_decompose(spec))
            return seen[-1]

        monkeypatch.setattr(classify, "decompose", recording_decompose)
        assert hunt_counterexamples(max_n=12, max_degree=7, mass_bound=64).passed
        assert len(seen) == 12_985
        for dec in seen:
            for value, cls in ((dec, Decomposition), (dec.spec, LinearSystemSpec)):
                rebuilt = cls(**vars(value))
                assert tuple(vars(value)) == tuple(vars(rebuilt)) == cls._fields
                assert rebuilt == value and hash(rebuilt) == hash(value)
                assert repr(rebuilt) == repr(value)

    @pytest.mark.parametrize(
        "max_n,max_degree,mass_bound", [(10, 6, 60), (12, 7, 64), (1_000, 3, 30), (6, 0, 24), (0, 3, 24)]
    )
    def test_one_surface_per_visited_n(self, monkeypatch, max_n, max_degree, mass_bound):
        built, decomposed = [], set()
        original_init = SurfaceParams.__init__
        original_decompose = classify.decompose

        def counting_init(self, n):
            built.append(n)
            original_init(self, n)

        def recording_decompose(spec):
            decomposed.add(spec.n)
            return original_decompose(spec)

        monkeypatch.setattr(SurfaceParams, "__init__", counting_init)
        monkeypatch.setattr(classify, "decompose", recording_decompose)
        hunt_counterexamples(max_n=max_n, max_degree=max_degree, mass_bound=mass_bound)
        # the visited n are those with n <= M - 4 for the heaviest vector,
        # M = mass_bound, and none when there is no degree d >= 1 to visit
        assert built == (list(range(2, min(max_n, mass_bound - 4) + 1, 2)) if max_degree >= 1 else [])
        assert len(built) <= max(0, max_n // 2)
        assert decomposed == set(built)

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

    def test_keyword_defaults(self):
        # the bounds are keywords only, with plain defaults
        defaults = hunt_counterexamples(max_degree=0).bounds
        assert defaults == {"max_n": 10, "max_degree": 0, "mass_bound": 60, "max_points": 30}
        with pytest.raises(TypeError):
            hunt_counterexamples(12)


_TINY_HUNT = {"max_n": 4, "max_degree": 2, "mass_bound": 12}


class TestHuntInParts:
    """hunt in shares, forked on a fake mask of three CPUs, reports what
    one pass reports, raises what it raises, and leaves no child behind."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_shares_partition_the_one_pass_cells(self, monkeypatch, k):
        calls = []
        original = classify.decompose
        monkeypatch.setattr(classify, "decompose", lambda spec: calls.append(spec) or original(spec))
        bounds = {"max_n": 12, "max_degree": 7, "mass_bound": 64, "max_points": 32}  # hunt_grid's
        index = {mults: i for i, (mults, _) in enumerate(_mult_vectors(32, 64))}

        def fail(i, spec, dec):
            raise AssertionError(f"{spec} fails")

        assert verify._hunt_scan(1, {0}, fail, **bounds) == len(index) == 894
        one_pass, shares = list(calls), []
        for j in range(k):
            calls.clear()
            assert verify._hunt_scan(k, {j}, fail, **bounds) == 894
            assert {index[spec.mults] % k for spec in calls} == {j}
            shares += calls
        # every cell decomposed once, in one share
        assert len(shares) == len(set(shares)) == len(one_pass) == 12_985
        assert set(shares) == set(one_pass)

    @pytest.mark.parametrize(
        "bounds, fns",
        [pytest.param((10, 6, 60, 30), fns, id=f"cli-defaults-{name}") for name, fns in _HUNT_INJECTIONS.items()]
        + [pytest.param((12, 7, 64, 32), {}, id="hunt-grid-default")],
    )
    def test_parts_report_what_one_pass_reports(self, monkeypatch, forks, pins, bounds, fns):
        for name, fake in fns.items():
            monkeypatch.setattr(classify, name, fake)
        bounds = dict(zip(("max_n", "max_degree", "mass_bound", "max_points"), bounds))
        got = hunt_counterexamples(**bounds).canonical_json()
        # shares 1 and 2 forked, each process on its own CPU, then this one back on the mask
        assert len(forks) == 2 and pins == [{0}, {0, 1, 2}]
        monkeypatch.setattr(parts, "usable_cpus", lambda: 1)
        assert hunt_counterexamples(**bounds).canonical_json() == got
        assert len(forks) == 2
        assert naive_hunt_scan(**bounds).canonical_json() == got

    @pytest.mark.parametrize(
        "bounds, forked", [((12, 7, 50, 25), 1), ((4, 2, 12, 6), 0)], ids=["4609-cells", "32-cells"]
    )
    def test_one_share_a_process_per_min_share_cells(self, monkeypatch, forks, pins, bounds, forked):
        # fewer shares than CPUs stay unpinned, as batch's parts do
        bounds = dict(zip(("max_n", "max_degree", "mass_bound", "max_points"), bounds))
        got = hunt_counterexamples(**bounds).canonical_json()
        assert len(forks) == forked and pins == []
        monkeypatch.setattr(parts, "usable_cpus", lambda: 1)
        assert hunt_counterexamples(**bounds).canonical_json() == got

    def test_a_fault_raises_what_one_pass_raises(self, monkeypatch, forks):
        # faults in share 2 and, at a later vector, in share 0: one pass meets share 2's first
        vectors = list(_mult_vectors(30, 60))
        first = next(i for i, (_, mass) in enumerate(vectors) if i % 3 == 2 and mass >= 6)
        later = next(i for i, (_, mass) in enumerate(vectors) if i % 3 == 0 and i > first and mass >= 6)
        faulty = {vectors[first][0], vectors[later][0]}
        original = classify.decompose

        def fault(spec):
            if spec.mults in faulty:
                raise ValueError(f"fault at {spec.literal()}")
            return original(spec)

        monkeypatch.setattr(classify, "decompose", fault)
        with pytest.raises(ValueError) as in_parts:
            hunt_counterexamples()
        assert len(forks) == 2
        monkeypatch.setattr(parts, "usable_cpus", lambda: 1)
        with pytest.raises(ValueError) as one_pass:
            hunt_counterexamples()
        literal = LinearSystemSpec(SurfaceParams(2), 1, vectors[first][0]).literal()
        assert str(in_parts.value) == str(one_pass.value) == f"fault at {literal}"

    @pytest.mark.parametrize("end", ["raises", "killed"])
    def test_a_share_that_fails_in_its_process_runs_here(self, monkeypatch, forks, end):
        expected = [hunt_counterexamples(**bounds).canonical_json() for bounds in ({}, _TINY_HUNT)]
        parent, original = os.getpid(), classify.decompose

        def fault_in_children(spec):
            if os.getpid() != parent:
                if end == "killed":
                    os.kill(os.getpid(), 9)
                raise RuntimeError("a child's fault")
            return original(spec)

        monkeypatch.setattr(classify, "decompose", fault_in_children)
        assert [hunt_counterexamples(**bounds).canonical_json() for bounds in ({}, _TINY_HUNT)] == expected
        assert len(forks) == 4  # two for each run at the CLI defaults; the tiny grid has too few cells

    def test_interrupt_kills_and_reaps_the_children(self, monkeypatch, forks, pins):
        parent, original = os.getpid(), classify.decompose

        def interrupt(spec):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return original(spec)

        monkeypatch.setattr(classify, "decompose", interrupt)
        with pytest.raises(KeyboardInterrupt):
            hunt_counterexamples()
        assert len(forks) == 2 and pins == [{0}, {0, 1, 2}]


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

    def test_passed_iff_no_violations(self, monkeypatch):
        monkeypatch.setattr(classify, "RIGID_CURVES", classify.RIGID_CURVES[:-1])
        report = verify_lemma_table()
        assert report.passed == (not report.violations) == False  # noqa: E712
