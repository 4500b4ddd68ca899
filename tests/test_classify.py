"""Classifier: normalization, speciality, dimension/h1, decomposition branches.

Frozen dimensions come from the independent closed-form oracle
(v = n*d^2/2 + 1 - sum m(m+1)/2 over exact rationals); structure verdicts
follow the conjecture's explicit patterns.
"""

import dataclasses
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3linsys.classify import (
    RIGID_CURVES,
    Decomposition,
    LinearSystemSpec,
    MemberKind,
    _PATTERN_SURFACES,
    NormalizationError,
    SpecialFamily,
    _check_spec_fields,
    decompose,
    format_multiplicities,
    normalize,
    special_family,
    virtual_dim,
)
from k3linsys.lattice import DivisorClass, SurfaceParams, Value, expected_dimension, intersect, virtual_dimension
from k3linsys.literals import MAX_INTEGER_DIGITS, MAX_POINTS, SystemLiteral, parse_literal
from k3linsys.verify import Certificate, VerificationReport, _mult_vectors
from oracles import reconstructs


def spec(n, d, *mults):
    return normalize(n, d, mults)


class TestNormalize:
    def test_sort_and_drop_zeros(self):
        s = normalize(2, 3, [1, 2, 0, 2])
        assert (s.n, s.d, s.mults) == (2, 3, (2, 2, 1))

    def test_idempotent(self):
        s = normalize(2, 3, [2, 2, 1])
        assert s.mults == (2, 2, 1)
        s2 = normalize(s.n, s.d, s.mults)
        assert s2 == s and vars(s2) == vars(s)

    def test_no_points(self):
        assert normalize(4, 1).mults == ()

    def test_odd_n_rejected(self):
        with pytest.raises(NormalizationError, match="n must be even") as exc:
            normalize(3, 1, [1])
        assert exc.value.field == "n"

    def test_small_n_rejected(self):
        with pytest.raises(NormalizationError) as exc:
            normalize(0, 1, [1])
        assert exc.value.field == "n"

    def test_negative_degree_rejected(self):
        with pytest.raises(NormalizationError) as exc:
            normalize(2, -1, [1])
        assert exc.value.field == "d"

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(NormalizationError) as exc:
            normalize(2, 1, [1, -2])
        assert exc.value.field == "mults"

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, True, False, "1", None])
    def test_non_int_multiplicity_rejected(self, bad):
        # before the zero filter, which would drop NaN, 0.0 and False silently
        with pytest.raises(TypeError, match="multiplicities must be ints"):
            normalize(2, 3, [bad, 1])

    @pytest.mark.parametrize(
        "args, field",
        [
            pytest.param((4, 10**5000, (1,)), "d", id="huge-d"),
            pytest.param((-(10**5000), 1, ()), "n", id="huge-negative-n"),
            pytest.param((10**MAX_INTEGER_DIGITS, 1, ()), "n", id="1001-digit-n"),
            pytest.param((2, 10**MAX_INTEGER_DIGITS, ()), "d", id="1001-digit-d"),
            pytest.param((2, 1, (10**MAX_INTEGER_DIGITS, 1)), "mults", id="1001-digit-mult"),
            # normalize's own sign checks printed these: Python's "Exceeds the limit"
            pytest.param((2, -(10**5000), ()), "d", id="huge-negative-d"),
            pytest.param((2, 1, (3, -(10**5000))), "mults", id="huge-negative-mult"),
            pytest.param((2, -(10**MAX_INTEGER_DIGITS), (1,)), "d", id="1001-digit-negative-d"),
            pytest.param((2, 1, (-(10**MAX_INTEGER_DIGITS),)), "mults", id="1001-digit-negative-mult"),
        ],
    )
    def test_integers_past_the_digit_cap_rejected(self, args, field):
        # Python prints at most 4300 digits: without the cap, huge-d gave a
        # spec whose literal() raised, and huge-negative-n an error whose
        # text was Python's own "Exceeds the limit".
        message = f"^[a-z ]+ must have at most {MAX_INTEGER_DIGITS} digits$"
        with pytest.raises(NormalizationError, match=message) as exc:
            normalize(*args)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "d, mults, field", [(-(10**5000), (), "d"), (1, (-(10**5000),), "mults")], ids=["d", "mults"]
    )
    def test_constructor_rejects_huge_negatives_without_printing_them(self, d, mults, field):
        with pytest.raises(NormalizationError, match="at most") as exc:
            LinearSystemSpec(SurfaceParams(2), d, mults)
        assert exc.value.field == field

    def test_literal_at_the_digit_cap_builds_and_prints(self):
        text = "L" + "2" * MAX_INTEGER_DIGITS + "(1;" + "9" * MAX_INTEGER_DIGITS + ")"
        literal = parse_literal(text)
        assert str(literal.to_spec()) == text
        assert literal.divisor_class().surface.n == int("2" * MAX_INTEGER_DIGITS)
        n = 10**MAX_INTEGER_DIGITS - 2
        assert normalize(n, n + 1, (n + 1,)).literal() == f"L{n}({n + 1};{n + 1})"

    def test_constructor_requires_canonical(self):
        with pytest.raises(NormalizationError):
            LinearSystemSpec(SurfaceParams(2), 1, (1, 2))
        with pytest.raises(NormalizationError):
            LinearSystemSpec(SurfaceParams(2), 1, (1, 0))

    def test_provenance_ignored_by_equality(self):
        a = normalize(2, 3, [2, 1])
        b = normalize(2, 3, [1, 2])
        assert a == b and vars(a) == vars(b)

    def test_literal(self):
        assert spec(2, 3, 2, 2, 2, 2, 1).literal() == "L2(3;2^4,1)"
        assert spec(2, 3).literal() == "L2(3)"
        assert spec(4, 1, 2).literal() == "L4(1;2)"

    def test_format_multiplicities(self):
        assert format_multiplicities((2, 2, 2, 2, 1)) == "2^4,1"
        assert format_multiplicities((3, 1, 1)) == "3,1^2"
        assert format_multiplicities((5,)) == "5"


class TestSpeciality:
    def test_quartic_family(self):
        s = spec(4, 3, 6)
        assert special_family(s) is SpecialFamily.QUARTIC_DOUBLE_POINT
        assert special_family(s) is not None

    def test_quadric_family(self):
        s = spec(2, 5, 5, 5)
        assert special_family(s) is SpecialFamily.QUADRIC_POINT_PAIR
        assert special_family(s) is not None

    def test_generators_not_special(self):
        # d >= 2 required: the d = 1 curves are rigid but non-special
        assert special_family(spec(2, 1, 1, 1)) is None
        assert special_family(spec(4, 1, 2)) is None

    def test_doubles_of_unit_curves_not_special(self):
        assert special_family(spec(10, 2, 6)) is None

    def test_family_tags(self):
        assert SpecialFamily.QUARTIC_DOUBLE_POINT.value == "L4(d;2d)"
        assert SpecialFamily.QUADRIC_POINT_PAIR.value == "L2(d;d,d)"

    @pytest.mark.parametrize("d", range(2, 51))
    def test_both_families_across_degrees(self, d):
        a, b = spec(4, d, 2 * d), spec(2, d, d, d)
        for s in (a, b):
            assert special_family(s) is not None
            assert virtual_dim(s) == 1 - d
            dec = decompose(s)
            assert dec.dimension == 0
            assert dec.h1 == d - 1


class TestDimension:
    def test_special_dim_zero_despite_negative_v(self):
        assert virtual_dim(spec(4, 3, 6)) == -2
        assert decompose(spec(4, 3, 6)).dimension == 0

    @pytest.mark.parametrize("m", range(1, 8))
    def test_pencil_chain_dim_one(self, m):
        assert decompose(spec(2, m + 1, m + 1, m)).dimension == 1

    def test_composite_square(self):
        assert decompose(spec(2, 2, 2)).dimension == 2

    def test_empty(self):
        # frozen: v(L6(1;2,2)) = 3+1-3-3 = -2
        assert virtual_dim(spec(6, 1, 2, 2)) == -2
        assert decompose(spec(6, 1, 2, 2)).dimension == -1

    def test_irreducible_dim_is_v(self):
        # frozen: closed form gives 49 for L4(5;1,1)
        assert decompose(spec(4, 5, 1, 1)).dimension == 49
        assert decompose(spec(8, 3, 5, 4, 3, 2)).dimension == 3


class TestH1:
    def test_special(self):
        assert decompose(spec(4, 5, 10)).h1 == 4
        assert decompose(spec(2, 3, 3, 3)).h1 == 2

    def test_non_special(self):
        assert decompose(spec(2, 1, 1, 1)).h1 == 0
        assert decompose(spec(2, 2, 2)).h1 == 0

    def test_empty_v_minus_one(self):
        s = spec(2, 1, 2)  # v = -1
        assert virtual_dim(s) == -1
        assert decompose(s).h1 == 0
        assert decompose(s).h1_lower_bound == 0

    def test_empty_deep(self):
        s = spec(4, 1, 3)  # v = -3: only the bound is known
        assert virtual_dim(s) == -3
        assert decompose(s).h1 is None
        assert decompose(s).h1_lower_bound == 2


class TestDecompose:
    def test_branch1_quartic_family(self):
        dec = decompose(spec(4, 3, 6))
        assert dec.special is SpecialFamily.QUARTIC_DOUBLE_POINT
        assert dec.member_kind is MemberKind.RIGID
        assert dec.fixed_part == ((3, spec(4, 1, 2)),)
        assert dec.free_part is None
        assert (dec.dimension, dec.h1) == (0, 2)
        assert reconstructs(dec)

    def test_branch2_quadric_family(self):
        dec = decompose(spec(2, 4, 4, 4))
        assert dec.special is SpecialFamily.QUADRIC_POINT_PAIR
        assert dec.fixed_part == ((4, spec(2, 1, 1, 1)),)
        assert dec.member_kind is MemberKind.RIGID
        assert reconstructs(dec)

    def test_branch3_fixed_plus_pencil(self):
        dec = decompose(spec(2, 4, 4, 3))
        assert dec.member_kind is MemberKind.FIXED_PLUS_PENCIL
        assert dec.fixed_part == ((3, spec(2, 1, 1, 1)),)
        assert dec.free_part == spec(2, 1, 1)
        assert dec.dimension == 1
        assert not dec.is_special
        assert reconstructs(dec)

    def test_branch3_free_part_alignment(self):
        # reconstruction forces the pencil onto the higher-multiplicity point
        dec = decompose(spec(2, 2, 2, 1))
        fixed_class = dec.fixed_part[0][1].divisor_class() * dec.fixed_part[0][0]
        total = fixed_class + dec.free_part.divisor_class()
        assert total == spec(2, 2, 2, 1).divisor_class()

    def test_branch3_pencil_meets_fixed_once(self):
        dec = decompose(spec(2, 4, 4, 3))
        assert intersect(dec.free_part.divisor_class(), dec.fixed_part[0][1].divisor_class()) == 1

    @pytest.mark.parametrize(
        "double,curve",
        [
            ((4, 2, (2, 2, 2)), (4, 1, (1, 1, 1))),
            ((6, 2, (4, 2)), (6, 1, (2, 1))),
            ((10, 2, (6,)), (10, 1, (3,))),
        ],
    )
    def test_branch4_doubled_unit_curves(self, double, curve):
        s = spec(double[0], double[1], *double[2])
        assert virtual_dim(s) == 0
        dec = decompose(s)
        assert dec.member_kind is MemberKind.RIGID
        assert dec.fixed_part == ((2, spec(curve[0], curve[1], *curve[2])),)
        assert dec.dimension == 0 and not dec.is_special
        assert reconstructs(dec)

    def test_branch5_generic_rigid(self):
        s = spec(2, 3, 2, 2, 2, 1)  # frozen: v = 0
        dec = decompose(s)
        assert dec.member_kind is MemberKind.RIGID
        assert dec.fixed_part == ((1, s),)
        assert dec.dimension == 0

    def test_branch5_lemma_table_classes(self):
        for args in [(2, 1, 1, 1), (4, 1, 2), (4, 1, 1, 1, 1), (6, 1, 2, 1), (10, 1, 3)]:
            dec = decompose(spec(*args))
            assert dec.member_kind is MemberKind.RIGID
            assert dec.dimension == 0

    def test_branch6_composite_with_pencil(self):
        dec = decompose(spec(2, 2, 2))
        assert dec.member_kind is MemberKind.COMPOSITE_WITH_PENCIL
        assert dec.dimension == 2
        assert dec.fixed_part == ()
        assert dec.pencil == spec(2, 1, 1)
        assert dec.pencil_count == 2
        assert dec.pencil_count * dec.pencil.divisor_class().t == dec.free_part.divisor_class().t
        assert reconstructs(dec)

    def test_branch7_empty(self):
        dec = decompose(spec(6, 1, 2, 2))
        assert dec.member_kind is MemberKind.EMPTY
        assert dec.dimension == -1
        assert dec.fixed_part == () and dec.free_part is None

    def test_branch8_irreducible(self):
        dec = decompose(spec(4, 5, 1, 1))
        assert dec.member_kind is MemberKind.IRREDUCIBLE
        assert dec.dimension == 49
        assert dec.fixed_part == () and dec.free_part == spec(4, 5, 1, 1)

    def test_degenerate_degrees(self):
        # d = 0, no points: the trivial class, a single (empty) divisor
        dec = decompose(spec(2, 0))
        assert dec.member_kind is MemberKind.RIGID and dec.dimension == 0
        # d = 0 with a point: no degree-0 curve passes through it
        dec = decompose(spec(2, 0, 1))
        assert dec.member_kind is MemberKind.EMPTY

    def test_conjectural_flag(self):
        assert decompose(spec(2, 2, 2)).conjectural is True
        assert decompose(spec(2, 0, 3, 2)).conjectural is False
        assert decompose(spec(4, 0)).conjectural is False

    def test_components_are_the_tables(self):
        # the patterns hand out the table's curves and one pencil L2(1;1)
        # themselves, not equal copies built per call
        assert decompose(spec(4, 3, 6)).fixed_part[0][1] is RIGID_CURVES[1]
        chain = decompose(spec(2, 4, 4, 3))
        assert chain.fixed_part[0][1] is RIGID_CURVES[0]
        assert decompose(spec(6, 2, 4, 2)).fixed_part[0][1] is RIGID_CURVES[3]
        square = decompose(spec(2, 2, 2))
        assert square.pencil is chain.free_part
        assert square.pencil == spec(2, 1, 1)


def iter_small_specs(max_n=10, max_d=4, max_mass=24, max_points=4):
    for n in range(2, max_n + 1, 2):
        for d in range(0, max_d + 1):
            stack = [()]
            while stack:
                mults = stack.pop()
                yield normalize(n, d, mults)
                last = mults[-1] if mults else 8
                for m in range(1, last + 1):
                    cand = mults + (m,)
                    if len(cand) <= max_points and sum(x * (x + 1) for x in cand) <= max_mass:
                        stack.append(cand)


def hunt_grid_specs():
    """The specs of hunt's grid at the benchmark's hunt_grid bounds: n <= 12,
    d <= 7, at most 32 points of mass <= 64 (42,912 specs)."""
    vectors = [mults for mults, _ in _mult_vectors(32, 64)]
    for n in range(2, 13, 2):
        surface = SurfaceParams(n)
        for d in range(0, 8):
            for mults in vectors:
                yield LinearSystemSpec(surface, d, mults)


class TestInvariantScans:
    def test_branches_pairwise_disjoint(self):
        # decompose's docstring proves this; hunt does not scan for it
        matched = Counter()
        for s in hunt_grid_specs():
            patterns = reference_pattern_matches(s)
            assert len(patterns) <= 1, s
            matched.update(patterns)
        assert set(matched) == {1, 2, 3, 4, 6}

    def test_patterns_outside_special_families_have_nonnegative_v(self):
        # so decompose makes every v < 0 spec outside the special families EMPTY
        pattern_specs = 0
        for s in hunt_grid_specs():
            dec = decompose(s)
            if pattern_branch(dec) in (3, 4, 6):
                pattern_specs += 1
                assert dec.v >= 0, s
        assert pattern_specs > 0

    def test_empty_iff_dim_minus_one(self):
        for s in iter_small_specs():
            dec = decompose(s)
            assert (dec.member_kind is MemberKind.EMPTY) == (dec.dimension == -1), s

    def test_special_iff_definite_h1_positive(self):
        # h1 - max(0, -1 - v) = dim - e, so speciality is h1 above the
        # Riemann-Roch bound; that bound is 0 unless v < -1, where h1 is
        # known only for d = 0.
        for s in iter_small_specs():
            dec = decompose(s)
            if dec.h1 is not None:
                assert dec.is_special == (dec.h1 > max(0, -1 - dec.v)), s

    def test_special_iff_dim_exceeds_expected(self):
        for s in iter_small_specs():
            dec = decompose(s)
            if dec.dimension >= 0:
                assert dec.is_special == (dec.dimension > expected_dimension(s.divisor_class())), s

    def test_special_fixed_parts_are_multiple(self):
        for s in iter_small_specs():
            dec = decompose(s)
            if dec.is_special:
                assert any(mult >= 2 for mult, _ in dec.fixed_part), s

    def test_reconstruction_everywhere(self):
        for s in iter_small_specs():
            assert reconstructs(decompose(s)), s

    def test_h1_consistent_with_dim(self):
        for s in iter_small_specs():
            dec = decompose(s)
            if dec.dimension >= 0:
                assert dec.h1 == dec.dimension - virtual_dim(s), s
            assert dec.h1_lower_bound == max(0, -1 - virtual_dim(s)) if dec.h1 is None else True


@given(
    st.integers(1, 8).map(lambda g: 2 * g),
    st.integers(0, 9),
    st.lists(st.integers(0, 7), max_size=6),
)
def test_sorting_invariance(n, d, mults):
    import itertools

    base = normalize(n, d, mults)
    perms = list(itertools.permutations(mults))[:12]
    for p in perms:
        s = normalize(n, d, p)
        assert s == base
        assert decompose(s) == decompose(base)


@given(st.integers(1, 10).map(lambda g: 2 * g), st.integers(0, 8), st.lists(st.integers(0, 6), max_size=5))
def test_normalize_idempotent(n, d, mults):
    s = normalize(n, d, mults)
    again = normalize(s.n, s.d, s.mults)
    assert again == s and vars(again) == vars(s)


@given(st.integers(1, 20).map(lambda g: 2 * g), st.integers(0, 12), st.lists(st.integers(0, 9), max_size=6))
def test_virtual_dim_matches_lattice(n, d, mults):
    # classify computes v from the spec; the lattice formula is the reference,
    # so a change to h^2 on the t = 0 face must reach both.
    s = normalize(n, d, mults)
    assert virtual_dim(s) == virtual_dimension(s.divisor_class())
    assert expected_dimension(s.divisor_class()) == max(virtual_dim(s), -1)


def test_virtual_dim_degree_zero_face():
    for mults in [(), (1,), (3, 2), (1, 1, 1)]:
        s = normalize(2, 0, mults)
        assert virtual_dim(s) == virtual_dimension(s.divisor_class())


# The largest integer a literal may spell: MAX_INTEGER_DIGITS nines, odd.
_BIG = 10**MAX_INTEGER_DIGITS - 1


@pytest.mark.parametrize("n", [2, _BIG - 1], ids=["n2", "n-cap"])
@pytest.mark.parametrize("d", [0, 1, _BIG], ids=["d0", "d1", "d-cap"])
@pytest.mark.parametrize(
    "mults",
    [
        pytest.param((), id="no-points"),
        pytest.param((_BIG, _BIG - 1, 1), id="big-odd-even"),
        pytest.param((_BIG,) * 20 + (_BIG - 1,) * 20 + (1,) * (MAX_POINTS - 40), id="max-points"),
    ],
)
def test_virtual_dim_matches_lattice_at_the_literal_caps(n, d, mults):
    # The property test above draws m <= 9.  Here n*d^2 and sum m(m+1) run
    # to thousands of digits, past any float, so v must stay exact integer
    # arithmetic with one exact halving, on the d = 0 face too.
    s = LinearSystemSpec(SurfaceParams(n), d, mults)
    assert virtual_dim(s) == virtual_dimension(s.divisor_class())


@given(st.integers(1, 20).map(lambda g: 2 * g), st.integers(0, 12), st.lists(st.integers(0, 9), max_size=6))
@example(2, 0, [3, 2])
@example(2, 0, [1])
@example(2, 0, [])
def test_record_invariants(n, d, mults):
    s = normalize(n, d, mults)
    dec = decompose(s)
    e = max(dec.v, -1)
    assert dec.v == virtual_dim(s) == virtual_dimension(s.divisor_class())
    assert dec.dimension >= e
    assert dec.conjectural == (d >= 1)
    if dec.h1 is not None:
        assert dec.h1 == dec.dimension - dec.v
        assert dec.h1 >= dec.h1_lower_bound
    assert reconstructs(dec)


def test_degree_zero_records():
    # L2(0;3,2): chi = 2 - 6 - 3 = -7 and h^2 = h^0(4E_1 + 3E_2) = 1, so
    # v = chi - h^2 - 1 = -9; h^0 = 0, so h^1 = h^0 - chi + h^2 = 8.
    dec = decompose(spec(2, 0, 3, 2))
    assert (dec.v, dec.dimension, dec.h1, dec.h1_lower_bound) == (-9, -1, 8, 8)
    dec = decompose(spec(2, 0, 1))
    assert (dec.v, dec.dimension, dec.h1, dec.h1_lower_bound) == (-1, -1, 0, 0)
    # The zero class: one member, the empty divisor, with no fixed part.
    dec = decompose(spec(2, 0))
    assert (dec.v, dec.dimension, dec.h1, dec.fixed_part, dec.free_part) == (0, 0, 0, (), None)


def test_negative_curves_with_v_at_least_minus_one():
    """The negative-curve criterion: the systems with d >= 1, v >= -1 and
    D^2 < 0 are L2(1;1^3), L2(1;2), L2(2;3), L4(1;2,1) and L8(1;3), each
    with v = -1.

    For d >= 1, 2v = n*d^2 + 2 - sum m_i(m_i + 1) = D^2 + 2 - sum m_i, so
    2v - 2 = D^2 - sum m_i.  With v >= -1 and D^2 <= -1 this gives
    sum m_i = D^2 - 2v + 2 <= 3, so sum m_i^2 <= 9 and
    n*d^2 = D^2 + sum m_i^2 < 9: d = 1 with n <= 8, or d = 2 with n = 2.
    Over the vectors 1, 2, 3, 1^2, 2,1 and 1^3 of sum at most 3, D^2 < 0
    and v >= -1 leave the five systems above.  The scan below pins that
    list without the argument, over n <= 40, 1 <= d <= 11, at most 12
    points and mass sum m_i(m_i + 1) <= 200.
    """
    cells = [(n * d * d, n, d) for n in range(2, 41, 2) for d in range(1, 12)]
    found = set()
    for mults, mass in _mult_vectors(12, 200):
        squares = sum(m * m for m in mults)
        # D^2 = n*d^2 - sum m^2 < 0 and 2v = n*d^2 + 2 - mass >= -2
        found.update((n, d, mults) for nd2, n, d in cells if nd2 < squares and nd2 + 2 - mass >= -2)
    specs = [LinearSystemSpec(SurfaceParams(n), d, mults) for n, d, mults in sorted(found)]
    assert [s.literal() for s in specs] == ["L2(1;1^3)", "L2(1;2)", "L2(2;3)", "L4(1;2,1)", "L8(1;3)"]
    for s in specs:
        assert virtual_dim(s) == virtual_dimension(s.divisor_class()) == -1
        assert intersect(s.divisor_class(), s.divisor_class()) < 0


def test_negative_curves_meet_lower_degree_v0_classes_once():
    """Of the five negative curves above, only L2(2;3) meets a v = 0 class
    C = L^n(t; l) of its own surface with t < d: L2(1;1^2), at worst
    alignment D.C = 1.

    Four of the five have d = 1, and every v = 0 class has t >= 1.  For
    L2(2;3), t = 1 on n = 2 and v = 0 give sum l_i(l_i + 1) = n*t^2 + 2 = 4,
    so l = (1, 1).  D.C = n*d*t - sum m_i l_i, and by the rearrangement
    inequality the alignment that overlaps both sorted vectors index by
    index maximises the sum, so D.C >= 2*2*1 - 3*1 = 1.  The scan below
    checks this without the argument, over mass sum l_i(l_i + 1) <= 200, at
    most 12 points and every t < d.
    """
    curves = [(2, 1, (1, 1, 1)), (2, 1, (2,)), (2, 2, (3,)), (4, 1, (2, 1)), (8, 1, (3,))]
    met = []
    for mults, mass in _mult_vectors(12, 200):
        for n, d, m in curves:
            # v = 0 with t >= 1 is n*t^2 = mass - 2
            for t in range(1, d):
                if n * t * t != mass - 2:
                    continue
                surface, width = SurfaceParams(n), max(len(m), len(mults))
                dc = intersect(
                    DivisorClass(surface, d, m + (0,) * (width - len(m))),
                    DivisorClass(surface, t, mults + (0,) * (width - len(mults))),
                )
                c = LinearSystemSpec(surface, t, mults)
                assert virtual_dim(c) == 0
                met.append((LinearSystemSpec(surface, d, m).literal(), c.literal(), dc))
    assert met == [("L2(2;3)", "L2(1;1^2)", 1)]


def test_dimension_is_witnessed_by_the_parts():
    # Each fixed component is effective unconditionally (t >= 1 and v >= 0,
    # so h^2 = 0 and chi >= 1), and the free part has v = dimension; the
    # printed dimension is therefore a lower bound that needs no conjecture.
    vectors = [mults for mults, _ in _mult_vectors(20, 40)]
    for n in range(2, 21, 2):
        surface = SurfaceParams(n)
        for d in range(0, 7):
            for mults in vectors:
                dec = decompose(LinearSystemSpec(surface, d, mults))
                assert reconstructs(dec), dec.spec
                for _, comp in dec.fixed_part:
                    assert comp.d >= 1 and virtual_dim(comp) >= 0, dec.spec
                if dec.free_part is not None:
                    assert virtual_dim(dec.free_part) == dec.dimension, dec.spec
                elif dec.member_kind is MemberKind.EMPTY:
                    assert dec.dimension == expected_dimension(dec.spec.divisor_class()) == -1, dec.spec
                else:
                    assert dec.dimension == 0, dec.spec


def reference_pattern_matches(spec):
    """The ids of the explicit structure patterns a system matches, each
    tested on its own with no guard: 1 and 2 the special families L4(d;2d)
    and L2(d;d,d), 3 the fixed-plus-pencil chain L2(m+1;m+1,m), 4 the doubles
    2C of the three C^2 = 1 rigid curves, 6 the composite pencil square
    L2(2;2); all with d >= 2."""
    n, d, mults = spec.n, spec.d, spec.mults
    hits = (
        (1, n == 4 and mults == (2 * d,)),
        (2, n == 2 and mults == (d, d)),
        (3, n == 2 and mults == (d, d - 1)),
        (4, (n, d, mults) in {(4, 2, (2, 2, 2)), (6, 2, (4, 2)), (10, 2, (6,))}),
        (6, (n, d, mults) == (2, 2, (2,))),
    )
    return tuple(pid for pid, hit in hits if hit and d >= 2)


def pattern_branch(dec):
    """The id of reference_pattern_matches naming the pattern branch decompose
    took, None for a generic branch (d = 0, v = 0, empty or irreducible)."""
    if dec.is_special:
        return 1 if dec.special is SpecialFamily.QUARTIC_DOUBLE_POINT else 2
    if dec.member_kind is MemberKind.FIXED_PLUS_PENCIL:
        return 3
    if any(comp != dec.spec for _, comp in dec.fixed_part):
        return 4
    if dec.member_kind is MemberKind.COMPOSITE_WITH_PENCIL:
        return 6
    return None


def test_pattern_prefilter_is_exact():
    # decompose's guard (d >= 2, at most 3 points, n in _PATTERN_SURFACES)
    # drops no pattern, and inside it each pattern takes its own branch.
    vectors = [mults for mults, _ in _mult_vectors(5, 30)]
    matched = 0
    for n in range(2, 13, 2):
        surface = SurfaceParams(n)
        for d in range(0, 5):
            for mults in vectors:
                s = LinearSystemSpec(surface, d, mults)
                patterns = reference_pattern_matches(s)
                assert pattern_branch(decompose(s)) == (patterns[0] if patterns else None), s
                if patterns:
                    assert d >= 2 and len(mults) <= 3 and n in _PATTERN_SURFACES, s
                    matched += 1
    assert matched > 0


def test_patterns_live_on_their_domain():
    # decompose's guard: d >= 2, at most 3 points, n in _PATTERN_SURFACES.
    # Outside it no pattern matches and decompose takes none of its pattern
    # branches; inside it decompose takes one exactly where a pattern
    # matches.  Mass 42 reaches every pattern, L10(2;6) included.
    vectors = [mults for mults, _ in _mult_vectors(21, 42)]
    inside = outside = 0
    for n in range(2, 25, 2):
        surface = SurfaceParams(n)
        for d in range(0, 11):
            for mults in vectors:
                s = LinearSystemSpec(surface, d, mults)
                taken = pattern_branch(decompose(s)) is not None
                assert taken == bool(reference_pattern_matches(s)), s
                if d >= 2 and len(mults) <= 3 and n in _PATTERN_SURFACES:
                    inside += taken
                else:
                    assert not taken, s
                    outside += 1
    assert inside > 0 and outside > 0


class _Level(IntEnum):
    TWO = 2


_FIELD_VALUES = st.one_of(
    st.integers(-3, 6), st.booleans(), st.floats(), st.text(max_size=2), st.just(_Level.TWO)
)


@given(
    st.one_of(st.integers(-2, 6), _FIELD_VALUES),
    st.one_of(
        st.lists(st.integers(-3, 6), max_size=5).map(lambda ms: sorted(ms, reverse=True)),
        st.lists(_FIELD_VALUES, max_size=5),
    ),
)
@example(True, [1])
@example(-1, [1])
@example(2, [0])
@example(2, [2, 0])
@example(2, [1, 2])
@example(2, [2, True])
@example(2, [_Level.TWO, 1])
@example(2, [])
def test_constructor_matches_per_element_check(d, mults):
    # The constructor accepts exactly what the per-element check accepts,
    # and every rejection is the check's own: type, message and field.
    try:
        _check_spec_fields(d, tuple(mults))
    except (TypeError, NormalizationError) as exc:
        with pytest.raises(type(exc)) as info:
            LinearSystemSpec(SurfaceParams(2), d, mults)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "field", None) == getattr(exc, "field", None)
    else:
        s = LinearSystemSpec(SurfaceParams(2), d, mults)
        assert (s.d, s.mults) == (d, tuple(mults))
        assert s == LinearSystemSpec(SurfaceParams(2), d, tuple(mults))


def test_trusted_spec_equals_public_spec():
    # every vector at the hunt_grid bounds (mass 64, at most 32 points)
    vectors = [mults for mults, _ in _mult_vectors(32, 64)]
    assert len(vectors) == 894
    for n, d in [(2, 0), (2, 1), (4, 2), (6, 3), (10, 7), (12, 5)]:
        surface = SurfaceParams(n)
        for mults in vectors:
            trusted = LinearSystemSpec._from_canonical(surface, d, mults)
            public = LinearSystemSpec(surface, d, mults)
            assert trusted == public and hash(trusted) == hash(public)
            assert repr(trusted) == repr(public)
            assert trusted.literal() == public.literal()
            assert vars(trusted) == vars(public)


@pytest.mark.parametrize("name", ["surface", "d", "mults"])
def test_trusted_spec_is_frozen(name):
    s = LinearSystemSpec._from_canonical(SurfaceParams(4), 3, (6,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(s, name, getattr(s, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(s, name)


# One spec per decompose branch, with the member kind it yields.
_BRANCH_SPECS = [
    ((2, 0, 1), MemberKind.EMPTY),  # d = 0 with a point
    ((4, 3, 6), MemberKind.RIGID),  # 1: quartic family
    ((2, 4, 4, 4), MemberKind.RIGID),  # 2: quadric family
    ((2, 4, 4, 3), MemberKind.FIXED_PLUS_PENCIL),  # 3
    ((6, 2, 4, 2), MemberKind.RIGID),  # 4: doubled unit curve
    ((2, 2, 2), MemberKind.COMPOSITE_WITH_PENCIL),  # 6
    ((2, 3, 2, 2, 2, 1), MemberKind.RIGID),  # generic v = 0
    ((2, 0), MemberKind.RIGID),  # d = 0, no points
    ((6, 1, 2, 2), MemberKind.EMPTY),  # v = -1, h1 = 0
    ((4, 1, 3), MemberKind.EMPTY),  # v = -3, h1 unknown
    ((4, 5, 1, 1), MemberKind.IRREDUCIBLE),
]


@pytest.mark.parametrize("args,kind", _BRANCH_SPECS, ids=[str(a) for a, _ in _BRANCH_SPECS])
def test_decomposition_equals_dataclass_built(args, kind):
    dec = decompose(spec(*args))
    assert dec.member_kind is kind
    rebuilt = Decomposition(**vars(dec))  # through the shared __init__
    assert dec == rebuilt and hash(dec) == hash(rebuilt)
    assert repr(dec) == repr(rebuilt)
    assert vars(dec) == vars(rebuilt)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.dimension = 5


# The value classes outside the lattice behave as the frozen dataclasses
# they replace (test_lattice checks SurfaceParams and DivisorClass);
# VerificationReport stays mutable and unhashable.
S2, S4 = SurfaceParams(2), SurfaceParams(4)


class Window(Value):
    """A value class with a defaulted last field."""

    n_range: tuple[int, int]
    t_range: tuple[int, int]
    self_int_range: tuple[int, int] | None = None


_RIGID_DEC = decompose(LinearSystemSpec(S4, 3, (6,)))
_REPRS = [
    (
        LinearSystemSpec(S2, 3, (2, 1)),
        "LinearSystemSpec(surface=SurfaceParams(n=2), d=3, mults=(2, 1))",
    ),
    (
        _RIGID_DEC,
        "Decomposition(spec=LinearSystemSpec(surface=SurfaceParams(n=4), d=3, mults=(6,)), v=-2, "
        "special=<SpecialFamily.QUARTIC_DOUBLE_POINT: 'L4(d;2d)'>, dimension=0, h1=2, h1_lower_bound=2, "
        "member_kind=<MemberKind.RIGID: 'rigid'>, fixed_part=((3, LinearSystemSpec(surface=SurfaceParams(n=4), "
        "d=1, mults=(2,))),), free_part=None, pencil=None, pencil_count=0, conjectural=True)",
    ),
    (Window((2, 8), (1, 2)), "Window(n_range=(2, 8), t_range=(1, 2), self_int_range=None)"),
    (DivisorClass(S4, 1, (2, 0)), "DivisorClass(surface=SurfaceParams(n=4), t=1, l=(2,))"),
    (Certificate("k", "m", {"n": 2}), "Certificate(kind='k', message='m', data={'n': 2})"),
    (parse_literal("L2(3;2^2,0)"), "SystemLiteral(source='L2(3;2^2,0)', n=2, d=3, mults=(2, 2, 0))"),
    (
        VerificationReport("x", {}, 1, (), (), 0.5),
        "VerificationReport(name='x', bounds={}, checked_count=1, violations=(), "
        "expected_exceptions_found=(), elapsed=0.5, notes=(), details={})",
    ),
]


@pytest.mark.parametrize("value, text", _REPRS, ids=[type(v).__name__ for v, _ in _REPRS])
def test_value_repr(value, text):
    assert repr(value) == text


_EQUAL_PAIRS = [
    (
        LinearSystemSpec(S2, 3, (2, 1)),
        LinearSystemSpec(surface=SurfaceParams(2), d=3, mults=[2, 1]),
        LinearSystemSpec(S4, 3, (2, 1)),
    ),
    (_RIGID_DEC, Decomposition(**vars(_RIGID_DEC)), decompose(LinearSystemSpec(S4, 4, (8,)))),
    (Window((2, 8), (1, 2)), Window(n_range=(2, 8), t_range=(1, 2)), Window((2, 8), (1, 2), (0, 1))),
    (DivisorClass(S4, 1, (2,)), DivisorClass(surface=SurfaceParams(4), t=1, l=[2, 0]), DivisorClass(S4, 1, (2, 1))),
    (Certificate("k", "m", {}), Certificate(kind="k", message="m", data={}), Certificate("k", "m", {"n": 2})),
    (parse_literal("L2(3;2^2)"), SystemLiteral("L2(3;2^2)", 2, 3, (2, 2)), parse_literal("L2(3;2,2)")),
]


@pytest.mark.parametrize("a, b, other", _EQUAL_PAIRS, ids=[type(a).__name__ for a, _, _ in _EQUAL_PAIRS])
def test_value_equality_and_hash_agree(a, b, other):
    assert a == b and not a != b
    if type(a) is not Certificate:  # its data is a dict
        assert hash(a) == hash(b)
    assert a != other and not a == other
    assert list(vars(a)) == list(vars(b)) == list(type(a).__annotations__)
    assert a != tuple(vars(a).values()) and a != vars(a)


def test_equal_fields_in_different_classes_are_not_equal():
    assert DivisorClass(S2, 1, ()) != LinearSystemSpec(S2, 1, ())
    assert LinearSystemSpec(S2, 1, ()) != DivisorClass(S2, 1, ())
    assert not DivisorClass(S2, 1, ()) == LinearSystemSpec(S2, 1, ())
    assert DivisorClass(S2, 1, (1, 1)) != (S2, 1, (1, 1))
    assert SystemLiteral("L2(1)", 2, 1) != LinearSystemSpec(S2, 1)


_FROZEN = [v for v, _ in _REPRS if type(v) is not VerificationReport]


@pytest.mark.parametrize("value", _FROZEN, ids=[type(v).__name__ for v in _FROZEN])
def test_value_assignment_and_deletion_raise(value):
    before = repr(value)
    for name in [*vars(value), "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == before


def test_report_is_mutable_and_unhashable():
    report = VerificationReport("x", {}, 1, (), (), 0.5)
    report.elapsed = 1.5
    assert report.elapsed == 1.5
    del report.elapsed
    assert "elapsed" not in vars(report)
    with pytest.raises(TypeError, match="unhashable"):
        hash(VerificationReport("x", {}, 1, (), (), 0.5))
    assert VerificationReport("x", {}, 1, (), (), 0.5) == VerificationReport("x", {}, 1, (), (), 0.5)


def test_value_keyword_construction_with_defaults():
    s = LinearSystemSpec(surface=S2, d=2)
    assert s.mults == ()
    dec = Decomposition(
        spec=s, v=2, special=None, dimension=2, h1=0, h1_lower_bound=0, member_kind=MemberKind.IRREDUCIBLE
    )
    assert (dec.fixed_part, dec.free_part, dec.pencil, dec.pencil_count, dec.conjectural) == ((), None, None, 0, True)
    assert list(vars(dec)) == list(vars(_RIGID_DEC))
    assert Window(n_range=(2, 4), t_range=(1, 2)).self_int_range is None
    assert SystemLiteral(source="L2(1)", n=2, d=1).mults == ()
    a = VerificationReport(name="x", bounds={}, checked_count=0, violations=(), expected_exceptions_found=(), elapsed=0.0)
    b = VerificationReport("x", {}, 0, (), (), 0.0)
    assert a.notes == () and a.details == {} and a.details is not b.details


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("k", "m", {}, 4), {}),  # too many positional
        (("k", "m"), {"message": "m", "data": {}}),  # repeated
        (("k", "m", {}), {"extra": 1}),  # unknown
        (("k", "m"), {}),  # missing
    ],
)
def test_value_construction_errors(args, kwargs):
    with pytest.raises(TypeError):
        Certificate(*args, **kwargs)
