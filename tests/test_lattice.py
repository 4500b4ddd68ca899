"""Lattice arithmetic: frozen exact values plus algebraic property tests.

Frozen integers were computed with an independent Gram-matrix oracle
(diag(n, -1, ..., -1) over exact rationals) before this module existed.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3linsys.lattice import (
    ConeError,
    DivisorClass,
    SurfaceMismatchError,
    SurfaceParams,
    arithmetic_genus,
    canonical_class,
    canonical_degree,
    euler_characteristic,
    exceptional,
    expected_dimension,
    h2,
    hyperplane,
    intersect,
    self_intersection,
    virtual_dimension,
    zero,
)

S2 = SurfaceParams(2)
S4 = SurfaceParams(4)
S6 = SurfaceParams(6)
S10 = SurfaceParams(10)


def D(surface, t, *l):
    return DivisorClass(surface, t, tuple(l))


class TestSurfaceParams:
    def test_genus(self):
        assert S2.genus == 2
        assert S4.genus == 3
        assert SurfaceParams(22).genus == 12

    @pytest.mark.parametrize("n", [1, 3, -5, 7])
    def test_odd_rejected(self, n):
        with pytest.raises(ValueError, match="even"):
            SurfaceParams(n)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            SurfaceParams(n)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            SurfaceParams(2.0)


class TestDivisorClass:
    def test_trailing_zeros_dropped(self):
        assert D(S2, 1, 1, 1, 0, 0) == D(S2, 1, 1, 1)
        assert D(S2, 1, 1, 1, 0, 0).l == (1, 1)
        assert D(S2, 0, 0, 0) == zero(S2)

    def test_trailing_zeros_cost_what_other_coefficients_cost(self):
        # The literal caps allow 100,000 points, so L2(1;1,0^99999) is a
        # valid input.  Stripping its zeros one slice each is quadratic: on
        # a 2-CPU host with Python 3.11 that took about 500 times as long
        # as 20,001 nonzero coefficients.
        def best_of_three(coeffs):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                DivisorClass(S2, 1, coeffs)
                times.append(time.perf_counter() - start)
            return min(times)

        zeros = (1,) + (0,) * 20_000
        assert D(S2, 1, *zeros).l == (1,)
        assert best_of_three(zeros) < 10 * best_of_three((1,) * 20_001)

    def test_interior_zeros_kept(self):
        assert D(S2, 1, 0, 1).l == (0, 1)

    def test_equality_includes_surface(self):
        assert D(S2, 1, 1) != D(S4, 1, 1)

    def test_hashable(self):
        assert len({D(S2, 1, 1, 0), D(S2, 1, 1), D(S2, 1, 2)}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            D(S2, 1, 1).t = 2

    def test_non_int_coefficients_rejected(self):
        with pytest.raises(TypeError):
            DivisorClass(S2, 1, (1.5,))
        with pytest.raises(TypeError):
            DivisorClass(S2, 0.5, ())

    def test_str(self):
        assert str(D(S2, 3, 2, 1)) == "3H - (2, 1)"
        assert str(D(S4, 2)) == "2H"


class TestValueContract:
    """SurfaceParams and DivisorClass behave as frozen dataclasses would
    (test_classify checks the other value classes)."""

    @pytest.mark.parametrize(
        "value, text",
        [
            (SurfaceParams(2), "SurfaceParams(n=2)"),
            (D(S2, 3, 2, 1, 0), "DivisorClass(surface=SurfaceParams(n=2), t=3, l=(2, 1))"),
            (D(S4, -1), "DivisorClass(surface=SurfaceParams(n=4), t=-1, l=())"),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize(
        "a, b, other",
        [
            (SurfaceParams(4), SurfaceParams(n=4), S6),
            (D(S2, 1, 1), DivisorClass(surface=SurfaceParams(2), t=1, l=(1, 0)), D(S2, 1, 2)),
            (D(S2, 1, 1), DivisorClass(S2, 1, [1]), D(S4, 1, 1)),
        ],
    )
    def test_equality_and_hash_agree(self, a, b, other):
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != other and not a == other
        assert a != vars(a) and a != tuple(vars(a).values())

    @pytest.mark.parametrize("value", [S2, D(S2, 3, 2, 1)], ids=["SurfaceParams", "DivisorClass"])
    def test_assignment_and_deletion_raise(self, value):
        before = repr(value)
        for name in [*vars(value), "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert repr(value) == before

    def test_keyword_construction_and_defaults(self):
        assert SurfaceParams(n=6) == S6
        c = DivisorClass(surface=S2, t=3)
        assert c == D(S2, 3) and c.l == ()
        assert list(vars(c)) == ["surface", "t", "l"]
        assert DivisorClass(S2, t=1, l=(2,)) == D(S2, 1, 2)
        with pytest.raises(TypeError):
            DivisorClass(S2, 1, (), 4)
        with pytest.raises(TypeError):
            DivisorClass(S2, 1, m=())


class TestHelpers:
    def test_hyperplane(self):
        assert hyperplane(S4) == D(S4, 1)

    def test_exceptional(self):
        assert exceptional(S2, 1) == D(S2, 0, -1)
        assert exceptional(S2, 3) == D(S2, 0, 0, 0, -1)
        with pytest.raises(ValueError):
            exceptional(S2, 0)
        with pytest.raises(ValueError):
            exceptional(S2, 4, r=3)

    def test_canonical_class(self):
        assert canonical_class(S2, 3) == D(S2, 0, -1, -1, -1)
        assert canonical_class(S2, 0) == zero(S2)
        with pytest.raises(ValueError):
            canonical_class(S2, -1)


class TestIntersect:
    def test_pairing_examples(self):
        # frozen: oracle gave 1, 0, 9, 4
        assert intersect(D(S2, 1, 1, 1), D(S2, 1, 1)) == 1
        assert intersect(hyperplane(S4), exceptional(S4, 1)) == 0
        assert intersect(D(S2, 2, 2, 1), D(S2, 3, 1, 1, 1)) == 9
        assert intersect(canonical_class(S2, 3), D(S2, 3, 2, 1, 1)) == 4

    def test_h_squared_is_n(self):
        assert intersect(hyperplane(S6), hyperplane(S6)) == 6

    def test_exceptional_gram(self):
        assert intersect(exceptional(S2, 1), exceptional(S2, 1)) == -1
        assert intersect(exceptional(S2, 1), exceptional(S2, 2)) == 0

    def test_surface_mismatch_rejected(self):
        with pytest.raises(SurfaceMismatchError, match="n = 2 vs n = 4"):
            intersect(D(S2, 1, 1), D(S4, 1, 1))

    def test_canonical_degree_matches_pairing(self):
        d = D(S2, 3, 2, 1, 1)
        assert canonical_degree(d) == 4
        assert canonical_degree(d) == intersect(canonical_class(S2, 3), d)

    def test_k_squared_is_minus_r(self):
        for r in range(6):
            k = canonical_class(S4, r)
            assert intersect(k, k) == -r


class TestEulerCharacteristic:
    def test_frozen_values(self):
        # frozen: oracle gave 1, 4, 2, 3, 50
        assert euler_characteristic(D(S2, 1, 1, 1)) == 1
        assert euler_characteristic(hyperplane(S4)) == 4
        assert euler_characteristic(exceptional(S2, 2)) == 2
        assert euler_characteristic(D(S2, 2, 2)) == 3
        assert euler_characteristic(D(S4, 5, 1, 1)) == 50

    def test_zero_class(self):
        # chi(O) = 2 on a K3 and its blow-ups
        assert euler_characteristic(zero(S2)) == 2

    def test_negative_t_allowed(self):
        # chi is a polynomial in the class; no cone restriction
        assert euler_characteristic(D(S2, -1)) == 3


class TestH2:
    def test_exceptional_subsums(self):
        # frozen: 1, 1, 0
        assert h2(zero(S2)) == 1
        assert h2(D(S2, 0, -1, 0, -1)) == 1
        assert h2(D(S2, 1, 1)) == 0

    def test_t_zero_other_coeffs(self):
        # D = -E_1: K - D = 2E_1 is effective with h^0 = 1, so h^2(D) = 1.
        assert h2(D(S2, 0, 1)) == 1
        # D = 2E_1: K - D = -E_1 is not effective.
        assert h2(D(S2, 0, -2)) == 0

    def test_negative_t_rejected(self):
        with pytest.raises(ConeError, match="t = -1"):
            h2(D(S2, -1))


class TestVirtualAndExpectedDimension:
    def test_frozen_values(self):
        # frozen: 0, 0, 0, 0, 2, 49, 0, 1, 1
        assert virtual_dimension(D(S2, 1, 1, 1)) == 0
        assert virtual_dimension(D(S4, 1, 2)) == 0
        assert virtual_dimension(exceptional(S2, 1)) == 0
        assert virtual_dimension(zero(S2)) == 0
        assert virtual_dimension(D(S2, 2, 2)) == 2
        assert virtual_dimension(D(S4, 5, 1, 1)) == 49
        assert virtual_dimension(D(S2, 3, 2, 2, 2, 1)) == 0
        assert virtual_dimension(D(S6, 2, 3, 2, 2)) == 1
        assert virtual_dimension(D(S2, 8, 8, 7)) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 17, 50])
    def test_special_families_one_minus_d(self, d):
        assert virtual_dimension(D(S4, d, 2 * d)) == 1 - d
        assert virtual_dimension(D(S2, d, d, d)) == 1 - d

    def test_expected_dimension_floor(self):
        assert expected_dimension(D(S2, 2, 2)) == 2
        assert expected_dimension(D(S4, 3, 6)) == -1  # v = -2
        assert expected_dimension(D(S2, 1, 1, 1)) == 0

    def test_negative_t_rejected(self):
        with pytest.raises(ConeError):
            virtual_dimension(D(S2, -2, 1))
        with pytest.raises(ConeError):
            expected_dimension(D(S2, -2, 1))


class TestArithmeticGenus:
    def test_frozen_values(self):
        # frozen: 2, 2, 2, 0, 3, 3, 3, 4
        assert arithmetic_genus(D(S2, 1, 1, 1)) == 2
        assert arithmetic_genus(hyperplane(S2)) == 2
        assert arithmetic_genus(D(S4, 1, 2)) == 2
        assert arithmetic_genus(exceptional(S2, 1)) == 0
        assert arithmetic_genus(D(S4, 1, 1, 1, 1)) == 3
        assert arithmetic_genus(D(S6, 1, 2, 1)) == 3
        assert arithmetic_genus(D(S10, 1, 3)) == 3
        assert arithmetic_genus(D(S2, 2, 2)) == 4

    def test_hyperplane_genus_matches_surface(self):
        for n in (2, 4, 6, 20):
            s = SurfaceParams(n)
            assert arithmetic_genus(hyperplane(s)) == s.genus


class TestModuleStructure:
    def test_add_pads(self):
        assert D(S2, 1, 1) + D(S2, 2, 0, 3) == D(S2, 3, 1, 3)

    def test_add_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            D(S2, 1) + D(S4, 1)

    def test_scale(self):
        assert 3 * D(S2, 1, 2, 1) == D(S2, 3, 6, 3)
        assert 0 * D(S2, 5, 1) == zero(S2)

    def test_operators(self):
        a, b = D(S2, 2, 1, 1), D(S2, 1, 1)
        assert a - b == D(S2, 1, 0, 1)
        assert -a == D(S2, -2, -1, -1)
        assert -3 * a == D(S2, -6, -3, -3)
        assert a * 2 == 2 * a


# Large-operand spot check: values beyond 64-bit must be exact, not wrapped.
def test_exact_big_integers():
    t = 10**12
    d = D(S2, t, t)
    assert self_intersection(d) == 2 * t * t - t * t == 10**24
    assert virtual_dimension(d) == t * t + 1 - t * (t + 1) // 2


surfaces = st.integers(min_value=1, max_value=15).map(lambda g: SurfaceParams(2 * g))
coeff = st.integers(min_value=-8, max_value=12)


def classes_on(surface):
    return st.tuples(
        st.integers(min_value=-6, max_value=9),
        st.lists(coeff, min_size=0, max_size=6),
    ).map(lambda p: DivisorClass(surface, p[0], tuple(p[1])))


@st.composite
def class_pairs(draw, count=2):
    s = draw(surfaces)
    return tuple(draw(classes_on(s)) for _ in range(count))


@given(class_pairs())
def test_pairing_symmetric(pair):
    a, b = pair
    assert intersect(a, b) == intersect(b, a)


@given(class_pairs(count=3), st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_bilinear(triple, x, y):
    a, b, c = triple
    assert intersect(x * a + y * b, c) == x * intersect(a, c) + y * intersect(b, c)


@given(class_pairs())
def test_chi_additivity(pair):
    # chi(A+B) = chi(A) + chi(B) + A.B - 2, an identity of the quadratic form
    a, b = pair
    assert euler_characteristic(a + b) == (
        euler_characteristic(a) + euler_characteristic(b) + intersect(a, b) - 2
    )


@given(class_pairs())
def test_v_additivity_when_h2_vanishes(pair):
    a, b = pair
    if a.t <= 0 or b.t <= 0:
        return  # restrict to the h^2 = 0 regime where the identity holds
    assert virtual_dimension(a + b) == (
        virtual_dimension(a) + virtual_dimension(b) + intersect(a, b) - 1
    )


def test_addition_hand_examples():
    # v(A + B) = v(A) + v(B) + A.B - 1 on v = 0 and v = 1 classes, and on
    # the aligned self-pair L4(1;2) + L4(1;2), where it dips to -1
    s = SurfaceParams(2)
    a = DivisorClass(s, 1, (1, 1))
    b = DivisorClass(s, 1, (1,))
    assert virtual_dimension(a + b) == 1 == 0 + 1 + intersect(a, b) - 1
    s4 = SurfaceParams(4)
    c = DivisorClass(s4, 1, (2,))
    assert virtual_dimension(c + c) == -1 == 0 + 0 + intersect(c, c) - 1


@given(class_pairs(count=1))
def test_v_closed_form_positive_t(single):
    (d,) = single
    if d.t <= 0:
        return
    n = d.surface.n
    expected = n * d.t * d.t // 2 + 1 - sum(c * (c + 1) // 2 for c in d.l)
    assert virtual_dimension(d) == expected


@given(class_pairs(count=1))
def test_genus_chi_relation(single):
    # p_a + chi = D^2 + 3, eliminating the D.K term
    (d,) = single
    assert arithmetic_genus(d) + euler_characteristic(d) == self_intersection(d) + 3


@given(class_pairs(count=1), st.integers(0, 4))
def test_padding_is_neutral(single, extra):
    (d,) = single
    padded = DivisorClass(d.surface, d.t, d.l + (0,) * extra)
    assert padded == d
    assert euler_characteristic(padded) == euler_characteristic(d)
    assert arithmetic_genus(padded) == arithmetic_genus(d)


@given(class_pairs(count=1), st.integers(0, 6))
@settings(max_examples=60)
def test_scale_quadratic_chi(single, k):
    # chi(kD) = k^2 D^2/2 - k D.K/2 + 2
    (d,) = single
    d2, dk = self_intersection(d), canonical_degree(d)
    assert euler_characteristic(k * d) == (k * k * d2 - k * dk) // 2 + 2
