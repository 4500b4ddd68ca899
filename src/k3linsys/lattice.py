"""Exact intersection arithmetic on the blow-up of a generic K3 surface.

The Picard lattice of the blow-up S' of a generic K3 surface S at r general
points is freely generated by H, the pullback of the ample generator with
H^2 = n = 2g - 2, and the exceptional classes E_1, ..., E_r with E_i^2 = -1
and H.E_i = 0.  A class is stored as a pair (t, l) meaning

    D = t*H - l_1*E_1 - ... - l_r*E_r,

so the multiplicity vector of a fat-point system reads off directly, E_i
itself is (t=0, l_i=-1), and the canonical class of S' is K = E_1 + ... + E_r
(every l_i = -1).

All arithmetic is exact over Python integers, so values of any size are
computed correctly rather than wrapped.  Classes are immutable and every
operation is a pure function.  The value classes of the package derive from
`Value`, which gives them what `@dataclass(frozen=True)` would, without
importing `dataclasses` or generating code at import.
"""

from __future__ import annotations

from itertools import zip_longest

from . import MAX_INTEGER_DIGITS

# An integer of more than MAX_INTEGER_DIGITS digits is at least this in
# absolute value.  SurfaceParams, DivisorClass and the spec checks refuse
# it, with messages that do not format it: every value must print, and
# Python prints at most 4300 digits.
INT_LIMIT = 10**MAX_INTEGER_DIGITS


class Value:
    """An immutable record of the fields its subclass annotates, in order.

    Defaults are class attributes.  Instances hold the fields in `__dict__`;
    equality holds only within one class, over the `__dict__`s; the hash is
    that of the tuple of field values, in annotation order; the repr is
    `Name(field=value, ...)`; assignment and deletion raise
    `dataclasses.FrozenInstanceError`.  Hot classes write `__init__`.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if args or tuple(kwargs) != cls._fields:  # bind as a dataclass constructor does
            given = dict(zip(cls._fields, args), **kwargs)
            repeated = len(given) != len(args) + len(kwargs)
            for name in cls._fields:
                if name not in given and name in vars(cls):
                    default = vars(cls)[name]  # a dict default is copied, never shared
                    given[name] = dict(default) if type(default) is dict else default
            if repeated or given.keys() != set(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {args} and {kwargs}")
            kwargs = {name: given[name] for name in cls._fields}
        self.__dict__.update(kwargs)

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # imported on this error path only

        raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class SurfaceMismatchError(ValueError):
    """Operands live on K3 surfaces with different polarization degrees."""


class ConeError(ValueError):
    """Cohomological quantity requested outside the supported cone t >= 0."""


class SurfaceParams(Value):
    """A generic K3 surface polarized by H with H^2 = n = 2g - 2.

    n must be even (it equals 2g - 2 for the sectional genus g) and at least
    2, so the polarization is ample of positive degree.
    """

    n: int

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"polarization degree n must be an int, got {n!r}")
        if not -INT_LIMIT < n < INT_LIMIT:
            raise ValueError(f"n must have at most {MAX_INTEGER_DIGITS} digits")
        if n % 2 != 0:
            raise ValueError(f"n must be even (n = 2g-2), got n = {n}")
        if n < 2:
            raise ValueError(f"n must be at least 2, got n = {n}")
        self.__dict__.update(n=n)

    @property
    def genus(self) -> int:
        """Sectional genus g of the polarization, n = 2g - 2."""
        return self.n // 2 + 1


class DivisorClass(Value):
    """Lattice element t*H - sum(l_i * E_i) on the blown-up surface.

    Trailing zero coefficients are dropped at construction, so classes that
    differ only by unused blown-up points compare and hash equal; any two
    classes on the same surface can be combined, with the shorter coefficient
    vector padded by zeros.  A surface that is not a SurfaceParams raises
    TypeError; a coefficient of more than MAX_INTEGER_DIGITS digits raises
    ValueError, also from an operator whose result has one.
    """

    surface: SurfaceParams
    t: int
    l: tuple[int, ...] = ()

    def __init__(self, surface: SurfaceParams, t: int, l: tuple[int, ...] = ()) -> None:
        _require_surface(surface)
        coeffs = tuple(l)
        for c in (t, *coeffs):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"lattice coefficients must be ints, got {c!r}")
            if not -INT_LIMIT < c < INT_LIMIT:
                raise ValueError(f"lattice coefficients must have at most {MAX_INTEGER_DIGITS} digits")
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        self.__dict__.update(surface=surface, t=t, l=coeffs[:end])

    # The operators make DivisorClass a Z-module so algebraic identities can
    # be expressed (and property-tested) with arbitrary integer coefficients.
    # Cone restrictions apply only to cohomological operations, not here.

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        _require_same_surface(self, other)
        coeffs = tuple(a + b for a, b in zip_longest(self.l, other.l, fillvalue=0))
        return DivisorClass(self.surface, self.t + other.t, coeffs)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, -self.t, tuple(-c for c in self.l))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return DivisorClass(self.surface, k * self.t, tuple(k * c for c in self.l))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.l:
            return f"{self.t}H"
        body = ", ".join(str(c) for c in self.l)
        return f"{self.t}H - ({body})"


def hyperplane(surface: SurfaceParams) -> DivisorClass:
    """The pullback H of the ample generator."""
    return DivisorClass(surface, 1, ())


def exceptional(surface: SurfaceParams, i: int, r: int | None = None) -> DivisorClass:
    """The i-th exceptional class E_i (1-based), i.e. t=0 and l_i = -1."""
    if i < 1:
        raise ValueError(f"exceptional index is 1-based, got {i}")
    if r is not None and i > r:
        raise ValueError(f"exceptional index {i} exceeds point count {r}")
    return DivisorClass(surface, 0, (0,) * (i - 1) + (-1,))


def canonical_class(surface: SurfaceParams, r: int) -> DivisorClass:
    """The canonical class K = E_1 + ... + E_r of the blow-up at r points."""
    if r < 0:
        raise ValueError(f"point count must be >= 0, got {r}")
    return DivisorClass(surface, 0, (-1,) * r)


def zero(surface: SurfaceParams) -> DivisorClass:
    """The zero class."""
    return DivisorClass(surface, 0, ())


def _require_surface(surface) -> None:
    if not isinstance(surface, SurfaceParams):
        raise TypeError(f"surface must be a SurfaceParams, got {type(surface).__name__}")


def _require_same_surface(a: DivisorClass, b: DivisorClass) -> None:
    if a.surface.n != b.surface.n:
        raise SurfaceMismatchError(
            f"classes live on different surfaces: n = {a.surface.n} vs n = {b.surface.n}"
        )


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing A.B = n*t_A*t_B - sum(a_i * b_i).

    H^2 = n, E_i^2 = -1 and all cross terms vanish, so with A = (t_A, a) and
    B = (t_B, b) the pairing is bilinear with the diagonal Gram matrix
    diag(n, -1, ..., -1) applied to (t, -l).  An operand that is not a
    DivisorClass raises TypeError.
    """
    if not (isinstance(a, DivisorClass) and isinstance(b, DivisorClass)):
        raise TypeError(f"intersect takes DivisorClasses, got {type(a).__name__} and {type(b).__name__}")
    _require_same_surface(a, b)
    dot = sum(x * y for x, y in zip(a.l, b.l))
    return a.surface.n * a.t * b.t - dot


def self_intersection(d: DivisorClass) -> int:
    """D^2 = n*t^2 - sum(l_i^2)."""
    return intersect(d, d)


def canonical_degree(d: DivisorClass) -> int:
    """D.K = sum(l_i), the pairing against K = E_1 + ... + E_r."""
    return sum(d.l)


def euler_characteristic(d: DivisorClass) -> int:
    """Riemann-Roch value chi(D) = (D^2 - D.K)/2 + 2 on the blown-up K3.

    Expanded, chi = n*t^2/2 - sum(l_i*(l_i+1)/2) + 2; both terms are integers
    because n is even and l(l+1) is always even, so the division is exact.
    """
    d2 = self_intersection(d)
    dk = canonical_degree(d)
    return (d2 - dk) // 2 + 2


def h2(d: DivisorClass) -> int:
    """Dimension of H^2 for t >= 0: 1 iff t = 0 and every l_i >= -1.

    By Serre duality h^2(D) = h^0(K - D), with K - D = -t*H + sum((1 + l_i) E_i).
    For t > 0, (K - D).H = -n*t < 0, so K - D is not effective.  For t = 0,
    K - D = sum(a_i E_i) with a_i = 1 + l_i; on the blow-up of a K3 at
    general points it is effective exactly when every a_i >= 0, and then
    h^0 = 1 because each E_i is a rigid (-1)-curve.  This includes the zero
    class and every fat-point class of degree 0.  Classes with t < 0 are
    outside the supported cone.
    """
    if d.t < 0:
        raise ConeError(f"h^2 is defined here only for t >= 0, got t = {d.t}")
    if d.t == 0 and all(c >= -1 for c in d.l):
        return 1
    return 0


def virtual_dimension(d: DivisorClass) -> int:
    """v(D) = chi(D) - h^2(D) - 1, the expected h^0 - 1.

    For t > 0 this is n*t^2/2 + 1 - sum(l_i*(l_i+1)/2); for t = 0 with every
    l_i >= -1 it is one less.  Classes with t < 0 are rejected (ConeError
    propagates from h2).
    """
    return euler_characteristic(d) - h2(d) - 1


def expected_dimension(d: DivisorClass) -> int:
    """e(D) = max(v(D), -1); -1 is the dimension of the empty system."""
    return max(virtual_dimension(d), -1)


def arithmetic_genus(d: DivisorClass) -> int:
    """p_a(D) = (D^2 + D.K)/2 + 1 by adjunction.

    Exact for the same parity reasons as chi: D^2 + D.K = n*t^2 - sum(l_i^2)
    + sum(l_i) is even.
    """
    return (self_intersection(d) + canonical_degree(d)) // 2 + 1
