"""Classification of fat-point linear systems on a generic K3 surface.

A system L^n(d; m_1, ..., m_r) is the set of curves in |dH| on the blow-up
of a generic K3 surface (H^2 = n) passing through r general points with
multiplicities at least m_i.  Its virtual dimension is

    v = n*d^2/2 + 1 - sum m_i(m_i + 1)/2 - [d = 0]

and its expected dimension is e = max(v, -1).  The Segre-type speciality
conjecture for generic K3 surfaces (a Gimigliano-Harbourne-Hirschowitz
analogue) says the only special systems are the multiple-curve families

    L^4(d; 2d) = d * L^4(1; 2)   and   L^2(d; d,d) = d * L^2(1; 1,1),

d >= 2, each consisting of a single rigid divisor of dimension 0 with
h^1 = d - 1.  Every verdict that relies on the conjecture (dimension,
speciality, fixed/free structure, member kind) is marked conjectural;
v and e are unconditional, and so is the whole verdict when d = 0.

RIGID_CURVES is the paper's table of the five v = 0 classes with t >= 1
and C^2 <= 1: these two curves and the three with C^2 = 1.  decompose
takes its components from it, and verify.verify_lemma_table checks it.
"""

from __future__ import annotations

from enum import Enum
from operator import mul

from . import MAX_INTEGER_DIGITS
from .lattice import INT_LIMIT, DivisorClass, SurfaceParams, Value


class NormalizationError(ValueError):
    """Invalid system data; `field` names the offending input field."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


class SpecialFamily(Enum):
    """The two conjecturally special multiple-curve families (d >= 2)."""

    QUARTIC_DOUBLE_POINT = "L4(d;2d)"
    QUADRIC_POINT_PAIR = "L2(d;d,d)"


class MemberKind(Enum):
    """Structure of the general member, conditional on the conjecture."""

    EMPTY = "empty"  # no members at all
    RIGID = "rigid"  # dimension 0: a single divisor, possibly non-reduced
    IRREDUCIBLE = "irreducible"  # general member irreducible and reduced
    COMPOSITE_WITH_PENCIL = "composite-with-pencil"  # members are unions of pencil members
    FIXED_PLUS_PENCIL = "fixed-plus-pencil"  # rigid fixed part plus a moving pencil


class LinearSystemSpec(Value):
    """Canonical description of L^n(d; m_1, ..., m_r).

    Multiplicities are stored sorted non-increasing with zeros removed;
    use `normalize` to build a spec from raw user data.

    There are two construction paths.  The public constructor checks its
    fields and raises TypeError or NormalizationError on bad data.
    `_from_canonical` checks nothing and is for callers whose data is
    canonical by construction: the literal parser, and the hunt scan and
    the v = 0 enumerator, whose multiplicity vectors come from an
    enumerator of non-increasing ints >= 1.
    """

    surface: SurfaceParams
    d: int
    mults: tuple[int, ...] = ()

    def __init__(self, surface: SurfaceParams, d: int, mults: tuple = ()):
        mults = tuple(mults)
        _check_spec_fields(d, mults)
        self.__dict__.update(surface=surface, d=d, mults=mults)

    @classmethod
    def _from_canonical(cls, surface: SurfaceParams, d: int, mults: tuple[int, ...]):
        """The spec with these fields, set without `__init__` and its checks.

        Precondition: `surface` is a SurfaceParams, and `d` and `mults` pass
        `_check_spec_fields` with `mults` a tuple.  The result then equals,
        hashes and prints as `cls(surface, d, mults)` and stays frozen.  It
        is for the callers that build many specs: the per-element
        `_check_spec_fields` that `__init__` runs is most of the cost of a
        construction.  The dict is a display in annotation order, which
        `repr` and `_key` read, set by `object.__setattr__`.
        """
        spec = object.__new__(cls)
        object.__setattr__(spec, "__dict__", {"surface": surface, "d": d, "mults": mults})
        return spec

    @property
    def n(self) -> int:
        return self.surface.n

    def divisor_class(self) -> DivisorClass:
        return DivisorClass(self.surface, self.d, self.mults)

    def literal(self) -> str:
        """Canonical ASCII form, runs compressed: L2(3;2^4,1)."""
        if not self.mults:
            return f"L{self.n}({self.d})"
        return f"L{self.n}({self.d};{format_multiplicities(self.mults)})"

    def __str__(self) -> str:
        return self.literal()


def _check_spec_fields(d, mults: tuple) -> None:
    """Raise the first error in a spec's degree and multiplicities, if any.

    `int` subclasses other than `bool` are accepted, of at most
    MAX_INTEGER_DIGITS digits.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"degree d must be an int, got {d!r}")
    if not -INT_LIMIT < d < INT_LIMIT:
        raise NormalizationError(f"degree d must have at most {MAX_INTEGER_DIGITS} digits", field="d")
    if d < 0:
        raise NormalizationError(f"degree d must be >= 0, got {d}", field="d")
    for m in mults:
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"multiplicities must be ints, got {m!r}")
        if not -INT_LIMIT < m < INT_LIMIT:
            message = f"multiplicities must have at most {MAX_INTEGER_DIGITS} digits"
            raise NormalizationError(message, field="mults")
        if m < 1:
            raise NormalizationError(
                f"canonical multiplicities must be >= 1, got {m}", field="mults"
            )
    if any(mults[i] < mults[i + 1] for i in range(len(mults) - 1)):
        raise NormalizationError(
            f"canonical multiplicities must be sorted non-increasing, got {mults}",
            field="mults",
        )


def format_multiplicities(mults: tuple[int, ...]) -> str:
    """Run-compressed multiplicity list: (2,2,2,2,1) -> '2^4,1'."""
    parts = []
    i, r = 0, len(mults)
    while i < r:
        m = mults[i]
        j = i + 1
        while j < r and mults[j] == m:
            j += 1
        parts.append(f"{m}^{j - i}" if j - i >= 2 else str(m))
        i = j
    return ",".join(parts)


def normalize(n: int, d: int, mults=()) -> LinearSystemSpec:
    """Build a canonical spec from raw data, validating each field.

    Zero multiplicities are dropped (an unconstrained point imposes
    nothing) and the rest are sorted non-increasing; general points are
    interchangeable, so order never matters.  Negative data raises
    NormalizationError naming the offending field; a multiplicity that is
    not an int (a bool, a float, NaN) raises TypeError before any is dropped.
    """
    try:
        surface = SurfaceParams(n)
    except ValueError as exc:
        raise NormalizationError(str(exc), field="n") from None
    if d < 0:
        raise NormalizationError(_negative("degree d", d), field="d")
    raw = tuple(mults)
    for m in raw:
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"multiplicities must be ints, got {m!r}")
        if m < 0:
            raise NormalizationError(_negative("multiplicities", m), field="mults")
    return LinearSystemSpec(surface, d, tuple(sorted((m for m in raw if m > 0), reverse=True)))


def _negative(name: str, value) -> str:
    """normalize's message for a negative value, which names an int past
    the digit cap by the cap alone: Python prints at most 4300 digits."""
    if isinstance(value, int) and value <= -INT_LIMIT:
        return f"{name} must have at most {MAX_INTEGER_DIGITS} digits"
    return f"{name} must be >= 0, got {value}"


def virtual_dim(spec: LinearSystemSpec) -> int:
    """v = n*d^2/2 + 1 - sum m(m+1)/2 - [d = 0], computed from the spec.

    This is lattice.virtual_dimension on a canonical spec: every
    multiplicity is at least 1, so h^2 = 1 exactly when d = 0.  The sums
    run in C as sum m^2 + sum m, halved once: n is even and each m(m + 1)
    is even, so the floor division by 2 is exact at any size.
    """
    d, mults = spec.d, spec.mults
    v = (spec.surface.n * d * d - sum(map(mul, mults, mults)) - sum(mults)) // 2 + 1
    return v if d else v - 1


def special_family(spec: LinearSystemSpec) -> SpecialFamily | None:
    """The special family containing the system, if any (requires d >= 2).

    The d = 1 members L^4(1;2) and L^2(1;1,1) are the rigid generating
    curves themselves; they have v = 0 = dim and are not special.
    """
    if spec.d >= 2:
        if spec.n == 4 and spec.mults == (2 * spec.d,):
            return SpecialFamily.QUARTIC_DOUBLE_POINT
        if spec.n == 2 and spec.mults == (spec.d, spec.d):
            return SpecialFamily.QUADRIC_POINT_PAIR
    return None


# The five v = 0 classes with t >= 1 and C^2 <= 1 (none exist at C^2 <= -1),
# in report order (C^2, n, t, mults): L2(1;1^2) and L4(1;2) with C^2 = 0,
# whose multiples are the special families, then the C^2 = 1 curves, whose
# doubles 2C again have v = 0 and decompose as the fixed divisor 2C.
RIGID_CURVES = tuple(
    LinearSystemSpec(SurfaceParams(n), 1, mults)
    for n, mults in ((2, (1, 1)), (4, (2,)), (4, (1, 1, 1)), (6, (2, 1)), (10, (3,)))
)
# The pencil L2(1;1): the free part of the chain L^2(m+1; m+1, m) and the
# pencil that L2(2;2) is composite with.
_PENCIL = LinearSystemSpec(RIGID_CURVES[0].surface, 1, (1,))
# The C^2 = 0 curve of each special family, by surface, and the C^2 = 1
# curve of each double 2C, by the double's (n, d, mults).
_SPECIAL_CURVES = {c.n: c for c in RIGID_CURVES[:2]}
_DOUBLE_CURVES = {(c.n, 2 * c.d, tuple(2 * m for m in c.mults)): c for c in RIGID_CURVES[2:]}
# The surfaces of the structure patterns: n = 2, 4, 6 and 10, the table's.
_PATTERN_SURFACES = frozenset(c.n for c in RIGID_CURVES)


class Decomposition(Value):
    """Conjectural structure of a system: dimension, speciality, fixed/free parts.

    v is the unconditional virtual dimension of the input.  fixed_part is a
    tuple of (multiplicity, component) pairs; free_part is the moving system
    (None when everything is fixed or the system is empty).  The divisor
    classes of `multiplicity x component` summed with the free part always
    reconstruct the input class.  For a system composite with a pencil,
    `pencil` and `pencil_count` record the pencil whose member-unions fill
    the free part.  h1 is None when only the lower bound
    h1 >= h1_lower_bound is known (conjecturally empty systems with
    v < -1); otherwise h1 = dim - v.

    `dimension` is an unconditional lower bound on dim |D|; only the upper
    bound rests on the conjecture.  Every fixed component has t >= 1 and
    v >= 0, so h^2 = 0 and chi = v + 1 >= 1 make it effective; the free
    part, when there is one, has v(free) = dimension.  As the parts sum to
    D, dim D >= dim(free) >= v(free) = dimension, and dimension is 0 when
    only fixed parts remain and -1 when the system is empty.
    """

    spec: LinearSystemSpec
    v: int
    special: SpecialFamily | None
    dimension: int
    h1: int | None
    h1_lower_bound: int
    member_kind: MemberKind
    fixed_part: tuple[tuple[int, LinearSystemSpec], ...] = ()
    free_part: LinearSystemSpec | None = None
    pencil: LinearSystemSpec | None = None
    pencil_count: int = 0
    conjectural: bool = True

    @property
    def is_special(self) -> bool:
        return self.special is not None


def _decomposition(
    spec,
    v,
    dimension,
    member_kind,
    fixed_part=(),
    free_part=None,
    special=None,
    pencil=None,
    pencil_count=0,
    conjectural=True,
) -> Decomposition:
    """The Decomposition of these facts, its fields set as one dict.

    h^1 = h^0 - chi + h^2 = dim - v wherever h^0 is known, so h1 is
    derived here: it is unknown only for a conjecturally empty system with
    v < -1, which has h1 >= -1 - v.  The result equals, hashes and prints
    as `Decomposition(**fields)` and stays frozen; it skips the shared
    keyword `__init__`, which takes about twice as long for twelve fields.
    The dict is a display in annotation order, which `repr` and `_key`
    read, set by `object.__setattr__` past the frozen `__setattr__`.
    """
    h1 = None if v < -1 and dimension < 0 and conjectural else dimension - v
    dec = object.__new__(Decomposition)
    object.__setattr__(dec, "__dict__", {
        "spec": spec, "v": v, "special": special, "dimension": dimension, "h1": h1,
        "h1_lower_bound": -1 - v if h1 is None else h1, "member_kind": member_kind,
        "fixed_part": fixed_part, "free_part": free_part, "pencil": pencil,
        "pencil_count": pencil_count, "conjectural": conjectural,
    })  # fmt: skip
    return dec


def decompose(spec: LinearSystemSpec) -> Decomposition:
    """Classify a system under the speciality conjecture.

    Branch order: d = 0 (unconditional); the explicit patterns, all with
    d >= 2, at most three points and n in _PATTERN_SURFACES: the two special
    families, the fixed-plus-pencil chain L^2(m+1; m+1, m), the doubles 2C
    of the C^2 = 1 rigid curves and the composite pencil square L^2(2;2);
    then generic v = 0 (rigid), empty (v < 0) and irreducible (v > 0).  The
    patterns are disjoint by the shapes of their (n, d, mults): the quartic
    family has one point on n = 4; the quadric family and the chain have two,
    (d, d) and (d, d - 1); the doubles are L4(2;2^3), L6(2;4,2) and L10(2;6);
    L2(2;2) has one point on n = 2.  So only priority between a pattern and
    the v-sign branches matters.  The patterns outside the special families
    have v >= 0 (the chain v = 1, the doubles v = 0, L2(2;2) v = 2), so every
    v < 0 system outside those families is EMPTY.  Each branch states its
    dimension, member kind and parts; _decomposition derives h1 from them.
    The patterns' components are the curves of RIGID_CURVES and the pencil
    L2(1;1), so no branch builds a spec.
    """
    v = virtual_dim(spec)
    d, mults, n = spec.d, spec.mults, spec.surface.n
    if d == 0:
        # Unconditional.  Without points the one member is the zero divisor,
        # which has no components; no degree-0 curve passes through a point.
        if mults:
            return _decomposition(spec, v, -1, MemberKind.EMPTY, conjectural=False)
        return _decomposition(spec, v, 0, MemberKind.RIGID, conjectural=False)
    if d >= 2 and len(mults) <= 3 and n in _PATTERN_SURFACES:
        special = special_family(spec)
        if special is not None:
            return _decomposition(spec, v, 0, MemberKind.RIGID, ((d, _SPECIAL_CURVES[n]),), special=special)
        if n == 2 and mults == (d, d - 1):
            fixed = ((d - 1, RIGID_CURVES[0]),)
            return _decomposition(spec, v, 1, MemberKind.FIXED_PLUS_PENCIL, fixed, _PENCIL)
        double = _DOUBLE_CURVES.get((n, d, mults))
        if double is not None:
            return _decomposition(spec, v, 0, MemberKind.RIGID, ((2, double),))
        if (n, d, mults) == (2, 2, (2,)):
            return _decomposition(
                spec, v, 2, MemberKind.COMPOSITE_WITH_PENCIL, free_part=spec, pencil=_PENCIL, pencil_count=2
            )
    if v == 0:
        return _decomposition(spec, v, 0, MemberKind.RIGID, ((1, spec),))
    if v < 0:
        return _decomposition(spec, v, -1, MemberKind.EMPTY)
    return _decomposition(spec, v, v, MemberKind.IRREDUCIBLE, free_part=spec)
