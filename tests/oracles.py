"""Test oracles that the package itself never calls."""

from math import isqrt

from k3linsys.classify import LinearSystemSpec
from k3linsys.records import RECORD_FIELDS, record_values
from k3linsys.lattice import DivisorClass, SurfaceParams
from k3linsys.verify import _mult_vectors, _order


def classification_record(dec) -> dict:
    """dec's record as a dict in RECORD_FIELDS order, mults a list: the
    value whose json.dumps records.json_record renders."""
    n, d, mults, *rest = record_values(dec)
    return dict(zip(RECORD_FIELDS, (n, d, list(mults), *rest)))


def reconstructs(dec) -> bool:
    """Whether dec's fixed and free parts sum to its input's divisor class."""
    if not dec.fixed_part and dec.free_part is None:
        return True  # empty system: nothing to reconstruct
    total = DivisorClass(dec.spec.surface, 0, ())
    for mult, comp in dec.fixed_part:
        total = total + mult * comp.divisor_class()
    if dec.free_part is not None:
        total = total + dec.free_part.divisor_class()
    return total == dec.spec.divisor_class()


def surfaces_of_mass(mass: int, n_hi: int):
    """The (n, t), t >= 1 ascending and even n <= n_hi, of n*t^2 = mass - 2."""
    target = mass - 2
    for t in range(1, isqrt(max(0, target) // 2) + 1):
        if not target % (t * t):
            n = target // (t * t)
            if n % 2 == 0 and n <= n_hi:
                yield n, t


def v0_classes(bounds: dict) -> tuple[list[LinearSystemSpec], int]:
    """All v = 0 classes with t >= 1 in a report's bounds dict, as specs with
    d = t in report order (see verify._order), plus the probe count: the
    oracle of verify's cell walks, for a C^2 window's bounds or, with
    self_int_range None, a pair report's.

    v = 0 for t >= 1 is equivalent to n*t^2 = mass - 2 with mass equal to
    sum m_i(m_i+1), so for each multiplicity vector the (n, t) solutions are
    read off the divisors of mass - 2, and C^2 = n*t^2 - sum m_i^2 is
    sum m_i - 2.  Only the upper end of n_range is read: t^2 <= (mass - 2)/2
    gives n >= 2, and t^2 <= (mass_bound - 2)/2 puts t within t_range, which
    every caller sets from that bound.  The vectors are canonical, so specs
    are built unchecked, on one SurfaceParams per n.
    """
    lo_c2, hi_c2 = bounds["self_int_range"] or (None, None)
    sum_bound = None if hi_c2 is None else max(0, hi_c2 + 2)
    n_hi = bounds["n_range"][1]
    surfaces: dict[int, SurfaceParams] = {}
    found = []
    probes = 0
    for mults, mass in _mult_vectors(bounds["max_points"], bounds["mass_bound"], sum_bound):
        if lo_c2 is not None and not (lo_c2 <= sum(mults) - 2 <= hi_c2):
            continue
        probes += isqrt(max(0, mass - 2) // 2)
        for n, t in surfaces_of_mass(mass, n_hi):
            if n not in surfaces:
                surfaces[n] = SurfaceParams(n)
            found.append(LinearSystemSpec._from_canonical(surfaces[n], t, mults))
    found.sort(key=_order)
    return found, probes
