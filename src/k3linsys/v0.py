"""The v = 0 classes of a C^2 window: `enumerate v0` and `verify lemma-table`.

  * enumerate_v0_classes: every numerical class with v = 0, t >= 1 and C^2
    in a window, each a LinearSystemSpec L^n(t; m) with d = t, in report
    order (see verify._order).
  * verify_lemma_table: the classes with C^2 in [-2, 1] against the
    classifier's own five-entry table, classify.RIGID_CURVES.

`class_record` computes the v and C^2 that reports print from a class.
The command-line module binds this module for those two commands only:
`verify pairs` counts its classes by mass in verify.py and compiles none
of this.
"""

from __future__ import annotations

import time
from math import isqrt

from . import classify
from .classify import LinearSystemSpec
from .lattice import SurfaceParams
from .verify import Certificate, VerificationReport, _cells, _mult_vectors, _order


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


def class_record(spec: LinearSystemSpec) -> dict:
    """A class's report record: n, t, mults, v, C^2 = n*t^2 - sum m_i^2 and
    its literal, with t the spec's d."""
    c2, n, t, mults = _order(spec)
    v = classify.virtual_dim(spec)
    return {"n": n, "t": t, "mults": list(mults), "v": v, "c2": c2, "literal": spec.literal()}


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
