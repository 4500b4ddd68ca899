"""Exact invariants and classification of fat-point linear systems on generic K3 surfaces.

The lattice API below is re-exported from `k3linsys.lattice` on first
access, so that importing the package (as every command-line run does)
loads no math module.
"""

__version__ = "0.1.0"

__all__ = [
    "ConeError",
    "DivisorClass",
    "SurfaceMismatchError",
    "SurfaceParams",
    "arithmetic_genus",
    "canonical_class",
    "canonical_degree",
    "euler_characteristic",
    "exceptional",
    "expected_dimension",
    "h2",
    "hyperplane",
    "intersect",
    "self_intersection",
    "virtual_dimension",
    "zero",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
