"""Test oracles that the package itself never calls."""

from k3linsys.cli import RECORD_FIELDS, record_values
from k3linsys.lattice import DivisorClass


def classification_record(dec) -> dict:
    """dec's record as a dict in RECORD_FIELDS order, mults a list: the
    value whose json.dumps cli.json_record renders."""
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
