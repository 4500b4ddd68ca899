"""Parser and printer for ASCII system literals like L2(3;2^4,1).

Grammar (whitespace insignificant, all integers non-negative decimal):

    system := "L" INT "(" INT (";" mults)? ")"
    mults  := mult ("," mult)*
    mult   := INT ("^" INT)?

"m^r" abbreviates multiplicity m repeated r times, mirroring the exponent
shorthand of the usual L^n(d, m_1, ..., m_r) notation; the degree is set
off with ';' so it cannot be mistaken for the first multiplicity.  INT is
ASCII 0-9 only and whitespace is whatever str.isspace() accepts.
`parse_literal` and `parse_spec` share one front: an anchored regular
expression accepts a well-formed literal, and any other input goes to a
character scanner, which raises the error with the byte offset of the
first offending character, including integers over MAX_INTEGER_DIGITS
digits and literals over MAX_POINTS points.  `parse_spec` goes straight to
the canonical LinearSystemSpec.  Printing emits one canonical form per
system: multiplicities sorted non-increasing, zeros dropped, runs
compressed with '^'.
"""

from __future__ import annotations

import re

from .classify import LinearSystemSpec, normalize
from .lattice import DivisorClass, SurfaceParams, Value

# Derived values such as v ~ n*d^2/2 and n*t*t' have up to three times an
# input's digits, and Python prints no integer over 4300 digits.
MAX_INTEGER_DIGITS = 1000
# Points a literal may expand to, zeros included; "1^10^9" would build a
# billion-element tuple.
MAX_POINTS = 100_000

# The grammar as one pattern.  `\s` matches exactly the characters that
# str.isspace() accepts, so it skips what the scanner skips.  The digit cap
# is in the pattern; n's parity and the point cap are checked on the groups.
# No two `\s*` meet, so a near miss costs linear time, not quadratic.
_DIGITS = f"[0-9]{{1,{MAX_INTEGER_DIGITS}}}"
_RUN = rf"\s*{_DIGITS}(?:\s*\^\s*{_DIGITS})?"
_LITERAL = re.compile(rf"\s*L\s*({_DIGITS})\s*\(\s*({_DIGITS})\s*(?:;({_RUN}(?:\s*,{_RUN})*)\s*)?\)\s*")
# The characters `\s` matches but int() does not skip.
_INT_REJECTS = re.compile("[\x1c-\x1f]")
# The surfaces of n = 2..128, shared by the specs parse_spec builds:
# SurfaceParams is immutable and compares and hashes by value.
_SURFACES = {n: SurfaceParams(n) for n in range(2, 130, 2)}


class LiteralSyntaxError(ValueError):
    """Malformed system literal; `position` is the UTF-8 byte offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.message = message
        self.position = position

    @classmethod
    def at(cls, message: str, text: str, index: int) -> LiteralSyntaxError:
        """The error at text[index], a character index: its byte offset is
        counted here, on the error path only."""
        return cls(message, len(text[:index].encode("utf-8", "surrogateescape")))


class SystemLiteral(Value):
    """A parsed literal: source text plus (n, d, multiplicities).

    The multiplicities are expanded in source order, zeros included, so the
    written point positions survive; `to_spec` normalizes them away.
    """

    source: str
    n: int
    d: int
    mults: tuple[int, ...] = ()

    def to_spec(self) -> LinearSystemSpec:
        """Canonical spec: zeros dropped, sorted non-increasing."""
        return normalize(self.n, self.d, self.mults)

    def divisor_class(self) -> DivisorClass:
        """Lattice class with multiplicities placed positionally as written."""
        return DivisorClass(SurfaceParams(self.n), self.d, self.mults)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str, rule: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            raise LiteralSyntaxError.at(
                f"expected '{char}' {rule}, found {self._found()}", self.text, self.pos
            )
        self.pos += 1

    def integer(self, rule: str) -> tuple[int, int]:
        """Read a non-negative decimal INT; returns (value, start offset)."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise LiteralSyntaxError.at(
                f"expected integer {rule}, found {self._found()}", self.text, start
            )
        if self.pos - start > MAX_INTEGER_DIGITS:
            message = f"integer {rule} has more than {MAX_INTEGER_DIGITS} digits"
            raise LiteralSyntaxError.at(message, self.text, start)
        return int(self.text[start : self.pos]), start

    def _found(self) -> str:
        return f"{self.peek()!r}" if self.peek() else "end of input"


def parse_literal(text: str) -> SystemLiteral:
    """Parse a system literal, validating n is even and at least 2.

    Raises LiteralSyntaxError with the byte offset of the first error; the
    grammar admits no signs, so negative numbers are syntax errors at the
    '-' character.
    """
    n, d, raw = _match(text) or _scan(text)
    return SystemLiteral(source=text, n=n, d=d, mults=tuple(raw))


def parse_spec(text: str) -> LinearSystemSpec:
    """parse_literal(text).to_spec(), without the SystemLiteral between.

    The spec is built through the trusted constructor: the grammar admits
    only ASCII digits, so d >= 0 and every multiplicity >= 0 hold, and both
    parsers check n as normalize would.
    """
    n, d, raw = _match(text) or _scan(text)
    mults = sorted(raw, reverse=True)
    if mults and not mults[-1]:
        del mults[mults.index(0) :]
    surface = _SURFACES.get(n) or SurfaceParams(n)
    return LinearSystemSpec._from_canonical(surface, d, tuple(mults))


def _match(text: str) -> tuple[int, int, list[int]] | None:
    """(n, d, raw) of a literal the regex accepts with an even n >= 2 and at
    most MAX_POINTS points, `raw` its multiplicities in source order, zeros
    kept; None sends `text` to the scanner.

    A run's count is checked before the run is expanded.
    """
    match = _LITERAL.fullmatch(text)
    if match is None:
        return None
    n_digits, d_digits, mults = match.groups()
    n = int(n_digits)
    if n % 2 != 0 or n < 2:
        return None
    if mults is None:
        return n, int(d_digits), []
    if _INT_REJECTS.search(mults):
        mults = "".join(mults.split())
    if "^" not in mults:
        raw = list(map(int, mults.split(",")))
    else:
        raw = []
        for item in mults.split(","):
            value, _, count = item.partition("^")
            if not count:
                raw.append(int(value))
                continue
            count = int(count)
            if len(raw) + count > MAX_POINTS:
                return None
            raw += [int(value)] * count
    if len(raw) > MAX_POINTS:
        return None
    return n, int(d_digits), raw


def _scan(text: str) -> tuple[int, int, list[int]]:
    """The (n, d, raw) of `_match`, one character at a time, or the
    LiteralSyntaxError of the first offending character.

    A run's count is checked before the run is expanded.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() != "L":
        raise LiteralSyntaxError.at(f"expected 'L' at start of system, found {sc._found()}", text, sc.pos)
    sc.pos += 1
    n, n_pos = sc.integer("for the surface degree n")
    if n % 2 != 0:
        raise LiteralSyntaxError.at("n must be even (n = 2g-2)", text, n_pos)
    if n < 2:
        raise LiteralSyntaxError.at("n must be at least 2", text, n_pos)
    sc.expect("(", "before the degree")
    d, _ = sc.integer("for the degree d")
    raw = []
    sc.skip_ws()
    if sc.peek() == ";":
        sc.pos += 1
        while True:
            value, count_pos = sc.integer("for a multiplicity")
            count = 1
            sc.skip_ws()
            if sc.peek() == "^":
                sc.pos += 1
                count, count_pos = sc.integer("for a repeat count after '^'")
            if len(raw) + count > MAX_POINTS:
                message = f"literal expands to more than {MAX_POINTS} points"
                raise LiteralSyntaxError.at(message, text, count_pos)
            raw += [value] * count
            sc.skip_ws()
            if sc.peek() != ",":
                break
            sc.pos += 1
    sc.expect(")", "to close the system")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise LiteralSyntaxError.at(f"unexpected trailing input {sc._found()}", text, sc.pos)
    return n, d, raw
