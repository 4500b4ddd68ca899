"""Literal parser: grammar coverage, positioned diagnostics, round trips."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3linsys.classify import normalize
from k3linsys.lattice import intersect
from k3linsys.literals import (
    MAX_INTEGER_DIGITS,
    MAX_POINTS,
    LiteralSyntaxError,
    SystemLiteral,
    parse_literal,
    parse_spec,
)


class TestParse:
    def test_run_expansion(self):
        lit = parse_literal("L2(3;2^4,1)")
        assert (lit.n, lit.d) == (2, 3)
        assert lit.runs == ((2, 4), (1, 1))
        assert lit.multiplicities() == (2, 2, 2, 2, 1)

    def test_whitespace_insignificant(self):
        lit = parse_literal("  L4 ( 1 ; 2 )  ")
        assert (lit.n, lit.d, lit.multiplicities()) == (4, 1, (2,))
        assert parse_literal("L2(3;1 , 1^2)").multiplicities() == (1, 1, 1)

    def test_no_mults(self):
        assert parse_literal("L2(3)").multiplicities() == ()

    def test_zero_values_kept_positionally(self):
        lit = parse_literal("L2(1;0,0,1,1)")
        assert lit.multiplicities() == (0, 0, 1, 1)
        assert lit.to_spec().mults == (1, 1)

    def test_zero_repeat_count(self):
        assert parse_literal("L2(1;1^0)").multiplicities() == ()

    def test_unsorted_input_normalizes(self):
        lit = parse_literal("L2(3;1,2,0,2)")
        assert lit.to_spec() == normalize(2, 3, (2, 2, 1))
        assert lit.canonical() == "L2(3;2^2,1)"

    def test_degree_zero(self):
        assert parse_literal("L2(0)").d == 0


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,position,fragment",
        [
            ("", 0, "expected 'L'"),
            ("X2(1)", 0, "expected 'L'"),
            ("L(1)", 1, "expected integer"),
            ("L3(1;1)", 1, "n must be even (n = 2g-2)"),
            ("L0(1)", 1, "n must be at least 2"),
            ("L2", 2, "expected '('"),
            ("L2)", 2, "expected '('"),
            ("L2(", 3, "expected integer"),
            ("L2(;1)", 3, "expected integer"),
            ("L2(1", 4, "expected ')'"),
            ("L2(1;", 5, "expected integer"),
            ("L2(1;)", 5, "expected integer"),
            ("L2(1;1,)", 7, "expected integer"),
            ("L2(1;1^)", 7, "expected integer"),
            ("L2(1;1^2^2)", 8, "expected ')'"),
            ("L2(1;1)x", 7, "unexpected trailing input"),
            ("L-2(1)", 1, "expected integer"),
            ("L2(1;-1)", 5, "expected integer"),
            ("L2(1;1;1)", 6, "expected ')'"),
            ("L2(1;1^100001)", 7, "more than 100000 points"),
            ("L2(\u00b2)", 3, "expected integer"),
            ("L\uff12(1)", 1, "expected integer"),
            pytest.param("L2(" + "9" * 1001 + ")", 3, "more than 1000 digits", id="1001-digit-degree"),
        ],
    )
    def test_position_and_message(self, text, position, fragment):
        with pytest.raises(LiteralSyntaxError) as exc:
            parse_literal(text)
        assert exc.value.position == position, str(exc.value)
        assert fragment in exc.value.message

    def test_str_includes_offset(self):
        with pytest.raises(LiteralSyntaxError, match=r"\(byte 1\)"):
            parse_literal("L3(1)")


class TestPositionalUse:
    def test_disjoint_point_placement(self):
        # frozen: two curves through two points each, all four points distinct
        a = parse_literal("L2(1;1,1)").divisor_class()
        b = parse_literal("L2(1;0,0,1,1)").divisor_class()
        assert intersect(a, b) == 2

    def test_aligned_placement(self):
        a = parse_literal("L2(1;1,1)").divisor_class()
        assert intersect(a, a) == 0


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("L2(3;2^4,1)", "L2(3;2^4,1)"),
            ("L2(3;1,2,2,2,2)", "L2(3;2^4,1)"),
            ("L2( 3 ; 2^2, 2 , 2,1)", "L2(3;2^4,1)"),
            ("L4(1;2)", "L4(1;2)"),
            ("L2(3;0^5)", "L2(3)"),
            ("L10(2;6)", "L10(2;6)"),
            ("L2(1;1,1)", "L2(1;1^2)"),
        ],
    )
    def test_examples(self, text, canonical):
        assert parse_literal(text).canonical() == canonical

    def test_print_is_valid_input(self):
        for text in ["L2(3;1,2,0,2)", "L4(7)", "L8(2;3^3,1^4)"]:
            printed = parse_literal(text).canonical()
            again = parse_literal(printed)
            assert again.to_spec() == parse_literal(text).to_spec()
            assert again.canonical() == printed


@st.composite
def canonical_specs(draw):
    n = 2 * draw(st.integers(1, 20))
    d = draw(st.integers(0, 30))
    mults = draw(st.lists(st.integers(1, 12), max_size=8))
    return normalize(n, d, mults)


@given(canonical_specs())
def test_round_trip_parse_print_parse(spec):
    printed = spec.literal()
    lit = parse_literal(printed)
    assert lit.to_spec() == spec
    assert lit.canonical() == printed


@given(canonical_specs())
def test_literal_identifies_class(spec):
    assert parse_literal(spec.literal()).divisor_class() == spec.divisor_class()


def test_source_preserved():
    assert parse_literal(" L2(1;1 )").source == " L2(1;1 )"


def test_literal_value_semantics():
    assert parse_literal("L2(1;1,1)") == SystemLiteral("L2(1;1,1)", 2, 1, ((1, 1), (1, 1)))


def _outcome(parse, text):
    try:
        return parse(text)
    except LiteralSyntaxError as exc:
        return (exc.message, exc.position)


# The grammar's characters plus near misses: a sign, a stray letter,
# non-ASCII digits (superscript two, full-width two) and non-ASCII
# whitespace (no-break space, line separator).
_ALPHABET = "L0123456789();,^ \t-x\u00b2\uff12\u00a0\u2028"


@st.composite
def near_literals(draw):
    """Grammar-shaped text: a literal with odd or non-ASCII pieces, one of
    them possibly dropped or replaced by a character of _ALPHABET."""
    space = st.sampled_from(["", "", " ", "\t", "\u00a0", "\u2028"])
    number = st.sampled_from(["0", "1", "2", "3", "4", "12", "007", "", "\u00b2", "\uff12", "-1"])
    pieces = [draw(space), "L", draw(number), draw(space), "(", draw(space), draw(number), draw(space)]
    runs = draw(st.integers(0, 3))
    for i in range(runs):
        pieces += [";" if i == 0 else ",", draw(space), draw(number), draw(space)]
        if draw(st.booleans()):
            pieces += ["^", draw(space), draw(number), draw(space)]
    pieces += [")", draw(space)]
    if draw(st.booleans()):
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(st.sampled_from(["", *_ALPHABET]))
    return "".join(pieces)


def _scanned_spec(text):
    return parse_literal(text).to_spec()


def _assert_spec_matches_scanner(text):
    # parse_spec's regex path builds the scanner's spec, fields and all, or
    # hands the text to the scanner for its error.
    spec = _outcome(parse_spec, text)
    expected = _outcome(_scanned_spec, text)
    assert spec == expected
    if not isinstance(expected, tuple):
        assert vars(spec) == vars(expected)


@given(st.text(alphabet=_ALPHABET, max_size=24) | near_literals())
def test_regex_path_agrees_with_scanner(text):
    _assert_spec_matches_scanner(text)


@pytest.mark.parametrize(
    "text,parses",
    [
        pytest.param("L2(" + "7" * MAX_INTEGER_DIGITS + ")", True, id="1000-digit-d"),
        pytest.param("L2(" + "7" * (MAX_INTEGER_DIGITS + 1) + ")", False, id="1001-digit-d"),
        pytest.param("L" + "2" * MAX_INTEGER_DIGITS + "(1)", True, id="1000-digit-n"),
        pytest.param("L" + "2" * (MAX_INTEGER_DIGITS + 1) + "(1)", False, id="1001-digit-n"),
        pytest.param("L2(1;" + "3" * MAX_INTEGER_DIGITS + "^2)", True, id="1000-digit-mult"),
        pytest.param("L2(1;3^" + "0" * (MAX_INTEGER_DIGITS + 1) + ")", False, id="1001-digit-count"),
        pytest.param(f"L2(1;1^{MAX_POINTS})", True, id="max-points"),
        pytest.param(f"L2(1;1^{MAX_POINTS + 1})", False, id="max-points+1"),
        pytest.param(f"L2(1;2^{MAX_POINTS - 1},0)", True, id="max-points-with-zero"),
        pytest.param(f"L2(1;2^{MAX_POINTS - 1},1,0)", False, id="max-points+1-with-zero"),
    ],
)
def test_regex_path_boundaries(text, parses):
    assert isinstance(_outcome(parse_literal, text), SystemLiteral) == parses
    _assert_spec_matches_scanner(text)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("L2(1;1^1000000000)", id="billion"),
        pytest.param("L2(1;1^60000,1^60000)", id="two-runs"),
        pytest.param("L2(1;0^" + "9" * MAX_INTEGER_DIGITS + ")", id="1000-digit-count"),
    ],
)
def test_hostile_run_counts_fail_without_expanding(text):
    # parse_spec checks a run's count before it builds the run's points.
    expected = _outcome(parse_literal, text)
    assert expected[0] == f"literal expands to more than {MAX_POINTS} points"
    tracemalloc.start()
    try:
        assert _outcome(parse_spec, text) == expected
        assert _outcome(parse_literal, text) == expected  # for the scanner's peak
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
