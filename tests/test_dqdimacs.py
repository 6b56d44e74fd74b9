"""Parser and emitter for the DQDIMACS exchange format."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import checking_canonical, formulas
from dqprep import Dqbf, ParseError, Prefix, emit_dqdimacs, parse_dqdimacs
from reference_dqdimacs import reference_parse_dqdimacs

EXAMPLE = """\
c a dependency-quantified formula
p cnf 3 2
a 1 0
e 2 0
d 3 1 0
1 -3 0
-1 2 3 0
"""


def test_parse_example():
    result = parse_dqdimacs(EXAMPLE)
    f = result.formula
    assert f.prefix.universals == frozenset({1})
    # plain e-line inherits every universal declared so far
    assert f.prefix.existentials == {2: frozenset({1}), 3: frozenset({1})}
    assert f.matrix == ((1, -3), (-1, 2, 3))
    assert result.diagnostics == ()


def test_parse_accepts_text_stream():
    result = parse_dqdimacs(io.StringIO(EXAMPLE))
    assert len(result.formula.matrix) == 2


def test_e_line_ignores_later_universals():
    text = "p cnf 3 1\ne 2 0\na 1 0\nd 3 1 0\n1 2 3 0\n"
    f = parse_dqdimacs(text).formula
    assert f.prefix.existentials[2] == frozenset()
    assert f.prefix.existentials[3] == frozenset({1})


def test_clauses_may_span_and_share_lines():
    text = "p cnf 2 2\na 1 0\ne 2 0\n1\n2 0 -1 0\n"
    f = parse_dqdimacs(text).formula
    assert f.matrix == ((1, 2), (-1,))


def test_comments_allowed_anywhere():
    text = "c before\np cnf 1 1\nc mid\ne 1 0\nc again\n1 0\nc after\n"
    assert parse_dqdimacs(text).formula.matrix == ((1,),)


def test_missing_header():
    with pytest.raises(ParseError):
        parse_dqdimacs("e 1 0\n1 0\n")


def test_duplicate_header():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


@pytest.mark.parametrize("header", ["p cnf x 1", "p cnf 1", "p dnf 1 1",
                                    "p cnf -1 1", "p cnf 1 -2"])
def test_malformed_header(header):
    with pytest.raises(ParseError):
        parse_dqdimacs(header + "\n")


@pytest.mark.parametrize("line", ["a 1", "e 2", "d 2 1", "d 0", "d 2 0 1 0",
                                  "a -1 0", "e 1 x 0"])
def test_malformed_quantifier_lines(line):
    with pytest.raises(ParseError):
        parse_dqdimacs(f"p cnf 2 1\n{line}\n1 0\n")


@pytest.mark.parametrize("text, line", [
    ("p cnf 1_0 1\n", 1),
    ("p cnf 10 1\na 1_0 0\n", 2),
    ("p cnf 10 1\ne 1_0 0\n", 2),
    ("p cnf 10 1\na 1 0\nd 1_0 1 0\n", 3),
    ("p cnf 10 1\n1_0 0\n", 2),
    ("p cnf \u0663 1\n", 1),
    ("p cnf 3 1\na \u0663 0\n", 2),
    ("p cnf 3 1\ne \uff13 0\n", 2),
    ("p cnf 3 1\na 1 0\nd \u0663 1 0\n", 3),
    ("p cnf 3 1\nc \u0663 1_0\n-\u0663 0\n", 3),
])
def test_integers_are_ascii_decimal(text, line):
    # int() reads 1_0 as 10 and other scripts' digits as decimal ones;
    # a comment may hold either
    with pytest.raises(ParseError) as err:
        parse_dqdimacs(text)
    assert err.value.line == line


# lines end only at LF, CRLF and CR; the other breaks str.splitlines
# knows are ordinary characters


def test_nel_in_a_comment_is_not_a_line_break():
    parsed = parse_dqdimacs("c x\x85y\np cnf 1 1\n1 0\n")
    assert parsed.formula.matrix == ((1,),)


def test_form_feed_does_not_shift_line_numbers():
    parsed = parse_dqdimacs("p cnf 1 1\nc note\x0c\n1 0\n")
    assert [d.line for d in parsed.diagnostics] == [3]


def test_vertical_tab_does_not_end_the_header_line():
    with pytest.raises(ParseError) as err:
        parse_dqdimacs("p cnf 2 1\x0b1\n1 2 0\n")
    assert err.value.line == 1
    assert "malformed header" in str(err.value)


def test_cr_lf_and_crlf_end_lines_alike():
    lines = ["p cnf 2 1", "a 1 0", "c", "1 2 0", ""]
    parsed = [parse_dqdimacs(nl.join(lines)) for nl in ("\n", "\r\n", "\r")]
    assert parsed[0] == parsed[1] == parsed[2]
    assert [d.line for d in parsed[0].diagnostics] == [4]


def test_integers_keep_their_sign():
    parsed = parse_dqdimacs("p cnf +2 1\ne +1 2 0\n+1 -2 -0\n")
    assert parsed.formula.matrix == ((1, -2),)


def test_quantifier_variable_above_bound():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 1 1\na 2 0\n1 0\n")


def test_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 2 1\na 1 0\ne 1 0\n2 0\n")


def test_dependency_must_name_a_universal():
    with pytest.raises(ParseError) as err:
        parse_dqdimacs("p cnf 3 1\na 1 0\ne 2 0\nd 3 2 0\n3 0\n")
    assert "non-universal" in str(err.value)


def test_quantifier_after_first_clause():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 2 2\ne 1 0\n1 0\na 2 0\n2 0\n")


def test_clause_literal_above_bound():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 1 1\ne 1 0\n1 2 0\n")


def test_unterminated_clause():
    with pytest.raises(ParseError):
        parse_dqdimacs("p cnf 1 1\ne 1 0\n1\n")


def test_free_variable_becomes_independent_existential():
    result = parse_dqdimacs("p cnf 2 1\na 1 0\n1 2 0\n")
    f = result.formula
    assert f.prefix.existentials[2] == frozenset()
    assert any(d.severity == "warning" and "free" in d.message
               for d in result.diagnostics)


def test_clause_count_mismatch_warns():
    result = parse_dqdimacs("p cnf 1 5\ne 1 0\n1 0\n")
    assert len(result.formula.matrix) == 1
    assert any("declares" in d.message for d in result.diagnostics)


def test_tautological_clause_dropped_with_warning():
    result = parse_dqdimacs("p cnf 1 1\ne 1 0\n1 -1 0\n")
    assert result.formula.matrix == ()
    assert any("tautolog" in d.message for d in result.diagnostics)


def test_emit_layout():
    p = Prefix(frozenset({1}), {2: frozenset(), 3: frozenset({1})})
    text = emit_dqdimacs(Dqbf(p, ((1, -3), (2,))))
    assert text == "p cnf 3 2\na 1 0\nd 2 0\nd 3 1 0\n1 -3 0\n2 0\n"


def test_emit_without_universals():
    p = Prefix(frozenset(), {1: frozenset()})
    assert emit_dqdimacs(Dqbf(p, ((1,),))) == "p cnf 1 1\nd 1 0\n1 0\n"


def test_emit_empty_clause_is_parseable():
    p = Prefix(frozenset({1}), {2: frozenset({1})})
    text = emit_dqdimacs(Dqbf(p, ((),)))
    assert "\n0\n" in text
    back = parse_dqdimacs(text).formula
    assert back.matrix == ((),)


def test_emit_empty_formula():
    assert emit_dqdimacs(Dqbf(Prefix(frozenset(), {}), ())) == "p cnf 0 0\n"


@given(formulas())
def test_round_trip_identity(formula):
    assert parse_dqdimacs(emit_dqdimacs(formula)).formula == formula


# -- properties over arbitrary input -----------------------------------------

JUNK = ("p", "cnf", "a", "e", "d", "c", "0", "-0", "+2", "x", "007", "9" * 5000)


@st.composite
def dqdimacs_like(draw) -> str:
    """Usually a header, quantifier lines, then clause lines, with a line
    of format tokens and junk sometimes mixed in, so that many draws
    parse and the rest mostly fail past the first line."""
    header = draw(st.sampled_from(("p cnf 5 3",) * 4 + ("p cnf 2 1", "c")))
    quantifiers = draw(st.lists(st.builds(
        lambda head, values: " ".join([head, *map(str, values), "0"]),
        st.sampled_from("aaed"), st.lists(st.integers(1, 5), max_size=3)),
        max_size=3))
    clauses = draw(st.lists(st.lists(st.integers(-5, 5), max_size=4).map(
        lambda lits: " ".join([*map(str, lits), "0"])), max_size=5))
    lines = [header, *quantifiers, *clauses]
    if draw(st.integers(0, 3)) == 0:
        junk = " ".join(draw(st.lists(st.sampled_from(JUNK), max_size=5)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines)


def parse_or_none(text):
    try:
        return parse_dqdimacs(text)
    except ParseError:
        return None


ANY_TEXT = st.one_of(
    st.text(),
    st.binary().map(lambda b: b.decode("utf-8", errors="surrogateescape")),
    dqdimacs_like())


@given(ANY_TEXT)
def test_parser_returns_a_formula_or_raises_parse_error(text):
    # any other exception escapes and fails the test
    parse_or_none(text)


@given(dqdimacs_like())
def test_parsed_formula_equals_its_validated_reconstruction(text):
    with checking_canonical() as producers:
        parsed = parse_or_none(text)
    if parsed is not None:
        formula = parsed.formula
        assert producers == {"parse_dqdimacs": 1}
        assert formula == Dqbf(formula.prefix, tuple(formula.matrix))


@given(st.one_of(formulas().map(emit_dqdimacs),
                 dqdimacs_like().map(parse_or_none)
                 .filter(lambda parsed: parsed is not None)
                 .map(lambda parsed: emit_dqdimacs(parsed.formula))))
def test_emit_after_parse_is_the_identity_on_emitted_text(text):
    assert emit_dqdimacs(parse_dqdimacs(text).formula) == text


def parse_or_error(parse, text):
    """The parse result, or the line and reason of the ParseError."""
    try:
        return parse(text)
    except ParseError as err:
        return err.line, err.reason


@given(ANY_TEXT)
def test_parser_agrees_with_the_two_loop_reference(text):
    # equal formulas and diagnostics (line, message, severity, in order),
    # or a ParseError with equal line and reason
    assert (parse_or_error(parse_dqdimacs, text)
            == parse_or_error(reference_parse_dqdimacs, text))


def test_d_line_reports_redeclaration_before_a_non_universal_dependency():
    text = "p cnf 5 1\nd 5 0\nd 5 4 0\n"
    expected = (3, "variable 5 redeclared")
    assert parse_or_error(reference_parse_dqdimacs, text) == expected
    with pytest.raises(ParseError, match="^line 3: variable 5 redeclared$"):
        parse_dqdimacs(text)
