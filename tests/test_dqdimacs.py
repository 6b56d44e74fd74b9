"""Parser and emitter for the DQDIMACS exchange format."""

import io
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import checking_canonical, counting_calls, formulas
from dqprep import (Dqbf, ParseError, ParseResult, Prefix, emit_dqdimacs,
                    normalize_clause, parse_dqdimacs)
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


# -- the fast loops and their fallback ---------------------------------------
#
# Well-formed `d` lines and one-clause lines are taken whole by fast
# forms; a line they cannot take falls through to the per-line code.
# These tests inject such lines into well-formed files and require the
# reference's result, diagnostics and errors.


@st.composite
def well_formed_lines(draw) -> tuple[int, list[str]]:
    """The header bound and the lines of a file in the emitter's shape:
    header, `a` line, one `d` line per existential, one clause per line.
    The bound may exceed the declared variables."""
    n_universal = draw(st.integers(0, 3))
    n_existential = draw(st.integers(1, 8))
    declared = n_universal + n_existential
    max_var = declared + draw(st.integers(0, 2))
    universals = list(range(1, n_universal + 1))
    lines = [f"p cnf {max_var} {draw(st.integers(0, 30))}"]
    if universals:
        lines.append(" ".join(["a", *map(str, universals), "0"]))
    for var in range(n_universal + 1, declared + 1):
        deps = draw(st.lists(st.sampled_from(universals), max_size=3)) if universals else []
        lines.append(" ".join(["d", str(var), *map(str, deps), "0"]))
    for _ in range(draw(st.integers(0, 30))):
        variables = draw(st.lists(st.integers(1, declared), unique=True, max_size=4))
        lits = [v * draw(st.sampled_from((1, -1))) for v in variables]
        lines.append(" ".join([*map(str, lits), "0"]))
    return max_var, lines


IRREGULAR = (
    "c a comment {a} 0", "c 1_0 and ٣ in a comment", "c", "",
    "   ", "\t \x0c", "{a} 0 {b} 0", "{a} {b}", "{a}", "{a} -0", "-0",
    "{a} +0 {b} 0", "00", "{a} 00", "+{v} {b} 0", "{a} {a} 0",
    "{v} -{v} 0", "{big} 0", "-{big} {a} 0", "d {v} 0", "d {v} {v} 0",
    "a {v} 0", "e {v} 0", "{a} x 0", "{a}_0 0", " {a}  {b}  0 ",
)


@st.composite
def irregular_texts(draw) -> str:
    """A well-formed file with irregular lines injected at random
    positions, every line ended by LF, CRLF or CR."""
    max_var, lines = draw(well_formed_lines())
    variable = st.integers(1, max_var + 1)
    literal = st.builds(lambda v, s: v * s, variable, st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.sampled_from(IRREGULAR)).format(
            a=draw(literal), b=draw(literal), v=draw(variable), big=max_var + 1)
        lines.insert(draw(st.integers(0, len(lines))), line)
    endings = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


@given(irregular_texts())
def test_fast_loops_fall_back_to_the_reference_on_irregular_lines(text):
    with checking_canonical():
        assert (parse_or_error(parse_dqdimacs, text)
                == parse_or_error(reference_parse_dqdimacs, text))


def long_text(tail: list[str]) -> str:
    """Lines 3 to 1,102 are `d` lines over universals 1 and 2, and lines
    1,103 to 2,202 one clause each; `tail` follows from line 2,203. The
    header bound leaves variable 1,103 free."""
    lines = ["p cnf 1103 1100", "a 1 2 0"]
    lines += [f"d {var} {var % 3} 0" if var % 3 else f"d {var} 0"
              for var in range(3, 1103)]
    lines += [f"{-var} {3 + (var + 500) % 1100} {var % 2 + 1} 0"
              for var in range(3, 1103)]
    return "\n".join(lines + tail) + "\n"


def count_warning(found: int) -> tuple[int, str]:
    return 1, f"header declares 1100 clauses, found {found}"


@pytest.mark.parametrize("tail, expected", [
    (["5 -5 0"], [count_warning(1101), (2203, "tautological clause dropped")]),
    (["4 1103 0", "-1103 0"], [
        (2203, "free variable 1103 treated as existential with no dependencies"),
        count_warning(1102)]),
    (["4 -0 5 0"], [count_warning(1102)]),
    (["c x_\u0663", "4 0 5", "0 6 0"], [count_warning(1103)]),
    (["1104 0"], (2203, "variable 1104 exceeds header bound")),
    (["4 5 x 0"], (2203, "bad token 'x'")),
    (["4 5_0 0"], (2203, "'_' and non-ASCII characters are allowed only in comments")),
    (["e 1103 0"], (2203, "quantifier line after the first clause")),
    (["4 5"], (2203, "unterminated clause at end of input")),
])
def test_fast_loops_hand_a_late_line_to_the_per_line_code(tail, expected):
    text = long_text(tail)
    result = parse_or_error(parse_dqdimacs, text)
    assert result == parse_or_error(reference_parse_dqdimacs, text)
    if isinstance(result, ParseResult):
        assert [(d.line, d.message) for d in result.diagnostics] == expected
    else:
        assert result == expected


@pytest.mark.parametrize("line, expected", [
    ("d 7 0", (1103, "variable 7 redeclared")),
    ("d 1103 1102 0", (1103, "dependency on non-universal variable 1102")),
    ("d 1104 0", (1103, "variable 1104 exceeds header bound")),
    ("d 1103 0 1 0", (1103, "quantifier lines expect positive variables")),
])
def test_a_late_d_line_gets_the_per_line_error(line, expected):
    lines = long_text([]).split("\n")
    text = "\n".join(lines[:1102] + [line] + lines[1102:])
    assert parse_or_error(parse_dqdimacs, text) == expected
    assert parse_or_error(reference_parse_dqdimacs, text) == expected


def parse_counting(monkeypatch, text: str) -> ParseResult:
    """Parse the text and require that at most one clause was normalized
    and no prefix validated: every line but the first clause line was
    taken by a fast form, and the prefix as it is."""
    prefix_inits = []
    init = Prefix.__post_init__

    def counting_init(self):
        prefix_inits.append(self)
        init(self)

    monkeypatch.setattr(Prefix, "__post_init__", counting_init)
    with counting_calls(normalize_clause) as (calls, modules):
        parsed = parse_dqdimacs(text)
    assert "dqprep.dqdimacs" in modules
    assert len(calls) <= 1 and prefix_inits == []
    return parsed


def test_well_formed_text_is_parsed_by_the_fast_loops(monkeypatch):
    # the first clause line takes the per-line code; every other line is
    # taken by a fast loop, and the prefix as it is
    text = long_text([])
    parsed = parse_counting(monkeypatch, text)
    assert parsed.diagnostics == ()
    assert len(parsed.formula.prefix.existentials) == 1100
    assert len(parsed.formula.matrix) == 1100
    assert parsed == reference_parse_dqdimacs(text)


def test_fast_forms_read_text_with_an_underscore_in_a_comment(monkeypatch):
    # the '_' and the non-ASCII digit rule out the one test of the whole
    # text; the fast forms then test each line, and still take them all
    text = "c made_by_gen ٣\n" + long_text([])
    assert parse_counting(monkeypatch, text) == reference_parse_dqdimacs(text)


def test_a_long_a_line_parses_in_linear_time():
    universals = " ".join(map(str, range(1, 100_001)))
    text = f"p cnf 100001 1\na {universals} 0\nd 100001 1 2 0\n1 100001 0\n"
    start = time.perf_counter()
    parsed = parse_dqdimacs(text)
    assert time.perf_counter() - start < 5
    assert parsed.formula.prefix.existentials[100_001] == {1, 2}
    assert parsed.formula.matrix == ((1, 100_001),)


def best_of_five(work, inputs) -> list[float]:
    """The best of five timings of `work` on each input; the inputs take
    turns, so a slow spell of the machine slows all of them."""
    elapsed: list[list[float]] = [[] for _ in inputs]
    for _ in range(5):
        for item, runs in zip(inputs, elapsed):
            start = time.perf_counter()
            work(item)
            runs.append(time.perf_counter() - start)
    return [min(runs) for runs in elapsed]


def test_a_long_e_line_parses_in_linear_time_and_memory():
    # every variable of an `e` line depends on every universal declared
    # before it: one dependency set for the line, not one per variable.
    # The doubling ratio of the best times is taken over the whole range,
    # as single runs of a few milliseconds are noisy
    sizes = (1000, 2000, 4000)
    texts = []
    for n in sizes:
        universals = " ".join(map(str, range(1, n + 1)))
        existentials = " ".join(map(str, range(n + 1, 2 * n + 1)))
        texts.append(f"p cnf {2 * n} 1\na {universals} 0\ne {existentials} 0\n"
                     f"1 {2 * n} 0\n")
    times = best_of_five(parse_dqdimacs, texts)
    peaks = []
    for n, text in zip(sizes, texts):
        tracemalloc.start()
        try:
            parsed = parse_dqdimacs(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert parsed.formula.prefix.existentials[2 * n] == set(range(1, n + 1))
        assert len(parsed.formula.prefix.existentials) == n
    assert (times[-1] / times[0]) ** 0.5 <= 2.5, times
    assert max(b / a for a, b in zip(peaks, peaks[1:])) <= 2.5, peaks


def assert_round_trips_scale_linearly(texts: list[str]) -> None:
    """Texts of doubling size parse and emit in linear time, the doubling
    ratio taken over the whole range, and the tracemalloc peak of a
    round trip at most doubles with each."""
    parsed = [parse_dqdimacs(text).formula for text in texts]
    for times in best_of_five(parse_dqdimacs, texts), best_of_five(emit_dqdimacs, parsed):
        assert (times[-1] / times[0]) ** 0.5 <= 2.5, times
    peaks = []
    for text in texts:
        tracemalloc.start()
        try:
            emit_dqdimacs(parse_dqdimacs(text).formula)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(b / a for a, b in zip(peaks, peaks[1:])) <= 2.5, peaks


def test_one_long_clause_round_trips_in_linear_time_and_memory():
    # one clause over every variable, signs alternating; the existentials
    # depend on the one universal, so each `d` line emitted is short
    sizes = (4000, 8000, 16000)
    texts = [f"p cnf {n} 1\na 1 0\ne {' '.join(map(str, range(2, n + 1)))} 0\n"
             + " ".join(str(v if v % 2 else -v) for v in range(1, n + 1)) + " 0\n"
             for n in sizes]
    for n, text in zip(sizes, texts):
        assert [len(c) for c in parse_dqdimacs(text).formula.matrix] == [n]
    assert_round_trips_scale_linearly(texts)


def test_many_short_clause_lines_round_trip_in_linear_time_and_memory():
    # one binary clause line per variable, a cycle of implications
    sizes = (2500, 5000, 10000)
    texts = [f"p cnf {n} {n}\ne {' '.join(map(str, range(1, n + 1)))} 0\n"
             + "".join(f"{v} -{v % n + 1} 0\n" for v in range(1, n + 1))
             for n in sizes]
    for n, text in zip(sizes, texts):
        assert len(parse_dqdimacs(text).formula.matrix) == n
    assert_round_trips_scale_linearly(texts)


def test_d_lines_sharing_one_set_keep_one_set():
    # n `d` lines each list the same n universals: the parsed prefix
    # holds that set once, so what parsing retains grows with n and
    # stays below the text, whose numbers grow with n**2. The doubling
    # ratio is taken over the whole range: CPython caches the ints up
    # to 256, so at the smallest size fewer of them are allocated
    retained = []
    for n in (300, 600, 1200):
        universals = " ".join(map(str, range(1, n + 1)))
        text = "".join([f"p cnf {2 * n} 0\na {universals} 0\n",
                        *(f"d {y} {universals} 0\n"
                          for y in range(n + 1, 2 * n + 1))])
        tracemalloc.start()
        try:
            parsed = parse_dqdimacs(text)
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        sets = list(parsed.formula.prefix.existentials.values())
        assert len(sets) == n and sets[0] == set(range(1, n + 1))
        assert all(deps is sets[0] for deps in sets)
        assert retained[-1] < len(text), (n, retained[-1], len(text))
    assert (retained[-1] / retained[0]) ** 0.5 <= 2.5, retained


def test_distinct_d_sets_hold_the_universals_own_ints():
    # 1,000 `d` lines, each listing a different 999 of 1,000 universals:
    # 1,000 distinct sets whose members are the `a` line's 1,000 ints, not
    # 999,000 ints read one per number. The sets' hash tables take about
    # 31 MiB and the text 3.7 MiB; an int per number read (28 bytes each,
    # 743 per set above CPython's cached small ints) would add 20 MiB, and
    # the peak was 59 MiB when it did
    k = 1000
    everyone = range(1, k + 1)
    text = "".join([f"p cnf {2 * k} 0\na {' '.join(map(str, everyone))} 0\n",
                    *(f"d {k + y} {' '.join(str(u) for u in everyone if u != y)} 0\n"
                      for y in everyone)])
    tracemalloc.start()
    try:
        prefix = parse_dqdimacs(text).formula.prefix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = {u: u for u in prefix.universals}
    assert len(set(map(id, prefix.existentials.values()))) == k
    assert all(u is own[u] for deps in prefix.existentials.values() for u in deps)
    assert prefix.existentials[k + 1] == set(everyone) - {1}
    assert peak < 48 * 2**20, peak / 2**20


def test_e_lines_and_free_variables_share_their_sets():
    text = "p cnf 7 1\na 1 0\ne 2 0\ne 3 0\nd 4 1 0\nd 5 0\n2 6 7 0\n"
    e = parse_dqdimacs(text).formula.prefix.existentials
    assert e[2] == {1} and e[2] is e[3] is e[4]
    assert e[5] == set() and e[5] is e[6] is e[7]


def test_parse_and_emit_leave_the_variables_unbuilt():
    # the header's bound is the largest universal or existential
    for text, header in ((EXAMPLE, "p cnf 3 2"),
                         ("p cnf 9 0\na 7 0\ne 2 0\n", "p cnf 7 0"),
                         ("p cnf 9 0\na 2 0\ne 7 0\n", "p cnf 7 0"),
                         ("p cnf 0 0\n", "p cnf 0 0")):
        formula = parse_dqdimacs(text).formula
        assert emit_dqdimacs(formula).split("\n")[0] == header
        assert set(vars(formula.prefix)) == {"universals", "existentials"}


# -- dependency sets: one declaration site, read and rendered once per set --
#
# A `d` line is declared in one place, the fast form at the top of the
# parse loop; the per-line code raises on a `d` line that passes its
# checks, so a parse that succeeds took every `d` line there.


@pytest.mark.parametrize("line", [
    "d 4 1 2 0", "d\t4\t1\t2\t0", "d   4  1 \t 2    0", "  d 4 1 2 0 \t",
    "d +4 +1 2 0", "d 004 01 +002 0", "d 4 2 1 0", "d 4 1 2 1 0",
])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_every_valid_d_shape_is_declared_by_the_fast_form(line, end):
    # the line and `d 5 1 2 0` write the same set two ways
    text = end.join(["p cnf 6 1", "a 1 2 3 0", line, "d 5 1 2 0", "4 5 6 0", ""])
    parsed = parse_dqdimacs(text)
    assert parsed == reference_parse_dqdimacs(text)
    existentials = parsed.formula.prefix.existentials
    assert existentials[4] == {1, 2} and existentials[4] is existentials[5]


def d_lines_text(n: int, k: int, spellings: int = 1) -> str:
    """n `d` lines after an `a` line of k universals, each listing all k
    of them, written in `spellings` orders taken in turn."""
    universals = list(range(1, k + 1))
    orders = [" ".join(map(str, universals[i:] + universals[:i]))
              for i in range(spellings)]
    return "".join([f"p cnf {k + n} 0\na {orders[0]} 0\n",
                    *(f"d {y} {orders[y % spellings]} 0\n"
                      for y in range(k + 1, k + n + 1))])


def test_parse_converts_each_distinct_dependency_text_once(monkeypatch):
    # 2 header counts, the k universals of the `a` line, the n `d`
    # variables, and the k universals of each distinct text once
    import dqprep.dqdimacs as module

    converted = []

    def counting_int(token):
        converted.append(token)
        return int(token)

    n, k = 40, 30
    texts = {spellings: d_lines_text(n, k, spellings) for spellings in (1, 2)}
    expected = {spellings: reference_parse_dqdimacs(text)
                for spellings, text in texts.items()}
    monkeypatch.setattr(module, "int", counting_int, raising=False)
    for spellings, text in texts.items():
        converted.clear()
        assert parse_dqdimacs(text) == expected[spellings]
        assert len(converted) == 2 + k + n + spellings * k


def test_emit_renders_each_distinct_dependency_set_once():
    renders = []

    class Rendered(int):
        def __str__(self):
            renders.append(self)
            return int.__repr__(self)

    n, k = 40, 30
    deps = frozenset(map(Rendered, range(1, k + 1)))
    prefix = Prefix._trusted(frozenset(range(1, k + 1)),
                             {y: deps for y in range(k + 1, k + n + 1)})
    text = emit_dqdimacs(Dqbf(prefix, ()))
    assert len(renders) == k
    assert text == d_lines_text(n, k)


@st.composite
def shared_set_texts(draw) -> str:
    """A prefix whose existentials share up to three dependency sets,
    with an `a` line before the `d` lines and maybe one among them, each
    integer maybe signed or zero-padded, the sets' elements in any
    order, the tokens apart by runs of spaces and tabs; then a few
    clauses, every line ended by LF, CRLF or CR."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    universals = list(range(1, k + 1))
    split = draw(st.integers(1, k))
    sets = draw(st.lists(st.frozensets(st.sampled_from(universals)),
                         min_size=1, max_size=3))
    gap = st.sampled_from((" ", "  ", "\t", " \t ", "   "))

    def spell(v: int) -> str:
        return draw(st.sampled_from(("", "+", "0", "+00"))) + str(v)

    def write(tokens: list[str]) -> str:
        return (draw(st.sampled_from(("", " ", "\t")))
                + "".join(t + draw(gap) for t in tokens[:-1]) + tokens[-1]
                + draw(st.sampled_from(("", " ", "\t "))))

    lines = [f"p cnf {k + n} {draw(st.integers(0, 4))}",
             write(["a", *map(str, universals[:split]), "0"])]
    second_a = draw(st.integers(0, n))
    for i, y in enumerate(range(k + 1, k + n + 1)):
        if i == second_a and split < k:
            lines.append(write(["a", *map(str, universals[split:]), "0"]))
            split = k
        fitting = [deps for deps in sets if max(deps, default=0) <= split]
        deps = draw(st.sampled_from(fitting)) if fitting else frozenset()
        order = draw(st.permutations(sorted(deps)))
        lines.append(write(["d", spell(y), *map(spell, order), "0"]))
    for _ in range(draw(st.integers(0, 4))):
        lits = draw(st.lists(st.integers(1, k + n), unique=True, min_size=1,
                             max_size=3))
        lines.append(" ".join([*(str(v * draw(st.sampled_from((1, -1))))
                                 for v in lits), "0"]))
    return "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r")))
                   for line in lines)


@given(shared_set_texts())
def test_shared_sets_written_irregularly_round_trip(text):
    parsed = parse_dqdimacs(text)
    assert parsed == reference_parse_dqdimacs(text)
    formula = parsed.formula
    sets = list(formula.prefix.existentials.values())
    assert len(set(map(id, sets))) == len(set(sets))
    assert parse_dqdimacs(emit_dqdimacs(formula)).formula == formula
