"""Parser golden round-trips — ported from ParserTest.cs (FIXTURES.md §4)."""

import pytest

from fulltextsearch_ray.parser import (
    EditQuery,
    FunctionQuery,
    QueryParseError,
    WildQuery,
    WordQuery,
    parse_query,
)


@pytest.mark.parametrize(
    ("input_s", "expected"),
    [
        ("WORD(petro)", "WORD(petro)"),
        ("EDIT(sophie  , 2)", "EDIT(sophie,2)"),
        ("WILD(mariya*)", "WILD(mariya*)"),
        (
            "OR(WORD(petro), WORD(sophie), WORD(mariya))",
            "OR(WORD(petro),WORD(sophie),WORD(mariya))",
        ),
        (
            "SEQ(WORD(PMS), WORD(petro), WORD(sophie), WORD(mariya))",
            "SEQ(WORD(PMS),WORD(petro),WORD(sophie),WORD(mariya))",
        ),
        (
            "OR(AND(WORD(apple),WORD(ap\\*ple), WILD(ap?le*),EDIT(appl,1)), WORD(ba\\)nana\\~1))",
            "OR(AND(WORD(apple),WORD(ap\\*ple),WILD(ap?le*),EDIT(appl,1)),WORD(ba\\)nana\\~1))",
        ),
    ],
)
def test_round_trip(input_s, expected):
    assert str(parse_query(input_s)) == expected


def test_error_position():
    with pytest.raises(QueryParseError) as ei:
        parse_query("WORD(petro) and apple")
    assert ei.value.position == 11


def test_ast_shapes():
    q = parse_query("OR(WORD(a),SEQ(WORD(b),WORD(c)),EDIT(d,1),WILD(e*))")
    assert isinstance(q, FunctionQuery) and q.name == "OR"
    w, seq, ed, wi = q.args
    assert isinstance(w, WordQuery) and w.value == "a"
    assert isinstance(seq, FunctionQuery) and seq.name == "SEQ" and len(seq.args) == 2
    assert isinstance(ed, EditQuery) and ed.distance == 1
    assert isinstance(wi, WildQuery) and wi.value == "e*"


def test_escaped_value_unescaped_in_value():
    q = parse_query("WORD(ap\\*ple)")
    assert q.value == "ap*ple"
    assert q.escaped == "ap\\*ple"


def test_unknown_function():
    with pytest.raises(QueryParseError):
        parse_query("FOO(bar)")


def test_unexpected_end():
    with pytest.raises(QueryParseError):
        parse_query("WORD(")
    with pytest.raises(QueryParseError):
        parse_query("")


def test_empty_args_render_reparseable():
    q = parse_query("OR()")
    assert str(q) == "OR()"
    assert str(parse_query(str(q))) == "OR()"


def test_trailing_comma_rejected():
    with pytest.raises(QueryParseError, match="Expected value"):
        parse_query("OR(WORD(a),)")
    # error position for a missing ')' stays within the input
    with pytest.raises(QueryParseError) as e:
        parse_query("OR(WORD(a)")
    assert e.value.position <= len("OR(WORD(a)")


def test_edit_missing_comma_at_eof_reports_comma_position():
    """EDIT(word<EOF> must report the missing comma AT the current
    position, not advance past end-of-string into 'Expected value'."""
    from fulltextsearch_ray.parser import QueryParseError, parse_query

    with pytest.raises(QueryParseError) as ei:
        parse_query("EDIT(word ")
    assert "Expected character ," in str(ei.value)
    assert "(at 10)" in str(ei.value)


def test_edit_rejects_negative_distance():
    """A negative distance parsed and then silently matched nothing;
    it is refused like a non-numeric one."""
    with pytest.raises(QueryParseError, match="invalid edit distance '-1'"):
        parse_query("EDIT(abc,-1)")
    with pytest.raises(QueryParseError, match="invalid edit distance 'x'"):
        parse_query("EDIT(abc,x)")
    assert parse_query("EDIT(abc,0)").distance == 0
