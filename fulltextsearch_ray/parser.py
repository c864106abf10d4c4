"""Query-language parser: ``OR/AND/SEQ/WORD/WILD/EDIT`` over ``NAME(args,…)``.

Re-implements the reference grammar exactly (behavior observed at
``IndexTypes/Parser/QueryParser.cs`` and ``Parser/AstQuery.cs``; golden
round-trips in ``ParserTest.cs`` / FIXTURES.md §4):

* operation names are runs of uppercase letters;
* special characters ``, ( ) \\ ~ * ?`` must be backslash-escaped
  inside terms; whitespace (space/tab) separates/terminates terms;
* ``WILD`` additionally accepts unescaped ``*``/``?``;
* ``EDIT(word, k)`` parses ``k`` as an integer;
* errors carry character positions;
* canonical ``str()`` re-renders with escaped values, no spaces.

Driver-side, pure Python — no Dataset involvement (SURVEY.md §2.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

SPECIAL_CHARS = frozenset(",()\\~*?")
WHITESPACE = frozenset(" \t")
FUNCTION_NAMES = frozenset({"OR", "AND", "SEQ"})
TERM_NAMES = frozenset({"WORD", "WILD", "EDIT"})


class QueryParseError(Exception):
    def __init__(self, message: str, position: int = -1):
        super().__init__(f"{message} (at {position})" if position >= 0 else message)
        self.message = message
        self.position = position


@dataclass
class AstQuery:
    name: str

    def to_canonical(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_canonical()


@dataclass
class FunctionQuery(AstQuery):
    args: list[AstQuery] = field(default_factory=list)

    def to_canonical(self) -> str:
        # always parenthesize: a bare name ('OR') is not re-parseable,
        # breaking the canonical round-trip for an empty arg list
        return f"{self.name}({','.join(a.to_canonical() for a in self.args)})"


@dataclass
class TermQueryAst(AstQuery):
    value: str          # unescaped value (used for matching)
    escaped: str        # escaped form (used for rendering)

    def to_canonical(self) -> str:
        return f"{self.name}({self.escaped})"


@dataclass
class WordQuery(TermQueryAst):
    pass


@dataclass
class WildQuery(TermQueryAst):
    pass


@dataclass
class EditQuery(TermQueryAst):
    distance: int = 0

    def to_canonical(self) -> str:
        return f"{self.name}({self.escaped},{self.distance})"


def parse_query(s: str) -> AstQuery:
    query, pos = _parse(s, 0)
    if pos != len(s):
        raise QueryParseError("Unexpected text", pos)
    return query


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos] in WHITESPACE:
        pos += 1
    return pos


def _ensure_not_end(s: str, pos: int) -> None:
    if pos >= len(s):
        raise QueryParseError("Unexpected end of query", pos)


def _parse(s: str, pos: int) -> tuple[AstQuery, int]:
    pos = _skip_ws(s, pos)
    _ensure_not_end(s, pos)

    name_start = pos
    while pos < len(s) and s[pos].isupper():
        pos += 1
    if name_start == pos:
        raise QueryParseError("Empty operation name", pos)
    name = s[name_start:pos]

    pos = _skip_ws(s, pos)
    _ensure_not_end(s, pos)
    if s[pos] != "(":
        raise QueryParseError("Expected character (", pos)
    pos += 1

    if name in FUNCTION_NAMES:
        query, pos = _parse_arguments(s, pos, name)
    elif name == "WORD":
        query, pos = _parse_term(s, pos, "WORD")
    elif name == "WILD":
        query, pos = _parse_term(s, pos, "WILD")
    elif name == "EDIT":
        query, pos = _parse_edit(s, pos)
    else:
        raise QueryParseError(f"no parser for arguments of {name}", pos)

    pos = _skip_ws(s, pos)
    _ensure_not_end(s, pos)
    if s[pos] != ")":
        raise QueryParseError("Expected character )", pos)
    return query, pos + 1


def _parse_arguments(s: str, pos: int, name: str) -> tuple[AstQuery, int]:
    query = FunctionQuery(name)
    while pos < len(s) and s[pos] not in SPECIAL_CHARS:
        sub, pos = _parse(s, pos)
        query.args.append(sub)
        pos = _skip_ws(s, pos)
        if pos >= len(s):
            break  # caller reports the missing ')' at a real position
        if s[pos] != ",":
            break
        pos += 1
        nxt = _skip_ws(s, pos)
        if nxt >= len(s) or s[nxt] == ")":
            # 'OR(WORD(a),)' silently parsed as OR(WORD(a)) before
            raise QueryParseError("Expected value", nxt)
    return query, pos


def _parse_term(s: str, pos: int, name: str) -> tuple[TermQueryAst, int]:
    pos = _skip_ws(s, pos)
    value: list[str] = []
    escaped: list[str] = []
    while pos < len(s):
        c = s[pos]
        if c == "\\":
            if pos + 1 >= len(s):
                raise QueryParseError("expected escape character", pos)
            if s[pos + 1] not in SPECIAL_CHARS:
                raise QueryParseError("invalid escape character", pos + 1)
            escaped.append("\\")
            pos += 1
            c = s[pos]
        elif name == "WILD" and c in "*?":
            pass  # accepted wildcard characters
        elif c in WHITESPACE or c in SPECIAL_CHARS:
            cls = WildQuery if name == "WILD" else WordQuery
            return cls(name, "".join(value), "".join(escaped)), pos
        escaped.append(c)
        value.append(c)
        pos += 1
    raise QueryParseError("Expected value", pos)


def _parse_edit(s: str, pos: int) -> tuple[EditQuery, int]:
    word, pos = _parse_term(s, pos, "WORD")
    pos = _skip_ws(s, pos)
    if pos >= len(s) or s[pos] != ",":
        # a missing comma at END of input must also report the comma at
        # the current position, not advance past EOF into a misleading
        # "Expected value (at len+1)"
        raise QueryParseError("Expected character ,", pos)
    pos += 1
    dist, pos = _parse_term(s, pos, "WORD")
    pos = _skip_ws(s, pos)
    try:
        distance = int(dist.value)
        valid = distance >= 0  # a negative one would parse, then match nothing
    except ValueError:
        valid = False
    if not valid:
        raise QueryParseError(f"invalid edit distance {dist.value!r}", pos)
    return EditQuery("EDIT", word.value, word.escaped, distance), pos
