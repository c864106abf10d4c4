"""Tokenizer parity tests — fixtures from FIXTURES.md §8 / reference BasicTokenizer."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fulltextsearch_ray.tokenizer import (
    _DENSE_NON_ASCII,
    MAX_TOKEN_SIZE,
    SPLIT_PATTERN,
    flat_tokens,
    token_counts,
    tokenize,
    tokenize_batch,
    tokenize_with_positions,
)


def test_case_folding_and_splitting():
    assert tokenize("This is test") == ["this", "is", "test"]
    assert tokenize("Programs.") == ["programs"]
    assert tokenize("Hello World!") == ["hello", "world"]


def test_hyphen_and_underscore_are_token_chars():
    assert tokenize("full-text") == ["full-text"]
    assert tokenize("Petro-Mariya-Sophie") == ["petro-mariya-sophie"]
    assert tokenize("a_b c") == ["a_b", "c"]


def test_punctuation_splits():
    assert tokenize("boolean operators: and, or") == ["boolean", "operators", "and", "or"]
    assert tokenize("exciting. Programs can help. This is fantastic!!!") == [
        "exciting", "programs", "can", "help", "this", "is", "fantastic",
    ]


def test_truncation_at_64_keeps_true_length():
    long_tok = "x" * 70
    assert tokenize(f"a {long_tok} b") == ["a", "x" * MAX_TOKEN_SIZE, "b"]
    positions = tokenize_with_positions(f"a {long_tok} b")
    assert positions[1] == ("x" * MAX_TOKEN_SIZE, 2, 70)


def test_non_ascii_letters_are_token_chars():
    assert tokenize("héllo_wörld spark") == ["héllo_wörld", "spark"]


def test_token_ids_one_based_per_doc():
    batch = tokenize_batch(["Hello World!", "This is test"])
    assert batch.counts.tolist() == [2, 3]
    assert batch.doc_index.tolist() == [0, 0, 1, 1, 1]
    assert batch.token_ids.tolist() == [1, 2, 1, 2, 3]
    assert batch.terms.to_pylist() == ["hello", "world", "this", "is", "test"]


def test_token_counts_matches_batch():
    texts = ["Hello World!", "", "a b c d"]
    assert token_counts(texts).tolist() == [2, 0, 4]
    batch = tokenize_batch(texts)
    assert np.array_equal(batch.counts, np.array([2, 0, 4]))


def test_positions_offsets():
    pos = tokenize_with_positions("Hello World!")
    assert pos == [("hello", 0, 5), ("world", 6, 5)]


# -- the RE2 oracle ------------------------------------------------------------


def _re2_flat_tokens(texts):
    """The tokenizer's definition, as one RE2 split per doc:
    ``utf8_lower`` then ``split_pattern_regex(SPLIT_PATTERN)``, empty
    pieces dropped.  Returns (tokens, doc_index, per-doc counts)."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), type=pa.string())
    parts = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(arr, "")), SPLIT_PATTERN)
    flat = pc.list_flatten(parts).to_pylist()
    parent = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
    keep = [bool(t) for t in flat]
    toks = [t for t in flat if t]
    parent = np.asarray(parent, dtype=np.int64)[keep]
    return toks, parent, np.bincount(parent, minlength=len(arr)).astype(np.int64)


def _reference(text: str) -> list[str]:
    return [t[:MAX_TOKEN_SIZE] for t in _re2_flat_tokens([text])[0]]


# -- ASCII fast path of tokenize() == the Arrow kernel path ------------------


def test_ascii_fast_path_exhaustive_chars_and_pairs():
    """Every ASCII char and every ordered ASCII char pair tokenizes
    exactly as the Arrow kernels do (one batched reference call)."""
    chars = [chr(i) for i in range(128)]
    texts = chars + [a + b for a in chars for b in chars]
    batch = tokenize_batch(texts)
    terms = batch.terms.to_pylist()
    bounds = np.concatenate([[0], np.cumsum(batch.counts)])
    for i, text in enumerate(texts):
        assert tokenize(text) == terms[bounds[i]:bounds[i + 1]], repr(text)


_ascii_text = st.text(st.characters(max_codepoint=127), max_size=200)
# long runs of token chars separated by short delimiters: exercises
# the 64-char truncation on both sides
_long_tokens = st.lists(
    st.tuples(
        st.text("aZ09_-", min_size=1, max_size=150),
        st.text(" \t\n\x00\x7f.,;", min_size=1, max_size=3),
    ),
    max_size=6,
).map(lambda parts: "".join(a + b for a, b in parts))


@given(st.one_of(_ascii_text, _long_tokens))
@example("")
@example("   \t\n\r ")
@example("\x00\x01ab\x1fcd\x7f")
@example("Q" * 65 + " " + "-_" * 40)
@settings(max_examples=200, deadline=None)
def test_ascii_fast_path_matches_arrow(text):
    assert tokenize(text) == _reference(text)


def test_non_ascii_takes_arrow_path():
    """Non-ASCII strings keep the Arrow kernels: U+0130 lowercases the
    utf8proc way, and U+11F04 (unassigned in Python's Unicode tables,
    a letter to RE2) stays inside its token."""
    assert "İstanbul".lower() != "istanbul"  # Python's full case mapping
    for text, want in [
        ("İstanbul", ["istanbul"]),
        ("héllo_wörld", ["héllo_wörld"]),
        ("ab\U00011f04cd ef", ["ab\U00011f04cd", "ef"]),
    ]:
        assert tokenize(text) == _reference(text) == want


def test_ascii_input_never_reaches_re2(monkeypatch):
    """The fast path must not call the RE2 split kernel (the per-call
    pattern compile it exists to avoid); non-ASCII still does."""
    calls = []
    real = pc.split_pattern_regex

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pc, "split_pattern_regex", spy)
    assert tokenize("Full-Text search_engine, 2017!") == ["full-text", "search_engine", "2017"]
    assert tokenize("") == []
    assert calls == []
    assert tokenize("İstanbul") == _reference("İstanbul")
    assert len(calls) == 2  # tokenize + the reference, both via RE2


# -- flat_tokens / tokenize_batch == the RE2 oracle --------------------------

# ASCII letters, digits, token punctuation and separators (NUL, DEL,
# whitespace), next to characters whose handling differs by path: 'İ'
# and KELVIN SIGN lower to ASCII letters, U+11F04 is a letter to RE2
# only, U+0301 is a combining mark, '—' and '©' are non-ASCII
# separators.
_CHARS = st.sampled_from(
    list("aZq09_-. ,;!\t\n\x00\x7f") + ["ü", "İ", "\u212a", "\U00011f04", "\u0301", "—", "©", "ß"]
)
_doc = st.one_of(
    st.none(),
    st.text(_CHARS, max_size=30),
    # a token over 64 chars between separators
    st.tuples(st.sampled_from(["x", "é", "\U00011f04"]), st.integers(60, 70), st.text(_CHARS, max_size=5))
    .map(lambda t: t[0] * t[1] + t[2]),
)


@st.composite
def _batches(draw):
    """(docs, the Arrow form handed to the tokenizer): a list, an
    array, a slice with a nonzero offset, or a two-chunk array.  Half
    the batches get an ASCII doc long enough to keep them under
    ``_DENSE_NON_ASCII``, so both splits are drawn."""
    docs = draw(st.lists(_doc, max_size=8))
    if draw(st.booleans()):
        n_high = sum(len(d.encode()) - len(d.encode("ascii", "ignore")) for d in docs if d)
        docs.insert(draw(st.integers(0, len(docs))), "Pad, " * (n_high * _DENSE_NON_ASCII // 5 + 1))
    form = draw(st.sampled_from(["list", "array", "slice", "chunked"]))
    if form == "list":
        return docs, [d or "" for d in docs]
    if form == "array":
        return docs, pa.array(docs, pa.string())
    if form == "slice":
        return docs, pa.array(["Lead", *docs, "Tail"], pa.string()).slice(1, len(docs))
    cut = draw(st.integers(0, len(docs)))
    return docs, pa.chunked_array([pa.array(docs[:cut], pa.string()), pa.array(docs[cut:], pa.string())])


@settings(max_examples=300, deadline=None)
@given(_batches())
# adjacent docs that end and start on token chars
@example((["ab", "cd", "E-f", "_g"], pa.array(["ab", "cd", "E-f", "_g"], pa.string())))
@example(([None, "", " "], pa.array([None, "", " "], pa.string())))
@example((["İx\u212a ü—©x"], ["İx\u212a ü—©x"]))
def test_flat_tokens_and_batch_match_re2_oracle(batch):
    docs, arg = batch
    toks, parent, counts = flat_tokens(arg)
    want_toks, want_parent, want_counts = _re2_flat_tokens(arg)
    assert toks.to_pylist() == want_toks
    assert np.array_equal(parent, want_parent) and parent.dtype == np.int64
    assert np.array_equal(counts, want_counts) and counts.dtype == np.int64
    assert len(counts) == len(docs)

    tb = tokenize_batch(arg)
    assert tb.terms.to_pylist() == [t[:MAX_TOKEN_SIZE] for t in want_toks]
    assert np.array_equal(tb.counts, want_counts)
    assert np.array_equal(tb.doc_index, want_parent)
    want_ids = np.concatenate([np.arange(1, c + 1) for c in want_counts]) if len(want_toks) else []
    assert np.array_equal(tb.token_ids, np.asarray(want_ids, dtype=np.uint64))
    assert tb.token_ids.dtype == np.uint64


def test_ascii_batch_never_reaches_re2(monkeypatch):
    """An all-ASCII batch is split by the byte map alone; a mostly-ASCII
    batch sends its non-ASCII words, and only them, to RE2; a batch
    dense in non-ASCII bytes goes to RE2 whole."""
    calls = []
    real = pc.split_pattern_regex

    def spy(strings, *args, **kwargs):
        calls.append(strings.to_pylist())
        return real(strings, *args, **kwargs)

    monkeypatch.setattr(pc, "split_pattern_regex", spy)
    texts = ["Full-Text search_engine, 2017!", "", None, "x" * 70, "a\x00b\x7fc"]
    assert tokenize_batch(texts).terms.to_pylist() == [
        "full-text", "search_engine", "2017", "x" * MAX_TOKEN_SIZE, "a", "b", "c",
    ]
    assert flat_tokens(pa.chunked_array([pa.array(texts[:2]), pa.array(texts[2:])]))[2].tolist() == [3, 0, 0, 1, 3]
    assert calls == []
    assert flat_tokens(["plain words, " * 12 + "then Über—alles"])[0].to_pylist() == [
        *["plain", "words"] * 12, "then", "über", "alles",
    ]
    assert calls == [["über—alles"]]
    dense = ["Поиск по тексту", "全文検索、索引"]
    assert flat_tokens(dense)[0].to_pylist() == ["поиск", "по", "тексту", "全文検索", "索引"]
    assert calls[1:] == [["поиск по тексту", "全文検索、索引"]]
