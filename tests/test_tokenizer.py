"""Tokenizer parity tests — fixtures from FIXTURES.md §8 / reference BasicTokenizer."""

import numpy as np
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fulltextsearch_ray.tokenizer import (
    MAX_TOKEN_SIZE,
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


# -- ASCII fast path of tokenize() == the Arrow kernel path ------------------


def _reference(text: str) -> list[str]:
    return tokenize_batch([text]).terms.to_pylist()


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
