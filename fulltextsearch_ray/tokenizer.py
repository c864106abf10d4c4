"""Vectorized tokenizer with parity to the reference ``BasicTokenizer``.

Reference behavior reproduced (behavior observed at
``/root/reference/Src/Protsyk.PMS.FullText.Core/IndexTypes/Common/BasicTokenizer.cs:96-109``,
``:62`` and ``FullTextIndexBuilder.cs:97-115``; no code copied):

* A token is a maximal run of characters that are Unicode
  letters/digits or ``'-'`` / ``'_'``.
* Tokens are lowercased.
* Terms longer than ``MAX_TOKEN_SIZE`` (64) characters are truncated to
  64 chars *as dictionary terms*, while the recorded position length
  keeps the true length.
* Token ids are **1-based word positions** per (document, field).

Known, documented divergences from .NET (all outside the conformance
fixtures): Python's ``\\w`` additionally matches Unicode categories
``Nl``/``No`` (e.g. Roman numerals) which .NET ``char.IsLetterOrDigit``
excludes; a handful of locale-special lowercasings ('İ') differ; and
the 64-char truncation counts CODEPOINTS where the reference counts
.NET UTF-16 code units, so a token of >32 astral characters keeps 64
codepoints here vs 32 chars there (astral chars cost 2 UTF-16 units).

Two paths, one output.  The output is defined as Arrow's
``utf8_lower`` then an RE2 split on ``SPLIT_PATTERN``.  Index-side (and
any non-ASCII) text goes through :func:`flat_tokens` /
:func:`tokenize_batch`, which compute it for a whole batch without
running RE2 over ASCII: one 256-entry byte map (ASCII letters lowered,
every ASCII byte outside ``[A-Za-z0-9_-]`` a space) and one
``ascii_split_whitespace``; only the words that still hold a non-ASCII
byte are lowered and RE2-split, then put back in place (a batch dense
in non-ASCII bytes, where most words would be, is RE2-split whole
instead).  Ids are numpy arithmetic — no per-token Python loop.
Query-side :func:`tokenize` on pure-ASCII text skips Arrow: Arrow's
``split_pattern_regex`` recompiles the RE2 pattern on every call (for
the ``\\p{L}\\p{N}`` class that compile dominated a warm BM25 query),
while on ASCII the token class is exactly ``[A-Za-z0-9_-]`` and
``str.lower`` equals ``utf8_lower``, so one precompiled Python pattern
gives the identical terms.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_TOKEN_SIZE = 64
DEFAULT_FIELD_ID = 1

# Token chars: \w (Unicode letters, digits, underscore) plus '-'.
TOKEN_RE = re.compile(r"[\w\-]+")
# The same class restricted to ASCII, where Python and RE2 agree
# exactly — the query fast path of :func:`tokenize`.
_ASCII_TOKEN_RE = re.compile(r"[A-Za-z0-9_\-]+")


class TokenizedBatch(NamedTuple):
    """Exploded tokens for a batch of documents (parallel arrays)."""

    terms: pa.Array           # string; truncated to MAX_TOKEN_SIZE chars
    counts: np.ndarray        # int64, tokens per input document
    doc_index: np.ndarray     # int64, index into the input batch per token
    token_ids: np.ndarray     # uint64, 1-based position per document


def tokenize(text: str) -> list[str]:
    """Tokenize a single document into lowercased (truncated) terms.

    Pure-ASCII text takes a precompiled Python ``findall`` (on ASCII
    the token class and lowercasing match the Arrow kernels exactly,
    and it avoids RE2 recompiling ``SPLIT_PATTERN`` per call).  Any
    other text delegates to the Arrow kernel path
    (:func:`tokenize_batch`) so query-side tokenization is IDENTICAL
    to index-side by construction: Python ``str.lower()`` applies full
    Unicode case mapping while Arrow's ``utf8_lower`` applies
    utf8proc's, and the two disagree on locale-special characters
    ('İ'); Python's ``\\w`` also misses letters newer than its
    Unicode tables (see ``SPLIT_PATTERN``) — a query tokenized
    differently from the index silently misses documents."""
    if text.isascii():
        return [t.lower()[:MAX_TOKEN_SIZE] for t in _ASCII_TOKEN_RE.findall(text)]
    return tokenize_batch(pa.array([text], pa.string())).terms.to_pylist()


def tokenize_with_positions(text: str) -> list[tuple[str, int, int]]:
    """(term, char_offset, true_length) per token — the highlight path.

    Mirrors the reference's forward-index ``TextPosition`` contract:
    offset/length are pre-truncation character spans into the RAW
    text.  Terms are lowered/truncated with the SAME Arrow kernels as
    the index (one batched call), so highlight terms match dictionary
    terms; the span boundaries themselves come from the Python regex
    over the raw text, which can split differently from the index for
    case-expanding characters, and for the 4,388 codepoints RE2 treats
    as letters but Python's ``\\w`` does not (see ``SPLIT_PATTERN``):
    a span boundary can fall inside what the index keeps as one token
    (documented divergences)."""
    ms = list(TOKEN_RE.finditer(text))
    if not ms:
        return []
    toks = pa.array([m.group(0) for m in ms], pa.string())
    terms = pc.utf8_slice_codeunits(pc.utf8_lower(toks), 0, MAX_TOKEN_SIZE).to_pylist()
    return [(t, m.start(), len(m.group(0))) for t, m in zip(terms, ms)]


def token_counts(texts: "Iterable[str] | pa.Array | pa.ChunkedArray") -> np.ndarray:
    """Per-document token count (``doc_len`` for BM25) — built on
    :func:`flat_tokens` so the count matches the INDEX's token stream
    exactly (the old copy split the raw text, which can tokenize
    differently from the lowered text for case-expanding chars)."""
    _toks, _parent, counts = flat_tokens(texts)
    return counts


# RE2 (Arrow) splitter: complement of the token-char class, with '_'
# and '-' added explicitly.  NOT identical to Python's [\w\-]: over all
# 1,112,064 non-surrogate codepoints the two classes disagree on 4,388,
# every one unassigned (Cn) in Python's Unicode 14.0 tables but a
# letter to RE2's newer ones (e.g. U+11F04).  On ASCII they agree.
SPLIT_PATTERN = r"[^\p{L}\p{N}_\-]+"


# One byte map per batch (``bytes.translate``): ASCII letters lowered,
# the other ASCII token chars [a-z0-9_-] kept, every other ASCII byte a
# space, and the bytes of multi-byte UTF-8 sequences (>= 0x80) kept.
_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789_-"
_BYTE_MAP = bytes(
    c + 32 if 65 <= c <= 90 else c if c >= 128 or c in _TOKEN_BYTES else 32
    for c in range(256)
)

# The byte-map split pays per non-ASCII word (a take, a lower, an RE2
# call, the put-back), so it beats one RE2 pass over the docs only
# while such words are few.  A batch with more than one byte >= 0x80
# in this many (Cyrillic, CJK, accented prose) is RE2-split whole.
_DENSE_NON_ASCII = 32


def _offsets(a: pa.Array) -> np.ndarray:
    """The value offsets of a (large) string array: a view of its buffer."""
    dtype = np.int64 if pa.types.is_large_string(a.type) else np.int32
    return np.frombuffer(a.buffers()[1], dtype=dtype)[a.offset : a.offset + len(a) + 1]


def _nonempty(words: pa.Array, parent: np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """``words`` and their ``parent`` entries, empty words dropped."""
    keep = pc.greater(pc.binary_length(words), 0)
    return words.filter(keep), parent[np.asarray(keep.to_numpy(zero_copy_only=False))]


def _flatten(parts) -> tuple[pa.Array, np.ndarray]:
    """The non-empty items of a list array and their row indices."""
    return _nonempty(
        pc.list_flatten(parts),
        np.asarray(pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)),
    )


def _re2_split(strings: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """The output's definition: ``utf8_lower`` then a ``SPLIT_PATTERN``
    split; (tokens, index of the string each came from)."""
    return _flatten(pc.split_pattern_regex(pc.utf8_lower(strings), SPLIT_PATTERN))


def flat_tokens(
    texts: "Iterable[str] | pa.Array | pa.ChunkedArray",
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Lowercased UNtruncated tokens of a batch as parallel arrays:
    (tokens, doc_index, per-doc counts) — the shared flatten step of
    the index, text-analysis and dedup operators (no 64-char dictionary
    truncation, matching the SQL oracles' raw ``regexp_extract_all``
    tokenization).

    The tokens are those of ``utf8_lower`` then a ``SPLIT_PATTERN``
    split of each doc, computed without running RE2 over ASCII: the
    batch's data buffer goes through ``_BYTE_MAP`` and one
    ``ascii_split_whitespace``.  Every ASCII byte outside
    ``[A-Za-z0-9_-]`` is a separator of ``SPLIT_PATTERN`` and
    ``utf8_lower`` maps one codepoint at a time, so a doc's tokens are
    the concatenation of its space-split words' tokens: an ASCII word
    is its own token, and only the words holding a byte >= 0x80 are
    lowered and RE2-split, their tokens put back in place with one
    ``take``.  A batch denser in non-ASCII bytes than one in
    ``_DENSE_NON_ASCII`` is RE2-split whole, which is cheaper there."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), type=pa.string())
    arr = pc.fill_null(arr, "")
    n = len(arr)
    # rebase the offsets so a slice maps only its own bytes
    off = _offsets(arr)
    lo, hi = (int(off[0]), int(off[-1])) if n else (0, 0)
    data = arr.buffers()[2]
    raw = memoryview(data)[lo:hi].tobytes() if data is not None else b""
    n_high = np.count_nonzero(np.frombuffer(raw, dtype=np.uint8) >= 0x80)
    if n_high * _DENSE_NON_ASCII > len(raw):
        words, parent = _re2_split(arr)
    else:
        mapped = pa.Array.from_buffers(
            arr.type, n, [None, pa.py_buffer(off - off.dtype.type(lo)), pa.py_buffer(raw.translate(_BYTE_MAP))]
        )
        words, parent = _flatten(pc.ascii_split_whitespace(mapped))
        if n_high:
            # the words holding a byte >= 0x80: one scan of their bytes
            w_off = _offsets(words)
            w_data = np.frombuffer(words.buffers()[2], dtype=np.uint8)[w_off[0] : w_off[-1]]
            high = np.flatnonzero(w_data >= 0x80) + w_off[0]
            wide = np.unique(np.searchsorted(w_off, high, side="right") - 1)
            sub, k = _re2_split(words.take(pa.array(wide)))
            sub_word = wide[k]
            # the ASCII words and the wide words' tokens, each in word
            # order: a stable sort by word index interleaves the two runs
            narrow = np.ones(len(words), dtype=bool)
            narrow[wide] = False
            narrow = np.flatnonzero(narrow)
            owner = np.concatenate([narrow, sub_word])
            order = np.argsort(owner, kind="stable")
            src = np.concatenate([narrow, len(words) + np.arange(len(sub_word))])[order]
            words = pa.concat_arrays([words, sub]).take(pa.array(src))
            parent = parent[owner[order]]
    counts = np.bincount(parent, minlength=n).astype(np.int64)
    return words, parent, counts


def tokenize_batch(texts: "Iterable[str] | pa.Array | pa.ChunkedArray") -> TokenizedBatch:
    """Tokenize a batch of documents into parallel exploded arrays.

    Fully Arrow-native hot path: lowercasing, splitting (see
    :func:`flat_tokens`), flattening and term truncation are C++
    kernels — no Python string objects are created (the old per-doc
    ``findall`` path allocated hundreds of Python strings per
    document, which destroyed multi-worker scaling via allocator
    pressure).  Ids/indices are numpy arithmetic.
    """
    toks, doc_index, counts = flat_tokens(texts)
    # Truncate >64-char terms; a token of at most 64 bytes has at most
    # 64 codepoints, so the slice runs only when some token is longer.
    # NOTE a documented parity divergence: this counts CODEPOINTS,
    # while the reference's MAX_TOKEN_SIZE counts .NET UTF-16 code
    # units (an astral char costs 2 there) — see the module docstring.
    terms = toks
    if len(toks) and np.diff(_offsets(toks)).max() > MAX_TOKEN_SIZE:
        terms = pc.utf8_slice_codeunits(toks, 0, MAX_TOKEN_SIZE)
    starts = np.cumsum(counts) - counts
    # 1-based token id within each document.
    token_ids = (np.arange(len(doc_index), dtype=np.int64) - starts[doc_index] + 1).astype(np.uint64)
    return TokenizedBatch(terms, counts, doc_index, token_ids)
