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

Two paths, one output.  Index-side (and any non-ASCII) text goes
through :func:`tokenize_batch`: Arrow C++ kernels lowercase, RE2-split
and truncate a whole batch, with numpy id arithmetic — no per-token
Python loop.  Query-side :func:`tokenize` on pure-ASCII text skips
Arrow: Arrow's ``split_pattern_regex`` recompiles the RE2 pattern on
every call (for the ``\\p{L}\\p{N}`` class that compile dominated a
warm BM25 query), while on ASCII the token class is exactly
``[A-Za-z0-9_-]`` and ``str.lower`` equals ``utf8_lower``, so one
precompiled Python pattern gives the identical terms.
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


def flat_tokens(
    texts: "Iterable[str] | pa.Array | pa.ChunkedArray",
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Lowercased UNtruncated tokens of a batch as parallel arrays:
    (tokens, doc_index, per-doc counts).  Pure Arrow C++ kernels — the
    shared flatten step of the text-analysis / dedup operators (no
    64-char dictionary truncation, matching the SQL oracles' raw
    ``regexp_extract_all`` tokenization)."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), type=pa.string())
    arr = pc.fill_null(arr, "")
    lowered = pc.utf8_lower(arr)
    parts = pc.split_pattern_regex(lowered, SPLIT_PATTERN)
    flat = pc.list_flatten(parts)
    parent = np.asarray(pc.list_parent_indices(parts).to_numpy(zero_copy_only=False))
    keep = np.asarray(pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False))
    toks = flat.filter(pa.array(keep))
    parent = parent[keep]
    counts = np.bincount(parent, minlength=len(arr)).astype(np.int64)
    return toks, parent, counts


def tokenize_batch(texts: "Iterable[str] | pa.Array | pa.ChunkedArray") -> TokenizedBatch:
    """Tokenize a batch of documents into parallel exploded arrays.

    Fully Arrow-native hot path: lowercasing, regex splitting,
    flattening and term truncation are C++ kernels — no Python string
    objects are created (the old per-doc ``findall`` path allocated
    hundreds of Python strings per document, which destroyed
    multi-worker scaling via allocator pressure).  Ids/indices are
    numpy arithmetic.
    """
    toks, _parent, counts = flat_tokens(texts)
    n_docs = len(counts)
    # Truncate >64-char terms (vectorized; no-op for the common case).
    # NOTE a documented parity divergence: this counts CODEPOINTS,
    # while the reference's MAX_TOKEN_SIZE counts .NET UTF-16 code
    # units (an astral char costs 2 there) — see the module docstring.
    terms = pc.utf8_slice_codeunits(toks, 0, MAX_TOKEN_SIZE)
    total = int(counts.sum())
    starts = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    doc_index = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    # 1-based token id within each document.
    token_ids = (np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], counts) + 1).astype(np.uint64)
    return TokenizedBatch(terms, counts, doc_index, token_ids)
