"""Seeded inputs for every workload.

All content comes from ``sources.corpus.synth_code_batch`` at start rows
derived from the seed (``write_synth_corpus`` always starts at row 0, so
a seed could not change its content).  The delta corpus, the planted
duplicates and the query streams derive from the same seed; one seed
gives byte-identical inputs.

Each synthetic batch owns a cold tail of symbols ``sym_<start>_<k>``
(``k`` in hex, at least 8 per batch), which is what the serve-cold
stream cycles through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fulltextsearch_ray.sources.corpus import synth_code_batch

from .oracle import BruteIndex, tokenize

# seed-stream tags, one per kind of input
_INGEST, _SERVE, _CURATE, _QUERIES = 1, 2, 3, 4

STOP_WORDS = ["return", "import", "class", "def", "public", "static"]
# five-letter identifier families of the synthetic corpus (each has terms
# <part>0 .. <part>119): one length, so that the cost of the hot EDIT
# patterns, which scan a term-length band, does not depend on the seed
HOT_FAMILIES = ["index", "query", "token", "cache", "merge", "block", "codec", "field"]
POSITIONS_CACHE = 64   # IndexSearcher(cache_postings=64) default
ENTRY_CACHE = 4096     # IndexSearcher(cache_blocks=4096) default


def rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def write_shards(table: pa.Table, path: str, n_shards: int) -> list[str]:
    os.makedirs(path, exist_ok=True)
    per = -(-table.num_rows // n_shards)
    files = []
    for i in range(n_shards):
        f = os.path.join(path, f"part-{i:05d}.parquet")
        pq.write_table(table.slice(i * per, per), f)
        files.append(f)
    return files


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


@dataclass
class IngestInputs:
    corpus: pa.Table
    delta: pa.Table      # every row carries ``heavy_term`` three times
    heavy_term: str
    probes: list[str]    # BM25 queries compared before and after compaction


def ingest_inputs(seed: int, n_docs: int, n_shards: int, delta_docs: int, n_probes: int) -> IngestInputs:
    r = rng(seed, _INGEST)
    base = int(r.integers(1_000, 9_000)) * 100_000
    per = n_docs // n_shards
    corpus = pa.concat_tables(
        [synth_code_batch(base + i * per, per) for i in range(n_shards)]
    )
    heavy = str(r.choice(STOP_WORDS))
    delta = synth_code_batch(base + n_docs + 10_000, delta_docs, heavy_term=heavy, heavy_every=1)
    probes = []
    for i in range(n_probes):
        src = delta if i % 2 else corpus
        toks = tokenize(src["content"][int(r.integers(src.num_rows))].as_py())
        probes.append(" ".join(r.choice(toks, size=2)) + (f" {heavy}" if i % 4 == 1 else ""))
    return IngestInputs(corpus, delta, heavy, probes)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def serve_corpus(seed: int, n_docs: int, chunk: int, groups: int = 8) -> pa.Table:
    """``n_docs`` rows built ``chunk`` rows per generator call, so each
    ``chunk`` docs carry their own 8 tail symbols: the long tail the cold
    stream cycles through is about 7 * n_docs / chunk terms, above the
    BM25 entry cache.

    Batch starts come from ``groups`` row ranges of different magnitude
    (``d * 10**(4+g) + chunk * i``, ``d`` from the seed), so tail symbols
    have ``groups`` different lengths, as row offsets drawn from across a
    large corpus would; an EDIT over the tail then scans a length band
    of a few groups, not the whole tail.  Every base is a multiple of
    10, so starts that differ only in the units digit share a group."""
    d = int(rng(seed, _SERVE).integers(1, 10))
    starts = [d * 10 ** (4 + i % groups) + chunk * (i // groups) for i in range(n_docs // chunk)]
    return pa.concat_tables([synth_code_batch(s, chunk) for s in starts])


@dataclass
class QueryStreams:
    bm25: list[str]                    # query text
    lang: list[tuple[str, str, tuple]]  # (query, type, args); types cycle LANG_TYPES
    pattern_terms: set = field(default_factory=set)   # hot: union of lang terms


LANG_TYPES = ["WORD", "AND", "SEQ", "WILD", "EDIT"]


def render(kind: str, args: tuple) -> str:
    if kind in ("AND", "SEQ"):
        return f"{kind}(WORD({args[0]}),WORD({args[1]}))"
    if kind == "EDIT":
        return f"EDIT({args[0]},{args[1]})"
    return f"{kind}({args[0]})"


def _bm25_queries(r, pick, n: int) -> list[str]:
    return [" ".join(pick(int(r.integers(1, 4)))) for _ in range(n)]


def hot_streams(seed: int, ref: BruteIndex, n: int) -> QueryStreams:
    """High-df head terms.  BM25 draws 1-3 of the 200 highest-df terms
    (all fit the 4,096-entry BM25 cache).  The language mix stays inside
    one identifier family, and its patterns are chosen so that the union
    of every term they touch fits the 64-entry positions cache."""
    r = rng(seed, _QUERIES)
    dfs = np.array([ref.df(t) for t in ref.vocab])
    head = [ref.vocab[i] for i in np.argsort(-dfs, kind="stable")[:200]]
    bm25 = _bm25_queries(r, lambda k: r.choice(head, size=k, replace=False), n)

    vocab = set(ref.vocab)
    for p in r.permutation(HOT_FAMILIES):
        words = [w for w in [f"{p}{i}" for i in range(20)] if w in vocab]
        wilds = [f"{p}1*", f"{p}1?", f"{p}?", f"{p}10?", f"{p}11?"]
        edits = [f"{p}1", f"{p}11"]
        touched = set(words)
        for w in wilds:
            touched.update(ref.wild_terms(w))
        for e in edits:
            touched.update(ref.edit_terms(e, 1))
        if len(touched) <= POSITIONS_CACHE - 4 and len(words) >= 10:
            break
    else:
        raise RuntimeError("no identifier family fits the positions cache")
    lang = []
    for i in range(n):
        kind = LANG_TYPES[i % 5]
        a, b = (str(w) for w in r.choice(words, size=2, replace=False))
        if kind == "WORD":
            args = (a,)
        elif kind in ("AND", "SEQ"):
            args = (a, b)
        elif kind == "WILD":
            args = (wilds[int(r.integers(len(wilds)))],)
        else:
            args = (edits[int(r.integers(len(edits)))], 1)
        lang.append((render(kind, args), kind, args))
    return QueryStreams(bm25, lang, touched)


def cold_streams(seed: int, ref: BruteIndex, n: int) -> QueryStreams:
    """Long-tail symbols, each used once per run, taken from a seeded
    cycle over all of them (more distinct terms than the BM25 cache).
    WILD replaces the units digit of a batch start with '?' (about 5
    batches match); EDIT(sym_<s>_<k><j>, 1) matches sym_<s>_<k> and
    sym_<s>_<j> (and any other tail symbol one edit away)."""
    r = rng(seed, _QUERIES + 100)
    tail = [t for t in ref.vocab if t.startswith("sym_")]
    if len(tail) <= ENTRY_CACHE:
        raise RuntimeError(f"serve-cold needs more than {ENTRY_CACHE} tail terms, has {len(tail)}")
    cycle = list(r.permutation(tail))
    pos = [0]

    def take(k: int) -> list[str]:
        out = [cycle[(pos[0] + j) % len(cycle)] for j in range(k)]
        pos[0] += k
        return out

    bm25 = _bm25_queries(r, take, n)
    by_batch: dict[str, list[str]] = {}
    for t in tail:
        by_batch.setdefault(t.rsplit("_", 1)[0], []).append(t)
    batches = [b for b in r.permutation(sorted(by_batch)) if len(by_batch[b]) >= 2]
    lang = []
    for i in range(n):
        kind = LANG_TYPES[i % 5]
        # one batch per query, so no query finds another's terms cached
        b = batches[i % len(batches)]
        a, c = (str(t) for t in r.choice(by_batch[b], size=2, replace=False))
        if kind == "WORD":
            args = (a,)
        elif kind == "AND":
            args = (a, c)
        elif kind == "SEQ":
            docs, poss = ref.occurrences(a)
            j = int(r.integers(len(docs)))
            toks = ref.tokens[int(docs[j]) - ref.first_doc_id]
            args = (a, toks[int(poss[j])] if int(poss[j]) < len(toks) else toks[0])
        elif kind == "WILD":
            start, k = b[len("sym_"):], a.rsplit("_", 1)[1]
            args = (f"sym_{start[:-1]}?_{k}",)
        else:
            args = (f"{b}_{a.rsplit('_', 1)[1]}{c.rsplit('_', 1)[1]}", 1)
        lang.append((render(kind, args), kind, args))
    return QueryStreams(bm25, lang)


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------


@dataclass
class CurateInputs:
    table: pa.Table                       # (doc_id, text)
    exact: list[tuple[int, int]]          # (original id, copy id)
    near: list[tuple[int, int]]


def curate_inputs(seed: int, n_docs: int, tokens_per_doc: int, planted_share: float) -> CurateInputs:
    """``n_docs`` source docs plus planted exact and near copies (one
    token replaced) of distinct sources, shuffled; ids 1..M in row order."""
    r = rng(seed, _CURATE)
    base = int(r.integers(1_000, 9_000)) * 100_000
    texts = synth_code_batch(base, n_docs, tokens_per_doc=tokens_per_doc)["content"].to_pylist()
    n_plant = max(1, int(n_docs * planted_share))
    src = r.choice(n_docs, size=2 * n_plant, replace=False)
    rows = [(t, None, None) for t in texts]
    for s in src[:n_plant]:
        rows.append((texts[s], int(s), "exact"))
    for i, s in enumerate(src[n_plant:]):
        words = texts[s].split(" ")
        words[int(r.integers(len(words)))] = f"zmut{i}"
        rows.append((" ".join(words), int(s), "near"))
    order = r.permutation(len(rows))
    id_of_row = np.empty(len(rows), dtype=np.int64)
    id_of_row[order] = np.arange(1, len(rows) + 1)
    exact, near = [], []
    for row, (_t, s, kind) in enumerate(rows):
        if kind is not None:
            (exact if kind == "exact" else near).append((int(id_of_row[s]), int(id_of_row[row])))
    table = pa.table({
        "doc_id": pa.array(np.arange(1, len(rows) + 1), pa.int64()),
        "text": pa.array([rows[i][0] for i in order], pa.string()),
    })
    return CurateInputs(table, exact, near)
