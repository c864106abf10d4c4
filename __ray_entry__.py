"""Driver contract for the Ray-Data-native full-text engine.

``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 (plus the training-data extensions) over the driver's
testdata tables; ``oracle_sql()`` gives the DuckDB twin for each
SQL-expressible one.  Column names and float rounding (floor(x*1e6+.5)/1e6)
are matched pairwise so the driver's order-insensitive value-hash
comparison is exact.

Ray is initialised by the driver BEFORE this module is imported — no
ray.init()/shutdown() anywhere in the library or these callables.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

TOKENS_CTE = """
tokens AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '[a-z0-9_-]+')) AS term,
           generate_subscripts(regexp_extract_all(lower(text), '[a-z0-9_-]+'), 1) AS token_id
    FROM documents
)
"""


def _r6(expr: str) -> str:
    return f"floor(({expr}) * 1000000 + 0.5) / 1000000"


def _r12(expr: str) -> str:
    # centroid quantization shared with functions.similarity.round12
    return f"floor(({expr}) * 1000000000000 + 0.5) / 1000000000000"


def _perm_values_sql(num_perm: int = 64) -> str:
    """(p, a, b) VALUES rows for the seeded minhash permutations —
    the exact constants the Ray MinHashStage uses."""
    from fulltextsearch_ray.functions.dedup import _minhash_params

    a, b = _minhash_params(num_perm)
    return ", ".join(f"({p}, {int(a[p])}, {int(b[p])})" for p in range(num_perm))


def _plane_values_sql(n_planes: int, dim: int = 64, seed: int = 13) -> str:
    """(plane_id, [w...]) VALUES rows for the seeded LSH hyperplanes.

    dim is fixed to the driver testdata embedding width (64); the Ray
    side derives the plane matrix from the actual vector width at run
    time with the same seed, so both sides see identical planes.
    ``repr(float)`` round-trips exactly through DuckDB's double parser.
    """
    from fulltextsearch_ray.functions.similarity import lsh_hyperplanes

    pl = lsh_hyperplanes(dim, bits=n_planes, seed=seed)
    return ", ".join(
        "(%d, [%s])" % (i, ", ".join(repr(float(x)) for x in pl[i])) for i in range(n_planes)
    )


def _minhash_pairs_cte() -> str:
    """CTE chain ending in ``agree(a, b, est)`` — the MinHash+LSH
    candidate pairs with signature-agreement estimates (seeded perm
    constants inlined); shared by dedup_minhash_lsh and
    neardup_components."""
    return f"""{TOKENS_CTE},
            agg AS (SELECT doc_id, list(term ORDER BY token_id) AS toks FROM tokens GROUP BY doc_id),
            sh AS (
              SELECT DISTINCT doc_id,
                array_to_string(toks[i:i+2], ' ') AS shingle
              FROM (SELECT doc_id, toks,
                      unnest(generate_series(1, greatest(len(toks) - 2, 1))) AS i
                    FROM agg)),
            perms AS (SELECT * FROM (VALUES {_perm_values_sql(64)}) AS t(p, a, b)),
            hashes AS (SELECT doc_id,
                              ('0x' || substr(md5(shingle), 1, 16))::UBIGINT % 2147483647 AS h
                       FROM sh),
            sigs AS (SELECT doc_id, p,
                            min((a::UBIGINT * h + b::UBIGINT) % 2147483647) AS sig
                     FROM hashes CROSS JOIN perms GROUP BY doc_id, p),
            bnd AS (SELECT doc_id, p // 4 AS band,
                           string_agg(sig::VARCHAR, '-' ORDER BY p) AS pattern
                    FROM sigs GROUP BY doc_id, p // 4),
            bsz AS (SELECT band, pattern, count(*) AS g FROM bnd GROUP BY band, pattern),
            cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
                     FROM bnd x
                     JOIN bnd y ON x.band = y.band AND x.pattern = y.pattern
                                AND x.doc_id < y.doc_id
                     JOIN bsz ON bsz.band = x.band AND bsz.pattern = x.pattern
                     WHERE bsz.g <= 256),
            agree AS (SELECT cand.a, cand.b,
                             sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END) / 64.0 AS est
                      FROM cand
                      JOIN sigs sa ON sa.doc_id = cand.a
                      JOIN sigs sb ON sb.doc_id = cand.b AND sb.p = sa.p
                      GROUP BY cand.a, cand.b)"""


# LSH sign-bucket CTE fragment shared by embed_neardup / ann_lsh: raw
# dot products (sign equals the normalized-dot sign) per (vec, plane).
def _lsh_dots_cte(plane_vals: str) -> str:
    return f"""
ev AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
              generate_subscripts(embedding, 1) AS i
       FROM embeddings),
pl AS (SELECT plane_id, unnest(w)::DOUBLE AS w, generate_subscripts(w, 1) AS i
       FROM (VALUES {plane_vals}) AS t(plane_id, w)),
dots AS (SELECT ev.vec_id, pl.plane_id, sum(ev.v * pl.w) AS d
         FROM ev JOIN pl USING (i) GROUP BY ev.vec_id, pl.plane_id)
"""


def _ivf_oracle_sql(
    n_clusters: int = 8,
    nprobe: int = 3,
    iters: int = 2,
    k: int = 10,
    n_queries: int = 5,
    output: str = "topk",
) -> str:
    """Unrolled deterministic k-means + probe phase mirroring
    functions.similarity.ivf_topk exactly: lowest-id seeding, per-round
    12-decimal centroid quantization (so summation-order float noise
    cannot flip an assignment), argmax ties to the lower cluster.
    ``output="assign"`` returns the final (vec_id, cluster) assignment
    instead of the probe top-k (the ann_index_build twin)."""
    parts = [
        """
ev AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
              generate_subscripts(embedding, 1) AS i
       FROM embeddings),
nrm AS (SELECT vec_id, sqrt(sum(v * v)) AS nr FROM ev GROUP BY vec_id),
nv AS (SELECT ev.vec_id, ev.i, ev.v / greatest(nr, 1e-12) AS v
       FROM ev JOIN nrm USING (vec_id)),
seeds AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cluster
          FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {n}) q),
c0 AS (SELECT seeds.cluster, nv.i, {r12v} AS w
       FROM seeds JOIN nv USING (vec_id))
""".format(n=n_clusters, r12v=_r12("nv.v"))
    ]
    prev = "c0"
    for it in range(1, iters + 1):
        parts.append(
            """
d{it} AS (SELECT nv.vec_id, c.cluster, sum(nv.v * c.w) AS d
         FROM nv JOIN {prev} c USING (i) GROUP BY nv.vec_id, c.cluster),
a{it} AS (SELECT vec_id, cluster FROM (
           SELECT vec_id, cluster,
                  row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cluster ASC) AS rn
           FROM d{it}) q WHERE rn = 1),
m{it} AS (SELECT a.cluster, nv.i, avg(nv.v) AS mw
         FROM a{it} a JOIN nv USING (vec_id) GROUP BY a.cluster, nv.i),
mn{it} AS (SELECT cluster, sqrt(sum(mw * mw)) AS nr FROM m{it} GROUP BY cluster),
cn{it} AS (SELECT m.cluster, m.i, {r12w} AS w
          FROM m{it} m JOIN mn{it} mn USING (cluster)),
c{it} AS (SELECT * FROM cn{it}
         UNION ALL
         SELECT c.* FROM {prev} c
         WHERE c.cluster NOT IN (SELECT DISTINCT cluster FROM cn{it}))
""".format(it=it, prev=prev, r12w=_r12("m.mw / greatest(mn.nr, 1e-12)"))
        )
        prev = f"c{it}"
    if output == "assign":
        parts.append(
            """
dfin AS (SELECT nv.vec_id, c.cluster, sum(nv.v * c.w) AS d
         FROM nv JOIN {cf} c USING (i) GROUP BY nv.vec_id, c.cluster),
afin AS (SELECT vec_id, cluster FROM (
          SELECT vec_id, cluster,
                 row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cluster ASC) AS rn
          FROM dfin) q WHERE rn = 1)
SELECT vec_id::BIGINT AS vec_id, cluster::BIGINT AS cluster FROM afin
""".format(cf=prev)
        )
        return "WITH " + ",\n".join(p.strip() for p in parts)
    parts.append(
        """
qd AS (SELECT nv.vec_id AS query_id, c.cluster, sum(nv.v * c.w) AS d
       FROM nv JOIN {cf} c USING (i) WHERE nv.vec_id < {nq}
       GROUP BY nv.vec_id, c.cluster),
probes AS (SELECT query_id, cluster FROM (
            SELECT query_id, cluster,
                   row_number() OVER (PARTITION BY query_id ORDER BY d DESC, cluster ASC) AS rn
            FROM qd) q WHERE rn <= {np}),
dfin AS (SELECT nv.vec_id, c.cluster, sum(nv.v * c.w) AS d
         FROM nv JOIN {cf} c USING (i) GROUP BY nv.vec_id, c.cluster),
afin AS (SELECT vec_id, cluster FROM (
          SELECT vec_id, cluster,
                 row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, cluster ASC) AS rn
          FROM dfin) q WHERE rn = 1),
cand AS (SELECT p.query_id, v.vec_id AS neighbor_id
         FROM probes p JOIN afin v ON v.cluster = p.cluster
         WHERE v.vec_id != p.query_id),
sims AS (SELECT query_id, neighbor_id,
                list_cosine_similarity(eq.embedding::DOUBLE[], en.embedding::DOUBLE[]) AS c
         FROM cand
         JOIN embeddings eq ON eq.vec_id = cand.query_id
         JOIN embeddings en ON en.vec_id = cand.neighbor_id),
ranked AS (SELECT query_id, neighbor_id, c,
                  row_number() OVER (PARTITION BY query_id ORDER BY c DESC, neighbor_id ASC) AS rank
           FROM sims)
SELECT query_id::BIGINT AS query_id, rank::INTEGER AS rank,
       neighbor_id::BIGINT AS neighbor_id, {r6c} AS cosine
FROM ranked WHERE rank <= {k}
""".format(cf=prev, nq=n_queries, np=nprobe, k=k, r6c=_r6("c"))
    )
    return "WITH " + ",\n".join(p.strip() for p in parts)


# ---------------------------------------------------------------------------
# index cache (one build per sf_dir per process)
# ---------------------------------------------------------------------------

_INDEX_CACHE: dict[str, str] = {}

# the on-disk cache of what the queries build from an sf dir
CACHE_ROOT = os.path.join("/tmp", "ftsray_cache")


def _cache_dir(kind: str, sf_dir: str, fingerprint: str) -> str:
    """The ``kind`` cache entry of ``sf_dir`` at ``fingerprint``, named
    ``<kind>-<sf dir hash>-<fingerprint hash>`` (10 hex digits each).
    The same kind's entries of this sf dir under any other fingerprint
    are removed: a format bump or a regenerated input leaves them
    unreachable.  So is any ``<kind>-*`` entry not of that shape, named
    by an older scheme that no lookup reaches.  Another sf dir's
    current entries are never touched."""
    import re

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    entry = os.path.join(
        CACHE_ROOT, f"{kind}-{key}-{hashlib.md5(fingerprint.encode()).hexdigest()[:10]}"
    )
    current = re.compile(re.escape(kind) + r"-[0-9a-f]{10}-[0-9a-f]{10}")
    for stale in glob.glob(os.path.join(CACHE_ROOT, f"{kind}-*")):
        name = os.path.basename(stale)
        if stale != entry and (name.startswith(f"{kind}-{key}-") or not current.fullmatch(name)):
            shutil.rmtree(stale, ignore_errors=True)
    return entry


def _index_dir_for(sf_dir: str) -> str:
    cached = _INDEX_CACHE.get(sf_dir)
    if cached:
        return cached
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state.index import FORMAT_VERSION

    # the index format number busts stale caches when the format
    # evolves (a searcher refuses an index of another number); the
    # (mtime, size) fingerprint busts them when documents.parquet
    # is regenerated IN PLACE (same path, new content) — without it
    # every index-backed gate would serve the old corpus against
    # oracles running on the new one (same device _ann_index_dir uses);
    # _cache_dir sweeps the entries either leaves behind
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    idx = _cache_dir("docs", sf_dir, f"format{FORMAT_VERSION}:{st.st_mtime_ns}:{st.st_size}")
    if not os.path.exists(os.path.join(idx, "meta.json")):
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        build_index(
            ds, idx, text_col="text", doc_id_col="doc_id",
            overwrite=True, store_forward=True,
        )
    _INDEX_CACHE[sf_dir] = idx
    return idx


def _searcher(sf_dir: str):
    from fulltextsearch_ray.pipelines.query import get_searcher

    return get_searcher(_index_dir_for(sf_dir))


def _docs_ds(sf_dir: str, columns=("doc_id", "text")):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=list(columns))


def _occ_table(searcher, query: str) -> pa.Table:
    t = searcher.search_table(query)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "field_id": t["field_id"].cast(pa.int64()),
            "token_id": t["token_id"].cast(pa.int64()),
        }
    )


def _terms_table(searcher, pattern: str) -> pa.Table:
    return pa.table({"term": pa.array(searcher.lookup(pattern), pa.string())})


# ---------------------------------------------------------------------------
# individual query implementations (Ray side)
# ---------------------------------------------------------------------------


def _q_postings_dump(sf_dir: str):
    from fulltextsearch_ray.pipelines.query import dump_postings_dataset

    return dump_postings_dataset(_index_dir_for(sf_dir))


def _q_term_stats(sf_dir: str):
    """Streaming catalog dataset — works in eager AND lazy (paged-
    catalog) searcher modes; never materializes the vocabulary on the
    driver."""
    return _searcher(sf_dir).term_stats_dataset()


def _q_doc_stats(sf_dir: str):
    import pyarrow.parquet as pq

    from fulltextsearch_ray.state.index import load_meta, segment_dir

    idx = _index_dir_for(sf_dir)
    meta = load_meta(idx)
    tables = [
        pq.read_table(os.path.join(segment_dir(idx, seg), "docs"), columns=["doc_id", "doc_len", "sha256"])
        for seg in meta.segments
    ]
    t = pa.concat_tables(tables)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "doc_len": t["doc_len"].cast(pa.int64()),
            "sha256": t["sha256"],
        }
    )


def _q_top_terms(sf_dir: str):
    """Distributed sort-limit over the catalog dataset — no
    whole-vocabulary driver lexsort."""
    return _searcher(sf_dir).top_terms(20)


def _q_bm25(sf_dir: str):
    from fulltextsearch_ray.functions.common import round6

    s = _searcher(sf_dir)
    docs, scores = s.bm25_scores(["table", "key", "scan"])
    scores = round6(scores)
    order = np.lexsort((docs, -scores))[:10]
    return pa.table(
        {
            "doc_id": pa.array(docs[order].astype(np.int64)),
            "score": pa.array(scores[order], pa.float64()),
        }
    )


def _q_bm25_inmem(sf_dir: str):
    """BM25 over the IN-MEMORY index variant (reference
    InMemoryIndex.cs) — must reproduce the persistent index's scores
    exactly, so it shares the bm25_topk oracle."""
    from fulltextsearch_ray.functions.common import round6
    from fulltextsearch_ray.pipelines.memory import build_in_memory

    mem = build_in_memory(_docs_ds(sf_dir), text_col="text", doc_id_col="doc_id")
    docs, scores = mem.bm25_scores(["table", "key", "scan"])
    scores = round6(scores)
    order = np.lexsort((docs, -scores))[:10]
    return pa.table(
        {
            "doc_id": pa.array(docs[order].astype(np.int64)),
            "score": pa.array(scores[order], pa.float64()),
        }
    )


def _q_search_docs(sf_dir: str):
    t = _searcher(sf_dir).search_docs("WORD(table)")
    # per-doc min/max over the token_ids list column via segmented
    # reduction on the flat values (every doc has >= 1 match, so no
    # empty-list segments)
    col = t["token_ids"].combine_chunks()
    vals = np.asarray(col.values.to_numpy(zero_copy_only=False), dtype=np.int64)
    offs = np.asarray(col.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
    # reduceat silently reads the NEXT doc's values for an empty
    # segment and runs the last segment to the end of the child buffer
    # (which can extend past offsets[-1] on sliced arrays) — fail loud
    # on the first and truncate for the second
    if len(offs) > 1 and not (np.diff(offs) > 0).all():
        raise ValueError("search_docs emitted a doc with an empty token_ids list")
    if len(offs):
        vals = vals[: offs[-1]]
    starts = offs[:-1]
    first = np.minimum.reduceat(vals, starts) if len(starts) else np.empty(0, np.int64)
    last = np.maximum.reduceat(vals, starts) if len(starts) else np.empty(0, np.int64)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_matches": t["n_matches"],
            "first_token": pa.array(first, pa.int64()),
            "last_token": pa.array(last, pa.int64()),
        }
    )


def _q_highlight(sf_dir: str):
    """Distributed search-display pipeline: hits broadcast through the
    object store, spans fetched inside actor tasks from the forward
    store — no driver-side per-match dict (round-2 VERDICT #5)."""
    from fulltextsearch_ray.functions.highlight import highlight_matches

    return highlight_matches(_docs_ds(sf_dir), _index_dir_for(sf_dir), "WORD(table)")


def _q_enwiki_parse(sf_dir: str):
    """XML round-trip gate for the enwiki source (reference input type
    ``enwiki``): documents are rendered into abstract-dump-shaped XML
    shards (title = "Wikipedia: " + first 40 chars, escaped), then
    parsed back by ``read_enwiki_corpus`` — positional ids must equal
    the doc_id rank and content must round-trip exactly."""
    import xml.sax.saxutils as sax

    import pyarrow.parquet as pq

    from fulltextsearch_ray.sources.enwiki import read_enwiki_corpus

    _st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    xml_dir = _cache_dir("enwiki", sf_dir, f"v1:{_st.st_mtime_ns}:{_st.st_size}")
    done = os.path.join(xml_dir, "_done")
    if not os.path.exists(done):
        os.makedirs(xml_dir, exist_ok=True)
        t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
        t = t.sort_by("doc_id")
        titles = [s[:40] for s in t["text"].to_pylist()]
        shards = 4
        per = (len(titles) + shards - 1) // shards
        for s in range(shards):
            chunk = titles[s * per : (s + 1) * per]
            with open(os.path.join(xml_dir, f"shard-{s:02d}.xml"), "w", encoding="utf-8") as f:
                f.write("<feed>\n")
                for title in chunk:
                    f.write(f"  <doc><title>Wikipedia: {sax.escape(title)}</title></doc>\n")
                f.write("</feed>\n")
        open(done, "w").close()

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64()), "content": b["content"]})

    return read_enwiki_corpus(xml_dir).map_batches(project, batch_format="pyarrow")


def _q_split_hash(sf_dir: str):
    from fulltextsearch_ray.functions.sampling import split_by_hash

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64()), "split": b["split"]})

    return split_by_hash(_docs_ds(sf_dir, ("doc_id",))).map_batches(
        project, batch_format="pyarrow"
    )


def _q_sample_stratified(sf_dir: str):
    from fulltextsearch_ray.functions.sampling import stratified_sample

    rates = {"en": 1.0, "de": 0.5, "es": 0.25, "fr": 0.1}

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64()), "lang": b["lang"]})

    return stratified_sample(
        _docs_ds(sf_dir, ("doc_id", "lang")), group_col="lang", rates=rates
    ).map_batches(project, batch_format="pyarrow")


def _q_pack_sequences(sf_dir: str):
    from fulltextsearch_ray.functions.sampling import pack_sequences

    return pack_sequences(_docs_ds(sf_dir), seq_len=256)


def _q_contamination(sf_dir: str):
    """Benchmark set = documents with doc_id % 97 == 0 (small by
    construction); every doc scored for shingle overlap against it."""
    import duckdb

    from fulltextsearch_ray.functions.cleaning import contamination_check

    bench = (
        duckdb.connect()
        .execute(
            "SELECT text FROM read_parquet(?) WHERE doc_id % 97 = 0 ORDER BY doc_id",
            [os.path.join(sf_dir, "documents.parquet")],
        )
        .arrow()["text"]
        .to_pylist()
    )

    def cast_ids(b: pa.Table) -> pa.Table:
        return b.set_column(0, "doc_id", b["doc_id"].cast(pa.int64()))

    return contamination_check(_docs_ds(sf_dir), bench, n=3).map_batches(
        cast_ids, batch_format="pyarrow"
    )


def _q_dedup_canonical(sf_dir: str):
    """End-to-end dedup APPLY: MinHash-LSH pairs → components →
    canonical-only corpus (kept doc ids)."""
    from fulltextsearch_ray.functions.components import canonical_docs
    from fulltextsearch_ray.functions.dedup import minhash_lsh_pairs

    docs = _docs_ds(sf_dir, ("doc_id",))
    pairs = minhash_lsh_pairs(_docs_ds(sf_dir), num_perm=64, bands=16, threshold=0.5)

    def cast_ids(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64())})

    return canonical_docs(docs, pairs).map_batches(cast_ids, batch_format="pyarrow")


def _q_redact_pii(sf_dir: str):
    """Gate fixture: the corpus has no PII, so both sides prepend the
    SAME deterministic email/IP/phone preamble derived from doc_id —
    the redaction kernels then run on non-degenerate input."""
    from fulltextsearch_ray.functions.cleaning import redact_pii_batch

    def with_preamble(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        pre = [
            f"user{i}@example.com ip 10.0.{i % 256}.7 call +49{1000000 + i} " for i in ids
        ]
        import pyarrow.compute as pc

        text = pc.binary_join_element_wise(pa.array(pre, pa.string()), b["text"], "")
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64()), "text": text})

    return (
        _docs_ds(sf_dir)
        .map_batches(with_preamble, batch_format="pyarrow")
        .map_batches(redact_pii_batch, batch_format="pyarrow")
    )


def _q_repetition(sf_dir: str):
    """Gate fixture: inject line breaks (replace ' scan ' → newline) on
    both sides so the duplicate-line statistics see multi-line docs."""
    from fulltextsearch_ray.functions.cleaning import repetition_batch

    def with_lines(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "text": pc.replace_substring(b["text"], " scan ", "\n"),
            }
        )

    return _docs_ds(sf_dir).map_batches(with_lines, batch_format="pyarrow").map_batches(
        repetition_batch, batch_format="pyarrow"
    )


def _q_top_bigrams(sf_dir: str):
    from fulltextsearch_ray.functions.cleaning import top_bigrams

    return top_bigrams(_docs_ds(sf_dir), k=20)


def _q_dedup_exact(sf_dir: str):
    from fulltextsearch_ray.functions.dedup import exact_dedup

    return exact_dedup(_docs_ds(sf_dir))


def _q_ngram_jaccard(sf_dir: str):
    from fulltextsearch_ray.functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs_ds(sf_dir), n=3, threshold=0.02, shingle_df_cap=256)


def _q_simhash(sf_dir: str):
    from fulltextsearch_ray.functions.dedup import simhash_batch

    return _docs_ds(sf_dir).map_batches(simhash_batch, batch_format="pyarrow")


def _q_neardup_components(sf_dir: str):
    """MinHash-LSH pairs → connected components (near-dup clusters,
    min-id canonical labels) via distributed contraction (local exact solves + star-edge levels)."""
    from fulltextsearch_ray.functions.components import connected_components
    from fulltextsearch_ray.functions.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_docs_ds(sf_dir), num_perm=64, bands=16, threshold=0.5)
    return connected_components(pairs)


def _q_simhash_neardup(sf_dir: str):
    from fulltextsearch_ray.functions.dedup import simhash_neardup_pairs

    return simhash_neardup_pairs(_docs_ds(sf_dir), max_hamming=3, bands=4)


def _q_minhash(sf_dir: str):
    from fulltextsearch_ray.functions.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs_ds(sf_dir), num_perm=64, bands=16, threshold=0.5)


def _q_embed_neardup(sf_dir: str):
    import ray.data

    from fulltextsearch_ray.functions.dedup import embedding_neardup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return embedding_neardup_pairs(
        ds, threshold=0.35, bands=4, planes_per_band=4, max_bucket=4096
    )


def _load_query_vectors(sf_dir: str):
    """(q_ids, q_mat) for the ANN gates — THE query-set contract
    (vec_id < 5) every ANN oracle mirrors; one definition so a change
    to the query set cannot silently break a single gate."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), filters=[("vec_id", "<", 5)]
    )
    q_ids = np.asarray(qt["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    q_mat = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
    return q_ids, q_mat


def _q_ann(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from fulltextsearch_ray.functions.similarity import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q_ids, q_mat = _load_query_vectors(sf_dir)
    return brute_force_topk(ray.data.read_parquet(path), q_ids, q_mat, k=10)


def _q_ann_lsh(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from fulltextsearch_ray.functions.similarity import lsh_bucketed_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q_ids, q_mat = _load_query_vectors(sf_dir)
    return lsh_bucketed_topk(ray.data.read_parquet(path), q_ids, q_mat, k=10, bits=4)


def _q_ann_ivf(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from fulltextsearch_ray.functions.similarity import ivf_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q_ids, q_mat = _load_query_vectors(sf_dir)
    return ivf_topk(
        ray.data.read_parquet(path), q_ids, q_mat, k=10, n_clusters=8, nprobe=3, iters=2
    )


def _ann_index_dir(sf_dir: str, *, rebuild: bool = False) -> str:
    """Persisted IVF index artifact for the sf dir's embeddings —
    built once, served by ann_index_query without re-clustering.  The
    cache tag includes the embeddings file's (mtime, size) fingerprint
    so a regenerated-in-place embeddings.parquet never serves a stale
    index."""
    import ray.data

    from fulltextsearch_ray.functions.similarity import build_ann_index

    emb = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(emb)
    idx = _cache_dir("annidx", sf_dir, f"v1:{st.st_mtime_ns}:{st.st_size}")
    if rebuild or not os.path.exists(os.path.join(idx, "meta.json")):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
        )
        build_ann_index(ds, idx, n_clusters=8, iters=2, overwrite=True)
    return idx


def _q_ann_index_query(sf_dir: str):
    """Build + persist the IVF index, then serve top-k FROM it (no
    re-clustering): must match the from-scratch ann_ivf result exactly,
    so it shares its oracle.  The former separate ann_index_build gate
    is folded in (50-query driver cap); the build itself stays
    pytest-gated via read_ann_assignments round-trips."""
    import pyarrow.parquet as pq

    from fulltextsearch_ray.functions.similarity import query_ann_index

    idx = _ann_index_dir(sf_dir, rebuild=False)
    q_ids, q_mat = _load_query_vectors(sf_dir)
    return query_ann_index(idx, q_ids, q_mat, k=10, nprobe=3)


def _q_embed_project(sf_dir: str):
    from fulltextsearch_ray.functions.similarity import project_embeddings

    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return project_embeddings(ds, out_dim=16)


def _q_lang_id(sf_dir: str):
    from fulltextsearch_ray.functions.text import lang_id_batch

    return _docs_ds(sf_dir).map_batches(lang_id_batch, batch_format="pyarrow")


def _q_quality(sf_dir: str):
    from fulltextsearch_ray.functions.text import quality_batch

    return _docs_ds(sf_dir).map_batches(quality_batch, batch_format="pyarrow")


def _q_token_count(sf_dir: str):
    """Tokenizer + BPE-pretokenizer counts in ONE gate (the driver
    checks at most 50 queries, so the former separate token_count_bpe
    row is folded in — both kernels run over the same docs batch)."""
    from fulltextsearch_ray.functions.text import bpe_token_count_batch, token_count_batch

    def run(b: pa.Table) -> pa.Table:
        out = token_count_batch(b)
        bpe = bpe_token_count_batch(b)
        return out.append_column("n_ws", bpe["n_ws"]).append_column("n_bpe", bpe["n_bpe"])

    return _docs_ds(sf_dir).map_batches(run, batch_format="pyarrow")


def _q_fingerprint(sf_dir: str):
    from fulltextsearch_ray.functions.text import fingerprint_batch

    return _docs_ds(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")


def _q_dup_spans(sf_dir: str):
    from fulltextsearch_ray.functions.spans import dup_spans

    return dup_spans(_docs_ds(sf_dir), gram_len=4, min_count=2)


def _q_cut_spans(sf_dir: str):
    from fulltextsearch_ray.functions.spans import cut_dup_spans

    return cut_dup_spans(_docs_ds(sf_dir), gram_len=4, min_count=2)


def _q_multimodal(sf_dir: str):
    from fulltextsearch_ray.functions.multimodal import DecodeStage, text_as_media

    media = _docs_ds(sf_dir, ("doc_id", "text", "source")).map_batches(
        text_as_media, batch_format="pyarrow"
    )
    return media.map_batches(
        DecodeStage, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", batch_size=64, concurrency=2,
    )


def _events_post(agg):
    from fulltextsearch_ray.functions.common import round6

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": batch["window_start"],
                "event_type": batch["event_type"],
                "n_events": batch["n_events"],
                "sum_value": pa.array(
                    round6(np.asarray(batch["sum_value"].to_numpy(zero_copy_only=False))), pa.float64()
                ),
                "avg_value": pa.array(
                    round6(np.asarray(batch["avg_value"].to_numpy(zero_copy_only=False))), pa.float64()
                ),
            }
        )

    return agg.map_batches(post, batch_format="pyarrow")


def _q_multimodal_resize(sf_dir: str):
    from fulltextsearch_ray.functions.multimodal import DecodeStage, ResizeStage, text_as_media

    media = _docs_ds(sf_dir, ("doc_id", "text", "source")).map_batches(
        text_as_media, batch_format="pyarrow"
    )
    decoded = media.map_batches(
        DecodeStage, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", batch_size=64, concurrency=2,
    )
    return decoded.map_batches(
        ResizeStage, fn_constructor_kwargs={"target": 224, "fake": True},
        batch_format="pyarrow", batch_size=64, concurrency=2,
    )


def _q_multimodal_frames(sf_dir: str):
    from fulltextsearch_ray.functions.multimodal import FrameSampleStage, text_as_media

    media = _docs_ds(sf_dir, ("doc_id", "text", "source")).map_batches(
        text_as_media, batch_format="pyarrow"
    )
    return media.map_batches(
        FrameSampleStage, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", batch_size=64, concurrency=2,
    )


def _q_curate(sf_dir: str):
    from fulltextsearch_ray.pipelines.curate import curate_corpus

    return curate_corpus(_docs_ds(sf_dir), min_quality=0.5)


def _q_events_window(sf_dir: str):
    import ray.data

    from fulltextsearch_ray.functions.windows import tumbling_window_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return _events_post(tumbling_window_agg(ds, window="1h"))


def _q_events_hopping(sf_dir: str):
    import ray.data

    from fulltextsearch_ray.functions.windows import hopping_window_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return _events_post(hopping_window_agg(ds, size_minutes=120, hop_minutes=60))


def _q_events_session(sf_dir: str):
    import ray.data

    from fulltextsearch_ray.functions.common import round6
    from fulltextsearch_ray.functions.windows import session_window_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    agg = session_window_agg(ds, gap_minutes=30)

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "session_start": batch["session_start"],
                "n_events": batch["n_events"],
                "sum_value": pa.array(
                    round6(np.asarray(batch["sum_value"].to_numpy(zero_copy_only=False))), pa.float64()
                ),
            }
        )

    return agg.map_batches(post, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on sf0.001: build the inverted index over the
    documents corpus, run BM25 top-10 for a query set, return results."""
    sf_dir = "/root/testdata/sf0.001"
    s = _searcher(sf_dir)
    out = []
    for qid, q in enumerate(["table key scan", "spark stream window", "customer order group"]):
        top = s.bm25_topk(q, k=10)
        for rank in range(top.num_rows):
            out.append(
                {
                    "query_id": qid,
                    "rank": rank + 1,
                    "doc_id": int(top["doc_id"][rank].as_py()),
                    "score": float(top["score"][rank].as_py()),
                }
            )
    import pandas as pd

    return pd.DataFrame(out)


def queries() -> dict[str, Callable[[str], Any]]:
    base: dict[str, Callable[[str], Any]] = {
        # — fulltext engine core (SURVEY.md §2) —
        "postings_dump": _q_postings_dump,
        "term_stats": _q_term_stats,
        "doc_stats": _q_doc_stats,
        "top_terms": _q_top_terms,
        "word_search": lambda sf: _occ_table(_searcher(sf), "WORD(table)"),
        "or_search": lambda sf: _occ_table(_searcher(sf), "OR(WORD(table),WORD(key))"),
        "and_search": lambda sf: _occ_table(_searcher(sf), "AND(WORD(table),WORD(key))"),
        "phrase_search": lambda sf: _occ_table(_searcher(sf), "SEQ(WORD(table),WORD(part))"),
        "wild_search": lambda sf: _occ_table(_searcher(sf), "WILD(ta*)"),
        # EDIT(low,1): two non-identity distance-1 hits (slow, row) —
        # a round-3 verdict note flagged the old EDIT(tabel,1) gate as
        # trivially green (0 rows on both sides).
        "edit_search": lambda sf: _occ_table(_searcher(sf), "EDIT(low,1)"),
        "lookup_wild": lambda sf: _terms_table(_searcher(sf), "WILD(s*)"),
        "lookup_edit": lambda sf: _terms_table(_searcher(sf), "EDIT(scan,1)"),
        "bm25_topk": _q_bm25,
        "bm25_inmem": _q_bm25_inmem,
        "search_doc_groups": _q_search_docs,
        "highlight": _q_highlight,
        # — training-data operators —
        "enwiki_parse": _q_enwiki_parse,
        "split_hash": _q_split_hash,
        "redact_pii": _q_redact_pii,
        "contamination": _q_contamination,
        "dedup_canonical": _q_dedup_canonical,
        "repetition": _q_repetition,
        "top_bigrams": _q_top_bigrams,
        "sample_stratified": _q_sample_stratified,
        "pack_sequences": _q_pack_sequences,
        "dedup_exact": _q_dedup_exact,
        "dedup_ngram_jaccard": _q_ngram_jaccard,
        "dedup_simhash": _q_simhash,
        "dedup_simhash_neardup": _q_simhash_neardup,
        "dedup_minhash_lsh": _q_minhash,
        "neardup_components": _q_neardup_components,
        "embed_neardup": _q_embed_neardup,
        "ann_cosine": _q_ann,
        "ann_lsh": _q_ann_lsh,
        "ann_ivf": _q_ann_ivf,
        "ann_index_query": _q_ann_index_query,
        "embed_project": _q_embed_project,
        "lang_id": _q_lang_id,
        "quality_score": _q_quality,
        "token_count": _q_token_count,
        "fingerprint": _q_fingerprint,
        "dup_spans": _q_dup_spans,
        "cut_dup_spans": _q_cut_spans,
        "curate_corpus": _q_curate,
        "multimodal_meta": _q_multimodal,
        "multimodal_resize": _q_multimodal_resize,
        "multimodal_frames": _q_multimodal_frames,
        "events_window": _q_events_window,
        "events_hopping": _q_events_hopping,
        "events_session": _q_events_session,
    }
    return base


def oracle_sql() -> dict[str, str]:
    stop_en = "('the','a','is','and','of','to','in','that','it','for')"
    stop_de = "('der','die','das','und','ist','nicht','ein','mit','für')"
    stop_es = "('el','la','es','y','de','que','en','un','por','los')"
    stop_fr = "('le','la','est','et','de','que','un','une','pour','les')"
    stop_zh = "('的','是','了','在','我','有','和','不','人','这')"

    out = {
        "postings_dump": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, term, 1::BIGINT AS field_id, token_id::BIGINT AS token_id FROM tokens
        """,
        "term_stats": f"""
            WITH {TOKENS_CTE}
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
            FROM tokens GROUP BY term
        """,
        "doc_stats": """
            SELECT doc_id,
                   len(regexp_extract_all(lower(text), '[a-z0-9_-]+'))::BIGINT AS doc_len,
                   sha256(text) AS sha256
            FROM documents
        """,
        "top_terms": f"""
            WITH {TOKENS_CTE}
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
            FROM tokens GROUP BY term
            ORDER BY cf DESC, term ASC LIMIT 20
        """,
        "word_search": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, 1::BIGINT AS field_id, token_id::BIGINT AS token_id
            FROM tokens WHERE term = 'table'
        """,
        "or_search": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, 1::BIGINT AS field_id, token_id::BIGINT AS token_id
            FROM tokens WHERE term IN ('table', 'key')
        """,
        "and_search": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, 1::BIGINT AS field_id, token_id::BIGINT AS token_id
            FROM tokens
            WHERE term IN ('table', 'key')
              AND doc_id IN (
                SELECT doc_id FROM tokens WHERE term = 'table'
                INTERSECT
                SELECT doc_id FROM tokens WHERE term = 'key')
        """,
        "phrase_search": f"""
            WITH {TOKENS_CTE}
            SELECT t1.doc_id, 1::BIGINT AS field_id, t1.token_id::BIGINT AS token_id
            FROM tokens t1 JOIN tokens t2
              ON t1.doc_id = t2.doc_id AND t2.token_id = t1.token_id + 1
            WHERE t1.term = 'table' AND t2.term = 'part'
        """,
        "wild_search": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, 1::BIGINT AS field_id, token_id::BIGINT AS token_id
            FROM tokens WHERE regexp_full_match(term, 'ta.*')
        """,
        "edit_search": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, 1::BIGINT AS field_id, token_id::BIGINT AS token_id
            FROM tokens WHERE levenshtein(term, 'low') <= 1
        """,
        "lookup_wild": f"""
            WITH {TOKENS_CTE}
            SELECT DISTINCT term FROM tokens WHERE regexp_full_match(term, 's.*')
        """,
        "lookup_edit": f"""
            WITH {TOKENS_CTE}
            SELECT DISTINCT term FROM tokens WHERE levenshtein(term, 'scan') <= 1
        """,
        "bm25_topk": f"""
            WITH {TOKENS_CTE},
            doclen AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tokens GROUP BY doc_id),
            stats AS (SELECT count(*)::DOUBLE AS n, avg(dl) AS avgdl FROM doclen),
            tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tokens
                   WHERE term IN ('table','key','scan') GROUP BY doc_id, term),
            df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tokens
                   WHERE term IN ('table','key','scan') GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1)
                         * tf.tf * (1.2 + 1)
                         / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * doclen.dl / stats.avgdl))) AS s
              FROM tf
              JOIN df USING (term)
              JOIN doclen ON doclen.doc_id = tf.doc_id
              CROSS JOIN stats
              GROUP BY tf.doc_id)
            SELECT doc_id, {_r6('s')} AS score
            FROM scores ORDER BY {_r6('s')} DESC, doc_id ASC LIMIT 10
        """,
        "search_doc_groups": f"""
            WITH {TOKENS_CTE}
            SELECT doc_id, count(*)::BIGINT AS n_matches,
                   min(token_id)::BIGINT AS first_token,
                   max(token_id)::BIGINT AS last_token
            FROM tokens WHERE term = 'table' GROUP BY doc_id
        """,
        "highlight": """
            -- case-insensitive: the engine tokenizes lowercased, so a
            -- doc containing 'Table' matches WORD(table) and annotate
            -- uppercases the span — the oracle must match it too
            SELECT doc_id,
                   regexp_replace(text, '\\btable\\b', 'TABLE', 'gi') AS annotated
            FROM documents
            WHERE regexp_matches(text, '\\btable\\b', 'i')
        """,
        "enwiki_parse": """
            SELECT row_number() OVER (ORDER BY doc_id)::BIGINT AS doc_id,
                   substr(text, 1, 40) AS content
            FROM documents
        """,
        "contamination": f"""
            WITH {TOKENS_CTE},
            agg AS (SELECT doc_id, list(term ORDER BY token_id) AS toks FROM tokens GROUP BY doc_id),
            sh AS (SELECT doc_id, array_to_string(toks[i:i+2], ' ') AS s
                   FROM (SELECT doc_id, toks,
                           unnest(generate_series(1, greatest(len(toks) - 2, 1))) AS i
                         FROM agg)),
            bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 97 = 0),
            per AS (SELECT sh.doc_id, count(*)::BIGINT AS tot,
                           sum(CASE WHEN bench.s IS NOT NULL THEN 1 ELSE 0 END) AS hit
                    FROM sh LEFT JOIN bench ON bench.s = sh.s
                    GROUP BY sh.doc_id)
            SELECT d.doc_id, COALESCE(per.tot, 0)::BIGINT AS n_shingles,
                   {_r6('COALESCE(per.hit / per.tot, 0)')} AS contamination
            FROM documents d LEFT JOIN per ON per.doc_id = d.doc_id
        """,
        "dedup_canonical": f"""
            WITH RECURSIVE {_minhash_pairs_cte()},
            prs AS (SELECT a, b FROM agree WHERE est >= 0.5),
            e AS (SELECT a AS src, b AS dst FROM prs
                  UNION ALL SELECT b, a FROM prs),
            reach(n, m) AS (
              SELECT src, dst FROM e
              UNION
              SELECT r.n, e.dst FROM reach r JOIN e ON e.src = r.m),
            kills AS (SELECT n FROM reach GROUP BY n HAVING least(n, min(m)) < n)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT n FROM kills)
        """,
        "redact_pii": f"""
            WITH src AS (
              SELECT doc_id,
                     'user' || doc_id || '@example.com ip 10.0.' || (doc_id % 256)
                       || '.7 call +49' || (1000000 + doc_id) || ' ' || text AS text
              FROM documents)
            SELECT doc_id,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}', '<EMAIL>', 'g'),
                       '\\b\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\b', '<IP>', 'g'),
                     '\\+\\d{{7,15}}', '<PHONE>', 'g') AS clean_text,
                   len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}'))::BIGINT AS n_email,
                   len(regexp_extract_all(text,
                     '\\b\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\b'))::BIGINT AS n_ip,
                   len(regexp_extract_all(text, '\\+\\d{{7,15}}'))::BIGINT AS n_phone
            FROM src
        """,
        "repetition": f"""
            WITH src AS (
              SELECT doc_id, replace(text, ' scan ', chr(10)) AS text FROM documents),
            lines AS (
              SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM src),
            lc AS (
              SELECT doc_id, line, count(*)::BIGINT AS c, len(line)::BIGINT AS ln
              FROM lines GROUP BY doc_id, line),
            la AS (
              SELECT doc_id, sum(c) AS nl, count(*)::BIGINT AS nd,
                     sum(c * ln) AS tc,
                     sum(CASE WHEN c > 1 THEN c * ln ELSE 0 END) AS dc
              FROM lc GROUP BY doc_id),
            toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9_-]+')) AS term,
                     generate_subscripts(regexp_extract_all(lower(text), '[a-z0-9_-]+'), 1) AS tid
              FROM src),
            big AS (
              SELECT a.doc_id, a.term || ' ' || b.term AS bg
              FROM toks a JOIN toks b ON b.doc_id = a.doc_id AND b.tid = a.tid + 1),
            bc AS (SELECT doc_id, bg, count(*)::BIGINT AS c FROM big GROUP BY doc_id, bg),
            ba AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM bc GROUP BY doc_id)
            SELECT la.doc_id,
                   {_r6('1.0 - la.nd / la.nl')} AS dup_line_frac,
                   {_r6('COALESCE(la.dc / nullif(la.tc, 0), 0)')} AS dup_line_char_frac,
                   {_r6('COALESCE(ba.mx / ba.tot, 0)')} AS top_bigram_frac
            FROM la LEFT JOIN ba ON ba.doc_id = la.doc_id
        """,
        "top_bigrams": f"""
            WITH {TOKENS_CTE},
            big AS (
              SELECT a.doc_id, a.term || ' ' || b.term AS bigram
              FROM tokens a JOIN tokens b
                ON b.doc_id = a.doc_id AND b.token_id = a.token_id + 1),
            cnt AS (SELECT bigram, count(*)::BIGINT AS n FROM big GROUP BY bigram)
            SELECT bigram, n FROM cnt ORDER BY n DESC, bigram ASC LIMIT 20
        """,
        "split_hash": """
            SELECT doc_id,
                   CASE WHEN b < 9000 THEN 'train'
                        WHEN b < 9500 THEN 'val'
                        ELSE 'test' END AS split
            FROM (SELECT doc_id,
                         ('0x' || substr(md5('split:' || doc_id::VARCHAR), 1, 16))::UBIGINT
                           % 10000 AS b
                  FROM documents)
        """,
        "sample_stratified": """
            SELECT doc_id, lang
            FROM (SELECT doc_id, lang,
                         ('0x' || substr(md5('sample:' || doc_id::VARCHAR), 1, 16))::UBIGINT
                           % 10000 AS b
                  FROM documents)
            WHERE b < CASE lang WHEN 'en' THEN 10000 WHEN 'de' THEN 5000
                                WHEN 'es' THEN 2500 WHEN 'fr' THEN 1000
                                ELSE 0 END
        """,
        "pack_sequences": """
            WITH counts AS (
              SELECT doc_id,
                     len(regexp_extract_all(lower(text), '[a-z0-9_-]+'))::BIGINT AS n
              FROM documents),
            offs AS (
              SELECT doc_id, n,
                     COALESCE(sum(n) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS s
              FROM counts),
            sp AS (
              SELECT doc_id, n, s,
                     unnest(generate_series(s // 256, (s + n - 1) // 256)) AS seq_id
              FROM offs WHERE n > 0)
            SELECT doc_id, seq_id::BIGINT AS seq_id,
                   greatest(seq_id * 256 - s, 0)::BIGINT AS tok_lo,
                   least((seq_id + 1) * 256 - s, n)::BIGINT AS tok_hi
            FROM sp
        """,
        "dedup_exact": """
            SELECT min(doc_id)::BIGINT AS doc_id, count(*)::BIGINT AS n_copies
            FROM documents GROUP BY text
        """,
        "dedup_ngram_jaccard": f"""
            WITH {TOKENS_CTE},
            agg AS (SELECT doc_id, list(term ORDER BY token_id) AS toks FROM tokens GROUP BY doc_id),
            -- shingles grouped by the SAME 64-bit md5 prefix as the
            -- Ray pair stage (functions/dedup.py:ngram_jaccard_pairs),
            -- so grouping — collisions included — is mirrored exactly
            -- (same device as the dup_spans oracle)
            sh AS (
              SELECT DISTINCT doc_id,
                ('0x' || substr(md5(array_to_string(toks[i:i+2], ' ')), 1, 16))::UBIGINT AS h
              FROM (SELECT doc_id, toks,
                      unnest(generate_series(1, greatest(len(toks) - 2, 1))) AS i
                    FROM agg)),
            sizes AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
            -- stop-shingle filter: shingles with df > cap are dropped
            -- from the pair stage (mirrors shingle_df_cap=256)
            hot AS (SELECT h FROM sh GROUP BY h HAVING count(*) > 256),
            common AS (
              SELECT a.doc_id AS a, b.doc_id AS b, count(*)::DOUBLE AS c
              FROM sh a JOIN sh b ON a.h = b.h AND a.doc_id < b.doc_id
              WHERE a.h NOT IN (SELECT h FROM hot)
              GROUP BY a.doc_id, b.doc_id)
            SELECT common.a::BIGINT AS a, common.b::BIGINT AS b,
                   {_r6('common.c / (sa.n + sb.n - common.c)')} AS jaccard
            FROM common
            JOIN sizes sa ON sa.doc_id = common.a
            JOIN sizes sb ON sb.doc_id = common.b
            WHERE {_r6('common.c / (sa.n + sb.n - common.c)')} >= 0.02
        """,
        "dedup_minhash_lsh": f"""
            WITH {_minhash_pairs_cte()}
            SELECT a::BIGINT AS a, b::BIGINT AS b, {_r6('est')} AS est_jaccard
            FROM agree WHERE est >= 0.5
        """,
        "neardup_components": f"""
            WITH RECURSIVE {_minhash_pairs_cte()},
            prs AS (SELECT a, b FROM agree WHERE est >= 0.5),
            e AS (SELECT a AS src, b AS dst FROM prs
                  UNION ALL SELECT b, a FROM prs),
            reach(n, m) AS (
              SELECT src, dst FROM e
              UNION
              SELECT r.n, e.dst FROM reach r JOIN e ON e.src = r.m)
            SELECT n::BIGINT AS doc_id, least(n, min(m))::BIGINT AS component
            FROM reach GROUP BY n
        """,
        "dedup_simhash": f"""
            WITH {TOKENS_CTE},
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tokens GROUP BY doc_id, term),
            bits AS (
              SELECT doc_id, b.b,
                     sum(CASE WHEN ((('0x' || substr(md5(term), 1, 16))::UBIGINT >> b.b) & 1) = 1
                              THEN tf ELSE -tf END) AS s
              FROM tf CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
              GROUP BY doc_id, b.b),
            nib AS (SELECT doc_id, b // 4 AS nibble,
                           sum(CASE WHEN s > 0 THEN (1 << (b % 4)) ELSE 0 END) AS v
                    FROM bits GROUP BY doc_id, b // 4)
            SELECT doc_id, lower(string_agg(to_hex(v), '' ORDER BY nibble DESC)) AS simhash
            FROM nib GROUP BY doc_id
        """,
        "curate_corpus": f"""
            WITH {TOKENS_CTE},
            c AS (SELECT d.doc_id,
                    count(CASE WHEN term IN {stop_en} THEN 1 END) AS c_en,
                    count(CASE WHEN term IN {stop_de} THEN 1 END) AS c_de,
                    count(CASE WHEN term IN {stop_es} THEN 1 END) AS c_es,
                    count(CASE WHEN term IN {stop_fr} THEN 1 END) AS c_fr,
                    count(CASE WHEN term IN {stop_zh} THEN 1 END) AS c_zh,
                    count(term)::DOUBLE AS n_tokens,
                    coalesce(sum(length(term)), 0)::DOUBLE AS tok_chars
                  FROM documents d LEFT JOIN tokens USING (doc_id)
                  GROUP BY d.doc_id),
            feats AS (
              SELECT doc_id,
                   CASE WHEN c_en >= c_de AND c_en >= c_es AND c_en >= c_fr AND c_en >= c_zh THEN 'en'
                        WHEN c_de >= c_es AND c_de >= c_fr AND c_de >= c_zh THEN 'de'
                        WHEN c_es >= c_fr AND c_es >= c_zh THEN 'es'
                        WHEN c_fr >= c_zh THEN 'fr'
                        ELSE 'zh' END AS pred_lang,
                   n_tokens::BIGINT AS n_tokens,
                   {_r6("0.4 * least(n_tokens / 100.0, 1.0) + 0.3 * (1.0 - (c_en / greatest(n_tokens, 1))) + 0.3 * least((tok_chars / greatest(n_tokens, 1)) / 8.0, 1.0)")} AS quality
              FROM c),
            filt AS (SELECT * FROM feats WHERE quality >= 0.5),
            ex AS (SELECT f.doc_id, d.text FROM filt f JOIN documents d USING (doc_id)),
            keepers AS (SELECT min(doc_id) AS doc_id FROM ex GROUP BY text),
            pe AS (SELECT * FROM filt WHERE doc_id IN (SELECT doc_id FROM keepers)),
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tokens
                   WHERE doc_id IN (SELECT doc_id FROM pe) GROUP BY doc_id, term),
            bits AS (
              SELECT doc_id, b.b,
                     sum(CASE WHEN ((('0x' || substr(md5(term), 1, 16))::UBIGINT >> b.b) & 1) = 1
                              THEN tf ELSE -tf END) AS s
              FROM tf CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
              GROUP BY doc_id, b.b),
            v AS (SELECT doc_id,
                         sum(CASE WHEN s > 0 THEN (1::UBIGINT << b) ELSE 0 END)::UBIGINT AS h
                  FROM bits GROUP BY doc_id),
            bnd AS (SELECT doc_id, band.band, (h >> (16 * band.band)) & 65535 AS bits
                    FROM v CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS band) band),
            bsz AS (SELECT band, bits, count(*) AS g FROM bnd GROUP BY band, bits),
            nd AS (SELECT DISTINCT y.doc_id AS b
                   FROM bnd x
                   JOIN bnd y ON x.band = y.band AND x.bits = y.bits AND x.doc_id < y.doc_id
                   JOIN bsz ON bsz.band = x.band AND bsz.bits = x.bits
                   JOIN v va ON va.doc_id = x.doc_id
                   JOIN v vb ON vb.doc_id = y.doc_id
                   WHERE bsz.g <= 1024 AND bit_count(xor(va.h, vb.h)) <= 3)
            SELECT doc_id, pred_lang, n_tokens, quality
            FROM pe WHERE doc_id NOT IN (SELECT b FROM nd)
        """,
        "dedup_simhash_neardup": f"""
            WITH {TOKENS_CTE},
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tokens GROUP BY doc_id, term),
            bits AS (
              SELECT doc_id, b.b,
                     sum(CASE WHEN ((('0x' || substr(md5(term), 1, 16))::UBIGINT >> b.b) & 1) = 1
                              THEN tf ELSE -tf END) AS s
              FROM tf CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
              GROUP BY doc_id, b.b),
            v AS (SELECT doc_id,
                         sum(CASE WHEN s > 0 THEN (1::UBIGINT << b) ELSE 0 END)::UBIGINT AS h
                  FROM bits GROUP BY doc_id),
            bnd AS (SELECT doc_id, band.band, (h >> (16 * band.band)) & 65535 AS bits
                    FROM v CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS band) band),
            bsz AS (SELECT band, bits, count(*) AS g FROM bnd GROUP BY band, bits),
            cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
                     FROM bnd x
                     JOIN bnd y ON x.band = y.band AND x.bits = y.bits AND x.doc_id < y.doc_id
                     JOIN bsz ON bsz.band = x.band AND bsz.bits = x.bits
                     WHERE bsz.g <= 1024),
            ham AS (SELECT cand.a, cand.b, bit_count(xor(va.h, vb.h))::BIGINT AS hamming
                    FROM cand JOIN v va ON va.doc_id = cand.a JOIN v vb ON vb.doc_id = cand.b)
            SELECT a::BIGINT AS a, b::BIGINT AS b, hamming FROM ham WHERE hamming <= 3
        """,
        "embed_neardup": f"""
            WITH {_lsh_dots_cte(_plane_values_sql(16))},
            keys AS (SELECT vec_id, plane_id // 4 AS band,
                            sum(CASE WHEN d > 0 THEN (1 << (plane_id % 4)) ELSE 0 END) AS pattern
                     FROM dots GROUP BY vec_id, plane_id // 4),
            bsz AS (SELECT band, pattern, count(*) AS g FROM keys GROUP BY band, pattern),
            cand AS (SELECT DISTINCT x.vec_id AS a, y.vec_id AS b
                     FROM keys x
                     JOIN keys y ON x.band = y.band AND x.pattern = y.pattern
                                AND x.vec_id < y.vec_id
                     JOIN bsz ON bsz.band = x.band AND bsz.pattern = x.pattern
                     WHERE bsz.g <= 4096),
            pairs AS (
              SELECT cand.a, cand.b,
                     list_cosine_similarity(ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]) AS c
              FROM cand
              JOIN embeddings ea ON ea.vec_id = cand.a
              JOIN embeddings eb ON eb.vec_id = cand.b)
            SELECT a::BIGINT AS a, b::BIGINT AS b, {_r6('c')} AS cosine
            FROM pairs WHERE c >= 0.35
        """,
        "ann_lsh": f"""
            WITH {_lsh_dots_cte(_plane_values_sql(4))},
            buckets AS (SELECT vec_id,
                               sum(CASE WHEN d > 0 THEN (1 << plane_id) ELSE 0 END) AS bucket
                        FROM dots GROUP BY vec_id),
            qb AS (SELECT vec_id, bucket FROM buckets WHERE vec_id < 5),
            cand AS (SELECT qb.vec_id AS query_id, v.vec_id AS neighbor_id
                     FROM qb JOIN buckets v ON v.bucket = qb.bucket
                     WHERE v.vec_id != qb.vec_id),
            sims AS (SELECT query_id, neighbor_id,
                            list_cosine_similarity(eq.embedding::DOUBLE[], en.embedding::DOUBLE[]) AS c
                     FROM cand
                     JOIN embeddings eq ON eq.vec_id = cand.query_id
                     JOIN embeddings en ON en.vec_id = cand.neighbor_id),
            ranked AS (SELECT query_id, neighbor_id, c,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY c DESC, neighbor_id ASC) AS rank
                       FROM sims)
            SELECT query_id::BIGINT AS query_id, rank::INTEGER AS rank,
                   neighbor_id::BIGINT AS neighbor_id, {_r6('c')} AS cosine
            FROM ranked WHERE rank <= 10
        """,
        "ann_ivf": _ivf_oracle_sql(n_clusters=8, nprobe=3, iters=2, k=10, n_queries=5),
        "ann_index_query": _ivf_oracle_sql(n_clusters=8, nprobe=3, iters=2, k=10, n_queries=5),
        "embed_project": f"""
            WITH {_lsh_dots_cte(_plane_values_sql(16))}
            SELECT vec_id, plane_id::BIGINT AS p, {_r6('d')} AS val FROM dots
        """,
        "ann_cosine": f"""
            WITH qv AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                               generate_subscripts(embedding, 1) AS i
                        FROM embeddings WHERE vec_id < 5),
                 ev AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                               generate_subscripts(embedding, 1) AS i
                        FROM embeddings),
            sims AS (
              SELECT qv.vec_id AS query_id, ev.vec_id AS neighbor_id,
                     sum(qv.v * ev.v)
                       / (sqrt(sum(qv.v * qv.v)) * sqrt(sum(ev.v * ev.v))) AS c
              FROM qv JOIN ev USING (i)
              WHERE qv.vec_id != ev.vec_id
              GROUP BY qv.vec_id, ev.vec_id),
            ranked AS (
              SELECT query_id, neighbor_id, c,
                     row_number() OVER (PARTITION BY query_id ORDER BY c DESC, neighbor_id ASC) AS rank
              FROM sims)
            SELECT query_id::BIGINT AS query_id, rank::INTEGER AS rank,
                   neighbor_id::BIGINT AS neighbor_id, {_r6('c')} AS cosine
            FROM ranked WHERE rank <= 10
        """,
        "lang_id": f"""
            WITH {TOKENS_CTE},
            c AS (SELECT d.doc_id,
                    count(CASE WHEN term IN {stop_en} THEN 1 END) AS c_en,
                    count(CASE WHEN term IN {stop_de} THEN 1 END) AS c_de,
                    count(CASE WHEN term IN {stop_es} THEN 1 END) AS c_es,
                    count(CASE WHEN term IN {stop_fr} THEN 1 END) AS c_fr,
                    count(CASE WHEN term IN {stop_zh} THEN 1 END) AS c_zh
                  FROM documents d LEFT JOIN tokens USING (doc_id)
                  GROUP BY d.doc_id)
            SELECT doc_id,
                   CASE WHEN c_en >= c_de AND c_en >= c_es AND c_en >= c_fr AND c_en >= c_zh THEN 'en'
                        WHEN c_de >= c_es AND c_de >= c_fr AND c_de >= c_zh THEN 'de'
                        WHEN c_es >= c_fr AND c_es >= c_zh THEN 'es'
                        WHEN c_fr >= c_zh THEN 'fr'
                        ELSE 'zh' END AS pred_lang,
                   greatest(c_en, c_de, c_es, c_fr, c_zh)::BIGINT AS stopword_hits
            FROM c
        """,
        "quality_score": f"""
            WITH {TOKENS_CTE},
            f AS (SELECT d.doc_id,
                    count(term)::DOUBLE AS n_tokens,
                    count(CASE WHEN term IN {stop_en} THEN 1 END)::DOUBLE AS n_stop,
                    coalesce(sum(length(term)), 0)::DOUBLE AS tok_chars
                  FROM documents d LEFT JOIN tokens USING (doc_id)
                  GROUP BY d.doc_id),
            r AS (SELECT doc_id, n_tokens,
                    n_stop / greatest(n_tokens, 1) AS stop_ratio_raw,
                    tok_chars / greatest(n_tokens, 1) AS mean_len_raw
                  FROM f)
            SELECT doc_id, n_tokens::BIGINT AS n_tokens,
                   {_r6('stop_ratio_raw')} AS stop_ratio,
                   {_r6('mean_len_raw')} AS mean_token_len,
                   {_r6('0.4 * least(n_tokens / 100.0, 1.0) + 0.3 * (1.0 - stop_ratio_raw) + 0.3 * least(mean_len_raw / 8.0, 1.0)')} AS quality
            FROM r
        """,
        "token_count": f"""
            WITH {TOKENS_CTE},
            tc AS (SELECT d.doc_id, count(term)::BIGINT AS n_tokens,
                          count(DISTINCT term)::BIGINT AS n_distinct
                   FROM documents d LEFT JOIN tokens USING (doc_id)
                   GROUP BY d.doc_id)
            SELECT tc.doc_id, tc.n_tokens, tc.n_distinct,
                   len(regexp_extract_all(dd.text, '\\S+'))::BIGINT AS n_ws,
                   len(regexp_extract_all(dd.text,
                     '''(?:s|t|re|ve|m|ll|d)| ?\\p{{L}}+| ?\\p{{N}}+| ?[^\\s\\p{{L}}\\p{{N}}]+|\\s+'
                   ))::BIGINT AS n_bpe
            FROM tc JOIN documents dd USING (doc_id)
        """,
        "fingerprint": f"""
            WITH {TOKENS_CTE},
            agg AS (SELECT doc_id, list(term ORDER BY token_id) AS toks FROM tokens GROUP BY doc_id),
            sh AS (SELECT doc_id, md5(array_to_string(toks[i:i+2], ' ')) AS m
                   FROM (SELECT doc_id, toks,
                           unnest(generate_series(1, greatest(len(toks) - 2, 1))) AS i
                         FROM agg)),
            fp AS (SELECT doc_id, min(m) AS fingerprint FROM sh GROUP BY doc_id)
            -- LEFT JOIN: token-less docs fingerprint as md5('') — the
            -- Ray kernel emits one row per INPUT doc, not per tokenized doc
            SELECT d.doc_id, coalesce(fp.fingerprint, md5('')) AS fingerprint
            FROM documents d LEFT JOIN fp ON fp.doc_id = d.doc_id
        """,
        "multimodal_meta": """
            SELECT doc_id::BIGINT AS media_id,
                   octet_length(encode(text))::BIGINT AS n_bytes,
                   md5(text) AS md5,
                   (16 + (('0x' || substr(md5(text), 1, 4))::INTEGER % 4080))::INTEGER AS width,
                   (16 + (('0x' || substr(md5(text), 5, 4))::INTEGER % 4080))::INTEGER AS height
            FROM documents
        """,
        "events_window": f"""
            WITH cents AS (
              SELECT date_trunc('hour', ts) AS window_start, event_type,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events WHERE ts IS NOT NULL)
            SELECT window_start, event_type,
                   count(*)::BIGINT AS n_events,
                   {_r6('sum(c) / 100.0')} AS sum_value,
                   {_r6('sum(c) / (100.0 * count(*))')} AS avg_value
            FROM cents GROUP BY window_start, event_type
        """,
        "multimodal_resize": """
            WITH dims AS (
              SELECT doc_id::BIGINT AS media_id,
                     (16 + (('0x' || substr(md5(text), 1, 4))::INTEGER % 4080)) AS w,
                     (16 + (('0x' || substr(md5(text), 5, 4))::INTEGER % 4080)) AS h
              FROM documents)
            SELECT media_id, w::INTEGER AS width, h::INTEGER AS height,
                   greatest((w * 224) // greatest(w, h, 1), 1)::INTEGER AS out_width,
                   greatest((h * 224) // greatest(w, h, 1), 1)::INTEGER AS out_height
            FROM dims
        """,
        "multimodal_frames": """
            WITH meta AS (
              SELECT doc_id::BIGINT AS media_id, text,
                     2 + (('0x' || substr(md5(text), 9, 4))::INTEGER % 7) AS n_frames
              FROM documents)
            SELECT media_id,
                   i::INTEGER AS frame_idx,
                   md5(text || ':' || i) AS frame_md5,
                   (i * 40)::BIGINT AS ts_ms
            FROM meta, unnest(generate_series(0, n_frames - 1)) AS t(i)
        """,
        "events_hopping": f"""
            WITH ev AS (
              SELECT ts, event_type, CAST(round(value * 100) AS BIGINT) AS c
              FROM events WHERE ts IS NOT NULL),
            w AS (SELECT date_trunc('hour', ts) - (i.i * INTERVAL 60 MINUTE) AS window_start,
                         event_type, c
                  FROM ev CROSS JOIN (SELECT unnest(generate_series(0, 1)) AS i) i)
            SELECT window_start, event_type,
                   count(*)::BIGINT AS n_events,
                   {_r6('sum(c) / 100.0')} AS sum_value,
                   {_r6('sum(c) / (100.0 * count(*))')} AS avg_value
            FROM w GROUP BY window_start, event_type
        """,
        "events_session": f"""
            WITH ev AS (
              SELECT user_id, ts, CAST(round(value * 100) AS BIGINT) AS c
              FROM events WHERE ts IS NOT NULL),
            l AS (SELECT *, lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev FROM ev),
            f AS (SELECT *, CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                                 THEN 1 ELSE 0 END AS brk FROM l),
            s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                           ROWS UNBOUNDED PRECEDING) AS sid FROM f)
            SELECT user_id, min(ts) AS session_start,
                   count(*)::BIGINT AS n_events,
                   {_r6('sum(c) / 100.0')} AS sum_value
            FROM s GROUP BY user_id, sid
        """,
    }
    # Exact duplicated-substring span dedup (Lee et al. 2021 style):
    # windows grouped by the SAME 64-bit md5 prefix as the Ray kernel
    # (functions/spans.py:grams_with_pos), so grouping — collisions
    # included — is mirrored exactly; marks merge while the token-range
    # gap is <= gram_len (overlap or adjacency).
    spans_cte = """
    toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[a-z0-9_-]+')) AS term,
             generate_subscripts(regexp_extract_all(lower(text), '[a-z0-9_-]+'), 1) AS tid
      FROM documents
    ),
    agg AS (SELECT doc_id, list(term ORDER BY tid) AS toks FROM toks GROUP BY doc_id),
    grams AS (
      SELECT doc_id, i - 1 AS pos,
             ('0x' || substr(md5(array_to_string(toks[i:i+3], ' ')), 1, 16))::UBIGINT AS h
      FROM (SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 3)) AS i
            FROM agg WHERE len(toks) >= 4)
    ),
    dup AS (SELECT h FROM grams GROUP BY h HAVING count(*) >= 2),
    marks AS (SELECT doc_id, pos FROM grams WHERE h IN (SELECT h FROM dup)),
    seq AS (SELECT doc_id, pos,
             CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) <= 4
                  THEN 0 ELSE 1 END AS brk
            FROM marks),
    grp AS (SELECT doc_id, pos,
             sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS gid FROM seq),
    spans AS (
      SELECT doc_id::BIGINT AS doc_id, min(pos)::BIGINT AS start_tok,
             (max(pos) + 4)::BIGINT AS end_tok, count(*)::BIGINT AS n_grams
      FROM grp GROUP BY doc_id, gid
    )
    """
    out["dup_spans"] = f"""
        WITH {spans_cte}
        SELECT doc_id, start_tok, end_tok, n_grams FROM spans
    """
    out["cut_dup_spans"] = f"""
        WITH {spans_cte},
        keep AS (
          SELECT t.doc_id, t.term, t.tid,
                 NOT EXISTS (SELECT 1 FROM spans s WHERE s.doc_id = t.doc_id
                             AND t.tid - 1 >= s.start_tok AND t.tid - 1 < s.end_tok) AS kept
          FROM toks t
        )
        SELECT d.doc_id::BIGINT AS doc_id,
               COALESCE(string_agg(k.term, ' ' ORDER BY k.tid) FILTER (WHERE k.kept), '') AS text_cut,
               COALESCE(count(*) FILTER (WHERE NOT k.kept), 0)::BIGINT AS n_removed
        FROM documents d LEFT JOIN keep k USING (doc_id)
        GROUP BY d.doc_id
    """
    # the in-memory index must reproduce the persistent BM25 exactly
    out["bm25_inmem"] = out["bm25_topk"]
    return out
