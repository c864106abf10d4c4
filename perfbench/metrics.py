"""Metric names and units.  ``BENCHMARK.json`` lists the same names.

End-to-end metrics are reported by every workload, for that workload's
own unit of work.  Their timings are CPU time, not wall time: on a shared
host the wall clock drifts by tens of percent between runs while CPU time
moves far less, so CPU time is what a regression bound can hold.
Wall-clock latencies and throughputs are printed in the stamp line
(``DETAIL``).

=========  ===============================  ===============================
workload   p50_cpu_ms (median of)           cpu_ms_per_unit
=========  ===============================  ===============================
ingest     one build_index, process tree    per doc over build+delta+compact
serve-*    one BM25 top-10 query, client    per query (BM25 and language)
curate     one five-operator chain, tree    per doc over the chain
=========  ===============================  ===============================

``setup_s`` is the CPU time of the process tree over one set-up
repetition (median of three); the wall time is ``setup_wall_s``.
Per-layer metrics come from the traced run; a layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "p50_cpu_ms": "ms",
    "cpu_ms_per_unit": "ms",
}

# The workload-specific headline numbers, wall clock unless named _cpu_,
# printed with their units in the stamp line; each workload prints the
# ones it measures.
DETAIL = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "build_docs_per_s": "1/s",
    "delta_build_s": "s",
    "compact_s": "s",
    "ingest_cpu_s": "s",
    "index_bytes_per_input_byte": "ratio",
    "bm25_p50_ms": "ms",
    "bm25_p99_ms": "ms",
    "lang_p50_ms": "ms",
    "lang_p99_ms": "ms",
    "pool_qps": "1/s",
    "curate_docs_per_s": "1/s",
    "bm25_samples": "count",
    "lang_samples": "count",
    "pool_queries": "count",
    "cycles": "count",
    "chains": "count",
}

PER_LAYER = {
    # ingest: single-process replay of the build on the same shards
    "sources.read_s": "s",
    "tokenizer.tokenize_s": "s",
    "tokenizer.mb_per_s": "MB/s",
    "stages.invert_s": "s",
    "stages.merge_s": "s",
    "pipelines.build.write_s": "s",
    "pipelines.build.ray_s": "s",
    "pipelines.build.cpu_s": "s",
    "pipelines.build.delta_cpu_s": "s",
    "pipelines.build.compact_cpu_s": "s",
    "stages.run_rows": "count",
    "stages.posting_blocks": "count",
    "state.postings_bytes": "B",
    "state.catalog_bytes": "B",
    "pipelines.build.compact_bytes_rewritten": "B",
    # serve-hot / serve-cold: the query stream as step-by-step public calls
    "tokenizer.query_us": "us",
    "tokenizer.query_share": "ratio",
    "pipelines.query.bm25_us": "us",
    "pipelines.query.terms_per_query": "count",
    "pipelines.query.catalog_us": "us",
    "pipelines.query.fetch_us": "us",
    "codecs.decode_us": "us",
    "pipelines.query.parquet_reads_per_query": "count",
    "pipelines.query.bytes_read_per_query": "B",
    "state.cache_hit_ratio": "ratio",
    "state.positions_cache_hit_ratio": "ratio",
    "pipelines.query.score_us": "us",
    "pipelines.query.postings_scored_per_query": "count",
    "pipelines.query.topk_us": "us",
    "pipelines.query.maxscore_us": "us",
    "parser.parse_us": "us",
    "occurrences.algebra_us": "us",
    "matchers.expand_us": "us",
    "matchers.terms_expanded_per_query": "count",
    "pipelines.query.searcher_open_s": "s",
    "pipelines.query.stage_batch_us_per_query": "us",
    "pipelines.query.pool_ray_us_per_query": "us",
    # curate
    "functions.dedup.exact_s": "s",
    "functions.dedup.minhash_s": "s",
    "functions.components.canonical_s": "s",
    "functions.dedup.ngram_s": "s",
    "functions.spans.cut_s": "s",
    "functions.dedup.minhash_pairs": "count",
    "functions.dedup.ngram_pairs": "count",
    "functions.spans.removed_tokens": "count",
    # every workload
    "ray.init_s": "s",
    "trace.overhead_ratio": "ratio",
}
