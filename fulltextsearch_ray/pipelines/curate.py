"""Corpus curation — the composed training-data pipeline this engine
exists for: language/quality filtering → exact dedup → near-dedup,
all streaming, producing the curated document set.

    documents ──► fused feature pass (ONE tokenize: lang, quality,
                  token counts) ──► filter (quality ≥ τ, lang ∈ L)
              ──► exact dedup (md5 partitions, keep lowest id)
              ──► SimHash near-dedup (bit-band LSH pairs, drop the
                  higher id of every pair — one shot against the
                  post-exact set, deterministic)
              ──► curated (doc_id, pred_lang, n_tokens, quality)

Scale shape: one feature pass over the text; exact dedup is one
hash-partitioned shuffle of the filtered rows on md5(text); the pair
drop is a hash-partitioned co-group of the survivors and the SimHash
pairs that also projects the output columns (never a driver-side set).
The filtered set and the exact-dedup survivors are checkpointed in the
(spillable) object store because they feed two downstream consumers —
re-running the tokenize+score pass per consumer costs more than spill
at every scale; nothing is ever pulled to the driver.
Every stage reuses the individually oracle-checked operators,
and the composition itself is SQL-oracle-checked end-to-end
(driver query ``curate_corpus``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..tokenizer import flat_tokens
from ..functions.common import md5_hex_batch, round6
from ..functions.text import LANG_ORDER, QUALITY_STOPWORDS, STOPWORDS, _stop_hits


def curate_features_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """ONE tokenize pass → per-doc (doc_id, text, pred_lang, n_tokens,
    quality) — the fused form of lang_id_batch + quality_batch
    (identical pred_lang/quality values, half the string work;
    stop_ratio/mean_token_len stay internal to the quality score)."""
    n_docs = batch.num_rows
    toks, parent, counts = flat_tokens(batch[text_col])
    hits = np.stack([_stop_hits(toks, parent, n_docs, STOPWORDS[lang]) for lang in LANG_ORDER])
    best = np.argmax(hits, axis=0)
    n_tokens = counts.astype(np.float64)
    n_stop = _stop_hits(toks, parent, n_docs, QUALITY_STOPWORDS).astype(np.float64)
    lens = np.asarray(pc.utf8_length(toks).to_numpy(zero_copy_only=False), dtype=np.float64)
    tok_chars = np.bincount(parent, weights=lens, minlength=n_docs)
    safe_n = np.maximum(n_tokens, 1.0)
    stop_ratio = n_stop / safe_n
    mean_len = tok_chars / safe_n
    quality = (
        0.4 * np.minimum(n_tokens / 100.0, 1.0)
        + 0.3 * (1.0 - stop_ratio)
        + 0.3 * np.minimum(mean_len / 8.0, 1.0)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            text_col: batch[text_col],
            "pred_lang": pa.array(np.array(LANG_ORDER, dtype=object)[best], type=pa.string()),
            "n_tokens": pa.array(n_tokens.astype(np.int64)),
            "quality": pa.array(round6(quality), pa.float64()),
        }
    )


_CURATED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("pred_lang", pa.string()),
        ("n_tokens", pa.int64()),
        ("quality", pa.float64()),
    ]
)


def curate_corpus(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    min_quality: float = 0.5,
    langs: "list[str] | None" = None,
    exact_dedup: bool = True,
    near_dedup: bool = True,
    max_hamming: int = 3,
    bands: int = 4,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Curated corpus: (doc_id, pred_lang, n_tokens, quality) of the
    documents that survive quality/language filtering, exact dedup
    (keep lowest id per identical text) and SimHash near-dedup (drop
    the higher id of every Hamming-≤k pair, computed ONCE against the
    post-exact-dedup set)."""
    from ..functions.common import default_partitions, md5_u64_batch, partition_apply, sorted_runs
    from ..functions.dedup import simhash_neardup_pairs

    P = num_partitions or default_partitions()
    # `is not None`: an EXPLICIT empty allow-list means "no language
    # passes", not "filter disabled"
    lang_set = pa.array(list(langs), pa.string()) if langs is not None else None

    def features_and_filter(b: pa.Table) -> pa.Table:
        f = curate_features_batch(b, text_col)
        keep = pc.greater_equal(f["quality"], min_quality)
        if lang_set is not None:
            keep = pc.and_(keep, pc.is_in(f["pred_lang"], value_set=lang_set))
        return f.filter(keep)

    # Materialize the feature pass once: its schema types the stages
    # below, and without exact dedup it feeds both the pair stage and
    # the final co-group — the tokenize+score pass must not re-execute
    # per consumer.
    survivors = ds.map_batches(features_and_filter, batch_format="pyarrow").materialize()
    if survivors.schema() is None:  # no input rows at all
        return ray.data.from_arrow(_CURATED_SCHEMA.empty_table())
    features = survivors.schema().base_schema

    if exact_dedup:
        # co-locate identical texts by their hash; keep the lowest id
        # of each (a NULL text dedups as '')
        def texts(t: pa.Table) -> pa.Array:
            return pc.fill_null(t[text_col], "")

        def keep_first(docs: pa.Table) -> pa.Table:
            h = np.asarray(md5_hex_batch(texts(docs)).to_pylist(), dtype=object)
            ids = np.asarray(docs["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
            order = np.lexsort((ids, h))
            starts, _counts = sorted_runs(h[order])
            return docs.take(pa.array(order[starts]))

        survivors = partition_apply(
            [(survivors, lambda t: md5_u64_batch(texts(t)), features)],
            P,
            keep_first,
            features if near_dedup else _CURATED_SCHEMA,
        )
        if not near_dedup:
            return survivors
        survivors = survivors.materialize()  # feeds the pair stage and the anti-join

    pair_b = pa.schema([("b", pa.int64())])
    pairs = (
        simhash_neardup_pairs(
            survivors, max_hamming=max_hamming, bands=bands, text_col=text_col,
            num_partitions=P,
        )
        if near_dedup
        else ray.data.from_arrow(pair_b.empty_table())
    )

    def drop_pairs(docs: pa.Table, pairs: pa.Table) -> pa.Table:
        # drop the higher id of every pair
        ids = np.asarray(docs["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        gone = np.asarray(pairs["b"].to_numpy(zero_copy_only=False), dtype=np.int64)
        return docs.filter(pa.array(~np.isin(ids, gone)))

    # the last stage also projects: its data side reads only the output
    # columns (a map after it would pass an empty partition's 0-row
    # block through with the full feature schema)
    return partition_apply(
        [(survivors, "doc_id", _CURATED_SCHEMA), (pairs, "b", pair_b)], P, drop_pairs, _CURATED_SCHEMA
    )
