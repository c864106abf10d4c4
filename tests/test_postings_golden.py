"""Golden postings digests: the rows ``build_index`` / ``compact_index``
write for small fixed corpora are pinned as sha256 constants.

Each postings digest hashes every logical posting row of an index (all
columns but ``bucket``, the payload columns included), read back
through the whole-row reader (catalog + blob), in the canonical
(``term``, ``first_doc``, ``block_id``) order, so any change to the
encoder, the chunk rule or the run merge shows up here.  Each docs
digest hashes the docs table's (doc_id, doc_len, sha256) rows, sorted,
so any change to the doc-stats sentinel rows shows up there.  Corpora:

* single-field parquet files at the default ``block_cf``: one hot term
  whose per-file cf exceeds the block budget (in-batch chunking and
  the hot-term merge), fragmented terms across files, single runs;
* multi-field documents at ``block_cf=4`` in two sessions, with a doc
  id reused across an invert-batch boundary and across the session
  boundary (the overlapping-run merge), chunked down to tiny blocks;
* that two-segment index after ``compact_index``.

The digests were pinned from a build that still wrote a postings
parquet file, over those files' rows without ``bucket`` and without
the sentinel rows: the logical rows did not change when the file went.
"""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fulltextsearch_ray.pipelines.build import build_index, compact_index, read_postings_dataset
from fulltextsearch_ray.state.index import POSTINGS_SCHEMA, load_meta, segment_dir

SINGLE_FIELD_DIGEST = "e32aee4a157862e64766b616f5008b49d6be2151490f973a2a78bd75c2b3d697"
MULTI_FIELD_DIGEST = "249b80ec4581a270eca6acb25690c68e1245770b0b7c9527d257af7b0ac477fe"
COMPACTED_DIGEST = "732eec7a7a9979c83b0adf1e222d85ca07b66cf588fdbf4e0ce08fd55bca4f4d"
SINGLE_FIELD_DOCS_DIGEST = "cf0687212294474f1d06668209a2edcfb9905616386a199b4cbbc901482d8b6b"
# compaction merges the input docs tables: the same rows
MULTI_FIELD_DOCS_DIGEST = "6ead100219dfcf6b932a22f8afa58952d1549418f804165698f840b61bf428c1"

COLS = [c for c in POSTINGS_SCHEMA.names if c != "bucket"]


def postings_digest(index_dir: str) -> str:
    ds = read_postings_dataset(index_dir, load_meta(index_dir).segments)
    tbl = pa.concat_tables(
        [POSTINGS_SCHEMA.empty_table()] + list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    assert set(tbl["bucket"].to_pylist()) <= {0}  # no sentinel rows
    idx = pc.sort_indices(
        tbl, sort_keys=[("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    h = hashlib.sha256()
    for name in COLS:
        h.update(repr(tbl[name].take(idx).to_pylist()).encode())
    return h.hexdigest()


def docs_digest(index_dir: str) -> str:
    t = pa.concat_tables(
        pq.read_table(os.path.join(segment_dir(index_dir, s), "docs"), columns=["doc_id", "doc_len", "sha256"])
        for s in load_meta(index_dir).segments
    ).sort_by([("doc_id", "ascending"), ("doc_len", "ascending"), ("sha256", "ascending")])
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(repr(t[name].to_pylist()).encode())
    return h.hexdigest()


def _words(rng, vocab, n):
    return " ".join(rng.choice(vocab, size=n).tolist())


def test_single_field_default_block_cf(ray_session, tmp_path):
    rng = np.random.default_rng(2024)
    vocab = [f"w{i}" for i in range(400)]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # 3000 docs x 25 'the' = 75,000 occurrences in ONE file: more than
    # DEFAULT_BLOCK_CF, so the invert chunks it and the merge sees a hot term
    for i, n_docs in enumerate((3000, 400, 300)):
        texts = [("the " * 25) + _words(rng, vocab, 8) for _ in range(n_docs)]
        pq.write_table(pa.table({"content": texts}), str(corpus / f"part-{i}.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, text_col="content", overwrite=True)
    assert postings_digest(idx) == SINGLE_FIELD_DIGEST
    assert docs_digest(idx) == SINGLE_FIELD_DOCS_DIGEST


def test_multi_field_reused_boundary_docs_and_compaction(ray_session, tmp_path):
    import ray.data

    rng = np.random.default_rng(77)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    idx = str(tmp_path / "idx")

    def session(ids):
        rows = {
            "doc_id": ids,
            "a": [_words(rng, vocab, int(rng.integers(0, 9))) for _ in ids],
            "b": [_words(rng, vocab, int(rng.integers(0, 9))) for _ in ids],
        }
        build_index(
            ray.data.from_arrow(pa.table(rows)), idx, text_cols=["a", "b"],
            doc_id_col="doc_id", block_cf=4, batch_size=16,
        )

    # doc 16 closes the first 16-row invert batch and opens the second;
    # doc 40 closes session one and opens session two
    session(list(range(1, 17)) + list(range(16, 41)))
    session(list(range(40, 71)))
    assert len(load_meta(idx).segments) == 2
    assert postings_digest(idx) == MULTI_FIELD_DIGEST
    assert docs_digest(idx) == MULTI_FIELD_DOCS_DIGEST

    compact_index(idx, block_cf=4)
    assert len(load_meta(idx).segments) == 1
    assert postings_digest(idx) == COMPACTED_DIGEST
    assert docs_digest(idx) == MULTI_FIELD_DOCS_DIGEST
