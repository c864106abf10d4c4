"""Golden postings digests: the bytes ``build_index`` / ``compact_index``
write for small fixed corpora are pinned as sha256 constants.

Each digest hashes every postings row of an index, all columns (the
payload columns attached from the blobs), in the canonical (``term``,
``first_doc``, ``block_id``) order, so any change
to the encoder, the chunk rule, the run merge or the sentinel rows
shows up here.  Corpora:

* single-field parquet files at the default ``block_cf``: one hot term
  whose per-file cf exceeds the block budget (in-batch chunking and
  the hot-term merge), fragmented terms across files, single runs;
* multi-field documents at ``block_cf=4`` in two sessions, with a doc
  id reused across an invert-batch boundary and across the session
  boundary (the overlapping-run merge), chunked down to tiny blocks;
* that two-segment index after ``compact_index``.
"""

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.state.index import POSTINGS_SCHEMA, load_meta, segment_dir
from fulltextsearch_ray.state.payloads import read_postings_file

SINGLE_FIELD_DIGEST = "3c358dfb33f67340d5577b022af36a692d771550af919b6f53c7e67eb6e3fe03"
MULTI_FIELD_DIGEST = "fcd06349ad8045828fbea03ad1e20ead35c8142c9a9d5b9c4e9cc3297a0bd267"
COMPACTED_DIGEST = "f96742f96819787c12ece910d48e2a3742cf0cead67220d0fd6d7c451cc81904"


def postings_digest(index_dir: str) -> str:
    meta = load_meta(index_dir)
    tbl = pa.concat_tables(
        read_postings_file(f).select(POSTINGS_SCHEMA.names).cast(POSTINGS_SCHEMA)
        for s in meta.segments
        for f in sorted(glob.glob(os.path.join(segment_dir(index_dir, s), "postings", "*.parquet")))
    )
    idx = pc.sort_indices(
        tbl, sort_keys=[("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    h = hashlib.sha256()
    for name in POSTINGS_SCHEMA.names:
        h.update(repr(tbl[name].take(idx).to_pylist()).encode())
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
    build_index(str(corpus), idx, text_col="content", num_buckets=8, overwrite=True)
    assert postings_digest(idx) == SINGLE_FIELD_DIGEST


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
            doc_id_col="doc_id", num_buckets=4, block_cf=4, batch_size=16,
        )

    # doc 16 closes the first 16-row invert batch and opens the second;
    # doc 40 closes session one and opens session two
    session(list(range(1, 17)) + list(range(16, 41)))
    session(list(range(40, 71)))
    assert len(load_meta(idx).segments) == 2
    assert postings_digest(idx) == MULTI_FIELD_DIGEST

    compact_index(idx, block_cf=4)
    assert len(load_meta(idx).segments) == 1
    assert postings_digest(idx) == COMPACTED_DIGEST
