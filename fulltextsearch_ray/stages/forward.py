"""Forward index: per-document token character spans.

The reference persists a forward store — per-(doc, field) TextPosition
lists plus the original text — and serves highlight/GetPositions from
it without re-tokenizing (behavior observed at
``Src/.../Persistent/PersistentBuilder.cs:92-131``,
``PersistentIndex.cs:93-118``; no code copied).  Here the original
text stays in the source Parquet (lineage recorded in the manifest);
this stage persists the SPANS: for every document the (char offset,
char length) of each token, delta-friendly int32 list columns in doc
order.  Query-time highlight then slices the original text directly —
no tokenizer run, no scan of non-matching documents.

The spans are written by the invert call that tokenizes the batch
(opt-in ``store_forward=True``, see ``stages/invert.py:InvertStage``),
one file per call: the build reads the corpus once.  Span extraction
still runs the Python regex ``finditer`` over each text (Arrow's split
kernels do not expose match offsets), paid once at build instead of on
every highlight.  The files of one segment may hold overlapping doc
ranges (dataset-path batches arrive in any doc order); the searcher
reads every file whose range holds a doc.

Known divergence (same family as the ones documented in
``tokenizer.py``): spans come from the Python regex over the RAW text
while posting token ids come from the RE2 split of the LOWERED text.
For characters whose lowercase expands ('İ' → 'i' + combining mark)
the two can split differently, shifting every later ordinal in that
document — highlight spans for such documents may misalign.  All
conformance fixtures and the oracle corpora are unaffected; a full fix
requires offset-preserving case folding, which neither regex engine
exposes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..tokenizer import TOKEN_RE

FORWARD_SCHEMA = pa.schema(
    [
        ("doc_id", pa.uint64()),
        ("field_id", pa.int32()),
        ("offsets", pa.list_(pa.int32())),
        ("lengths", pa.list_(pa.int32())),
    ]
)

# rows per forward-file row group: a point lookup reads one group
FORWARD_ROW_GROUP = 2048


def _spans(texts: list) -> tuple[list, list]:
    offs, lens = [], []
    finditer = TOKEN_RE.finditer
    for text in texts:
        o, l = [], []
        for m in finditer(text or ""):
            o.append(m.start())
            l.append(m.end() - m.start())
        offs.append(o)
        lens.append(l)
    return offs, lens


def forward_batch(
    batch: pa.Table, text_col: str = "text", text_cols: "list[str] | None" = None
) -> pa.Table:
    """(doc_id, text…) batch → (doc_id, field_id, offsets, lengths)
    span rows — ONE row per (doc, field), field ids 1..N in column
    order for compound documents (mirroring the reference's 65-bit
    (doc, field)-keyed PosIndex, ``PersistentIndex.cs:145-151``,
    ``PersistentBuilder.cs:92-131``; behavior observed, no code
    copied).  Single-field corpora emit field_id=1 rows."""
    ids = batch["doc_id"]
    ids = ids.cast(pa.uint64()) if ids.type != pa.uint64() else ids
    n = batch.num_rows
    cols = list(text_cols) if text_cols else [text_col]
    tables = []
    for fid, col in enumerate(cols, start=1):
        offs, lens = _spans(batch[col].to_pylist())
        tables.append(
            pa.table(
                {
                    "doc_id": ids,
                    "field_id": pa.array(np.full(n, fid, dtype=np.int32)),
                    "offsets": pa.array(offs, pa.list_(pa.int32())),
                    "lengths": pa.array(lens, pa.list_(pa.int32())),
                }
            )
        )
    out = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
    if len(tables) > 1:
        # doc-major order so per-file doc ranges stay contiguous
        order = np.lexsort(
            (
                np.asarray(out["field_id"].to_numpy(zero_copy_only=False)),
                np.asarray(out["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64),
            )
        )
        out = out.take(pa.array(order))
    return out

