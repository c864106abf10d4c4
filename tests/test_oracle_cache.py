"""The oracle index cache (``__ray_entry__._index_dir_for``): one entry
per sf dir and content tag.  A changed tag (a format bump, a
regenerated corpus) removes that sf dir's older entries and leaves every
other sf dir's entries alone; entries named by an older scheme go too."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

import __ray_entry__ as entry
from fulltextsearch_ray.pipelines.query import IndexSearcher


def _sf_dir(root, name: str, texts: list) -> str:
    d = root / name
    d.mkdir(exist_ok=True)
    docs = pa.table({"doc_id": pa.array(range(1, len(texts) + 1), pa.int64()), "text": texts})
    pq.write_table(docs, d / "documents.parquet")
    return str(d)


def test_index_cache_sweeps_only_its_own_stale_entries(ray_session, tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setattr(entry, "CACHE_ROOT", str(root))
    monkeypatch.setattr(entry, "_INDEX_CACHE", {})
    a = _sf_dir(tmp_path, "a", ["red green", "green blue"])
    b = _sf_dir(tmp_path, "b", ["violet"])
    idx_a, idx_b = entry._index_dir_for(a), entry._index_dir_for(b)
    assert sorted(os.listdir(root)) == sorted(os.path.basename(p) for p in (idx_a, idx_b))
    assert entry._index_dir_for(a) == idx_a  # the same tag is served again

    entry._INDEX_CACHE.clear()
    _sf_dir(tmp_path, "a", ["red green", "green blue", "blue red"])  # regenerated
    idx_a2 = entry._index_dir_for(a)
    assert idx_a2 != idx_a
    assert sorted(os.listdir(root)) == sorted(os.path.basename(p) for p in (idx_a2, idx_b))
    assert IndexSearcher(idx_a2).num_docs == 3 and IndexSearcher(idx_b).num_docs == 1


def test_index_cache_sweeps_entries_of_older_names(ray_session, tmp_path, monkeypatch):
    """Entries named before the ``<kind>-<10 hex>-<10 hex>`` scheme (no
    fingerprint part, or an 8-hex sf key) are unreachable: resolving an
    entry of that kind removes them, and another sf dir's current entry
    of the kind, and other kinds' entries, stay."""
    root = tmp_path / "cache"
    monkeypatch.setattr(entry, "CACHE_ROOT", str(root))
    monkeypatch.setattr(entry, "_INDEX_CACHE", {})
    other = entry._index_dir_for(_sf_dir(tmp_path, "other", ["violet"]))
    old = ["docs-01315141b0", "docs-7893a09832", "docs-cfc1c0f8-d8df228f4a"]
    for name in old + ["annidx-9e0cdc84b3"]:
        (root / name).mkdir()
        (root / name / "meta.json").write_text("{}")
    idx = entry._index_dir_for(_sf_dir(tmp_path, "a", ["red green"]))
    assert sorted(os.listdir(root)) == sorted(
        [os.path.basename(idx), os.path.basename(other), "annidx-9e0cdc84b3"]
    )
    assert IndexSearcher(other).num_docs == 1 and IndexSearcher(idx).num_docs == 1
    # resolving the other kind sweeps its own older names only
    ann = entry._cache_dir("annidx", str(tmp_path / "a"), "v1")
    assert not os.path.exists(ann)  # resolved, not built
    assert sorted(os.listdir(root)) == sorted([os.path.basename(idx), os.path.basename(other)])
