"""CLI verbs added for the round-3 surfaces: top-terms (streamed
catalog stats), compact (segment merge), ann-build / ann-query
(persisted IVF index).  Mirrors the reference console verbs
(``ConsoleUtil/Program.cs`` index/search/print) extended to the ANN
artifact model."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.cli import main


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    import ray.data

    tbl = pa.table(
        {
            "content": pa.array(
                [
                    "apple banana apple cherry",
                    "banana cherry date",
                    "apple elderberry fig",
                ]
            )
        }
    )
    root = tmp_path_factory.mktemp("cliverbs")
    corpus = root / "corpus"
    corpus.mkdir()
    pq.write_table(tbl, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["index", "--input", str(corpus), "--index", idx]) == 0
    return str(corpus), idx


def test_top_terms_verb(small_index, capsys):
    _, idx = small_index
    assert main(["top-terms", "--index", idx, "-k", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if "\t" in l]
    assert len(lines) == 3
    term, df, cf = lines[0].split("\t")
    assert term == "apple" and int(df) == 2 and int(cf) == 3  # top cf term


def test_compact_verb_preserves_search(small_index, capsys):
    corpus, idx = small_index
    # second session -> incremental segment, then collapse
    assert main(["index", "--input", corpus, "--index", idx]) == 0
    assert main(["compact", "--index", idx]) == 0
    out = capsys.readouterr().out
    assert "docs: 6" in out
    assert main(["search", "--index", idx, "--query", "WORD(apple)"]) == 0
    got = capsys.readouterr().out
    # doc 1 occurrences 1 and 3 from both sessions (docs 1-3 then 4-6)
    for occ in ("{[1,1,1]}", "{[1,1,3]}", "{[3,1,1]}", "{[4,1,1]}", "{[6,1,1]}"):
        assert occ in got


@pytest.fixture(scope="module")
def vec_parquet(ray_session, tmp_path_factory):
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(60, 8)).astype(np.float64)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(60, dtype=np.int64)),
            "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
        }
    )
    root = tmp_path_factory.mktemp("clivec")
    path = str(root / "emb.parquet")
    pq.write_table(tbl, path)
    return path, str(root / "annidx"), vecs


def test_ann_build_and_query_verbs(vec_parquet, capsys):
    emb, annidx, vecs = vec_parquet
    assert main(["ann-build", "--input", emb, "--index", annidx, "--clusters", "4", "--iters", "2"]) == 0
    assert "4 clusters, dim 8" in capsys.readouterr().out
    assert main(["ann-query", "--index", annidx, "--input", emb,
                 "--query-ids", "5", "-k", "3", "--nprobe", "4"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if "\t" in l]
    assert len(lines) == 3
    # nprobe == n_clusters -> exhaustive: rank-1 neighbor must be the
    # true cosine argmax (excluding the query itself)
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = norm @ norm[5]
    cos[5] = -np.inf
    qid, rank, nid, c = lines[0].split("\t")
    assert (int(qid), int(rank), int(nid)) == (5, 1, int(np.argmax(cos)))
    assert abs(float(c) - cos.max()) < 1e-6  # CLI prints %.6f


def test_cut_spans_verb(ray_session, tmp_path, capsys):
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta unique-one tail",
                    "head alpha beta gamma delta unique-two",
                    "nothing shared here at all now",
                ]
            ),
        }
    )
    src = tmp_path / "docs.parquet"
    out = tmp_path / "cut"
    pq.write_table(docs, str(src))
    assert main(["cut-spans", "--input", str(src), "--output", str(out)]) == 0
    assert "3 docs, 8 tokens removed" in capsys.readouterr().out
    got = {
        r["doc_id"]: r["text_cut"]
        for batch in __import__("pyarrow.dataset", fromlist=["dataset"])
        .dataset(str(out))
        .to_table()
        .to_pylist()
        for r in [batch]
    }
    assert got[1] == "unique-one tail" and got[2] == "head unique-two"


def test_cli_clean_error_surface(small_index, capsys):
    """Bad queries exit 2 with a one-line message, never a traceback."""
    from fulltextsearch_ray.cli import main

    idx = small_index[1]
    assert main(["search", "--index", idx, "--query", "WORD(a) and b"]) == 2
    err = capsys.readouterr().err
    assert "query error:" in err and "Traceback" not in err
    assert main(["search", "--index", idx, "--query", "EDIT(apple,x)"]) == 2
    assert "query error:" in capsys.readouterr().err


def test_print_merges_terms_across_segments(small_index, capsys, tmp_path):
    """Regression pair: (a) a LIST of segment postings directories
    crashed read_parquet ('path ... is a directory'); (b) a term whose
    rows straddled a batch/segment boundary printed as multiple lines.
    A two-segment index must print ONE line per term with occurrences
    in (doc, field, token) order."""
    corpus, _idx = small_index
    idx2 = str(tmp_path / "idx2")
    assert main(["index", "--input", corpus, "--index", idx2]) == 0
    assert main(["index", "--input", corpus, "--index", idx2]) == 0
    capsys.readouterr()
    assert main(["print", "--index", idx2]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if " -> " in l]
    terms = [l.split(" -> ")[0] for l in lines]
    assert len(terms) == len(set(terms)), "duplicate term lines"
    apple = next(l for l in lines if l.startswith("apple -> "))
    # docs 1,1,3 from session 1 and 4,4,6 from session 2, doc-ordered
    assert apple == "apple -> [1,1,1], [1,1,3], [3,1,1], [4,1,1], [4,1,3], [6,1,1]"


def test_index_fst_flag_keeps_sidecar_fresh(ray_session, tmp_path, capsys):
    """``index --fst`` rebuilds the sidecar per session, so incremental
    appends keep the searcher's auto-FST path live instead of going
    stale after the first session."""
    from fulltextsearch_ray.state.fst_store import load_fst_sidecar
    from fulltextsearch_ray.state.index import load_meta

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(
        pa.table({"content": pa.array(["apple banana", "cherry date"])}),
        str(corpus / "part-0.parquet"),
    )
    idx = str(tmp_path / "idx")
    assert main(["index", "--input", str(corpus), "--index", idx, "--fst"]) == 0
    assert "FST sidecar:" in capsys.readouterr().out
    fst = load_fst_sidecar(idx, load_meta(idx).segments)
    assert fst is not None and fst.try_match("apple")[0]

    # incremental session with --fst: sidecar covers BOTH segments
    assert main(["index", "--input", str(corpus), "--index", idx, "--fst"]) == 0
    segs = load_meta(idx).segments
    assert len(segs) == 2
    fst2 = load_fst_sidecar(idx, segs)
    assert fst2 is not None and fst2.try_match("cherry")[0]

    # a third session WITHOUT --fst leaves the sidecar stale -> loader
    # refuses it (searcher falls back to the paged scan)
    assert main(["index", "--input", str(corpus), "--index", idx]) == 0
    assert load_fst_sidecar(idx, load_meta(idx).segments) is None

    # compact --fst: the collapsed segment set gets a matching sidecar
    assert main(["compact", "--index", idx, "--fst"]) == 0
    segs = load_meta(idx).segments
    assert len(segs) == 1
    fst3 = load_fst_sidecar(idx, segs)
    assert fst3 is not None and fst3.try_match("banana")[0]


def test_benchmark_verb_matchers_and_predictor(capsys):
    """The format-matrix verb exercises every posting codec, the
    dictionary key encodings, the byte-space matchers (UTF-8 + all
    packed builders) and the predictor codec — all self-checking
    (agree=True / internal asserts)."""
    assert main(["benchmark"]) == 0
    out = capsys.readouterr().out
    assert "match-utf8" in out and "predictor" in out
    matches = [l for l in out.splitlines() if l.startswith("match-")]
    assert len(matches) == 4
    assert all("agree=True" in l for l in matches)


def test_metadata_verb_unknown_doc_one_line_error(small_index, capsys):
    """`metadata --doc <unindexed>` prints a one-line error and exits 2
    (the default-path KeyError used to escape as a raw traceback)."""
    _, idx = small_index
    rc = main(["metadata", "--index", idx, "--doc", "999999"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "999999" in err and "Traceback" not in err
