"""CLI verbs mirroring the reference ConsoleUtil surface
(``ConsoleUtil/Program.cs``: index / search / lookup / print) plus the
BM25 layer.

    python -m fulltextsearch_ray.cli index  --input corpus_dir --index idx_dir [--text-col content]
    python -m fulltextsearch_ray.cli search --index idx_dir --query "WORD(this)"
    python -m fulltextsearch_ray.cli bm25   --index idx_dir --query "free text" [-k 10]
    python -m fulltextsearch_ray.cli lookup --index idx_dir --pattern "WILD(pet*)"
    python -m fulltextsearch_ray.cli print  --index idx_dir

Owns its Ray session (guarded init) — library code never calls
ray.init().
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _ensure_ray():
    """Guarded session init.  Honors ``RAY_ADDRESS`` so the same verbs
    run unchanged under ``ray job submit`` on a multi-node cluster
    (the job runtime sets RAY_ADDRESS to the cluster GCS); standalone
    invocations default to a local session."""
    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)


def main(argv: list[str] | None = None) -> int:
    """Dispatch with clean one-line errors: a bad query/pattern or a
    missing index prints a message and exits 2 — never a raw traceback
    (the reference CLI's error surface)."""
    from .parser import QueryParseError

    try:
        return _main(argv)
    except QueryParseError as e:
        print(f"query error: {e}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, KeyError) as e:
        # KeyError: e.g. `metadata --doc N` for an unindexed doc id —
        # str(KeyError) wraps the message in quotes, so unwrap one level
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


def _main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="fulltextsearch_ray")
    sub = p.add_subparsers(dest="verb", required=True)

    p_index = sub.add_parser("index", help="build an inverted index")
    p_index.add_argument("--input", required=True)
    p_index.add_argument("--index", required=True)
    p_index.add_argument("--text-col", default="content")
    p_index.add_argument(
        "--input-type",
        default="parquet",
        choices=["parquet", "enwiki", "text", "name"],
        help="parquet corpus (default), enwiki XML titles, directory of "
        "text files, or file NAMES as documents (reference input types)",
    )
    p_index.add_argument("--filter", default=None, help="file glob for enwiki/text/name inputs")
    p_index.add_argument(
        "--fst",
        action="store_true",
        help="rebuild the FST term-dictionary sidecar after indexing, so "
        "it stays FRESH across incremental sessions (lazy-mode EDIT/WILD "
        "auto-use a fresh sidecar; a stale one falls back to the paged "
        "catalog scan)",
    )

    p_fetch = sub.add_parser("download", help="mirror dump shards into a directory (resumable)")
    p_fetch.add_argument("--url", action="append", required=True, dest="urls")
    p_fetch.add_argument("--dest", required=True)

    for verb, arg in (("search", "--query"), ("bm25", "--query"), ("lookup", "--pattern")):
        sp = sub.add_parser(verb)
        sp.add_argument("--index", required=True)
        sp.add_argument(arg, required=True)
        sp.add_argument(
            "--term-dict",
            choices=("parquet", "fst"),
            default="parquet",
            help="dictionary to expand patterns over (fst uses the "
            "sidecar from fst-build, or streams one from the catalogs)",
        )
        if verb == "bm25":
            sp.add_argument("-k", type=int, default=10)

    p_print = sub.add_parser("print", help="dump all postings in sorted term order")
    p_print.add_argument("--index", required=True)

    p_meta = sub.add_parser("metadata", help="fetch a document's stored metadata (JSON)")
    p_meta.add_argument("--index", required=True)
    p_meta.add_argument("--doc", type=int, required=True)
    p_meta.add_argument(
        "--store-kind",
        choices=("btree", "hash", "list"),
        default=None,
        help="serve from a meta-store built with the meta-store verb "
        "instead of the parquet tables",
    )

    p_mstore = sub.add_parser(
        "meta-store",
        help="materialize per-doc metadata into a persistent point-lookup "
        "store (B-tree / hash table / slot list)",
    )
    p_mstore.add_argument("--index", required=True)
    p_mstore.add_argument("--kind", choices=("btree", "hash", "list"), default="btree")

    p_top = sub.add_parser("top-terms", help="top-k terms by collection frequency (streams the catalog)")
    p_top.add_argument("--index", required=True)
    p_top.add_argument("-k", type=int, default=20)

    p_compact = sub.add_parser(
        "compact", help="merge all segments into one (posting-chain collapse); also rewrites "
        "a segment written before payload blobs, which search refuses",
    )
    p_compact.add_argument("--index", required=True)
    p_compact.add_argument(
        "--fst",
        action="store_true",
        help="rebuild the FST sidecar over the compacted segment "
        "(compaction changes the segment set, which stales any sidecar)",
    )

    p_fst = sub.add_parser(
        "fst-build",
        help="compile the index vocabulary into a minimal-FST sidecar "
        "(term dictionary for search/lookup --term-dict fst)",
    )
    p_fst.add_argument("--index", required=True)
    p_fst.add_argument("--shard-terms", type=int, default=1_000_000,
                       help="terms per FST shard; past this the build shards "
                            "contiguous term ranges and compiles them in "
                            "PARALLEL (Ray tasks) — the single-writer limit "
                            "stops gating vocabulary size")

    p_annb = sub.add_parser("ann-build", help="train + persist an IVF ANN index over an embeddings parquet")
    p_annb.add_argument("--input", required=True, help="parquet with (vec_id, embedding) columns")
    p_annb.add_argument("--index", required=True)
    p_annb.add_argument("--clusters", type=int, default=16)
    p_annb.add_argument("--iters", type=int, default=3)
    p_annb.add_argument("--train-mod", type=int, default=None,
                        help="FAISS-style sample training: fit the quantizer on "
                             "vectors with md5(id) %% MOD == 0 instead of full-data k-means")

    p_annq = sub.add_parser("ann-query", help="top-k neighbors from a persisted IVF index")
    p_annq.add_argument("--index", required=True)
    p_annq.add_argument("--input", required=True, help="parquet holding the query vectors")
    p_annq.add_argument("--query-ids", required=True, help="comma-separated vec_ids to use as queries")
    p_annq.add_argument("-k", type=int, default=10)
    p_annq.add_argument("--nprobe", type=int, default=4)

    p_spans = sub.add_parser(
        "cut-spans",
        help="remove corpus-duplicated token spans (Lee-et-al-style k-gram span dedup)",
    )
    p_spans.add_argument("--input", required=True, help="parquet with (doc_id, text) columns")
    p_spans.add_argument("--output", required=True, help="output parquet directory")
    p_spans.add_argument("--gram-len", type=int, default=4)
    p_spans.add_argument("--min-count", type=int, default=2)

    p_bench = sub.add_parser(
        "benchmark", help="posting-codec micro-bench (reference protocol: N occurrences (1,1,1000+i))"
    )
    p_bench.add_argument("-n", type=int, default=10_000)

    args = p.parse_args(argv)
    t0 = time.time()

    if args.verb == "benchmark":
        # mirrors ConsoleUtil's benchmark verb: write N synthetic
        # occurrences per codec, report bytes + encode/decode time,
        # verify linear scan + LowerBound probes
        import numpy as np

        from .codecs import SkipList, decode_posting_block, encode_posting_block
        from .extension import POSTING_CODECS

        n = args.n
        d = np.ones(n, dtype=np.uint64)
        f = np.ones(n, dtype=np.uint64)
        t = np.arange(1000, 1000 + n, dtype=np.uint64)
        te0 = time.perf_counter()
        blk = encode_posting_block(d, f, t)
        te = time.perf_counter() - te0
        td0 = time.perf_counter()
        dd, ff, tt, *_ = decode_posting_block(blk.docs, blk.fields, blk.tfs, blk.positions)
        td = time.perf_counter() - td0
        assert np.array_equal(tt, t), "linear verify failed"
        sl = SkipList(dd, ff, tt)
        probes = [sl.lower_bound(1, 1, 1000 + n // 2), sl.lower_bound(1, 1, 1), sl.lower_bound(1, 1, 10**9)]
        total_bytes = sum(len(x) for x in (blk.docs, blk.fields, blk.tfs, blk.positions))
        print(f"posting-block  N={n}  bytes={total_bytes}  encode={te * 1000:.2f}ms  "
              f"decode={td * 1000:.2f}ms  probes={probes}")
        deltas = np.diff(np.r_[np.uint64(0), t])
        for name, codec in POSTING_CODECS.items():
            # binarycompressed delta-encodes INTERNALLY: feed it the raw
            # ascending stream; plain int codecs get the delta stream
            if name == "binarycompressed":
                src = expect = t
            elif name in ("groupvarint", "binary"):
                src, expect = deltas.astype(np.uint32), deltas
            else:
                src = expect = deltas
            e0 = time.perf_counter()
            buf = codec.encode(src)
            e = time.perf_counter() - e0
            d0 = time.perf_counter()
            out = codec.decode(buf)
            dtd = time.perf_counter() - d0
            assert np.array_equal(np.asarray(out[:n], dtype=np.uint64), expect), name
            print(f"{name:12s}  N={n}  bytes={len(buf)}  encode={e * 1000:.2f}ms  decode={dtd * 1000:.2f}ms")

        # dictionary-key encodings (C7 family): packed-key bytes vs
        # raw utf-8 over a synthetic sorted vocabulary
        from .sources.corpus import synth_code_batch
        from .textcodec import BUILDERS, encode_sorted_terms
        from .tokenizer import tokenize_batch

        tbl = synth_code_batch(0, 200)
        toks = tokenize_batch(tbl["content"])
        terms = sorted(set(toks.terms.to_pylist()))
        raw = sum(len(t.encode("utf-8")) for t in terms)
        for bname in BUILDERS:
            ke0 = time.perf_counter()
            enc, encoded = encode_sorted_terms(terms, bname)
            ke = time.perf_counter() - ke0
            packed = sum(len(e) for e in encoded)
            order_ok = encoded == sorted(encoded)
            print(
                f"dict-{bname:9s}  terms={len(terms)}  utf8={raw}B  packed={packed}B "
                f"({100 * packed / raw:.0f}%)  build+encode={ke * 1000:.1f}ms  "
                f"order_preserved={order_ok}"
            )

        # pattern matching directly in byte space (no key ever decoded):
        # UTF-8 DFA walk and packed-key walks vs the vectorized kernel
        from .dfa import WildcardDfaMatcher
        from .matchers import wildcard_match
        from .textcodec import match_encoded_keys, match_utf8_keys

        pat = "re*"
        want = [i for i, t in enumerate(terms) if wildcard_match(pat, t)]
        m0 = time.perf_counter()
        got = match_utf8_keys([t.encode("utf-8") for t in terms], WildcardDfaMatcher(pat))
        mu = (time.perf_counter() - m0) * 1000
        print(f"match-utf8       WILD({pat})  hits={len(got)}  agree={got == want}  {mu:.1f}ms")
        for bname in BUILDERS:
            enc, encoded = encode_sorted_terms(terms, bname)
            m0 = time.perf_counter()
            got = match_encoded_keys(encoded, WildcardDfaMatcher(pat), enc)
            me = (time.perf_counter() - m0) * 1000
            print(f"match-{bname:9s}  WILD({pat})  hits={len(got)}  agree={got == want}  {me:.1f}ms")

        # byte-stream utility codec (RFC 1978 predictor — format-matrix
        # entry, not a posting hot path)
        from .predictor import predictor_compress, predictor_decompress

        payload = " ".join(terms).encode("utf-8")
        c0 = time.perf_counter()
        comp = predictor_compress(payload)
        ce = (time.perf_counter() - c0) * 1000
        d0 = time.perf_counter()
        assert predictor_decompress(comp) == payload
        de = (time.perf_counter() - d0) * 1000
        print(
            f"predictor     bytes={len(payload)} -> {len(comp)} "
            f"({100 * len(comp) / len(payload):.0f}%)  compress={ce:.1f}ms  decompress={de:.1f}ms"
        )
        return 0

    if args.verb == "download":
        from .sources.enwiki import fetch_to_dir

        for path in fetch_to_dir(args.urls, args.dest):
            print(path)
        return 0

    if args.verb == "index":
        _ensure_ray()
        from .pipelines.build import build_index

        if args.input_type == "parquet":
            meta = build_index(args.input, args.index, text_col=args.text_col)
        else:
            from .pipelines.build import load_meta
            from .sources.enwiki import read_enwiki_corpus, read_text_dir
            from .state.index import IndexMeta

            try:
                start_id = load_meta(args.index).next_doc_id
            except FileNotFoundError:
                start_id = IndexMeta().next_doc_id
            if args.input_type == "enwiki":
                ds = read_enwiki_corpus(
                    args.input, start_id=start_id, **({"pattern": args.filter} if args.filter else {})
                )
            else:
                ds = read_text_dir(
                    args.input,
                    mode=args.input_type,
                    start_id=start_id,
                    **({"pattern": args.filter} if args.filter else {}),
                )
            meta = build_index(
                ds,
                args.index,
                text_col="content",
                doc_id_col="doc_id",
                meta_cols=("meta",),
            )
        if args.fst:
            # keep the sidecar fresh for this session's segment set so
            # lazy-mode EDIT/WILD take the pruned FST walk (the searcher
            # auto-uses a fresh sidecar and ignores a stale one)
            from .state.fst_store import build_fst_sidecar

            info = build_fst_sidecar(args.index)
            print(f"FST sidecar: {info['n_terms']} terms, {info['n_bytes']} bytes")
        print(f"Indexed documents: {meta.num_docs}, time: {time.time() - t0:.3f}s")
        return 0

    if args.verb == "compact":
        _ensure_ray()
        from .pipelines.build import compact_index

        meta = compact_index(args.index)
        if args.fst:
            from .state.fst_store import build_fst_sidecar

            info = build_fst_sidecar(args.index)
            print(f"FST sidecar: {info['n_terms']} terms, {info['n_bytes']} bytes")
        print(f"Compacted to segment {meta.segments[0]}, docs: {meta.num_docs}, "
              f"time: {time.time() - t0:.3f}s")
        return 0

    if args.verb == "cut-spans":
        _ensure_ray()
        import ray.data

        from .functions.spans import cut_dup_spans

        ds = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
        out = cut_dup_spans(ds, gram_len=args.gram_len, min_count=args.min_count)
        out.write_parquet(args.output)
        import pyarrow.dataset as pads

        stats = pads.dataset(args.output).to_table(columns=["n_removed"])
        import pyarrow.compute as pc

        print(
            f"Cut duplicated spans: {stats.num_rows} docs, "
            f"{pc.sum(stats['n_removed']).as_py() or 0} tokens removed, "
            f"time: {time.time() - t0:.3f}s"
        )
        return 0

    if args.verb == "ann-build":
        _ensure_ray()
        import ray.data

        from .functions.similarity import build_ann_index

        ds = ray.data.read_parquet(args.input, columns=["vec_id", "embedding"])
        meta = build_ann_index(
            ds, args.index, n_clusters=args.clusters, iters=args.iters,
            train_mod=args.train_mod,
        )
        print(f"ANN index: {meta['n_clusters']} clusters, dim {meta['dim']}, "
              f"time: {time.time() - t0:.3f}s")
        return 0

    if args.verb == "ann-query":
        _ensure_ray()
        import numpy as np
        import pyarrow.parquet as pq

        from .functions.similarity import query_ann_index

        ids = [int(x) for x in args.query_ids.split(",")]
        qt = pq.read_table(args.input, filters=[("vec_id", "in", ids)])
        q_ids = np.asarray(qt["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        missing = sorted(set(ids) - set(q_ids.tolist()))
        if missing:
            print(
                f"error: vec_id(s) not found in {args.input}: "
                + ",".join(str(m) for m in missing),
                file=sys.stderr,
            )
            return 2
        q_mat = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
        top = query_ann_index(args.index, q_ids, q_mat, k=args.k, nprobe=args.nprobe)
        for i in range(top.num_rows):
            print(f"{top['query_id'][i].as_py()}\t{top['rank'][i].as_py()}\t"
                  f"{top['neighbor_id'][i].as_py()}\t{top['cosine'][i].as_py():.6f}")
        return 0

    from .pipelines.query import IndexSearcher, dump_postings_dataset

    if args.verb == "top-terms":
        _ensure_ray()
        top = IndexSearcher(args.index).top_terms(args.k)
        for i in range(top.num_rows):
            print(f"{top['term'][i].as_py()}\t{top['df'][i].as_py()}\t{top['cf'][i].as_py()}")
        return 0

    if args.verb == "print":
        _ensure_ray()
        from .codecs import format_posting_text

        import numpy as np

        # buffer the current term ACROSS batch boundaries (a term whose
        # rows straddle two batches printed as two lines before) and
        # emit occurrences in (doc, field, token) order — sort("term")
        # guarantees nothing within equal keys
        cur_term = None
        cur_d: list = []
        cur_f: list = []
        cur_t: list = []

        def flush():
            if cur_term is None:
                return
            d = np.asarray(np.concatenate(cur_d) if len(cur_d) > 1 else cur_d[0])
            f = np.asarray(np.concatenate(cur_f) if len(cur_f) > 1 else cur_f[0])
            t = np.asarray(np.concatenate(cur_t) if len(cur_t) > 1 else cur_t[0])
            o = np.lexsort((t, f, d))
            print(f"{cur_term} -> " + format_posting_text(d[o], f[o], t[o]))

        for batch in dump_postings_dataset(args.index).sort("term").iter_batches(
            batch_format="pyarrow"
        ):
            terms = batch["term"].to_pylist()
            d = batch["doc_id"].to_numpy()
            f = batch["field_id"].to_numpy()
            t = batch["token_id"].to_numpy()
            start = 0
            for i in range(1, len(terms) + 1):
                if i == len(terms) or terms[i] != terms[start]:
                    if terms[start] != cur_term:
                        flush()
                        cur_term, cur_d, cur_f, cur_t = terms[start], [], [], []
                    cur_d.append(d[start:i])
                    cur_f.append(f[start:i])
                    cur_t.append(t[start:i])
                    start = i
        flush()
        return 0

    if args.verb == "meta-store":
        from .state.kvstore import build_store_from_index

        info = build_store_from_index(args.index, args.kind)
        print(
            f"Meta store ({info['kind']}): {info['n_docs']} docs -> "
            f"{info['path']}, time: {time.time() - t0:.3f}s"
        )
        return 0

    if args.verb == "metadata" and getattr(args, "store_kind", None):
        import json

        from .state.kvstore import open_metadata_store, store_is_stale, store_path

        spath = store_path(args.index, args.store_kind)
        if not os.path.exists(spath):
            print(
                f"error: no {args.store_kind} meta store at {spath} "
                f"(run: meta-store --index {args.index} --kind {args.store_kind})",
                file=sys.stderr,
            )
            return 2
        if store_is_stale(args.index, args.store_kind):
            print(
                f"error: {args.store_kind} meta store is stale — built before "
                f"the index's current segments (rerun: meta-store --index "
                f"{args.index} --kind {args.store_kind})",
                file=sys.stderr,
            )
            return 2
        with open_metadata_store(spath, args.store_kind) as st:
            raw = st.get(args.doc)
        if raw is None:
            print(f"error: doc {args.doc} not in meta store", file=sys.stderr)
            return 2
        print(raw.decode())
        return 0

    if args.verb == "fst-build":
        from .state.fst_store import build_fst_sidecar
        from .state.index import load_manifest, load_meta

        if args.shard_terms < 1:
            print("fst-build error: --shard-terms must be >= 1", file=sys.stderr)
            return 2
        # init Ray only when the vocabulary will actually shard (sum of
        # per-segment term counts is an upper bound on distinct terms)
        try:
            m = load_meta(args.index)
            n_upper = sum(load_manifest(args.index, s).num_terms for s in m.segments)
        except Exception:
            n_upper = 0
        if n_upper > args.shard_terms:
            _ensure_ray()  # shards compile as parallel Ray tasks
        info = build_fst_sidecar(args.index, shard_terms=args.shard_terms)
        n_sh = len(info.get("shards", [])) or 1
        print(
            f"FST: {info['n_terms']} terms, {info['n_bytes']} bytes, "
            f"{n_sh} shard(s), time: {time.time() - t0:.3f}s"
        )
        return 0

    s = IndexSearcher(args.index, term_dict=getattr(args, "term_dict", "parquet"))
    if args.verb == "metadata":
        import json

        print(json.dumps(s.get_metadata(args.doc), default=str, sort_keys=True))
    elif args.verb == "search":
        out = s.search_to_string(args.query)
        print(out)
        n = out.count("{")
        print(f"Found {n} matches, time: {time.time() - t0:.3f}s")
    elif args.verb == "lookup":
        for term in s.lookup(args.pattern):
            print(term)
    elif args.verb == "bm25":
        top = s.bm25_topk(args.query, k=args.k)
        for i in range(top.num_rows):
            print(f"{i + 1}\t{top['doc_id'][i].as_py()}\t{top['score'][i].as_py():.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
