"""FST term dictionary: construction vectors ported from the
reference's FiniteStateTransducerTests.cs, randomized parity against
the column matchers, byte round-trips, and searcher/sidecar
integration (PersistentDictionaryFst behavior)."""

import random
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from fulltextsearch_ray.dfa import (
    AnyDfaMatcher,
    EditDfaMatcher,
    WildcardDfaMatcher,
    matcher_for,
)
from fulltextsearch_ray.fst import (
    Fst,
    FstBuilder,
    IntOutput,
    StringOutput,
    build_fst,
)
from fulltextsearch_ray.matchers import levenshtein_mask, wildcard_match

# -- reference construction vectors (FiniteStateTransducerTests.cs) --------

FRUIT_TERMS = ["a banana", "a lemon", "a mandarine", "a mango", "an apple", "an orange"]
FRUIT_INTS = [1, 2, 3, -2, 15, 8]


def test_simple_construction_int_outputs():
    fst = build_fst(zip(FRUIT_TERMS, FRUIT_INTS))
    for t, o in zip(FRUIT_TERMS, FRUIT_INTS):
        assert fst.try_match(t) == (True, o)
    assert fst.try_match("a mang") == (False, None)
    assert fst.try_match("a mangoz") == (False, None)
    assert fst.try_match("") == (False, None)
    # byte round-trip (FromBytes)
    fst2 = Fst.from_bytes(fst.get_bytes())
    for t, o in zip(FRUIT_TERMS, FRUIT_INTS):
        assert fst2.try_match(t) == (True, o)
    assert list(fst2.items()) == list(zip(FRUIT_TERMS, FRUIT_INTS))


def test_construction_prefix_chain():
    terms = ["a", "ab", "abilities", "ability"]
    outs = [4, 3134, 7488, 1580]
    fst = Fst.from_bytes(build_fst(zip(terms, outs)).get_bytes())
    for t, o in zip(terms, outs):
        assert fst.try_match(t) == (True, o)
    assert fst.try_match("abilitie") == (False, None)


def test_simple_construction_string_outputs():
    outs = [b"one", b"two", b"three", b"minusone", b"minustwo", b"minuseight"]
    fst = build_fst(zip(FRUIT_TERMS, outs), output=StringOutput)
    fst = Fst.from_bytes(fst.get_bytes())
    for t, o in zip(FRUIT_TERMS, outs):
        assert fst.try_match(t) == (True, o)


def test_wildcard_matching_reference_golden():
    # WildcardMatchingTest: airports, pattern *Schip*
    inputs = [
        "Albert Schweitzer Ziekenhuis. Locatie Amstelwijck Heliport",
        "Amsterdam Airfield",
        "Amsterdam Airport",
        "Amsterdam Airport Schiphol",
        "Amsterdam Heliport",
        "Chafei Amsei Airport",
        "New Amsterdam Airport",
        "Schwarzheide/Schipkau Airport",
    ]
    outputs = [43711, 23465, 41198, 2513, 43207, 5873, 41521, 29065]
    fst = build_fst(sorted(zip(inputs, outputs)))
    got = list(fst.match(WildcardDfaMatcher("*Schip*", 255)))
    assert got == ["Amsterdam Airport Schiphol", "Schwarzheide/Schipkau Airport"]
    assert [fst.try_match(t)[1] for t in got] == [2513, 29065]


def test_empty_term_and_empty_fst():
    fst = build_fst([("", 7), ("a", 9)])
    assert fst.try_match("") == (True, 7)
    assert fst.try_match("a") == (True, 9)
    assert list(fst.items()) == [("", 7), ("a", 9)]
    empty = build_fst([])
    assert empty.n_terms == 0
    assert empty.try_match("x") == (False, None)
    assert list(empty.items()) == []
    assert list(empty.match(AnyDfaMatcher())) == []


def test_unsorted_and_duplicate_input_rejected():
    b = FstBuilder(IntOutput)
    b.add("b", 1)
    with pytest.raises(ValueError):
        b.add("a", 2)
    with pytest.raises(ValueError):
        b.add("b", 2)


def test_minimality_shared_suffixes():
    # 'tuesday'/'wednesday' share the 'esday' tail: far fewer states
    # than the 16-node trie
    fst = build_fst([("tuesday", 0), ("wednesday", 0)])
    assert fst.n_states() < 14
    # outputs force a split only where totals differ
    fst2 = build_fst([("tuesday", 5), ("wednesday", 9)])
    for t, o in [("tuesday", 5), ("wednesday", 9)]:
        assert fst2.try_match(t) == (True, o)


def test_randomized_parity_with_column_matchers():
    rng = random.Random(1234)
    words = sorted(
        {
            "".join(rng.choice("abcde") for _ in range(rng.randint(0, 9)))
            for _ in range(3000)
        }
    )
    outs = [rng.randint(-(10**9), 10**9) for _ in words]
    fst = Fst.from_bytes(build_fst(zip(words, outs)).get_bytes())
    assert fst.n_terms == len(words)
    for w, o in zip(words, outs):
        assert fst.try_match(w) == (True, o)
    assert list(fst.items()) == list(zip(words, outs))
    member = set(words)
    for _ in range(500):
        w = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 10)))
        assert fst.try_match(w)[0] == (w in member)
    for pat in ["a*", "*e", "a?c*", "*abc*", "??", "a*b*c"]:
        got = list(fst.match(WildcardDfaMatcher(pat)))
        assert got == [w for w in words if wildcard_match(pat, w)], pat
    for q, k in [("abc", 1), ("edcba", 2), ("", 1)]:
        got = list(fst.match(EditDfaMatcher(q, k)))
        mask = levenshtein_mask(q, words, k)
        assert got == [w for w, m in zip(words, mask) if m], (q, k)


def test_dfa_matcher_protocol():
    m = WildcardDfaMatcher("a*c")
    assert m.next("a") and not m.is_final()
    assert m.next("x") and not m.is_final()
    assert m.next("c") and m.is_final()
    m.pop()
    assert not m.is_final()
    assert m.next("z")  # the star consumes 'z'
    m.reset()
    assert not m.next("b")  # dead from the start state: nothing pushed

    e = EditDfaMatcher("ab", 1)
    assert e.next("a") and e.is_final()  # dist("a","ab") = 1
    assert e.next("b") and e.is_final()  # exact
    assert e.next("c") and e.is_final()  # dist("abc","ab") = 1
    assert not e.next("d")  # "abcd" can't reach distance <= 1
    e2 = EditDfaMatcher("ab", 0)
    assert e2.next("a") and not e2.is_final()
    assert not e2.next("x")

    from fulltextsearch_ray.dfa import SequenceDfaMatcher
    from fulltextsearch_ray.parser import parse_query

    # dispatch: pure-prefix WILD and WORD take the O(1)-per-char
    # sequence walker (reference SequenceMatcher); general WILD the
    # NFA; EDIT the Levenshtein rows
    assert isinstance(matcher_for(parse_query("WILD(a*)")), SequenceDfaMatcher)
    assert isinstance(matcher_for(parse_query("WILD(a*b)")), WildcardDfaMatcher)
    assert isinstance(matcher_for(parse_query("WILD(a?*)")), WildcardDfaMatcher)
    assert isinstance(matcher_for(parse_query("WILD(*)")), SequenceDfaMatcher)
    assert isinstance(matcher_for(parse_query("EDIT(ab,1)")), EditDfaMatcher)
    assert isinstance(matcher_for(parse_query("WORD(ab)")), SequenceDfaMatcher)


def test_sequence_matcher_protocol():
    """Reference Collections/SequenceMatcher.cs semantics: exact mode
    accepts only the sequence itself; accept_prefixes mode accepts any
    extension of it (and IsFinal flips as soon as the sequence is
    consumed)."""
    from fulltextsearch_ray.dfa import SequenceDfaMatcher

    m = SequenceDfaMatcher("ab")
    assert m.next("a") and not m.is_final()
    assert not m.next("x")  # state unchanged on failure
    assert m.next("b") and m.is_final()
    assert not m.next("c")  # exact mode: nothing past the sequence
    m.pop()
    assert not m.is_final()
    m.reset()
    assert not m.is_final()
    assert not m.next("b")

    p = SequenceDfaMatcher("ab", accept_prefixes=True)
    assert not p.is_final()  # empty consumed ≠ starts-with "ab"
    assert p.next("a") and not p.is_final()
    assert p.next("b") and p.is_final()
    assert p.next("z") and p.is_final()  # extensions stay accepted
    assert p.next("q") and p.is_final()
    p.pop()
    p.pop()
    assert p.is_final()  # back at exactly "ab"
    p.pop()
    assert not p.is_final()

    e = SequenceDfaMatcher("", accept_prefixes=True)  # matches everything
    assert e.is_final()
    assert e.next("x") and e.is_final()

    x = SequenceDfaMatcher("")  # matches only the empty string
    assert x.is_final()
    assert not x.next("x")


def test_sequence_matcher_fst_parity():
    """WILD(prefix*) via the sequence walker enumerates exactly what the
    wildcard NFA does, over the FST."""
    from fulltextsearch_ray.dfa import SequenceDfaMatcher

    rng = random.Random(7)
    words = sorted({"".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
                    for _ in range(300)})
    fst = build_fst(zip(words, range(len(words))))
    for prefix in ["", "a", "ab", "abc", "ba", "zzz"]:
        via_seq = list(fst.match(SequenceDfaMatcher(prefix, accept_prefixes=True)))
        via_nfa = list(fst.match(WildcardDfaMatcher(prefix + "*")))
        assert via_seq == via_nfa == [w for w in words if w.startswith(prefix)], prefix
        via_word = list(fst.match(SequenceDfaMatcher(prefix)))
        assert via_word == [w for w in words if w == prefix], prefix


# -- searcher + sidecar integration ----------------------------------------


def _ds(texts, start_id):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    range(start_id, start_id + len(texts)), type=pa.uint64()
                ),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )


DOCS = [
    "Hello World!",
    "Petro Petrolium Petrol",
    "This is test document for search unit tests",
    "This test document is used for search operators",
    "Programming is very exciting. Programs can help. This is fantastic!!!",
]


@pytest.fixture(scope="module")
def fst_index(ray_session, tmp_path_factory):
    from fulltextsearch_ray.pipelines.build import build_index

    d = str(tmp_path_factory.mktemp("fst_idx"))
    build_index(_ds(DOCS, 1), d, doc_id_col="doc_id", overwrite=True)
    return d


def test_searcher_fst_parity(fst_index):
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    ref = IndexSearcher(fst_index)
    fst_s = IndexSearcher(fst_index, term_dict="fst")
    for q in [
        "WORD(this)",
        "WORD(missing)",
        "WILD(pr*)",
        "WILD(*o*)",
        "EDIT(tests,1)",
        "OR(WORD(petro), WILD(prog*))",
        "SEQ(WORD(test),WORD(document))",
    ]:
        assert fst_s.search_to_string(q) == ref.search_to_string(q), q
    for p in ["WILD(p*)", "EDIT(test,2)", "WORD(search)"]:
        assert fst_s.lookup(p) == ref.lookup(p), p


def test_fst_sidecar_build_load_and_staleness(fst_index, tmp_path):
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import (
        build_fst_sidecar,
        load_fst_sidecar,
    )

    info = build_fst_sidecar(fst_index)
    assert info["n_terms"] > 0 and info["n_bytes"] > 0
    s = IndexSearcher(fst_index)
    fst = load_fst_sidecar(fst_index, s.segments)
    assert fst is not None and fst.n_terms == info["n_terms"]
    # the sidecar serves every catalog term
    got = list(t for t, _ in fst.items())
    assert got == list(s._terms_np)

    # a new session invalidates the sidecar (segment list changed) and
    # the searcher transparently rebuilds from the catalogs
    build_index(_ds(["fresh session terms"], 9), fst_index, doc_id_col="doc_id")
    s2 = IndexSearcher(fst_index, term_dict="fst")
    assert load_fst_sidecar(fst_index, s2.segments) is None
    assert s2.lookup("WORD(fresh)") == ["fresh"]
    # rebuild refreshes it
    info2 = build_fst_sidecar(fst_index)
    assert info2["n_terms"] > info["n_terms"]
    assert load_fst_sidecar(fst_index, s2.segments) is not None


def test_searcher_fst_lazy_mode(fst_index):
    """FST dictionary composes with the paged-catalog scale path."""
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    ref = IndexSearcher(fst_index)
    lazy = IndexSearcher(fst_index, catalog_budget_rows=0, term_dict="fst")
    assert lazy._lazy_cats is not None
    for q in ["WORD(this)", "WILD(pr*)", "EDIT(tests,1)"]:
        assert lazy.search_to_string(q) == ref.search_to_string(q), q


def test_cli_fst_build_and_search(fst_index, capsys):
    from fulltextsearch_ray.cli import main

    assert main(["fst-build", "--index", fst_index]) == 0
    out = capsys.readouterr().out
    assert "FST:" in out and "terms" in out
    assert (
        main(["search", "--index", fst_index, "--query", "WORD(this)", "--term-dict", "fst"])
        == 0
    )
    got = capsys.readouterr().out
    ref_rc = main(["search", "--index", fst_index, "--query", "WORD(this)"])
    assert ref_rc == 0
    assert capsys.readouterr().out.splitlines()[0] == got.splitlines()[0]


def test_int_output_large_values_roundtrip():
    """Zigzag regression: outputs >= 2**63 round-trip exactly (the
    64-bit (v<<1)^(v>>63) trick corrupted them on unbounded ints)."""
    from fulltextsearch_ray.fst import IntOutput, build_fst

    vals = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) + 12345, -(1 << 63)]
    pairs = [(f"k{i:02d}", v) for i, v in enumerate(vals)]
    f = build_fst(pairs, IntOutput)
    for k, v in pairs:
        ok, got = f.try_match(k)
        assert ok and got == v, (k, v, got)


def test_sharded_fst_sidecar_parity(ray_session, tmp_path):
    """A sharded sidecar (tiny shard_terms forces several parallel
    range images) must serve EXACTLY what the single image serves:
    membership, global ordinals, dictionary∩automaton enumeration,
    items order — and the searcher must transparently use it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fulltextsearch_ray.dfa import WildcardDfaMatcher
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import (
        build_fst_sidecar,
        iter_index_terms,
        load_fst_sidecar,
    )
    from fulltextsearch_ray.fst import build_fst

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    words = [f"w{i:03d}" for i in range(40)] + ["apple", "apply", "apt", "zebra"]
    pq.write_table(
        pa.table({"content": pa.array([" ".join(words[i::3]) for i in range(3)])}),
        str(corpus / "p.parquet"),
    )
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, text_col="content", overwrite=True)

    info = build_fst_sidecar(idx, shard_terms=7)
    assert len(info["shards"]) > 3
    from fulltextsearch_ray.state.index import load_meta

    segs = list(load_meta(idx).segments)
    sharded = load_fst_sidecar(idx, segs)
    vocab = list(iter_index_terms(idx, segs))
    single = build_fst([(t, i) for i, t in enumerate(vocab)])

    for t in vocab + ["nope", "", "zzzz"]:
        assert (t in sharded) == (t in single), t
        assert sharded.try_match(t) == single.try_match(t), t
    assert list(sharded.items()) == list(single.items())
    got = list(sharded.match(WildcardDfaMatcher("ap*")))
    assert got == [t for t in vocab if t.startswith("ap")]

    s = IndexSearcher(idx, term_dict="fst")
    assert s.lookup("WILD(ap*)") == got
    # staleness: a new segment invalidates the sharded sidecar too
    build_index(str(corpus), idx, text_col="content")
    assert load_fst_sidecar(idx, list(load_meta(idx).segments)) is None


def test_fst_sidecar_load_detects_concurrent_rebuild(ray_session, tmp_path):
    """load_fst_sidecar re-reads fst.json after the shard/image bytes:
    a rebuild racing the load (json swapped between the two reads) must
    yield None — old ranges paired with new shard bytes would route
    terms to the wrong shard."""
    import json
    import os

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state import fst_store
    from fulltextsearch_ray.state.fst_store import (
        build_fst_sidecar,
        fst_dir,
        load_fst_sidecar,
    )
    from fulltextsearch_ray.state.index import load_meta

    idx = str(tmp_path / "fidx")
    build_index(_ds(["alpha beta gamma"], 1), idx,
                doc_id_col="doc_id", overwrite=True)
    segs = list(load_meta(idx).segments)
    # force the SHARDED layout (1 term/shard): the race window is the
    # shard-read loop between the two fst.json reads
    build_fst_sidecar(idx, shard_terms=1)
    assert load_fst_sidecar(idx, segs) is not None  # clean load works

    # simulate a racing rebuild: first Fst construction mutates fst.json
    meta_path = os.path.join(fst_dir(idx), "fst.json")
    real_fst = fst_store.Fst
    tripped = {"done": False}

    class RacingFst(real_fst):
        def __init__(self, img):
            if not tripped["done"]:
                tripped["done"] = True
                info = json.load(open(meta_path))
                info["n_bytes"] = info.get("n_bytes", 0) + 1  # any change
                json.dump(info, open(meta_path, "w"))
            super().__init__(img)

    fst_store.Fst = RacingFst
    try:
        assert load_fst_sidecar(idx, segs) is None
    finally:
        fst_store.Fst = real_fst
        build_fst_sidecar(idx, shard_terms=1)  # restore a clean sidecar
    assert load_fst_sidecar(idx, segs) is not None


# -- catalog term iteration over row-group statistics, corrupt images -------


def test_fst_iter_segment_terms_breaks_truncated_ties(tmp_path, monkeypatch):
    """Writer-truncated min statistics that tie across row-group runs
    must be re-ordered by each run's TRUE first term."""
    import fulltextsearch_ray.state.fst_store as fs

    seg = tmp_path / "segments" / "s0" / "catalog"
    seg.mkdir(parents=True)
    # lexically FIRST filename holds the LATER terms: a tie broken by
    # filename (the old behavior) would emit them out of order
    pq.write_table(pa.table({"term": pa.array(["abcx", "abcy"])}), seg / "a.parquet")
    pq.write_table(pa.table({"term": pa.array(["abca", "abcb"])}), seg / "b.parquet")
    real_pq = fs.pq

    class TruncPF:
        def __init__(self, path):
            self._pf = real_pq.ParquetFile(path)

        @property
        def metadata(self):
            md = self._pf.metadata

            def rg(i):
                g = md.row_group(i)
                st = g.column(0).statistics
                return SimpleNamespace(
                    num_rows=g.num_rows,
                    column=lambda j: SimpleNamespace(
                        statistics=SimpleNamespace(has_min_max=True, min=st.min[:3])
                    ),
                )

            return SimpleNamespace(num_row_groups=md.num_row_groups, row_group=rg)

        def read_row_group(self, i, columns=None):
            return self._pf.read_row_group(i, columns=columns)

    monkeypatch.setattr(
        fs,
        "pq",
        SimpleNamespace(ParquetFile=TruncPF, ParquetDataset=real_pq.ParquetDataset),
    )
    got = list(fs._iter_segment_terms(str(tmp_path), "s0"))
    assert got == ["abca", "abcb", "abcx", "abcy"]


def test_fst_iter_segment_terms_single_statless_group(tmp_path, monkeypatch):
    """ONE row group without key statistics (foreign writer) must be
    keyed by its true first term — not a placeholder that sorts it
    before every real run; empty row groups are skipped entirely."""
    import fulltextsearch_ray.state.fst_store as fs

    seg = tmp_path / "segments" / "s0" / "catalog"
    seg.mkdir(parents=True)
    # lexically FIRST file carries the LATER terms and will lose stats
    pq.write_table(pa.table({"term": pa.array(["mmm", "nnn"])}), seg / "a.parquet")
    pq.write_table(pa.table({"term": pa.array(["aaa", "bbb"])}), seg / "b.parquet")
    pq.write_table(pa.table({"term": pa.array([], pa.string())}), seg / "c.parquet")
    real_pq = fs.pq

    class NoStatsPF:
        def __init__(self, path):
            self._pf = real_pq.ParquetFile(path)
            self._strip = str(path).endswith("a.parquet")

        @property
        def metadata(self):
            md = self._pf.metadata
            strip = self._strip

            def rg(i):
                g = md.row_group(i)
                stats = None if strip else g.column(0).statistics
                return SimpleNamespace(
                    num_rows=g.num_rows,
                    column=lambda j: SimpleNamespace(statistics=stats),
                )

            return SimpleNamespace(num_row_groups=md.num_row_groups, row_group=rg)

        def read_row_group(self, i, columns=None):
            return self._pf.read_row_group(i, columns=columns)

    monkeypatch.setattr(
        fs,
        "pq",
        SimpleNamespace(ParquetFile=NoStatsPF, ParquetDataset=real_pq.ParquetDataset),
    )
    got = list(fs._iter_segment_terms(str(tmp_path), "s0"))
    assert got == ["aaa", "bbb", "mmm", "nnn"]


def test_corrupt_fst_images_raise_descriptive_errors():
    from fulltextsearch_ray.fst import Fst, FstBuilder

    b = FstBuilder()
    for t in ["alpha", "beta", "gamma"]:
        b.add(t, 1)
    img = b.finish().get_bytes()
    Fst(img)  # intact loads
    with pytest.raises(ValueError, match="bad magic"):
        Fst(img[:-1])
    with pytest.raises(ValueError, match="corrupt FST image"):
        Fst(bytes([255]) * 3 + img[-5:])  # footer size exceeds image? or overlong varint
    # over-long varint in a doctored footer
    with pytest.raises(ValueError):
        Fst(b"\x80" * 40 + bytes([40 + 5]) + b"RFST")
