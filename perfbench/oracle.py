"""Index-independent reference answers, computed from the generated
corpus text alone.

The engine's tokenizer is Unicode-aware (token characters are letters,
numbers, ``_`` and ``-``; text is lowercased first; dictionary terms are
cut to 64 characters), and the synthetic corpus contains non-ASCII words
such as ``импорт`` and ``über``, so the reference uses Python's Unicode
``\\w`` class rather than an ASCII one.
"""

from __future__ import annotations

import math
import re

import numpy as np

_TOKEN_RE = re.compile(r"[\w\-]+")
MAX_TERM = 64
K1, B = 1.2, 0.75


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall((text or "").lower())


class BruteIndex:
    """Token positions of every document, grouped per term."""

    def __init__(self, texts: list[str], first_doc_id: int = 1):
        terms_of_doc = [[t[:MAX_TERM] for t in tokenize(x)] for x in texts]
        self.doc_len = np.array([len(t) for t in terms_of_doc], dtype=np.int64)
        flat = [t for ts in terms_of_doc for t in ts]
        self.vocab = sorted(set(flat))
        tid = {t: i for i, t in enumerate(self.vocab)}
        term_ids = np.fromiter((tid[t] for t in flat), dtype=np.int64, count=len(flat))
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), self.doc_len)
        starts = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(self.doc_len, out=starts[1:])
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(starts[:-1], self.doc_len) + 1
        order = np.argsort(term_ids, kind="stable")  # keeps (doc, pos) order per term
        self._docs = doc_idx[order] + first_doc_id
        self._pos = pos[order]
        bounds = np.searchsorted(term_ids[order], np.arange(len(self.vocab) + 1))
        self._span = {t: (int(bounds[i]), int(bounds[i + 1])) for i, t in enumerate(self.vocab)}
        self.tokens = terms_of_doc
        self.first_doc_id = first_doc_id
        self.num_docs = len(texts)
        self.total_tokens = int(self.doc_len.sum())

    def occurrences(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._span.get(term, (0, 0))
        return self._docs[lo:hi], self._pos[lo:hi]

    def df(self, term: str) -> int:
        return len(np.unique(self.occurrences(term)[0]))

    # -- BM25 ---------------------------------------------------------------

    def bm25_scores(self, terms: list[str]) -> dict[int, float]:
        """Exhaustive Okapi BM25 (k1=1.2, b=0.75, idf ln((N-df+.5)/(df+.5)+1))
        of every matching doc; every query term counts, repeats included."""
        n = float(self.num_docs)
        avgdl = self.total_tokens / n
        scores: dict[int, float] = {}
        for term in terms:
            docs, _pos = self.occurrences(term)
            if not len(docs):
                continue
            uniq, tf = np.unique(docs, return_counts=True)
            idf = math.log((n - len(uniq) + 0.5) / (len(uniq) + 0.5) + 1.0)
            dl = self.doc_len[uniq - self.first_doc_id]
            contrib = idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avgdl))
            for d, c in zip(uniq.tolist(), contrib.tolist()):
                scores[d] = scores.get(d, 0.0) + c
        return scores

    # -- query language -----------------------------------------------------

    def word(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        return self.occurrences(term)

    def and_(self, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
        """Occurrences of both children inside docs that contain both,
        in (doc, position) order with duplicates kept."""
        da, pa_ = self.occurrences(a)
        db, pb = self.occurrences(b)
        both = np.intersect1d(da, db)
        d = np.concatenate([da[np.isin(da, both)], db[np.isin(db, both)]])
        p = np.concatenate([pa_[np.isin(da, both)], pb[np.isin(db, both)]])
        o = np.lexsort((p, d))
        return d[o], p[o]

    def seq(self, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
        """Start (doc, position) of every place where b directly follows a."""
        da, pa_ = self.occurrences(a)
        db, pb = self.occurrences(b)
        follow = set(zip(db.tolist(), (pb - 1).tolist()))
        keep = np.array([(d, p) in follow for d, p in zip(da.tolist(), pa_.tolist())], dtype=bool)
        return da[keep], pa_[keep]

    def wild_terms(self, pattern: str) -> list[str]:
        rx = re.compile("".join(
            ".*" if c == "*" else "." if c == "?" else re.escape(c) for c in pattern
        ), re.DOTALL)
        return [t for t in self.vocab if rx.fullmatch(t)]

    def edit_terms(self, word: str, k: int) -> list[str]:
        return [t for t in self.vocab if abs(len(t) - len(word)) <= k and edit_distance_at_most(word, t, k)]


def same_topk(got: list[tuple[int, float]], scores: dict[int, float], k: int, tol: float = 1e-9) -> bool:
    """Engine top-k ``got`` against reference ``scores`` of all matching
    docs: every score agrees, the list is ordered (score desc, doc asc),
    it has min(k, matches) entries and no unlisted doc scores higher than
    the last one (ties within ``tol`` may resolve either way)."""
    if len(got) != min(k, len(scores)):
        return False
    for d, s in got:
        if d not in scores or abs(s - scores[d]) > tol * max(1.0, abs(s)):
            return False
    for (d0, s0), (d1, s1) in zip(got, got[1:]):
        if s1 > s0 or (s1 == s0 and d1 < d0):
            return False
    if got and len(scores) > len(got):
        listed = {d for d, _ in got}
        best_left = max(s for d, s in scores.items() if d not in listed)
        if best_left > got[-1][1] + tol * max(1.0, abs(best_left)):
            return False
    return True


def edit_distance_at_most(a: str, b: str, k: int) -> bool:
    """Levenshtein(a, b) <= k: a direct scan for k = 1 (equal, or equal
    after one substitution, insertion or deletion), else the textbook
    dynamic programme."""
    if k == 1:
        if a == b:
            return True
        i, n = 0, min(len(a), len(b))
        while i < n and a[i] == b[i]:
            i += 1
        if len(a) == len(b):
            return a[i + 1:] == b[i + 1:]
        return a[i + 1:] == b[i:] if len(a) > len(b) else a[i:] == b[i + 1:]
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        if min(cur) > k:
            return False
        prev = cur
    return prev[-1] <= k
