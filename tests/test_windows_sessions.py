"""Hopping / session window operators and SimHash near-dup pairs:
vectorized distributed results vs sequential numpy/python references."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.functions.dedup import (
    simhash_batch,
    simhash_neardup_pairs,
)
from fulltextsearch_ray.functions.similarity import popcount64 as _popcount64
from fulltextsearch_ray.functions.windows import (
    hopping_window_agg,
    session_window_agg,
    tumbling_window_agg,
)


@pytest.fixture()
def events_ds(ray_session):
    rng = np.random.default_rng(11)
    n = 2000
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = base + (rng.integers(0, 48 * 3600, size=n) * 1_000_000).astype("timedelta64[us]")
    tbl = pa.table(
        {
            "ts": pa.array(ts),
            "user_id": pa.array(rng.integers(1, 40, size=n), pa.int64()),
            "event_type": pa.array(rng.choice(["click", "view", "buy"], size=n)),
            "value": pa.array(np.round(rng.random(n) * 100, 2), pa.float64()),
        }
    )
    return ray.data.from_arrow(tbl), tbl


def test_hopping_window_covers_tumbling(events_ds):
    ds, tbl = events_ds
    hop = {(r["window_start"], r["event_type"]): r["n_events"]
           for r in hopping_window_agg(ds, size_minutes=120, hop_minutes=60).take_all()}
    tum = {(r["window_start"], r["event_type"]): r["n_events"]
           for r in tumbling_window_agg(ds, window="1h").take_all()}
    # each hopping window of size 2h = sum of its two tumbling hours
    import datetime

    for (w, k), n in hop.items():
        expect = tum.get((w, k), 0) + tum.get((w + datetime.timedelta(hours=1), k), 0)
        assert n == expect, (w, k)


def test_session_windows_match_sequential(events_ds):
    ds, tbl = events_ds
    got = sorted(
        (r["user_id"], r["session_start"], r["n_events"], round(r["sum_value"], 2))
        for r in session_window_agg(ds, gap_minutes=30).take_all()
    )
    # sequential reference
    us = np.asarray(tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False))
    users = np.asarray(tbl["user_id"].to_numpy(zero_copy_only=False))
    cents = np.round(np.asarray(tbl["value"].to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
    order = np.lexsort((us, users))
    us, users, cents = us[order], users[order], cents[order]
    ref = []
    gap = 30 * 60 * 1_000_000
    i = 0
    while i < len(us):
        j = i + 1
        while j < len(us) and users[j] == users[i] and us[j] - us[j - 1] <= gap:
            j += 1
        import datetime

        start = datetime.datetime(1970, 1, 1) + datetime.timedelta(microseconds=int(us[i]))
        ref.append((int(users[i]), start, j - i, round(cents[i:j].sum() / 100.0, 2)))
        i = j
    assert got == sorted(ref)


def test_popcount64():
    xs = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF, 0x8000000000000001], dtype=np.uint64)
    assert _popcount64(xs).tolist() == [0, 1, 2, 64, 2]


def test_simhash_neardup_exact_when_hamming_below_bands(ray_session):
    texts = (
        ["alpha beta gamma delta epsilon zeta"] * 3          # identical → ham 0
        + ["alpha beta gamma delta epsilon zets"]             # near dup
        + [f"completely different text number {i} with words {i*7}" for i in range(20)]
    )
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    got = {(r["a"], r["b"]): r["hamming"]
           for r in simhash_neardup_pairs(ds, max_hamming=3, bands=4).take_all()}
    # brute-force reference over all simhash pairs
    sims = simhash_batch(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                                   "text": pa.array(texts, pa.string())}))
    h = np.array([int(s, 16) for s in sims["simhash"].to_pylist()], dtype=np.uint64)
    expect = {}
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            d = int(_popcount64(np.array([h[i] ^ h[j]], dtype=np.uint64))[0])
            if d <= 3:
                expect[(i, j)] = d
    # banding with max_hamming <= bands-1 is EXACT: recall 1
    assert got == expect
    assert got[(0, 1)] == 0 and got[(0, 2)] == 0


def test_window_aggs_normalize_timestamp_unit(ray_session):
    """Regression: hopping/session cast ts to raw int64 ticks — for a
    timestamp('ns') column (the pandas default) the tick constants
    were interpreted 1000x too small.  All three window ops must give
    identical results for us- and ns-unit inputs."""
    rng = np.random.default_rng(8)
    n = 400
    base = 1_700_000_000_000_000  # us epoch
    ts_us = base + np.sort(rng.integers(0, 6 * 3_600_000_000, size=n))
    tbl_us = pa.table(
        {
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "event_type": pa.array(rng.choice(["a", "b"], size=n)),
            "user_id": pa.array(rng.integers(1, 9, size=n), pa.int64()),
            "value": pa.array(np.round(rng.uniform(0, 50, size=n), 2)),
        }
    )
    tbl_ns = tbl_us.set_column(0, "ts", tbl_us["ts"].cast(pa.timestamp("ns")))

    def key_rows(tbl):
        return sorted(map(tuple, tbl.to_pylist()[0].items())) if False else None

    for fn, kw in (
        (hopping_window_agg, dict(size_minutes=120, hop_minutes=60)),
        (session_window_agg, dict(gap_minutes=30)),
    ):
        a = fn(ray.data.from_arrow(tbl_us), **kw).take_all()
        b = fn(ray.data.from_arrow(tbl_ns), **kw).take_all()
        norm = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
        assert norm(a) == norm(b), fn.__name__
        assert len(a) > 1


def test_window_ops_tolerate_null_ts_and_null_values(ray_session):
    """Null timestamps are filtered (SQL oracles mirror WHERE ts IS NOT
    NULL); a group whose values are ALL null keeps a NULL sum instead
    of crashing the int64 conversion."""
    import datetime as dt

    import ray.data

    from fulltextsearch_ray.functions.windows import (
        hopping_window_agg,
        session_window_agg,
        tumbling_window_agg,
    )

    t0 = dt.datetime(2024, 1, 1, 10, 5)
    tbl = pa.table(
        {
            "ts": pa.array([t0, t0, None, t0], pa.timestamp("us")),
            "event_type": pa.array(["a", "a", "a", "b"]),
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "value": pa.array([None, None, 5.0, 2.5], pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    tum = tumbling_window_agg(ds, window="1h").to_pandas().sort_values("event_type")
    # the null-ts row is gone; 'a' group (all-null values) keeps NULL sum
    assert tum.n_events.tolist() == [2, 1]
    assert np.isnan(tum.sum_value.tolist()[0]) and tum.sum_value.tolist()[1] == 2.5
    hop = hopping_window_agg(ds, size_minutes=120, hop_minutes=60).to_pandas()
    assert len(hop) == 4  # 2 windows x 2 keys, no crash
    ses = session_window_agg(ds, gap_minutes=30).to_pandas().sort_values("user_id")
    assert ses.n_events.tolist() == [2, 1]
    assert np.isnan(ses.sum_value.tolist()[0]) and ses.sum_value.tolist()[1] == 2.5


def test_session_start_preserves_timezone(ray_session):
    import datetime as dt

    import ray.data

    from fulltextsearch_ray.functions.windows import session_window_agg

    t0 = dt.datetime(2024, 1, 1, 10, 5)
    tbl = pa.table(
        {
            "ts": pa.array([t0, t0], pa.timestamp("us", tz="+05:30")),
            "user_id": pa.array([1, 2], pa.int64()),
            "value": pa.array([1.0, 2.0], pa.float64()),
        }
    )
    out = session_window_agg(ray.data.from_arrow(tbl), gap_minutes=30)
    schema = out.schema().base_schema
    assert schema.field("session_start").type == pa.timestamp("us", tz="+05:30")


def test_tumbling_rejects_unknown_window(ray_session):
    import ray.data

    from fulltextsearch_ray.functions.windows import tumbling_window_agg

    ds = ray.data.from_arrow(pa.table({"ts": pa.array([], pa.timestamp("us")),
                                       "event_type": pa.array([], pa.string()),
                                       "value": pa.array([], pa.float64())}))
    with pytest.raises(ValueError, match="unsupported window"):
        tumbling_window_agg(ds, window="15m")


def test_window_cents_round_half_away_from_zero(ray_session):
    """Binary-exact midpoint values (0.125*100 == 12.5 exactly) must
    round like DuckDB round (half AWAY from zero), not Arrow's default
    half-to-even (round-2 ADVICE #4)."""
    import ray.data

    from fulltextsearch_ray.functions.windows import tumbling_window_agg

    tbl = pa.table(
        {
            "ts": pa.array([1_000_000] * 2, pa.timestamp("us")),
            "event_type": pa.array(["a", "a"]),
            "value": pa.array([0.125, -0.125], pa.float64()),
        }
    )
    out = tumbling_window_agg(ray.data.from_arrow(tbl), window="1h").take_all()
    assert len(out) == 1
    # 13 + (-13) cents = 0.0; half-to-even would give 12 + (-12) = 0 too,
    # so ALSO check the one-sided sum
    tbl2 = pa.table(
        {
            "ts": pa.array([1_000_000], pa.timestamp("us")),
            "event_type": pa.array(["a"]),
            "value": pa.array([0.125], pa.float64()),
        }
    )
    out2 = tumbling_window_agg(ray.data.from_arrow(tbl2), window="1h").take_all()
    assert out2[0]["sum_value"] == 0.13  # DuckDB round(12.5) = 13 cents
