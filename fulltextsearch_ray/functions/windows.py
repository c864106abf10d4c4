"""Windowed aggregation over event streams: tumbling, hopping
(overlapping) and session (gap-based) windows.

The reference has no streaming/window surface (SURVEY.md §2.8 —
"ingestion order is the only time"); these are training-data-pipeline
extensions expressed as pure batch transforms (vectorized window
assignment / explode) + one aggregate shuffle — no global sort, no
per-row Python.  All value math is EXACT integer cents so results are
bit-reproducible at any partition count (and vs the SQL oracles)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _to_cents(values: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """value → exact integer cents with DuckDB ``round`` semantics
    (half AWAY from zero; Arrow's default is half-to-even, which
    disagrees by one cent on binary-exact midpoints like 0.125*100)."""
    return pc.cast(
        pc.round(
            pc.multiply(pc.cast(values, pa.float64()), 100.0),
            round_mode="half_towards_infinity",
        ),
        pa.int64(),
    )


def _ts_us(ts: "pa.Array | pa.ChunkedArray") -> tuple[np.ndarray, pa.DataType]:
    """Microsecond int64 view of a timestamp column, normalizing the
    unit first — a raw int64 cast of a timestamp('ns') column yields
    NANOSECOND ticks, silently shrinking every window/gap constant
    1000×.  Returns (ticks_us, normalized Arrow type)."""
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    if ts.null_count:
        # callers filter null-ts rows first; an unfiltered null here
        # would silently decay the int64 view to float64/NaN
        raise ValueError("window ops: null timestamps must be filtered before _ts_us")
    t = pa.timestamp("us", getattr(ts.type, "tz", None))
    if ts.type != t:
        ts = ts.cast(t)
    return np.asarray(ts.cast(pa.int64()).to_numpy(zero_copy_only=False)), t


def _drop_null_ts(batch: pa.Table, ts_col: str) -> pa.Table:
    """Events with a null timestamp belong to no window — filtered
    before assignment (the SQL oracles mirror with
    ``WHERE ts IS NOT NULL``); an unfiltered null would decay the
    int64 tick view to float64/NaN and corrupt every window start."""
    col = batch[ts_col]
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
    return batch


def _finish_cents(batch: pa.Table, key_col: str) -> pa.Table:
    """Shared cents→float finisher for the windowed aggregates (one
    copy of the rounding-sensitive math).  Arrow arithmetic so a
    group whose values were ALL null keeps a NULL sum/avg (SQL
    ``sum`` semantics) instead of crashing the int64 conversion."""
    cents = pc.cast(batch["_sum_cents"], pa.float64())
    n = pc.cast(batch["n_events"], pa.float64())
    return pa.table(
        {
            "window_start": batch["window_start"],
            key_col: batch[key_col],
            "n_events": batch["n_events"].cast(pa.int64()),
            "sum_value": pc.divide(cents, 100.0),
            "avg_value": pc.divide(cents, pc.multiply(n, 100.0)),
        }
    )


def tumbling_window_agg(
    ds: ray.data.Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window: str = "1h",
) -> ray.data.Dataset:
    """Count/sum/mean of ``value`` per (window_start, key).

    Window assignment is vectorized timestamp truncation inside
    map_batches; the only shuffle is the (tiny) groupby on
    (window_start, key)."""
    units = {"1h": "hour", "1d": "day", "1min": "minute", "1m": "minute"}
    if window not in units:
        raise ValueError(
            f"unsupported window {window!r} (one of {sorted(units)}; "
            "'1m'/'1min' mean MINUTE — there is no month window)"
        )
    unit = units[window]

    def assign(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_col)
        w = pc.floor_temporal(batch[ts_col], unit=unit)
        # aggregate in EXACT integer cents: float partial-sum order
        # differs between engines/partitionings, and 2-decimal inputs
        # produce averages that sit exactly on rounding boundaries —
        # integer sums make the aggregate bit-reproducible.
        return pa.table(
            {
                "window_start": w,
                key_col: batch[key_col],
                "_cents": _to_cents(batch[value_col]),
            }
        )

    from ray.data.aggregate import Count, Sum

    agg = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["window_start", key_col])
        .aggregate(
            Count(alias_name="n_events"),
            Sum("_cents", alias_name="_sum_cents"),
        )
    )

    return agg.map_batches(
        lambda b: _finish_cents(b, key_col), batch_format="pyarrow"
    )


def hopping_window_agg(
    ds: ray.data.Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    size_minutes: int = 120,
    hop_minutes: int = 60,
) -> ray.data.Dataset:
    """Overlapping (hopping) windows: each event lands in
    ``size/hop`` windows; count/sum/mean of ``value`` per
    (window_start, key).

    Assignment is a vectorized explode (k = size/hop copies per event
    with shifted window starts); the only shuffle is the groupby on
    (window_start, key)."""
    assert size_minutes % hop_minutes == 0
    k = size_minutes // hop_minutes
    hop_us = hop_minutes * 60 * 1_000_000

    def assign(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_col)
        us, ts_type = _ts_us(batch[ts_col])
        base = (us // hop_us) * hop_us  # latest window containing the event
        # stays an Arrow array: a numpy round-trip would decay null
        # values to float64 NaN and change the aggregate column type
        cents = _to_cents(batch[value_col])
        keys = batch[key_col]
        tables = []
        for i in range(k):
            w = base - i * hop_us
            tables.append(
                pa.table(
                    {
                        "window_start": pa.array(w).cast(ts_type),
                        key_col: keys,
                        "_cents": cents,
                    }
                )
            )
        return pa.concat_tables(tables)

    from ray.data.aggregate import Count, Sum

    agg = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["window_start", key_col])
        .aggregate(Count(alias_name="n_events"), Sum("_cents", alias_name="_sum_cents"))
    )

    return agg.map_batches(
        lambda b: _finish_cents(b, key_col), batch_format="pyarrow"
    )


def session_window_agg(
    ds: ray.data.Dataset,
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
    value_col: str = "value",
    gap_minutes: int = 30,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Gap-based session windows per user: a new session starts when
    the time since the user's previous event exceeds ``gap_minutes``.
    Emits (user_id, session_start, n_events, sum_value).

    Users are HASH-PARTITIONED (``common.partition_apply`` on the user)
    into P tasks, not one per user; inside a partition, session boundaries are
    one vectorized lexsort + diff over all its users at once.  The
    partitioning assumption: one user's events fit one task (same
    bound as any per-key session semantics)."""
    from .common import default_partitions, partition_apply

    P = num_partitions or default_partitions()
    gap_us = gap_minutes * 60 * 1_000_000
    # preserve the input's timezone on session_start (tumbling/hopping
    # keep it via floor_temporal; a bare timestamp("us") cast silently
    # dropped it and shifted rendered sessions to UTC wall time)
    try:
        in_type = ds.schema(fetch_if_missing=True).base_schema.field(ts_col).type
        out_ts = pa.timestamp("us", getattr(in_type, "tz", None))
    except Exception:
        out_ts = pa.timestamp("us")
    event_schema = pa.schema([("u", pa.int64()), ("t", pa.int64()), ("_cents", pa.int64())])
    session_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("session_start", out_ts),
            ("n_events", pa.int64()),
            ("sum_value", pa.float64()),
        ]
    )

    def events(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_col)
        us, _ts_type = _ts_us(batch[ts_col])
        users = np.asarray(batch[user_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        return pa.table(
            {
                "u": pa.array(users),
                "t": pa.array(us),
                "_cents": _to_cents(batch[value_col]),  # Arrow: keeps nulls
            }
        )

    def sessions(group: pa.Table) -> pa.Table:
        u = np.asarray(group["u"].to_numpy(zero_copy_only=False), dtype=np.int64)
        t = np.asarray(group["t"].to_numpy(zero_copy_only=False), dtype=np.int64)
        c_arr = group["_cents"]
        if isinstance(c_arr, pa.ChunkedArray):
            c_arr = c_arr.combine_chunks()
        # null values: 0 in the sum, and an ALL-null session keeps a
        # NULL sum_value (SQL sum semantics, mirrored by the oracle)
        c = np.asarray(pc.fill_null(c_arr, 0).to_numpy(zero_copy_only=False), dtype=np.int64)
        cv = np.asarray(pc.is_valid(c_arr).to_numpy(zero_copy_only=False))
        order = np.lexsort((t, u))
        u, t, c, cv = u[order], t[order], c[order], cv[order]
        n = len(u)
        new_sess = np.empty(n, dtype=bool)
        new_sess[0] = True
        new_sess[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > gap_us)
        starts = np.flatnonzero(new_sess)
        counts = np.diff(np.r_[starts, n])
        sums = np.add.reduceat(c, starts)
        nn = np.add.reduceat(cv.astype(np.int64), starts)
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "session_start": pa.array(t[starts]).cast(out_ts),
                "n_events": pa.array(counts.astype(np.int64)),
                "sum_value": pa.array(sums / 100.0, mask=(nn == 0), type=pa.float64()),
            }
        )

    return partition_apply(
        [(ds.map_batches(events, batch_format="pyarrow"), "u", event_schema)],
        P,
        sessions,
        session_schema,
    )
