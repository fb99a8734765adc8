"""Driver-oracle query pipelines over the TPC-H-ish test tables.

Every query here has a DuckDB-checkable ANSI-SQL twin (__ray_entry__'s
oracle_sql); column names match exactly.  Aggregates follow the engine's
scale rules: grouped aggregates run on the one two-stage combiner of
``pipelines/combine.py`` (an Arrow partial aggregate per batch, one Arrow
merge of the partial rows on the driver, or one Ray shuffle merge for
unbounded keys; partial top-k the same way), broadcast lookups for small
join sides, column-pruned reads.  Float aggregates are rounded (ROUND6)
on both sides so the driver's value-hash is stable across summation
orders.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.functions.rounding import round_ha
from ts_pymfe_ray.pipelines.combine import (combine, fetch_blocks, group_rank,
                                            nan_to_null, shuffle_combine, topk)
from ts_pymfe_ray.sources.sequences import list_parquet_files, read_row_groups

ROUND = 6


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """``table``'s ``columns`` (every column when None) from its file, or
    from every file of its directory, one read task per Parquet row group:
    the blocks follow the files, not the CPU count, so no read splits its
    output and every map over it fuses into the read."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    files = list_parquet_files(path) if os.path.isdir(path) else [path]
    return read_row_groups(files, columns or pq.read_schema(files[0]).names)


# ---------------------------------------------------------------- helpers


def _units(x, scale: int) -> pa.ChunkedArray:
    """``x * scale`` rounded half-even to int64: the exact-units recipe for
    2dp/4dp-granular float columns.  A NULL or NaN reads NULL."""
    return pc.cast(pc.round(pc.multiply(nan_to_null(x), scale)), pa.int64())


def grouped_stats(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    out_prefix: str | None = None,
    sum_decimals: int = ROUND,
    cents: bool = False,
) -> pd.DataFrame:
    """Grouped (count, sum, min, max, mean) through :func:`combine`.

    ``cents=True`` is the exactness recipe for 2dp-granular value columns
    (the events stream): sums accumulate as EXACT int64 hundredths, so the
    merged sum is association-order-free and the derived sum/mean are the
    same IEEE doubles on the engine and DuckDB side regardless of scale —
    plain float sums hit the 6dp rounding half boundary at sf0.1+ (e.g. a
    2dp mean over a 16-multiple count ends exactly in ...0625).  The count
    is the twins' ``COUNT(*)``; a NULL value adds nothing to the sum."""
    pref = out_prefix or value_col
    unit_col = "_units" if cents else value_col

    def units(batch: pa.Table) -> pa.Table:
        return batch.append_column("_units", _units(batch.column(value_col), 100))

    g = combine(ds, keys, {"n": (value_col, "size"), "nv": (value_col, "count"),
                           "s": (unit_col, "sum"), "mn": (value_col, "min"),
                           "mx": (value_col, "max")},
                units if cents else None).to_pandas()
    out = g[keys].copy()
    out[f"{pref}_count"] = g["n"]
    # float64 + DuckDB-identical rounding so the driver hash matches the
    # oracle's ROUND(...) doubles even for integer value columns; the
    # exact-cents twins divide by COUNT(*), the plain ones take AVG
    s = g["s"].to_numpy(np.float64) / (100.0 if cents else 1.0)
    out[f"{pref}_sum"] = round_ha(s, sum_decimals)
    out[f"{pref}_mean"] = round_ha(s / g["n" if cents else "nv"].to_numpy())
    out[f"{pref}_min"] = round_ha(g["mn"])
    out[f"{pref}_max"] = round_ha(g["mx"])
    return out


_HOUR_US = 3600 * 1_000_000
_DAY_US = 24 * _HOUR_US


def _ts_us(ts: pa.ChunkedArray) -> pa.ChunkedArray:
    """Timestamp column -> int64 epoch microseconds (DuckDB's epoch_us)."""
    return pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())


def _user_days(batch: pa.Table) -> np.ndarray:
    """The batch's distinct (user_id, epoch day) pairs, shape (n, 2)."""
    days = _ts_us(batch.column("ts")).to_numpy() // _DAY_US
    users = batch.column("user_id").to_numpy()
    return np.unique(np.stack([users, days], axis=1), axis=0)


def _user_day_rows(sf_dir: str):
    """The events as per-batch distinct (user_id, day) rows: one row per
    active user-day and touching batch, never one per event."""

    def user_days(batch: pa.Table) -> pa.Table:
        pairs = _user_days(batch)
        return pa.table({"user_id": pa.array(pairs[:, 0], pa.int64()),
                         "day": pa.array(pairs[:, 1], pa.int64())})

    return _read(sf_dir, "events", ["user_id", "ts"]).map_batches(
        user_days, batch_format="pyarrow")


# ------------------------------------------------------ span-partial engine
#
# Every keyed event operator that needs each key's events in time order
# (acf1, inter-arrival, funnel, sessionize, as-of, the positional-window
# family) runs on the same three steps instead of co-locating a key's
# whole history: tag each event with span_id = ts_us // span width, reduce
# each (key, span) slice to a few partial rows, then merge the partials
# per key (rows bounded by active spans, never by event count).
#
# Every per-group step is a SEGMENT KERNEL on _map_sorted_groups: one
# shuffle sort by the group keys co-locates each group inside one block
# (the contract Ray's own map_groups rests on), a local sort puts the
# block in (keys, order) order, and the kernel reduces all of the block's
# groups in whole-block numpy passes over their start offsets — one
# Python call per block, not one pandas call per group.  The groups are
# the ones map_groups would form — one (key, span) slice, one key's span
# rows or one window — so the per-task bound is unchanged: no group holds
# more than max(span event count, bucket) rows of one key.
#
# A merge over a bounded key (the per-event_type span rows of acf1 and
# inter-arrival) or over rows the entry returns to the driver anyway (the
# as-of clicks) runs the same kernel once on the driver
# (_merge_on_driver), as combine merges its partials there.  Rows of
# different kinds that a second pass must treat differently travel
# together, routed by their sort key — never split into two Datasets —
# so every q_events_* entry is one Ray execution.

# span width of every span-partial operator: bounds any single task's
# group by TIME RANGE — the production knob against hot keys (a bot
# user's events split across spans instead of landing in one task)
_SPAN_HOURS = 24
_NONE = np.int64(2**62)  # integer sentinel: no such event / gap


def _sorted_groups(block: pa.Table, keys, order=()):
    """``block`` sorted by ``keys + order``, and the offsets where each
    ``keys`` group begins."""
    block = block.sort_by([(c, "ascending") for c in (*keys, *order)])
    n = block.num_rows
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for k in keys:
            col = block.column(k)
            new[1:] |= pc.not_equal(col.slice(1), col.slice(0, n - 1)).to_numpy()
    return block, np.flatnonzero(new)


def _map_sorted_groups(ds, keys, fn, order=()):
    """``fn(block, starts) -> pa.Table`` once per block of ``ds`` sorted by
    ``keys`` (``_sorted_groups`` order and group starts).  The shuffle
    sorts by ``keys`` only: its range boundaries are key values, so no
    group spans two blocks (an ``order`` column in the shuffle key could
    split one).  ``fn`` must return its full typed schema for an empty
    block too."""
    keys = list(keys)

    def run(block: pa.Table) -> pa.Table:
        return fn(*_sorted_groups(block, keys, order))

    return ds.sort(keys).map_batches(run, batch_format="pyarrow", batch_size=None)


def _merge_on_driver(ds, keys, fn, order=()):
    """:func:`_map_sorted_groups` run once on the driver: ``fn(block,
    starts)`` over every row of ``ds`` (one execution, one
    :func:`fetch_blocks`), sorted by ``keys + order``.  For a bounded key
    (event types) or rows the entry returns to the driver anyway, where a
    second sort and map would cost more than they spread."""
    rows = pa.concat_tables([b for b in fetch_blocks(ds) if b.num_columns])
    return fn(*_sorted_groups(rows, list(keys), order))


def _seg(starts: np.ndarray, n: int):
    """Segment ends and each row's segment index for sorted-group starts."""
    ends = np.append(starts[1:], n)[:starts.size].astype(np.int64)
    return ends, np.repeat(np.arange(starts.size), ends - starts)


def _cols(block: pa.Table, *names: str):
    """The named columns of ``block`` as numpy arrays."""
    return [block.column(c).to_numpy() for c in names]


def _firsts(seg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows opening a new run of equal ``x`` inside their segment."""
    new = np.ones(x.size, dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (seg[1:] != seg[:-1])
    return new


def _reduce(ufunc, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc.reduceat`` over sorted-group segments (exact for integers;
    for floats it associates like a per-segment reduceat, not ``.sum()``)."""
    return ufunc.reduceat(x, starts) if starts.size else x[:0]


def _steps(a: np.ndarray, b: np.ndarray, starts: np.ndarray):
    """Integer steps ``b[j+1] - a[j]`` between consecutive rows inside each
    segment: per segment (count, sum, min, max), min/max ``_NONE``/-1 when
    the segment has a single row."""
    ends, _ = _seg(starts, a.size)
    d = np.append(b[1:] - a[:-1], 0).astype(np.int64)
    lo, hi = d.copy(), d.copy()
    d[ends - 1], lo[ends - 1], hi[ends - 1] = 0, _NONE, -1  # leaves the segment
    return (ends - starts - 1, _reduce(np.add, d, starts),
            _reduce(np.minimum, lo, starts), _reduce(np.maximum, hi, starts))


def _nearest(mask: np.ndarray, starts: np.ndarray):
    """Per row, the nearest row at or before it and the nearest row at or
    after it where ``mask`` holds, inside the row's segment (-1: none)."""
    n = mask.size
    idx = np.arange(n)
    ends, seg = _seg(starts, n)
    before = np.maximum.accumulate(np.where(mask, idx, -1))
    after = np.minimum.accumulate(np.where(mask, idx, n)[::-1])[::-1]
    return (np.where(before >= starts[seg], before, -1),
            np.where(after < ends[seg], after, -1))


def _span_tagged(sf_dir: str, columns: list[str], span_hours: int):
    """events[columns] plus ``ts_us`` and ``span_id = ts_us // span``."""
    span_us = span_hours * _HOUR_US

    def tag(batch: pa.Table) -> pa.Table:
        ts_us = _ts_us(batch.column("ts"))
        return pa.table({**{c: batch.column(c) for c in columns},
                         "ts_us": ts_us, "span_id": pc.divide(ts_us, span_us)})

    return _read(sf_dir, "events", [*columns, "ts"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True)


def _span_partials(tagged, key: str, per_span):
    """The segment kernel ``per_span(block, starts)`` over the (key,
    span_id) slices of ``tagged``, each slice sorted by (ts_us, event_id)."""
    return _map_sorted_groups(tagged, [key, "span_id"], per_span,
                              order=("ts_us", "event_id"))


# ---------------------------------------------------------------- queries


def q_events_window_rollup(sf_dir: str) -> pd.DataFrame:
    """Hourly windowed aggregate per event_type over the events stream —
    the SQL-checkable twin of the engine's window rollups."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        bucket = _ts_us(batch.column("ts")).to_numpy() // _HOUR_US
        return batch.append_column("hour_bucket", pa.array(bucket, pa.int64()))

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return grouped_stats(ds, ["event_type", "hour_bucket"], "value",
                         cents=True)


def q_events_user_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Top-k users by event count: per-batch partial counts -> DISTRIBUTED
    per-user merge (:func:`shuffle_combine`) -> partial top-k per block ->
    tiny driver merge (:func:`topk`).

    user_id is an unbounded key domain, so the cross-batch merge must be a
    shuffle groupby, not a driver-side merge (round 3 pulled one
    partial-count row per distinct user to the driver — the whole keyspace
    at 10^9 users).  Only k rows per output block reach the driver."""
    counts = shuffle_combine(_read(sf_dir, "events", ["user_id"]), ["user_id"],
                             {"num_events": ("user_id", "size")})
    return topk(counts, [("num_events", "descending"), ("user_id", "ascending")],
                k).to_pandas()


_PAIR_SUMS = ("sx", "sy", "sxy", "sx2", "sy2")


def _acf1_span(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per (event_type, span) slice: adjacent-pair sums, count and the
    first/last value."""
    v, span = _cols(block, "value", "span_id")
    ends, _ = _seg(starts, v.size)
    acc = np.zeros((starts.size, len(_PAIR_SUMS)))
    for g, (s, e) in enumerate(zip(starts, ends)):
        x, y = v[s:e - 1], v[s + 1:e]
        acc[g] = (x.sum(), y.sum(), (x * y).sum(), (x * x).sum(), (y * y).sum())
    return pa.table({
        "event_type": block.column("event_type").take(starts),
        "span_id": span[starts], "cnt": ends - starts,
        "npairs": ends - starts - 1, **dict(zip(_PAIR_SUMS, acc.T)),
        "first_v": v[starts], "last_v": v[ends - 1],
    })


def _acf1_merge(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per event_type over its span-sorted rows: the merged sums plus the
    cross-span boundary pairs -> Pearson r."""
    cnt, npairs, first_v, last_v = _cols(block, "cnt", "npairs", "first_v", "last_v")
    sx, sy, sxy, sx2, sy2 = _cols(block, *_PAIR_SUMS)
    ends, _ = _seg(starts, cnt.size)
    n_events = _reduce(np.add, cnt, starts)
    r = np.full(starts.size, np.nan)
    for g, (s, e) in enumerate(zip(starts, ends)):
        if n_events[g] < 3:
            continue
        bx = last_v[s:e - 1]   # boundary pairs: last of span k
        by = first_v[s + 1:e]  # with first of next active span
        m = float(int(npairs[s:e].sum()) + bx.size)
        x = float(sx[s:e].sum() + bx.sum())
        y = float(sy[s:e].sum() + by.sum())
        xy = float(sxy[s:e].sum() + (bx * by).sum())
        x2 = float(sx2[s:e].sum() + (bx * bx).sum())
        y2 = float(sy2[s:e].sum() + (by * by).sum())
        den = (m * x2 - x * x) * (m * y2 - y * y)
        if den > 0:
            r[g] = (m * xy - x * y) / np.sqrt(den)
    return pa.table({"event_type": block.column("event_type").take(starts),
                     "acf1": round_ha(r), "n": n_events})


def q_events_acf1(sf_dir: str, span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """Lag-1 autocorrelation (Pearson r of value vs previous value in time
    order) per event_type — the ACF operator in SQL-checkable form.

    Distributed by TIME SPAN like the user-window family: each
    (event_type, span) task reduces its chronologically sorted slice to
    ONE row of adjacent-pair sums (sx/sy/sxy/sx2/sy2/npairs) plus its
    first/last value; the per-type merge then runs over span ROWS (one
    per active span — bounded by time range, not key frequency), adds the
    cross-span boundary pairs, and assembles Pearson r from the merged
    sums.  A hot event_type with 10^9 events never materializes in one
    task.  Float sums stay per-slice ``.sum()`` calls (np.add.reduceat
    associates differently and would move the rounded r)."""
    tagged = _span_tagged(sf_dir, ["event_type", "event_id", "value"], span_hours)
    out = _merge_on_driver(_span_partials(tagged, "event_type", _acf1_span),
                           ["event_type"], _acf1_merge, order=("span_id",)).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


def q_lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style pricing summary (grouped mergeable aggregates)."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = _read(sf_dir, "lineitem", keys + ["l_quantity", "l_extendedprice", "l_discount"])

    def units(batch: pa.Table) -> pa.Table:
        # exact integer units (the cents recipe): base price is 2dp, the
        # discounted product is 4dp-granular — integer sums are
        # association-order-free, so the merged stats are the same doubles
        # on both sides at every scale (a 4dp disc-price sum can land
        # EXACTLY on the 2dp rounding half)
        price = batch.column("l_extendedprice")
        disc = pc.multiply(price, pc.subtract(1, batch.column("l_discount")))
        return batch.append_column("bp", _units(price, 100)).append_column(
            "dp", _units(disc, 10000))

    g = combine(ds, keys, {
        "sum_qty": ("l_quantity", "sum"), "sum_base_price": ("bp", "sum"),
        "sum_disc_price": ("dp", "sum"), "cnt": ("l_quantity", "size"),
    }, units).to_pandas()
    g["avg_qty"] = round_ha(g["sum_qty"] / g["cnt"])
    g["sum_qty"] = round_ha(g["sum_qty"], 2)
    g["sum_base_price"] = round_ha(g["sum_base_price"] / 100.0, 2)
    g["sum_disc_price"] = round_ha(g["sum_disc_price"] / 10000.0, 2)
    return g


def q_orders_by_mktsegment(sf_dir: str) -> pd.DataFrame:
    """orders x customer broadcast join: the small side is read once on
    the driver and shipped as a lookup dict inside the map (no shuffle
    join — SURVEY.md §2.13)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    lookup = dict(zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist()))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def joiner(batch: pa.Table) -> pa.Table:
        seg = [lookup.get(k, "UNKNOWN") for k in batch.column("o_custkey").to_pylist()]
        return pa.table({"c_mktsegment": pa.array(seg, pa.string()),
                         "o_totalprice": batch.column("o_totalprice")})

    g = combine(ds, ["c_mktsegment"], {"revenue": ("o_totalprice", "sum"),
                                       "num_orders": ("o_totalprice", "size")},
                joiner).to_pandas()
    g["revenue"] = round_ha(g["revenue"], 2)
    return g


def q_documents_stats(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return grouped_stats(ds, ["source"], "n_chars")


def q_documents_token_count(sf_dir: str) -> pd.DataFrame:
    """Whitespace token counting per doc -> per-lang totals.  Token
    semantics = split on single space, matching SQL string_split."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def ntok(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({"lang": batch.column("lang"),
                         "ntok": pa.array([len(t.split(" ")) for t in texts], pa.int64())})

    return combine(ds, ["lang"], {"total_tokens": ("ntok", "sum"),
                                  "n_docs": ("ntok", "size")}, ntok).to_pandas()


def _hash_keys(texts: pa.ChunkedArray) -> dict[str, pa.Array]:
    """The full 128-bit md5 of each text as two int64 group keys.

    A 64-bit key would silently merge two distinct texts on a collision at
    1e9-doc scale.  The halves are int64 bit-pattern views: Ray 2.49
    re-infers uint64 group keys above 2^63 as int64 in the aggregate path,
    overflows, and degrades to pickled-object columns the shuffle sort
    rejects.  Dedup semantics are order-free, so the reinterpretation is
    safe."""
    from ts_pymfe_ray.functions.md5vec import md5_pair64, pack_bytes

    lo, hi = md5_pair64(*pack_bytes([t.encode() for t in texts.to_pylist()]))
    return {"h_lo": pa.array(lo.view(np.int64), pa.int64()),
            "h_hi": pa.array(hi.view(np.int64), pa.int64())}


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup count report: per source, total rows vs distinct texts.

    Fully distributed two-level aggregate: stage 1 groups by (source,
    128-bit content hash) in a shuffle, so every distinct document
    collapses to ONE row inside the cluster; stage 2 counts the (already
    distinct-sized) rows per source.  Nothing per-document reaches the
    driver — round 3 pulled one hash row per doc into pandas, i.e. the
    corpus's hash column at 10^12 docs."""
    def hashed(batch: pa.Table) -> pa.Table:
        return pa.table({"source": batch.column("source"), **_hash_keys(batch.column("text"))})

    distinct = shuffle_combine(_read(sf_dir, "documents", ["source", "text"]),
                               ["source", "h_lo", "h_hi"], {"c": ("source", "size")}, hashed)
    return combine(distinct, ["source"], {"n_docs": ("c", "sum"),
                                          "uniq_docs": ("c", "size")}).to_pandas()


def q_dedup_exact_keep_first(sf_dir: str) -> pd.DataFrame:
    """Exact dedup MATERIALIZATION: one surviving row per distinct text —
    hash-partitioned keep-first (min doc_id) semantics via a shuffle
    aggregate over content hashes; shuffles only (hash, doc_id) rows,
    never text.  Returns the kept doc_ids with their duplicate counts
    (the downstream pipeline reads the kept rows by id)."""
    def hashed(batch: pa.Table) -> pa.Table:
        return pa.table({**_hash_keys(batch.column("text")), "doc_id": batch.column("doc_id")})

    g = shuffle_combine(_read(sf_dir, "documents", ["doc_id", "text"]), ["h_lo", "h_hi"],
                        {"doc_id": ("doc_id", "min"), "n_copies": ("doc_id", "size")},
                        hashed).to_pandas()
    return g[["doc_id", "n_copies"]].sort_values("doc_id").reset_index(drop=True)


def _embeddings(batch: pa.Table, dim: int) -> np.ndarray:
    """The batch's embedding column as a (rows, dim) float64 matrix."""
    return np.array(batch.column("embedding").to_pylist(), dtype=np.float64).reshape(
        batch.num_rows, dim)


def _cosines(mat: np.ndarray, qn: np.ndarray) -> np.ndarray:
    """Cosine of every row of ``mat`` against the normalized query
    column(s) ``qn``: dot against the normalized query, then divide by the
    row norm (a zero row reads norm 1)."""
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return (mat @ qn) / (norms[:, None] if qn.ndim == 2 else norms)


_BY_COSINE = [("cosine", "descending"), ("vec_id", "ascending")]


def q_embeddings_knn(sf_dir: str, k: int = 5, query_vec_id: int = 0) -> pd.DataFrame:
    """Brute-force cosine top-k against a broadcast query vector: numpy
    matmul per batch, per-batch partial top-k, tiny final merge.  The
    scale path swaps the per-batch scan for an LSH/IVF bucket probe
    (q_embeddings_neardup uses the banding variant)."""
    # pushdown-filtered read: only the query vector's row leaves storage
    qtbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") == query_vec_id,
    ).to_pandas()
    q = np.asarray(qtbl["embedding"].iloc[0], dtype=np.float64)
    qn = q / np.linalg.norm(q)

    def scored(batch: pa.Table) -> pa.Table:
        # ranked on the 6dp-rounded cosine, as the driver hash sees it
        return pa.table({"vec_id": batch.column("vec_id"),
                         "cosine": round_ha(_cosines(_embeddings(batch, qn.size), qn))})

    return topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), _BY_COSINE, k,
                prep=scored).to_pandas()


def q_embeddings_knn_multi(sf_dir: str, k: int = 3,
                           n_queries: int = 4) -> pd.DataFrame:
    """Brute-force cosine top-k for a BATCH of queries — one broadcast
    (n_queries, dim) query matrix, one matmul per corpus batch, partial
    per-query top-k, tiny final merge.  At scale the query matrix ships
    once via the task closure (ray.put semantics) while the corpus
    streams; cost is one GEMM per batch instead of n_queries scans."""
    qtbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < n_queries,
    ).to_pandas().sort_values("vec_id")
    Q = np.asarray(qtbl["embedding"].to_list(), dtype=np.float64)
    Qn = Q / np.linalg.norm(Q, axis=1)[:, None]
    qids = qtbl["vec_id"].to_numpy().astype(np.int64)

    def scored(batch: pa.Table) -> pa.Table:
        sims = _cosines(_embeddings(batch, Qn.shape[1]), Qn.T)  # (batch, n_queries)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        return pa.table({"query_id": np.repeat(qids, ids.size),
                         "vec_id": np.tile(ids, qids.size),
                         "cosine": sims.T.ravel()})

    # rank on the UNROUNDED cosine with vec_id tiebreak — mirrors the SQL
    # twin's row_number over the raw similarity (ranking on the rounded
    # value could keep a different vec_id on a 4dp tie at the k boundary)
    out = topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), _BY_COSINE, k,
               by=["query_id"], prep=scored).to_pandas()
    # 4dp on the EMITTED value only: DuckDB's list_cosine_similarity
    # accumulates in FLOAT32 (~5e-8 error vs the engine's float64 path),
    # so 6dp equality sits on a rounding knife edge
    out["cosine"] = round_ha(out["cosine"].to_numpy(), 4)
    return out


def q_events_hopping_window(sf_dir: str, width_hours: int = 2,
                            hop_hours: int = 1) -> pd.DataFrame:
    """HOPPING (sliding) windows: width > hop, so every event lands in
    width/hop overlapping windows.  Map side replicates each row into its
    window ids (window w covers [w*hop, w*hop + width)); the groupby then
    aggregates exactly like a tumbling rollup — replication factor is the
    overlap count, the standard distributed shape for sliding windows.
    Completes the window-type matrix: tumbling (hour/day), HOPPING,
    session (gap), positional (bucket-16)."""
    assert width_hours % hop_hours == 0
    overlap = width_hours // hop_hours
    hop_us = hop_hours * 3600 * 1_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def explode(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch.column("ts")).to_numpy()
        base = ts // hop_us  # last window whose span contains the event
        wins = (base[:, None] - np.arange(overlap, dtype=np.int64)).ravel()
        rows = np.repeat(np.arange(ts.size), overlap)
        return batch.select(["event_type", "value"]).take(rows).append_column(
            "window_id", pa.array(wins, pa.int64()))

    ds = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_stats(ds, ["event_type", "window_id"], "value",
                         cents=True)


def q_events_daily_extremes(sf_dir: str) -> pd.DataFrame:
    """Tumbling daily windows per event_type: count/min/max — a second
    window granularity over the stream table (tiled windows)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        bucket = _ts_us(batch.column("ts")).to_numpy() // _DAY_US
        return batch.append_column("day_bucket", pa.array(bucket, pa.int64()))

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    out = grouped_stats(ds, ["event_type", "day_bucket"], "value")
    return out[["event_type", "day_bucket", "value_count", "value_min", "value_max"]]


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5-style revenue rollup — the SHUFFLE equi-join shape (both
    join sides too big to broadcast at production scale, unlike the
    orders_by_mktsegment broadcast join):

    1. lineitem: per-batch combiner collapses to (l_orderkey, rev, n)
       partial rows — the shuffle carries order-grain partials, never
       line items;
    2. orders co-partitioned by a groupby(orderkey) over the tagged UNION
       of both sides; each group is ONE order row plus its few batch
       partials — bounded regardless of skew — and resolves to
       (custkey, rev, n_orders=1);
    3. the same union+groupby join against customer on custkey yields
       (nationkey, rev, n_orders) partials (a hot customer's group holds
       one row per batch that saw it, not its orders);
    4. a nationkey groupby sums partials; only the 25-row nation name map
       is broadcast.

    Revenue sums are rounded to 2dp on both sides (the 1e8-magnitude sum
    recipe shared with lineitem_pricing).  Each hop is one
    ``join.hash_join_partials`` call — the reusable union+groupby shuffle
    join (native vectorized aggregates, no per-group Python)."""
    from ray.data.aggregate import Sum

    from ts_pymfe_ray.pipelines.join import hash_join_partials

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def li_combiner(batch: pa.Table) -> pa.Table:
        # exact 1e-4 units (the cents recipe): the discounted product is
        # 4dp-granular, so integer revenue sums are association-order-free
        # and the final 2dp round can never straddle a half boundary.  A
        # NULL price or discount adds nothing, as in SQL SUM; its order
        # still joins (and counts) with 0 units
        rev = _units(pc.multiply(batch.column("l_extendedprice"),
                                 pc.subtract(1, batch.column("l_discount"))), 10000)
        g = (pa.table({"key": pc.cast(batch.column("l_orderkey"), pa.int64()),
                       "rev": rev.fill_null(0)})
             .group_by("key", use_threads=False).aggregate([("rev", "sum")]))
        return pa.table({"key": g.column("key"), "rev": g.column("rev_sum")})

    def orders_build(batch: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(batch.column("o_orderkey").to_numpy(), pa.int64()),
                         "pay": pa.array(batch.column("o_custkey").to_numpy(), pa.int64())})

    order_rev = hash_join_partials(
        orders.map_batches(orders_build, batch_format="pyarrow"),
        li.map_batches(li_combiner, batch_format="pyarrow"),
        sum_cols=("rev",),
    )  # one row per matched order: (pay=custkey, rev)

    def order_to_probe(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({"key": batch.column("pay"),
                         "rev": batch.column("rev"),
                         "n_orders": pa.array(np.ones(n, np.int64), pa.int64())})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_build(batch: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(batch.column("c_custkey").to_numpy(), pa.int64()),
                         "pay": pa.array(batch.column("c_nationkey").to_numpy(), pa.int64())})

    cust_rev = hash_join_partials(
        cust.map_batches(cust_build, batch_format="pyarrow"),
        order_rev.map_batches(order_to_probe, batch_format="pyarrow"),
        sum_cols=("rev", "n_orders"),
    )  # one row per matched customer: (pay=nationkey, rev, n_orders)

    by_nation = (
        cust_rev.map_batches(
            lambda b: b.rename_columns(["nationkey", "rev", "n_orders"]),
            batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(Sum("rev"), Sum("n_orders"))
        .to_pandas()
    )

    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    out = pd.DataFrame({
        "n_name": [names[int(k)] for k in by_nation["nationkey"]],
        "n_orders": by_nation["sum(n_orders)"].astype("int64"),
        "revenue": round_ha(
            by_nation["sum(rev)"].to_numpy().astype(np.float64) / 10000.0, 2),
    })
    return out.sort_values("n_name").reset_index(drop=True)


def q_customers_per_region(sf_dir: str) -> pd.DataFrame:
    """Two-hop broadcast join (region <- nation <- customer): both small
    sides ship as dicts; no shuffle."""
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    n2r = dict(zip(nation.column("n_nationkey").to_pylist(), nation.column("n_regionkey").to_pylist()))
    r2name = dict(zip(region.column("r_regionkey").to_pylist(), region.column("r_name").to_pylist()))

    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def joiner(batch: pa.Table) -> pa.Table:
        rname = [r2name.get(n2r.get(k, -1), "UNKNOWN")
                 for k in batch.column("c_nationkey").to_pylist()]
        return pa.table({"r_name": pa.array(rname, pa.string()),
                         "bal": batch.column("c_acctbal")})

    g = combine(ds, ["r_name"], {"num_customers": ("bal", "size"),
                                 "total_acctbal": ("bal", "sum")}, joiner).to_pandas()
    g["total_acctbal"] = round_ha(g["total_acctbal"], 2)
    return g


def q_orders_monthly(sf_dir: str) -> pd.DataFrame:
    """Calendar-month rollup of orders (date-function scalar op)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def add_month(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate").to_pandas()
        ym = (d.dt.year * 100 + d.dt.month).astype("int64")
        return batch.append_column("order_month", pa.array(ym.to_numpy(), pa.int64()))

    ds = ds.map_batches(add_month, batch_format="pyarrow")
    # per-month price sums reach 1e7-1e8: exact integer cents + 2dp round
    return grouped_stats(ds, ["order_month"], "o_totalprice", out_prefix="price",
                         sum_decimals=2, cents=True)


def _cohort_user(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per user over its day-sorted (user, day) rows: one (cohort, offset)
    per distinct active day.  The first day is the cohort; a day repeated
    by several batches counts once."""
    day, = _cols(block, "day")
    _, seg = _seg(starts, day.size)
    first = _firsts(seg, day)
    cohort = day[starts][seg]
    return pa.table({"cohort": cohort[first], "offset": (day - cohort)[first]})


def q_events_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Classic cohort-retention matrix: users grouped by first-seen day
    (cohort), counted per activity-day offset — the engagement rollup
    every event-analytics stack ships.

    Shape: per-batch distinct (user, day) combiner (shuffle carries one
    row per active user-day, never events) -> per-user group over its
    ACTIVE-DAY rows (bounded by the time range, not event counts — a
    10^9-event bot still contributes <= #days rows) emits (cohort,
    offset) pairs -> a bounded-domain (cohort x offset) count groupby.
    All integers, hash-exact at every scale."""
    # rows bounded by active days x touching batches, never events
    pairs = _map_sorted_groups(_user_day_rows(sf_dir), ["user_id"], _cohort_user,
                               order=("day",))

    return combine(pairs, ["cohort", "offset"], {"n_users": ("cohort", "size")}).to_pandas()


def _interarrival_span(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per (event_type, span) slice: interior gap count/sum/min/max and the
    first/last ts."""
    t, span = _cols(block, "ts_us", "span_id")
    n, s1, gmin, gmax = _steps(t, t, starts)
    ends, _ = _seg(starts, t.size)
    return pa.table({
        "event_type": block.column("event_type").take(starts),
        "span_id": span[starts], "n": n, "s1": s1, "gmin": gmin,
        "gmax": gmax, "first_ts": t[starts], "last_ts": t[ends - 1],
    })


def _interarrival_merge(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per event_type over its span-sorted rows: interior plus cross-span
    boundary gaps."""
    n, s1, gmin, gmax, first_ts, last_ts = _cols(
        block, "n", "s1", "gmin", "gmax", "first_ts", "last_ts")
    # boundary gaps: first of span row k+1 minus last of span row k
    bn, bs, bmin, bmax = _steps(last_ts, first_ts, starts)
    n = _reduce(np.add, n, starts) + bn
    s1 = _reduce(np.add, s1, starts) + bs
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(n > 0, round_ha(s1.astype(np.float64) / n), np.nan)
    return pa.table({
        "event_type": block.column("event_type").take(starts),
        "n_gaps": n, "mean_gap_us": mean,
        "min_gap_us": np.minimum(_reduce(np.minimum, gmin, starts), bmin),
        "max_gap_us": np.maximum(_reduce(np.maximum, gmax, starts), bmax),
    })


def q_events_interarrival(sf_dir: str, span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """Per-type inter-arrival gap statistics (count / mean / min / max of
    adjacent event gaps in global chronological order) — the traffic-
    cadence rollup, distributed with the same span-pair shape as the
    per-type acf1: each (event_type, span) task reduces to ONE row of
    interior-gap integer sums plus its first/last timestamp; the per-type
    merge over span rows adds the cross-span boundary gaps.  Gap sums are
    exact int64 (total <= the time range in us), so mean is one shared
    IEEE division and min/max are exact."""
    tagged = _span_tagged(sf_dir, ["event_type", "event_id"], span_hours)
    out = _merge_on_driver(_span_partials(tagged, "event_type", _interarrival_span),
                           ["event_type"], _interarrival_merge, order=("span_id",)).to_pandas()
    # a single-event type has no gap: the twin's MIN/MAX are NULL, which
    # DuckDB hands over as NaN in a float64 column
    no_gap = out["n_gaps"].to_numpy() == 0
    if no_gap.any():
        for c in ("min_gap_us", "max_gap_us"):
            out[c] = np.where(no_gap, np.nan, out[c].to_numpy())
    return out.sort_values("event_type").reset_index(drop=True)


def _wau_runs(window_days: int):
    """Segment kernel over day-sorted (user, day) rows: each active day
    covers windows ``[day, day + window_days)``, and a user's covers merge
    into runs — a run starts at the user's first day and wherever the gap
    to the previous active day is >= window_days (a day repeated by
    several batches never starts one).  The block's runs become
    per-window-day user counts by a +1/-1 difference array and one cumsum
    over the block's window-day range."""

    def kernel(block: pa.Table, starts: np.ndarray) -> pa.Table:
        day, = _cols(block, "day")
        if not day.size:
            return pa.table({"window_day": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        new = np.zeros(day.size, dtype=bool)
        new[starts] = True
        new[1:] |= np.diff(day) >= window_days
        run = np.flatnonzero(new)
        lo = int(day.min())
        begin = day[run] - lo
        end = np.append(day[run[1:] - 1], day[-1]) + window_days - lo
        width = int(end.max())
        counts = np.cumsum(np.bincount(begin, minlength=width + 1)
                           - np.bincount(end, minlength=width + 1))[:width]
        active = np.flatnonzero(counts)
        return pa.table({"window_day": pa.array(active + lo, pa.int64()),
                         "n": pa.array(counts[active], pa.int64())})

    return kernel


def q_events_wau(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """Rolling weekly-active-users: distinct users in the 7-day window
    ending each day — the sliding-distinct rollup (WAU/MAU) shape.

    Exact: per-batch distinct (user, day) combiner, one sort by user, and
    per user its active days merged into runs of covered windows
    (:func:`_wau_runs`); each block emits per-window-day counts over its
    bounded day range, summed per window day by :func:`combine`.  Cost is
    proportional to active user-days, not ``window_days`` times that."""
    runs = _map_sorted_groups(_user_day_rows(sf_dir), ["user_id"],
                              _wau_runs(window_days), order=("day",))
    return combine(runs, ["window_day"], {"wau": ("n", "sum")}).to_pandas()


def _funnel_span(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per (user, span) slice: first click, first purchase and first
    purchase at or after that click (``_NONE`` when absent)."""
    uid, span, ts = _cols(block, "user_id", "span_id", "ts_us")
    _, seg = _seg(starts, ts.size)
    et = block.column("event_type")
    click = pc.equal(et, "click").to_numpy()
    purch = pc.equal(et, "purchase").to_numpy()
    # slices are time-sorted: a segment's first event of a kind is
    # its minimum ts
    fc = _reduce(np.minimum, np.where(click, ts, _NONE), starts)
    fp = _reduce(np.minimum, np.where(purch, ts, _NONE), starts)
    after = purch & (ts >= fc[seg])
    return pa.table({
        "user_id": uid[starts], "span_id": span[starts],
        "first_click": fc, "first_purchase": fp,
        "first_purchase_after": _reduce(np.minimum, np.where(after, ts, _NONE), starts),
    })


def _funnel_user(block: pa.Table, starts: np.ndarray, win_us: int) -> pa.Table:
    """Per user over its span-sorted rows: (cohort day, converted) for a
    user with a click."""
    fc, fp, fpa = _cols(block, "first_click", "first_purchase",
                        "first_purchase_after")
    _, seg = _seg(starts, fc.size)
    row = np.arange(fc.size)
    # k: the user's first span row with a click (spans in order)
    k = _reduce(np.minimum, np.where(fc < _NONE, row, _NONE), starts)
    has = k < _NONE
    k = np.where(has, k, 0)
    later = _reduce(np.minimum, np.where(row > k[seg], fp, _NONE), starts)
    first = np.minimum(fpa[k], later)
    c = fc[k]
    conv = (first < _NONE) & (first - c <= win_us)
    return pa.table({"cohort_day": c[has] // _DAY_US,
                     "conv": conv[has].astype(np.int64)})


def q_events_funnel(sf_dir: str, window_hours: int = 72,
                    span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """Forward conversion funnel: of the users whose FIRST click happened
    on day D, how many purchased within ``window_hours`` after it — the
    cohort conversion report every product-analytics stack ships.

    Exact and hot-key bounded via span partials: each (user, span) task
    emits ONE row (first click ts, first purchase ts, first purchase at or
    after the span's first click); the per-user merge runs over span ROWS
    sorted by span — the user's global first click lives in the first
    span that has one, so the earliest qualifying purchase is either that
    span's own after-click purchase or the first purchase of any later
    span.  A 10^9-event user contributes <= one row per active span."""
    win_us = window_hours * _HOUR_US
    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "event_type"], span_hours)
    rows = _map_sorted_groups(_span_partials(tagged, "user_id", _funnel_span),
                              ["user_id"], functools.partial(_funnel_user, win_us=win_us),
                              order=("span_id",))

    return combine(rows, ["cohort_day"], {"n_users": ("conv", "size"),
                                          "n_converted": ("conv", "sum")}).to_pandas()


def q_events_value_var(sf_dir: str) -> pd.DataFrame:
    """Mergeable variance per event_type: per-batch (n, sum, sumsq) partial
    sketches -> exact sample variance at the merge — the same algebra the
    tier rollup uses, SQL-checkable via var_samp."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def squares(batch: pa.Table) -> pa.Table:
        v = batch.column("value")
        return batch.append_column("v2", pc.multiply(v, v))

    g = combine(ds, ["event_type"], {"value_count": ("value", "size"),
                                     "s1": ("value", "sum"), "s2": ("v2", "sum")},
                squares).to_pandas()
    n = g["value_count"]
    mean = g.pop("s1") / n
    g["value_var"] = round_ha((g.pop("s2") - n * mean**2) / (n - 1))
    return g


# ------------------------------------------------- positional-window engine
#
# The user-window family (rollup / 10x merge / acf1 / gap-fill / moments)
# aggregates non-overlapping positional windows of each user's
# chronologically sorted events with the tier ladder's sketch kernels, on
# the span-partial engine above — no task co-locates a user's history:
#
#   1. per-batch (user, span) event counts, merged per user by one
#      segmented cumsum over its count rows (bounded by active spans x
#      touching batches, never by events), give each span's starting
#      chronological rank;
#   2. events sorted together with their span's offset row assign global
#      ranks locally; windows FULLY inside a span (the bulk of the data at
#      production event rates) are sketched right there, all of a block's
#      in-span windows in one compute_window_sketches_at call;
#   3. one (user_id, window_id) sort takes every span row: a window
#      wholly inside one span is its one kind 0 sketch row, passed
#      through; any other window is made only of the <= bucket-1 head/tail
#      boundary events (kind 1) of the spans it crosses, <= bucket rows BY
#      CONSTRUCTION, sketched one block per call.
#
# No group ever holds more than max(span event count, bucket) rows of one
# user, and the whole family is one Ray execution.  A block-wide sketch
# call is bitwise-identical to one call per span (or per window):
# `barriers` zero the comoment pair across each group end exactly like
# the per-call zero pad, and np.add.reduceat sums a segment the same way
# wherever it sits in the array.  Per-window sketches
# computed in isolation are bitwise-identical to the whole-series path for
# every field except the comoment c1 (a (sum+cross)-cross vs sum+0
# ulp-class association difference that only feeds acf1, an off-grid
# ratio the 6dp rounding absorbs — same tolerance class as engine-vs-DuckDB
# association drift).  Equality with a per-user pandas reference is pinned
# by tests/test_pipeline.py::test_window_family_hot_user_distributed.

_SKETCH_COLS = ("n", "s1", "s2", "s3", "s4", "c1", "vmin", "vmax",
                "first", "last", "s1_seq")


def _seq_sums(x: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Per segment of <= ``width`` rows, the sum accumulated strictly left
    to right — bitwise ``sketch.seq_window_sums(segment, width)[0]``."""
    _, seg = _seg(starts, x.size)
    pad = np.zeros((starts.size, width))
    pad[seg, np.arange(x.size) - starts[seg]] = x
    return np.cumsum(pad, axis=1)[:, -1]


def _span_offsets(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per user over its span-sorted per-batch (user, span, c) counts: one
    kind=1 offset row per span, off = the user's events in earlier spans
    (a segmented exclusive cumsum)."""
    uid, span, c = _cols(block, "user_id", "span_id", "c")
    _, seg = _seg(starts, c.size)
    run = np.flatnonzero(_firsts(seg, span))  # one run per (user, span)
    cnt = _reduce(np.add, c, run)
    before = np.cumsum(cnt) - cnt             # events before the run
    off = before - before[np.searchsorted(run, starts)][seg[run]]
    nz = run.size
    # the events' column order, so the union sorts as one table
    return pa.table({
        "user_id": uid[run], "event_id": np.full(nz, -1),
        "value": np.zeros(nz), "ts_us": np.zeros(nz, dtype=np.int64),
        "span_id": span[run], "kind": np.ones(nz, dtype=np.int64), "off": off,
    })


def _join_span_offsets(tagged):
    """Span-tagged (user_id, event_id, value) events as kind=0 rows, unioned
    with one kind=1 offset row per (user, span): offset = number of the
    user's events in EARLIER spans, i.e. the span's starting chronological
    rank.  Counts are combined per batch; the per-user prefix sum runs over
    those count rows only (a 10^9-event bot spanning a month is ~720 spans
    times the batches touching each)."""
    def span_counts(batch: pa.Table) -> pa.Table:
        keys, c = np.unique(np.stack(_cols(batch, "user_id", "span_id"), axis=1),
                            axis=0, return_counts=True)
        return pa.table({"user_id": keys[:, 0], "span_id": keys[:, 1],
                         "c": c.astype(np.int64)})

    def mark(batch: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(len(batch), dtype=np.int64), pa.int64())
        return batch.append_column("kind", zeros).append_column("off", zeros)

    offsets = _map_sorted_groups(
        tagged.map_batches(span_counts, batch_format="pyarrow"),
        ["user_id"], _span_offsets, order=("span_id",))
    return tagged.map_batches(mark, batch_format="pyarrow").union(offsets)


def _ranked_events(block: pa.Table, starts: np.ndarray, *names: str):
    """A block of ``_join_span_offsets`` rows sorted by (user, span, ts_us,
    event_id) -> the events' ``names`` columns, their global chronological
    ranks, and the (user, span) slice starts and segment index among the
    events (each slice holds exactly one offset row)."""
    kind, off = _cols(block, "kind", "off")
    ev = kind == 0
    starts = starts - np.arange(starts.size)  # drop the earlier offset rows
    cols = [c[ev] for c in _cols(block, *names)]
    ends, seg = _seg(starts, int(ev.sum()))
    rank = off[~ev][seg] + np.arange(seg.size) - starts[seg]
    return cols, rank, starts, ends, seg


def _sketch_windows(block: pa.Table, starts: np.ndarray, bucket: int) -> pa.Table:
    """Each (user_id, window_id) group of <= ``bucket`` rank-sorted rows ->
    its sketch row (``s1_seq`` summed sequentially in rank order)."""
    uid, wid, v = _cols(block, "user_id", "window_id", "value")
    ends, _ = _seg(starts, v.size)
    m = sk.compute_window_sketches_at(v, starts, ends, barriers=ends[:-1] - 1)
    return pa.table({"user_id": uid[starts], "window_id": wid[starts],
                     **{c: m[:, i] for i, c in enumerate(sk.FIELDS)},
                     "s1_seq": _seq_sums(v, starts, bucket)})


def _window_sketches(block: pa.Table, starts: np.ndarray, bucket: int) -> pa.Table:
    """Each (user_id, window_id) group of ``_window_span`` rows in (kind,
    rank) order -> its sketch row: a window wholly inside one span is its
    one kind 0 row, passed through; any other window is made only of kind
    1 edge rows, sketched by :func:`_sketch_windows`."""
    edge = block.column("kind").to_numpy() == 1
    s = starts[edge[starts]]  # the edge windows' starts among the edge rows
    return pa.concat_tables([
        block.filter(pa.array(~edge)).select(["user_id", "window_id", *_SKETCH_COLS]),
        _sketch_windows(block.filter(pa.array(edge)), s - np.cumsum(~edge)[s], bucket)])


def _window_stats(df: pd.DataFrame, scale: float = 1.0) -> pd.DataFrame:
    """Sketch rows -> per-window count / mean / var, with ``s1`` summed
    sequentially (DuckDB's association) and mean / var divided by
    ``scale`` / ``scale**2`` (100 undoes the exact-cents stream)."""
    m = df[list(sk.FIELDS)].to_numpy(dtype=np.float64)
    m[:, sk.FIELDS.index("s1")] = df["s1_seq"].to_numpy()
    feats = sk.derive_features(m)
    return pd.DataFrame({
        "user_id": df["user_id"].to_numpy(dtype=np.int64),
        "window_id": df["window_id"].to_numpy(dtype=np.int64),
        "value_count": feats["count"].astype(np.int64),
        "value_mean": round_ha(feats["mean"] / scale),
        "value_var": round_ha(feats["var"] / scale**2),
    })


def _window_span(block: pa.Table, starts: np.ndarray, bucket: int) -> pa.Table:
    """Per (user, span) slice: kind 0 sketch rows of the windows fully
    inside the span, kind 1 (rank, value) rows of its head/tail events."""
    (uid, v), rank, starts, ends, seg = _ranked_events(
        block, starts, "user_id", "value")
    off = rank[starts]
    w = rank // bucket
    first_w = -(-off // bucket)               # first window starting in-span
    last_we = (off + ends - starts) // bucket  # first window NOT ending in-span
    inner = (w >= first_w[seg]) & (w < last_we[seg])
    xs = v[inner]
    ws = np.arange(0, xs.size, bucket)        # in-span windows, slice by slice
    wseg = seg[inner][ws]
    # a barrier after each slice's last window: per-slice sketches
    m = sk.compute_window_sketches_at(
        xs, ws, ws + bucket, barriers=(ws + bucket - 1)[:-1][wseg[1:] != wseg[:-1]])
    edge = ~inner
    nw, nb = ws.size, int(edge.sum())
    return pa.table({
        "user_id": np.concatenate([uid[inner][ws], uid[edge]]),
        "window_id": np.concatenate([w[inner][ws], w[edge]]),
        "kind": np.repeat(np.array([0, 1]), [nw, nb]),
        "rank": np.concatenate([np.zeros(nw, dtype=np.int64), rank[edge]]),
        "value": np.concatenate([np.zeros(nw), v[edge]]),
        **{c: np.concatenate([m[:, i], np.zeros(nb)]) for i, c in enumerate(sk.FIELDS)},
        "s1_seq": np.concatenate([sk.seq_window_sums(xs, bucket), np.zeros(nb)]),
    })


def _positional_window_sketches(sf_dir: str, bucket: int,
                                span_hours: int = _SPAN_HOURS,
                                cents: bool = False):
    """One sketch row per (user_id, positional window_id) — distributed as
    described in the engine comment above.  Returns a Dataset with columns
    ``user_id, window_id`` + ``_SKETCH_COLS`` (``s1`` pairwise as the
    ladder stores it, ``s1_seq`` strictly sequential for the decimal-grid
    oracle means).

    ``cents=True`` sketches EXACT int64 hundredths of the 2dp-granular
    value stream (values stay float64 so the sketch kernels are exercised
    unchanged, but every s1/s2 power sum is an exact integer — the same
    order-exactness the gap-free token twins rely on).  Callers divide the
    derived mean/var by 100 / 10^4; mean-on-the-6dp-half-boundary flips
    (hit at sf0.1) become impossible because the pre-division stats are
    identical doubles on both sides."""
    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "value"], span_hours)
    if cents:
        def to_cents(batch: pa.Table) -> pa.Table:
            v = np.round(batch.column("value").to_numpy() * 100)
            return batch.set_column(batch.schema.get_field_index("value"),
                                    "value", pa.array(v, pa.float64()))

        tagged = tagged.map_batches(to_cents, batch_format="pyarrow")

    parts = _span_partials(_join_span_offsets(tagged), "user_id",
                           functools.partial(_window_span, bucket=bucket))
    return _map_sorted_groups(parts, ["user_id", "window_id"],
                              functools.partial(_window_sketches, bucket=bucket),
                              order=("kind", "rank"))


def q_events_user_window_rollup(sf_dir: str, bucket: int = 16) -> pd.DataFrame:
    """THE north-star rollup math, SQL-checked: each user's chronological
    event values form a series; non-overlapping positional windows of
    ``bucket`` observations are aggregated with the SAME sketch kernels the
    tier ladder uses (compute_window_sketches -> derive_features), fully
    distributed via the positional-window engine (no user history is ever
    co-located).  DuckDB twin: row_number() partitioned windows over exact
    integer CENTS power sums (values are 2dp-granular) — the sketch
    kernels run unchanged on the cents stream, every s1/s2 is an exact
    integer, and the derived mean/var are the same doubles on both sides
    at EVERY scale (raw-float var_samp flipped a 6dp half boundary at
    sf0.1)."""
    sks = _positional_window_sketches(sf_dir, bucket, cents=True)
    out = sks.map_batches(_window_stats, fn_kwargs={"scale": 100.0},
                          batch_format="pandas").to_pandas()
    # single-observation windows: SQL var_samp yields NULL; sketch yields NaN
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def _coarse_merge(block: pa.Table, starts: np.ndarray, factor: int) -> pa.Table:
    """Per (user, coarse window) over its <= ``factor`` window-sorted
    cents sketch rows: the merged 10x window's count / mean / var."""
    s1 = sk.FIELDS.index("s1")
    uid, cid, s1_seq = _cols(block, "user_id", "coarse_id", "s1_seq")
    ends, _ = _seg(starts, uid.size)
    fine = np.stack(_cols(block, *sk.FIELDS), axis=1)
    fine[:, s1] = s1_seq
    # one coarse row per group; barriers keep the groups' merges apart
    merged = sk.merge_adjacent_at(fine, starts, ends, barriers=ends[:-1] - 1)
    # sums-of-sums with DuckDB's sequential association (the two-level
    # oracle aggregates fine-window s1 the same way)
    merged[:, s1] = _seq_sums(s1_seq, starts, factor)
    feats = sk.derive_features(merged)
    return pa.table({
        "user_id": uid[starts], "window_id": cid[starts],
        "value_count": feats["count"].astype(np.int64),
        "value_mean": round_ha(feats["mean"] / 100.0),
        "value_var": round_ha(feats["var"] / 10000.0),
    })


def q_events_user_window_rollup_10x(sf_dir: str, bucket: int = 16, factor: int = 10) -> pd.DataFrame:
    """Tier-MERGE algebra SQL-checked: bucket-16 sketches merged 10x
    (merge_adjacent — the exact raw->10x ladder step) must equal direct
    SQL aggregation over windows of 160 observations.  The fine sketches
    come from the distributed positional-window engine; the merge itself
    is a (user, coarse window) groupby over SKETCH ROWS (<= factor rows
    per group — n_events/bucket rows total, a 16x data reduction before
    the only remaining shuffle).  Exact-cents stream like the bucket-16
    twin (merged power sums stay exact integers through the ladder
    step)."""
    sks = _positional_window_sketches(sf_dir, bucket, cents=True)

    def add_coarse(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "coarse_id", pc.divide(batch.column("window_id"), factor))

    out = _map_sorted_groups(sks.map_batches(add_coarse, batch_format="pyarrow"),
                             ["user_id", "coarse_id"],
                             functools.partial(_coarse_merge, factor=factor),
                             order=("window_id",)).to_pandas()
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def q_events_user_window_acf1(sf_dir: str, bucket: int = 16) -> pd.DataFrame:
    """Window-local lag-1 autocorrelation from the comoment sketch,
    SQL-checked: sum((x_i-mu)(x_{i+1}-mu))/sum((x_i-mu)^2) over full
    windows — the exact per-window ACF of the tier ladder, sketched by
    the distributed positional-window engine."""
    sks = _positional_window_sketches(sf_dir, bucket)

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        m = df[list(sk.FIELDS)].to_numpy(dtype=np.float64)
        feats = sk.derive_features(m)
        ok = (feats["count"] == bucket) & np.isfinite(feats["acf1"])
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(dtype=np.int64)[ok],
            "window_id": df["window_id"].to_numpy(dtype=np.int64)[ok],
            "acf1": round_ha(feats["acf1"][ok]),
        })

    out = sks.map_batches(derive, batch_format="pandas").to_pandas()
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def _gapfill_span(block: pa.Table, starts: np.ndarray, bucket: int) -> pa.Table:
    """Per (user, span) slice: kind 0 resolved (rank, filled value), kind 1
    unresolved missing (rank), kind 2 one span carry (first/last valid
    rank+value packed into rank=first_rank, value=first_value,
    rank2/value2).  ``slot`` routes the rows: ``rank // bucket`` for kind
    0, -1 for the carry rows (kinds 1 and 2)."""
    (uid, ids, v), rank, starts, _, _ = _ranked_events(
        block, starts, "user_id", "event_id", "value")
    n = v.size
    idx = np.arange(n)
    valid = (ids % 10) != 0
    # nearest valid event before / after each event, inside its slice
    pi, ni = _nearest(valid, starts)
    # interior missing: both neighbors in-span -> the oracle expression
    interior = ~valid & (pi >= 0) & (ni >= 0)
    edge = ~valid & ~interior  # head/tail runs: neighbors in other spans
    pi, ni = np.maximum(pi, 0), np.maximum(ni, 0)
    g = rank.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        filled = v[pi] + (v[ni] - v[pi]) * (g - g[pi]) / (g[ni] - g[pi])
    # one carry row per span with a valid value: first and last valid
    fv = _reduce(np.minimum, np.where(valid, idx, n), starts)
    lv = _reduce(np.maximum, np.where(valid, idx, -1), starts)
    fv, lv = fv[lv >= 0], lv[lv >= 0]
    done = valid | interior
    zero = np.zeros(int(done.sum() + edge.sum()))
    return pa.table({
        "user_id": np.concatenate([uid[done], uid[edge], uid[fv]]),
        "kind": np.repeat(np.array([0, 1, 2]), [done.sum(), edge.sum(), fv.size]),
        "slot": np.concatenate([rank[done] // bucket, np.full(edge.sum() + fv.size, -1)]),
        "rank": np.concatenate([rank[done], rank[edge], rank[fv]]),
        "value": np.concatenate([np.where(valid, v, filled)[done], v[edge], v[fv]]),
        "rank2": np.concatenate([zero.astype(np.int64), rank[lv]]),
        "value2": np.concatenate([zero, v[lv]]),
    })


def _gapfill_resolve(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per group in rank order, a kind 0 row passed through, or a user's
    carry group (its kind 1 and kind 2 rows) with each unresolved missing
    rank p filled.  Spans cover disjoint rank ranges, so the nearest valid
    BEFORE p is the last valid of the latest carry row before p, and the
    nearest valid AFTER p is the first valid of the earliest carry row
    after p."""
    uid, kind, p, v, r2, v2 = _cols(block, "user_id", "kind", "rank", "value",
                                    "rank2", "value2")
    ip, iq = _nearest(kind == 2, starts)
    has_p, has_n = ip >= 0, iq >= 0
    ip, iq = np.maximum(ip, 0), np.maximum(iq, 0)
    gpi, pv = r2[ip].astype(np.float64), v2[ip]
    gni, nv = p[iq].astype(np.float64), v[iq]
    with np.errstate(invalid="ignore", divide="ignore"):
        interp = pv + (nv - pv) * (p.astype(np.float64) - gpi) / (gni - gpi)
    filled = np.where(kind == 0, v, np.where(~has_p, nv, np.where(~has_n, pv, interp)))
    # a user with no valid value anywhere keeps its missing events
    # unfilled: emit nothing
    keep = (kind == 0) | ((kind == 1) & (has_p | has_n))
    return pa.table({"user_id": uid[keep], "rank": p[keep], "value": filled[keep]})


def q_events_gapfill_rollup(sf_dir: str, bucket: int = 16,
                            span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """GAP-FILL semantics SQL-checked: values of events with
    event_id % 10 == 0 are treated as missing, filled with the engine's
    exact policy (interior linear interpolation, leading NOCB, trailing
    LOCF — the oracle's exact expression order pv + (nv-pv)*(p-pi)/(ni-pi);
    np.interp pre-divides the slope, which drifts 1 ulp and flips
    half-boundary means), then window-rolled up.  Distributed with the
    same span-carry shape as the engine: missing runs whose interpolation
    neighbors are both in-span resolve locally; only head/tail runs plus
    ONE (first/last valid) carry row per span take a per-user pass.  One
    (user_id, slot) sort routes them: a user's carry rows form one group,
    O(active spans + boundary-run events), never the full history, and the
    resolved rows pass through in groups of <= bucket ranks.  The DuckDB
    twin reproduces the policy with IGNORE NULLS window functions,
    validating the gap-fill path end-to-end."""
    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "value"], span_hours)
    parts = _span_partials(_join_span_offsets(tagged), "user_id",
                           functools.partial(_gapfill_span, bucket=bucket))
    fixed = _map_sorted_groups(parts, ["user_id", "slot"], _gapfill_resolve,
                               order=("rank",))

    def add_window(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "window_id", pc.divide(batch.column("rank"), bucket))

    sks = _map_sorted_groups(
        fixed.map_batches(add_window, batch_format="pyarrow"),
        ["user_id", "window_id"], functools.partial(_sketch_windows, bucket=bucket),
        order=("rank",)).to_pandas()
    out = _window_stats(sks).drop(columns="value_var")
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def q_events_user_window_moments(sf_dir: str, bucket: int = 16) -> pd.DataFrame:
    """Higher-moment sketch algebra SQL-checked: per-window skewness and
    kurtosis derived from the SAME (s1..s4) power sums the tier ladder
    stores (via the distributed positional-window engine), converted to
    DuckDB's bias-corrected (e1071 type-2) definitions for the oracle
    comparison."""
    sks = _positional_window_sketches(sf_dir, bucket)

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        m = df[list(sk.FIELDS)].to_numpy(dtype=np.float64)
        feats = sk.derive_features(m)
        n = feats["count"]
        full = n == bucket  # type-2 corrections need n > 3; use full windows
        # convert method-3 (biased) back to g1/g2, then to type-2
        with np.errstate(all="ignore"):
            g1 = feats["skewness"] / np.power((n - 1.0) / n, 1.5)
            g2 = (feats["kurtosis"] + 3.0) / (1.0 - 1.0 / n) ** 2 - 3.0
            skew2 = g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)
            kurt2 = ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))
        keep = full & np.isfinite(skew2) & np.isfinite(kurt2)
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(dtype=np.int64)[keep],
            "window_id": df["window_id"].to_numpy(dtype=np.int64)[keep],
            "value_skew": round_ha(skew2[keep]),
            "value_kurt": round_ha(kurt2[keep]),
        })

    out = sks.map_batches(derive, batch_format="pandas").to_pandas()
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def _sessions(brk: np.ndarray, starts: np.ndarray, first: np.ndarray,
              last: np.ndarray, cnt: np.ndarray):
    """Runs of rows joined by ``~brk`` (a break at every group start):
    per run its group, row count (summed ``cnt``), first and last ts."""
    run = np.flatnonzero(brk)
    run_end, _ = _seg(run, brk.size)
    grp = np.searchsorted(starts, run, side="right") - 1
    return grp, _reduce(np.add, cnt, run), first[run], last[run_end - 1]


def _session_span(block: pa.Table, starts: np.ndarray, gap_us: int) -> pa.Table:
    """Per (user, span) slice: its sessions closed in-span, as one carry
    row (first/last boundary session and interior aggregates)."""
    uid, span, ts = _cols(block, "user_id", "span_id", "ts_us")
    brk = np.ones(ts.size, dtype=bool)
    brk[1:] = np.diff(ts) > gap_us
    brk[starts] = True
    grp, cnt, s_first, s_last = _sessions(brk, starts, ts, ts,
                                         np.ones(ts.size, dtype=np.int64))
    fs = np.searchsorted(grp, np.arange(starts.size))  # first session
    ls = _seg(fs, grp.size)[0] - 1                      # last session
    inner = np.ones(grp.size, dtype=bool)
    inner[fs], inner[ls] = False, False
    n_s = ls - fs + 1
    return pa.table({
        "user_id": uid[starts], "span_id": span[starts],
        "n_events": _seg(starts, ts.size)[0] - starts,
        "f_cnt": cnt[fs], "f_first": s_first[fs], "f_last": s_last[fs],
        "l_cnt": cnt[ls], "l_first": s_first[ls], "l_last": s_last[ls],
        "single": n_s == 1, "int_n": np.maximum(n_s - 2, 0),
        "int_span_sum": _reduce(np.add, np.where(inner, s_last - s_first, 0), fs),
        "int_max": _reduce(np.maximum, np.where(inner, cnt, 0), fs),
    })


def _session_user(block: pa.Table, starts: np.ndarray, gap_us: int) -> pa.Table:
    """Per user over its span-sorted carry rows: boundary sessions
    stitched across spans, then the user's session statistics."""
    (uid, n_events, f_cnt, f_first, f_last, l_cnt, l_first, l_last,
     single, int_n, int_span_sum, int_max) = _cols(
        block, "user_id", "n_events", "f_cnt", "f_first", "f_last", "l_cnt",
        "l_first", "l_last", "single", "int_n", "int_span_sum", "int_max")
    # fragments in time order: each span row's first boundary session,
    # then its last one when the span closed more than one session.  A
    # first fragment continues the previous row's last fragment when
    # the gap between them is within gap_us; a last fragment always
    # opens a new session.
    rows = f_cnt.size
    yes, no = np.ones(rows, dtype=bool), np.zeros(rows, dtype=bool)
    keep = np.stack([yes, ~single], axis=1).ravel()

    def frag(a, b):
        return np.stack([a, b], axis=1).ravel()[keep]

    cont = no.copy()
    cont[1:] = f_first[1:] - l_last[:-1] <= gap_us
    cont[starts] = False
    brk = frag(~cont, yes)
    row_start = no.copy()
    row_start[starts] = True
    user_start = frag(row_start, no)
    grp, cnt, first, last = _sessions(brk, np.flatnonzero(user_start),
                                     frag(f_first, l_first), frag(f_last, l_last),
                                     frag(f_cnt, l_cnt))
    us = np.searchsorted(grp, np.arange(starts.size))  # first session per user
    n_sess = _seg(us, grp.size)[0] - us + _reduce(np.add, int_n, starts)
    n_ev = _reduce(np.add, n_events, starts)
    span_sum = (_reduce(np.add, last - first, us)
                + _reduce(np.add, int_span_sum, starts))
    return pa.table({
        "user_id": uid[starts], "n_events": n_ev, "n_sessions": n_sess,
        "max_session_events": np.maximum(_reduce(np.maximum, cnt, us),
                                         _reduce(np.maximum, int_max, starts)),
        "avg_events_per_session": round_ha(n_ev / n_sess),
        "avg_session_sec": round_ha(span_sum / n_sess / 1_000_000.0),
    })


def q_events_sessionize_carry(sf_dir: str, gap_minutes: int = 30,
                              span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """SESSION WINDOWS (the windowed-aggregate class Ray Data lacks): per
    user, a new session starts when the gap since the previous event
    exceeds ``gap_minutes``.  Output: per-user session counts, the largest
    session, events/session and mean session span.  Boundary-carry, so no
    user ever needs to fit in one task:

    1. per (user_id, span) slice: close every interior session locally;
       emit ONE carry row holding the first/last boundary sessions'
       (count, first_ts, last_ts) plus interior aggregates;
    2. per user over CARRY ROWS ONLY (tiny: one row per active span):
       stitch boundary sessions across spans when the inter-span gap is
       within ``gap_minutes``, exactly reproducing whole-history
       semantics (pinned against a per-user pandas reference by
       tests/test_pipeline.py::test_sessionize_carry_matches_per_user)."""
    gap_us = gap_minutes * 60 * 1_000_000
    tagged = _span_tagged(sf_dir, ["user_id", "event_id"], span_hours)
    parts = _span_partials(tagged, "user_id",
                           functools.partial(_session_span, gap_us=gap_us))
    out = _map_sorted_groups(parts, ["user_id"],
                             functools.partial(_session_user, gap_us=gap_us),
                             order=("span_id",)).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _asof_span(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per (user, span) slice: each click with its latest strictly earlier
    in-slice purchase (kind 0) or unresolved (kind 1), plus one carry row
    (kind 2) holding the slice's last purchase."""
    uid, span, ts, ids = _cols(block, "user_id", "span_id", "ts_us", "event_id")
    et = block.column("event_type")
    is_p = pc.equal(et, "purchase").to_numpy()
    click = np.flatnonzero(pc.equal(et, "click").to_numpy())
    # a click is no purchase: the latest purchase at or before it is
    # strictly earlier
    m = _nearest(is_p, starts)[0][click]
    has = m >= 0
    m = np.maximum(m, 0)
    j = _reduce(np.maximum, np.where(is_p, np.arange(ts.size), -1), starts)
    j = j[j >= 0]  # the last purchase row of each slice that has one
    carry = np.full(j.size, -1, dtype=np.int64)
    return pa.table({
        "user_id": np.concatenate([uid[click], uid[j]]),
        "span_id": np.concatenate([span[click], span[j]]),
        "kind": np.concatenate([np.where(has, 0, 1), np.full(j.size, 2)]),
        "event_id": np.concatenate([ids[click], ids[j]]),
        "ts_us": np.concatenate([ts[click], ts[j]]),
        "purchase_event_id": np.concatenate([np.where(has, ids[m], -1), carry]),
        "lag_us": np.concatenate([np.where(has, ts[click] - ts[m], -1), carry]),
    })


def _asof_user(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per user over its span rows in (span, kind) order: a resolved click
    (kind 0) keeps its match, and an unresolved one (kind 1) takes the
    latest carry row (kind 2) before it — a span's clicks come before its
    carry, so that is the last purchase of an earlier span (LOCF)."""
    kind, ids, ts, pid, lag = _cols(block, "kind", "event_id", "ts_us",
                                    "purchase_event_id", "lag_us")
    c = _nearest(kind == 2, starts)[0]
    has = (kind == 1) & (c >= 0)
    c = np.maximum(c, 0)
    click = kind < 2
    return pa.table({
        "event_id": ids[click],
        "purchase_event_id": np.where(has, ids[c], pid)[click],
        "lag_us": np.where(has, ts - ts[c], lag)[click],
    })


def q_events_asof_purchase_carry(sf_dir: str,
                                 span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """AS-OF JOIN (strictly-before LOCF match): every 'click' event joins
    the latest 'purchase' of the SAME user ordered by (ts, event_id).
    Boundary-carry: clicks resolve against in-span purchases locally;
    only the UNRESOLVED clicks (no earlier purchase in their own span) take
    the last-purchase carry row of an earlier span.  The span rows — one
    per click plus one per span with a purchase — come to the driver,
    where the output goes anyway, for that per-user pass; a user's full
    history is never co-located (pinned against a per-user pandas
    reference by tests/test_pipeline.py::test_asof_carry_matches_per_user)."""
    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "event_type"], span_hours)
    out = _merge_on_driver(_span_partials(tagged, "user_id", _asof_span), ["user_id"],
                           _asof_user, order=("span_id", "kind")).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_distinct_users_kmv(sf_dir: str, k: int = 64) -> pd.DataFrame:
    """DISTINCT-COUNT SKETCH (KMV / k-minimum-values, mergeable): per
    event_type, estimate distinct users from the k smallest distinct
    md5 hashes — est = (k-1) * 2^64 / h_k.  Partials ship at most k
    hashes per (type, batch); the merge keeps the k smallest of the
    union (exact KMV merge).  Deterministic, so the DuckDB twin computes
    the IDENTICAL estimate from the same hashes — an approximate
    operator with an exact oracle."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        from ts_pymfe_ray.functions.md5vec import md5_lower64_list

        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "user_id": batch.column("user_id").to_numpy(),
        }).drop_duplicates()
        # batched md5 over the batch's distinct users (hashed once even
        # when a user spans several event types); bit-identical to the
        # per-user hashlib path it replaces
        uu = df["user_id"].unique()
        hs = md5_lower64_list([str(int(u)).encode() for u in uu])
        hmap = dict(zip(uu.tolist(), hs.tolist()))
        rows_t, rows_h = [], []
        for et, grp in df.groupby("event_type"):
            hv = np.sort(np.array([hmap[int(u)] for u in grp["user_id"]],
                                  dtype=np.uint64))[:k]
            rows_t.extend([et] * hv.size)
            rows_h.extend(hv.tolist())
        return pa.table({"event_type": pa.array(rows_t, pa.string()),
                         "hv": pa.array(rows_h, pa.uint64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out_t, out_e = [], []
    for et, grp in partials.groupby("event_type"):
        hs = sorted(set(grp["hv"].tolist()))
        if len(hs) >= k:
            est = (k - 1.0) * 18446744073709551616.0 / float(hs[k - 1])
        else:
            est = len(hs) * 1.0
        out_t.append(et)
        out_e.append(round_ha(est))
    out = pd.DataFrame({"event_type": out_t, "est_distinct": out_e})
    return out.sort_values("event_type").reset_index(drop=True)


def _band_rows(batch: pa.Table, band_us: int) -> pa.Table:
    """The range join's shuffle rows of an events batch: each error once
    in its home bucket (kind 1), each click in its home bucket and the two
    beside it (kind 0)."""
    ts_us = _ts_us(batch.column("ts")).to_numpy()
    et = batch.column("event_type")
    is_err = pc.equal(et, "error").to_numpy(zero_copy_only=False)
    is_clk = pc.equal(et, "click").to_numpy(zero_copy_only=False)
    e, c = np.flatnonzero(is_err), np.flatnonzero(is_clk)
    rows = np.concatenate([e, c, c, c])
    shift = np.repeat(np.array([0, -1, 0, 1]), [e.size, c.size, c.size, c.size])
    return pa.table({
        "user_id": pa.array(batch.column("user_id").to_numpy()[rows], pa.int64()),
        "bucket": pa.array(ts_us[rows] // band_us + shift, pa.int64()),
        "kind": pa.array(np.repeat(np.array([1, 0]), [e.size, 3 * c.size]), pa.int64()),
        "ts_us": pa.array(ts_us[rows], pa.int64()),
        "event_id": pa.array(batch.column("event_id").to_numpy()[rows], pa.int64()),
    })


def _band_join(block: pa.Table, starts: np.ndarray, band_us: int) -> pa.Table:
    """Per error of every (user_id, bucket) group of the block, sorted by
    (kind, ts_us): its in-band click count and nearest click's lag (-1:
    none).  One ``searchsorted`` over all the block's clicks at once, on
    the key ``segment * 4 band + (ts_us - bucket * band + band)``: a
    group's events lie within [(bucket - 1) band, (bucket + 2) band) and
    its errors' bands within that, so the key orders the clicks by
    (segment, ts_us), keeps every search inside its own group and is
    exact int64."""
    kind, ts, bucket, eid = _cols(block, "kind", "ts_us", "bucket", "event_id")
    _, seg = _seg(starts, block.num_rows)
    key = seg * (4 * band_us) + (ts - bucket * band_us + band_us)
    clk, err = kind == 0, kind == 1
    c_key, e_key, e_ts = key[clk], key[err], ts[err]
    c_ts = np.append(ts[clk], 0)  # a pad, so that c_ts[pos] is in range
    lo = np.searchsorted(c_key, e_key - band_us, side="left")
    hi = np.searchsorted(c_key, e_key + band_us, side="right")
    pos = np.searchsorted(c_key, e_key, side="left")
    n_in = (hi - lo).astype(np.int64)
    prev_d = np.where(pos > lo, e_ts - c_ts[np.maximum(pos - 1, 0)], _NONE)
    next_d = np.where(pos < hi, c_ts[pos] - e_ts, _NONE)
    nearest = np.where(n_in > 0, np.minimum(prev_d, next_d), -1)
    return pa.table({
        "event_id": pa.array(eid[err], pa.int64()),
        "n_clicks_in_band": pa.array(n_in, pa.int64()),
        "nearest_click_lag_us": pa.array(nearest, pa.int64()),
    })


def q_events_range_join(sf_dir: str, band_sec: int = 60) -> pd.DataFrame:
    """RANGE (band) JOIN, interval-bucketed: every 'error' event joins the
    'click' events of the SAME user within +/- band_sec.

    Distributed shape: time is bucketed by the band width; each error is
    processed ONCE in its home bucket, and each click is replicated to its
    home bucket +/- 1 (every in-band pair is then co-located, no pair is
    missed or doubled).  Groups are keyed (user_id, time bucket), so task
    size is bounded by a user's event RATE over ~3 band widths, never by
    total history — a 10^9-event bot user splits across millions of
    buckets.  The shuffle carries only (user, bucket, kind, ts_us,
    event_id) rows (3x clicks + errors), never the full rows.

    The per-group step is the segment kernel :func:`_band_join`: with
    sorted in-group click times, the nearest in-band click is the
    insertion-point predecessor or successor clipped to the band window —
    exact integer math, no per-error or per-group loop.  Output: per error
    event, the number of in-band clicks and the nearest click's absolute
    lag."""
    band_us = band_sec * 1_000_000
    emitted = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]).map_batches(
        _band_rows, fn_kwargs={"band_us": band_us}, batch_format="pyarrow",
        zero_copy_batch=True)
    out = _map_sorted_groups(emitted, ["user_id", "bucket"],
                             functools.partial(_band_join, band_us=band_us),
                             order=("kind", "ts_us")).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_props_extract(sf_dir: str) -> pd.DataFrame:
    """SEMI-STRUCTURED EXTRACTION: parse the JSON ``props`` column and
    aggregate the extracted key per event_type (the metadata-column scan
    every training-data pipeline has).  json.loads per row inside
    map_batches with partial aggregation — only (type, partial-sums) rows
    leave the task."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        ks = [json.loads(p)["k"] for p in batch.column("props").to_pylist()]
        return pa.table({"event_type": batch.column("event_type"),
                         "k": pa.array(ks, pa.int64())})

    g = combine(ds, ["event_type"], {"n_events": ("k", "size"), "sum_k": ("k", "sum"),
                                     "min_k": ("k", "min"), "max_k": ("k", "max")},
                extract).to_pandas()
    g["mean_k"] = round_ha(g["sum_k"] / g["n_events"])
    return g


# ------------------------------------------------- corpus curation operators
#
# The training-data curation pack the reference has no analogue for:
# deterministic hash sampling (uniform + per-source stratified), exact
# heavy-hitter vocabulary counts, exact distributed quantiles and
# quantile-bucket stratification.  All four are map-side partial
# aggregates whose shuffles carry BOUNDED key domains (sources, vocabulary
# after per-batch collapse, distinct integer lengths) — nothing
# per-document ever reaches the driver.


def _md5_mod100(ids: np.ndarray) -> np.ndarray:
    """md5_number_lower(CAST(id AS VARCHAR)) % 100, batched — the
    deterministic sampling coin shared with the DuckDB twin (md5vec's
    lower-64 convention is parity-tested against md5_number_lower)."""
    from ts_pymfe_ray.functions.md5vec import md5_lower64_list

    h = md5_lower64_list([str(int(i)).encode() for i in ids])
    return h % np.uint64(100)


def q_documents_sample_hash(sf_dir: str, pct: int = 25) -> pd.DataFrame:
    """Deterministic hash sampling: keep a doc iff md5(doc_id) % 100 < pct.

    The sampling decision is a pure map-side filter (no RNG, no state, no
    shuffle), so it is reproducible across reruns, resumable per shard and
    embarrassingly parallel at any corpus size; the reported per-source
    counts shrink to one row per source before leaving the tasks."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def keep_sampled(batch: pa.Table) -> pa.Table:
        coin = _md5_mod100(batch.column("doc_id").to_numpy())
        return batch.filter(pa.array(coin < pct))

    return grouped_stats(
        ds.map_batches(keep_sampled, batch_format="pyarrow"), ["source"], "n_chars"
    )


def q_documents_sample_stratified(sf_dir: str) -> pd.DataFrame:
    """Stratified deterministic sampling: per-source keep-rates (a tiny
    policy table derived from the source id here; in production a
    broadcast dict) applied as the same map-side md5 coin."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def keep_sampled(batch: pa.Table) -> pa.Table:
        coin = _md5_mod100(batch.column("doc_id").to_numpy())
        suffix = np.array(
            [int(s[3:]) for s in batch.column("source").to_pylist()], dtype=np.int64
        )
        rate = 10 + 4 * (suffix % 20)
        return batch.filter(pa.array(coin < rate.astype(np.uint64)))

    return grouped_stats(
        ds.map_batches(keep_sampled, batch_format="pyarrow"), ["source"], "n_chars"
    )


def _word_rows(batch: pa.Table, *keep: str) -> pa.Table:
    """One row per space-separated word of the batch's texts, with the
    ``keep`` columns of its document repeated."""
    words = pc.split_pattern(batch.column("text"), " ")
    doc = pc.list_parent_indices(words)
    return pa.table({**{c: batch.column(c).take(doc) for c in keep},
                     "word": pc.list_flatten(words)})


def q_documents_heavy_hitters(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Exact corpus-level heavy hitters: top-k words by frequency.

    The per-batch partial count collapses each batch to its distinct words
    before the shuffle (shuffle rows bounded by vocabulary, not corpus
    size), the per-word merge is a distributed groupby, and only k rows per
    output block reach the driver — the q_events_user_topk shape over text."""
    counts = shuffle_combine(_read(sf_dir, "documents", ["text"]), ["word"],
                             {"cnt": ("word", "size")}, _word_rows)
    return topk(counts, [("cnt", "descending"), ("word", "ascending")], k).to_pandas()


def q_source_top_terms(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Per-source top-k vocabulary terms (the corpus-profiling report a
    curation run uses to spot boilerplate and domain drift).

    Same distributed shape as the global heavy hitters: per-batch partial
    (source, word) counts (shuffle bounded by vocabulary x sources, never
    corpus size), a shuffle groupby merges them, and each output block
    keeps only its per-source top-k candidates — the union of per-block
    top-ks provably contains the true per-source top-k, so the driver
    merge sees <= k x blocks x sources tiny rows."""
    counts = shuffle_combine(_read(sf_dir, "documents", ["source", "text"]),
                             ["source", "word"], {"cnt": ("word", "size")},
                             lambda b: _word_rows(b, "source"))
    top = topk(counts, [("cnt", "descending"), ("word", "ascending")], k, by=["source"])
    return top.append_column("rank", pa.array(group_rank(top, ["source"]) + 1)).select(
        ["source", "rank", "word", "cnt"]).to_pandas()


def _length_histogram(sf_dir: str) -> pd.DataFrame:
    """Distributed exact value-count histogram of n_chars per source.

    Shuffle rows are bounded by (sources x distinct integer lengths) — the
    value DOMAIN, not the corpus — which is what makes exact distributed
    order statistics tractable for integer-valued metrics at any scale."""
    return shuffle_combine(_read(sf_dir, "documents", ["source", "n_chars"]),
                           ["source", "n_chars"], {"c": ("n_chars", "size")}).to_pandas()


def _disc_quantiles(hist: pd.DataFrame, qs: tuple[float, ...]) -> pd.DataFrame:
    """Exact discrete quantiles from a merged value-count histogram,
    matching DuckDB quantile_disc: element at index ceil(q*n) - 1 of the
    sorted values (verified against DuckDB 1.x on integer inputs)."""
    import math

    rows = []
    for src, grp in hist.groupby("source"):
        grp = grp.sort_values("n_chars")
        vals = grp["n_chars"].to_numpy()
        cum = grp["c"].to_numpy().cumsum()
        n = int(cum[-1])
        row = {"source": src}
        for q in qs:
            idx = max(0, math.ceil(q * n) - 1)
            row[f"p{int(q * 100)}"] = int(vals[np.searchsorted(cum, idx + 1)])
        rows.append(row)
    out = pd.DataFrame(rows).sort_values("source").reset_index(drop=True)
    for c in out.columns:
        if c != "source":
            out[c] = out[c].astype("int64")
    return out


def q_documents_length_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles (p25/p50/p75/p90) of document length per
    source, via the bounded-domain histogram — no sort, no sampling, no
    approximation."""
    return _disc_quantiles(_length_histogram(sf_dir), (0.25, 0.5, 0.75, 0.9))


def q_documents_length_buckets(sf_dir: str) -> pd.DataFrame:
    """Quantile-bucket stratification: assign each doc its per-source
    length quartile (0..3) and report per-(source, bucket) counts.

    The quartile thresholds are the tiny exact-quantile table (one row per
    source) broadcast into a second map-side pass — the classic two-pass
    stratification a curation pipeline runs before mixing training data."""
    th = _disc_quantiles(_length_histogram(sf_dir), (0.25, 0.5, 0.75))
    lut = {r.source: (r.p25, r.p50, r.p75) for r in th.itertuples()}

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def bucketize(batch: pa.Table) -> pa.Table:
        t = np.array([lut[s] for s in batch.column("source").to_pylist()],
                     dtype=np.int64).reshape(-1, 3)
        n = batch.column("n_chars").to_numpy()
        bucket = (n > t[:, 0]).astype(np.int64) + (n > t[:, 1]) + (n > t[:, 2])
        return batch.append_column("bucket", pa.array(bucket))

    return combine(ds, ["source", "bucket"], {"n_docs": ("n_chars", "size"),
                                              "sum_chars": ("n_chars", "sum")},
                   bucketize).to_pandas()


def q_documents_split_assign(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split assignment (80/10/10) from the
    same md5 coin as hash sampling: a pure map-side partition label, so
    the split is reproducible, leakage-free (a doc's split never depends
    on which shard or batch it arrived in) and consistent across reruns.
    Reports per-(source, split) counts."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def assign(batch: pa.Table) -> pa.Table:
        coin = _md5_mod100(batch.column("doc_id").to_numpy())
        split = np.where(coin < 80, "train", np.where(coin < 90, "val", "test"))
        return batch.append_column("split", pa.array(split, pa.string()))

    return combine(ds, ["source", "split"], {"n_docs": ("n_chars", "size"),
                                             "sum_chars": ("n_chars", "sum")},
                   assign).to_pandas()


# ------------------------------------------------- embedding-space operators


def _load_centroids(sf_dir: str, k: int) -> np.ndarray:
    """Deterministic init: the embeddings of vec_id < k, pushdown-filtered
    so only k rows leave storage."""
    tbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < k,
    ).to_pandas().sort_values("vec_id")
    return np.array(tbl["embedding"].tolist(), dtype=np.float64)


def _kmeans_pass(sf_dir: str, cents: np.ndarray, want_sums: bool) -> pd.DataFrame:
    """One streaming Lloyd pass: cosine assignment via a single GEMM per
    batch against the broadcast centroid matrix; each batch reduces to
    per-cluster partial (count, inertia[, vector sums]) rows — K rows per
    batch, never the corpus — merged per cluster by :func:`combine`.
    Ties pick the lowest centroid id (argmax-first == SQL ORDER BY sim
    DESC, cid)."""
    K, dim = cents.shape
    cn = cents / np.maximum(np.linalg.norm(cents, axis=1, keepdims=True), 1e-12)
    scols = [f"s{j}" for j in range(dim)] if want_sums else []

    def partial(batch: pa.Table) -> pa.Table:
        mat = _embeddings(batch, dim)
        sims = _cosines(mat, cn.T)
        assign = np.argmax(sims, axis=1)
        cols = {"cluster": pa.array(np.arange(K), pa.int64()),
                "n": pa.array(np.bincount(assign, minlength=K), pa.int64()),
                "inertia": pa.array(np.bincount(
                    assign, weights=1.0 - sims[np.arange(batch.num_rows), assign],
                    minlength=K), pa.float64())}
        if want_sums:
            sums = np.zeros((K, dim))
            np.add.at(sums, assign, mat)
            cols.update({c: pa.array(sums[:, j], pa.float64()) for j, c in enumerate(scols)})
        return pa.table(cols)

    return combine(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), ["cluster"],
                   {c: (c, "sum") for c in ["n", "inertia", *scols]}, partial).to_pandas()


def _kmeans_report(g: pd.DataFrame) -> pd.DataFrame:
    """The non-empty clusters' (cluster, n_vecs, inertia) rows."""
    g = g[g["n"] > 0]
    return pd.DataFrame({"cluster": g["cluster"], "n_vecs": g["n"],
                         "inertia": round_ha(g["inertia"].to_numpy())}).reset_index(drop=True)


def q_embeddings_kmeans_step(sf_dir: str, k: int = 8) -> pd.DataFrame:
    """One Lloyd assignment step of spherical k-means (cosine), centroids =
    first k embeddings: per-cluster member count and inertia (sum of
    1 - cosine).  SQL-oracled — the iterative variant shares this exact
    machinery per pass."""
    return _kmeans_report(_kmeans_pass(sf_dir, _load_centroids(sf_dir, k), want_sums=False))


def q_embeddings_kmeans(sf_dir: str, k: int = 8, iters: int = 5) -> pd.DataFrame:
    """Distributed spherical k-means, `iters` Lloyd iterations: each pass
    streams the corpus once (GEMM assignment per batch), reduces K x (dim+2)
    partial rows, and the driver recombines centroids (empty clusters keep
    their previous centroid).  Hash-exact against a chained step-CTE DuckDB
    twin (five a->m->c CTE rounds in __ray_entry__.oracle_sql)."""
    cents = _load_centroids(sf_dir, k)
    scols = [f"s{j}" for j in range(cents.shape[1])]
    for _ in range(iters):
        g = _kmeans_pass(sf_dir, cents, want_sums=True)
        cnt = g["n"].to_numpy()
        sums = g[scols].to_numpy()
        nz = cnt > 0
        cents = cents.copy()
        cents[nz] = sums[nz] / cnt[nz, None]
    return _kmeans_report(_kmeans_pass(sf_dir, cents, want_sums=False))


def q_embeddings_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Element-wise per-label centroid (class prototype) in long format
    (label, pos, mean_val): per-batch partial sums collapse each batch to
    one (labels x dim) block, so the merge is label-domain-sized."""
    def partial(batch: pa.Table) -> pa.Table:
        labels = batch.column("label").to_numpy()
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        dim = mat.shape[1] if mat.ndim == 2 else 0
        u, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((u.size, dim))
        np.add.at(sums, inv, mat.reshape(-1, dim))
        return pa.table({
            "label": pa.array(np.repeat(u, dim), pa.int64()),
            "pos": pa.array(np.tile(np.arange(1, dim + 1), u.size), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(np.bincount(inv, minlength=u.size), dim), pa.int64()),
        })

    g = combine(_read(sf_dir, "embeddings", ["label", "embedding"]), ["label", "pos"],
                {"s": ("s", "sum"), "n": ("n", "sum")}, partial).to_pandas()
    return pd.DataFrame({"label": g["label"], "pos": g["pos"],
                         "mean_val": round_ha((g["s"] / g["n"]).to_numpy())})


def q_documents_longest_per_source(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Per-group top-k ranking (the PARTITION BY ... ORDER BY ... LIMIT k
    idiom): the k longest docs per source, ties broken by doc_id.  Partial
    top-k inside every batch bounds the merge at k rows per (batch,
    source) — the corpus never co-locates per group."""
    top = topk(_read(sf_dir, "documents", ["doc_id", "source", "n_chars"]),
               [("n_chars", "descending"), ("doc_id", "ascending")], k, by=["source"])
    top = top.append_column("rank", pa.array(group_rank(top, ["source"]) + 1))
    return top.select(["source", "rank", "doc_id", "n_chars"]).to_pandas()


def q_documents_mix_uniform(sf_dir: str) -> pd.DataFrame:
    """Data mixing: downsample every source to the SMALLEST source's size
    (uniform mixing proportions) with the deterministic md5 coin — the
    two-pass mixing step a pretraining pipeline runs to hit target source
    weights.  Pass 1 is a bounded-domain count; pass 2 broadcasts the tiny
    integer per-mille rate table into a map-side filter.  Rates are
    INTEGER arithmetic (1000 * min_cnt // cnt) so the SQL twin is exact
    with no float thresholds."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    g = combine(ds, ["source"], {"c": ("source", "size")})
    counts = dict(zip(g.column("source").to_pylist(), g.column("c").to_pylist()))
    min_cnt = min(counts.values())
    rate = {s: (1000 * min_cnt) // c for s, c in counts.items()}

    def keep_mixed(batch: pa.Table) -> pa.Table:
        from ts_pymfe_ray.functions.md5vec import md5_lower64_list

        ids = batch.column("doc_id").to_numpy()
        coin = md5_lower64_list(
            [str(int(i)).encode() for i in ids]
        ) % np.uint64(1000)
        r = np.array([rate[s] for s in batch.column("source").to_pylist()],
                     dtype=np.uint64)
        return batch.filter(pa.array(coin < r))

    return grouped_stats(
        ds.map_batches(keep_mixed, batch_format="pyarrow"), ["source"], "n_chars"
    )
