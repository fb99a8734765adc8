"""Driver-oracle query pipelines over the TPC-H-ish test tables.

Every query here has a DuckDB-checkable ANSI-SQL twin (__ray_entry__'s
oracle_sql); column names match exactly.  Aggregates follow the engine's
scale rules: combiner-style partial aggregation inside map_batches, one
small groupby over pre-aggregated rows, broadcast lookups for small join
sides, column-pruned reads.  Float aggregates are rounded (ROUND6) on both
sides so the driver's value-hash is stable across summation orders.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ts_pymfe_ray.functions.rounding import round_ha

ROUND = 6


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ---------------------------------------------------------------- helpers


def grouped_stats(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    out_prefix: str | None = None,
    sum_decimals: int = ROUND,
    cents: bool = False,
) -> pd.DataFrame:
    """Partial+final grouped (count, sum, min, max, mean): combiner inside
    map_batches, then a pandas merge of the (tiny) partial rows.

    ``cents=True`` is the exactness recipe for 2dp-granular value columns
    (the events stream): sums accumulate as EXACT int64 hundredths, so the
    merged sum is association-order-free and the derived sum/mean are the
    same IEEE doubles on the engine and DuckDB side regardless of scale —
    plain float sums hit the 6dp rounding half boundary at sf0.1+ (e.g. a
    2dp mean over a 16-multiple count ends exactly in ...0625)."""
    pref = out_prefix or value_col

    def combiner(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if cents:
            df = df.assign(
                _c=np.round(df[value_col].to_numpy() * 100).astype(np.int64))
            g = df.groupby(keys, observed=True).agg(
                count=(value_col, "size"), sum=("_c", "sum"),
                min=(value_col, "min"), max=(value_col, "max")).reset_index()
        else:
            g = df.groupby(keys, observed=True)[value_col].agg(
                ["count", "sum", "min", "max"]).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(combiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby(keys).agg(
        cnt=("count", "sum"), s=("sum", "sum"), mn=("min", "min"), mx=("max", "max")
    ).reset_index()
    out = g[keys].copy()
    out[f"{pref}_count"] = g["cnt"].astype("int64")
    # float64 + DuckDB-identical rounding so the driver hash matches the
    # oracle's ROUND(...) doubles even for integer value columns
    if cents:
        s = g["s"].to_numpy().astype(np.float64) / 100.0
        out[f"{pref}_sum"] = round_ha(s, sum_decimals)
        out[f"{pref}_mean"] = round_ha(s / g["cnt"].to_numpy())
    else:
        out[f"{pref}_sum"] = round_ha(g["s"].to_numpy(), sum_decimals)
        out[f"{pref}_mean"] = round_ha((g["s"] / g["cnt"]).to_numpy())
    out[f"{pref}_min"] = round_ha(g["mn"].to_numpy())
    out[f"{pref}_max"] = round_ha(g["mx"].to_numpy())
    return out.sort_values(keys).reset_index(drop=True)


_HOUR_US = 3600 * 1_000_000
_DAY_US = 24 * _HOUR_US


def _ts_us(ts: pa.ChunkedArray) -> pa.ChunkedArray:
    """Timestamp column -> int64 epoch microseconds (DuckDB's epoch_us)."""
    import pyarrow.compute as pc

    return pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())


def _user_days(batch: pa.Table) -> np.ndarray:
    """The batch's distinct (user_id, epoch day) pairs, shape (n, 2)."""
    days = _ts_us(batch.column("ts")).to_numpy() // _DAY_US
    users = batch.column("user_id").to_numpy()
    return np.unique(np.stack([users, days], axis=1), axis=0)


# ------------------------------------------------------ span-partial engine
#
# Every keyed event operator that needs each key's events in time order
# (acf1, inter-arrival, funnel, sessionize, as-of, the positional-window
# family) runs on the same three steps instead of co-locating a key's
# whole history: tag each event with span_id = ts_us // span width, reduce
# each (key, span) slice to a few partial rows, then merge the partials
# per key (rows bounded by active spans, never by event count).

# span width of every span-partial operator: bounds any single task's
# group by TIME RANGE — the production knob against hot keys (a bot
# user's events split across spans instead of landing in one task)
_SPAN_HOURS = 24


def _span_tagged(sf_dir: str, columns: list[str], span_hours: int):
    """events[columns] plus ``ts_us`` and ``span_id = ts_us // span``."""
    import pyarrow.compute as pc

    span_us = span_hours * _HOUR_US

    def tag(batch: pa.Table) -> pa.Table:
        ts_us = _ts_us(batch.column("ts"))
        return pa.table({**{c: batch.column(c) for c in columns},
                         "ts_us": ts_us, "span_id": pc.divide(ts_us, span_us)})

    return _read(sf_dir, "events", [*columns, "ts"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True)


def _span_partials(tagged, key: str, per_span):
    """``per_span`` over every (key, span_id) slice of ``tagged``, handed
    over sorted by (ts_us, event_id)."""
    def sorted_span(df: pd.DataFrame) -> pd.DataFrame:
        return per_span(df.sort_values(["ts_us", "event_id"]))

    return tagged.groupby([key, "span_id"]).map_groups(
        sorted_span, batch_format="pandas")


def _split_kinds(parts, resolved_cols: list[str],
                 rest_cols: list[str] | None = None):
    """Materialize span partials once and split them by ``kind``: kind 0
    rows (resolved in-span) projected to ``resolved_cols``, kind > 0 rows
    (left for a second pass) to ``rest_cols`` (all columns when None)."""
    import pyarrow.compute as pc

    parts = parts.materialize()

    def take(keep, cols):
        def f(batch: pa.Table) -> pa.Table:
            rows = batch.filter(keep(batch.column("kind"), 0))
            return rows if cols is None else rows.select(cols)

        return parts.map_batches(f, batch_format="pyarrow")

    return take(pc.equal, resolved_cols), take(pc.greater, rest_cols)


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
    """Top-k users by event count: per-batch combiner -> DISTRIBUTED
    per-user merge -> per-block partial top-k -> tiny driver merge.

    user_id is an unbounded key domain, so the cross-batch merge must be a
    shuffle groupby, not a driver-side pandas merge (round 3 pulled one
    partial-count row per distinct user to the driver — the whole keyspace
    at 10^9 users).  Only k rows per output block reach the driver."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id"])

    def combiner(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column("user_id").to_numpy(), return_counts=True)
        return pa.table({"user_id": u, "c": c})

    counts = (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c"))
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["sum(c)", "user_id"],
                            ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = counts.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    g = partials.rename(columns={"sum(c)": "num_events"})
    g = g.sort_values(["num_events", "user_id"], ascending=[False, True]).head(k)
    g["num_events"] = g["num_events"].astype("int64")
    return g.reset_index(drop=True)


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
    task."""
    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        x, y = v[:-1], v[1:]
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "span_id": [np.int64(df["span_id"].iloc[0])],
            "cnt": [np.int64(v.size)],
            "npairs": [np.int64(x.size)],
            "sx": [float(x.sum())], "sy": [float(y.sum())],
            "sxy": [float((x * y).sum())],
            "sx2": [float((x * x).sum())], "sy2": [float((y * y).sum())],
            "first_v": [float(v[0])], "last_v": [float(v[-1])],
        })

    def merge_type(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("span_id")
        bx = df["last_v"].to_numpy()[:-1]   # boundary pairs: last of span k
        by = df["first_v"].to_numpy()[1:]   # with first of next active span
        n_events = int(df["cnt"].sum())
        if n_events < 3:
            r = np.nan
        else:
            m = float(int(df["npairs"].sum()) + bx.size)
            sx = float(df["sx"].sum() + bx.sum())
            sy = float(df["sy"].sum() + by.sum())
            sxy = float(df["sxy"].sum() + (bx * by).sum())
            sx2 = float(df["sx2"].sum() + (bx * bx).sum())
            sy2 = float(df["sy2"].sum() + (by * by).sum())
            den = (m * sx2 - sx * sx) * (m * sy2 - sy * sy)
            r = float((m * sxy - sx * sy) / np.sqrt(den)) if den > 0 else np.nan
        return pd.DataFrame(
            {"event_type": [df["event_type"].iloc[0]], "acf1": [round_ha(r)],
             "n": [np.int64(n_events)]}
        )

    tagged = _span_tagged(sf_dir, ["event_type", "event_id", "value"], span_hours)
    out = (
        _span_partials(tagged, "event_type", per_span)
        .groupby("event_type")
        .map_groups(merge_type, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("event_type").reset_index(drop=True)


def q_lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style pricing summary (grouped mergeable aggregates)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def combiner(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # exact integer units (the cents recipe): base price is 2dp, the
        # discounted product is 4dp-granular — integer sums are
        # association-order-free, so the merged stats are the same doubles
        # on both sides at every scale (a 4dp disc-price sum can land
        # EXACTLY on the 2dp rounding half)
        df["_bp"] = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        df["_dp"] = np.round(
            (df["l_extendedprice"].to_numpy()
             * (1 - df["l_discount"].to_numpy())) * 10000).astype(np.int64)
        g = df.groupby(["l_returnflag", "l_linestatus"]).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("_bp", "sum"),
            sum_disc_price=("_dp", "sum"),
            cnt=("l_quantity", "size"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(combiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby(["l_returnflag", "l_linestatus"]).agg(
        sum_qty=("sum_qty", "sum"),
        sum_base_price=("sum_base_price", "sum"),
        sum_disc_price=("sum_disc_price", "sum"),
        cnt=("cnt", "sum"),
    ).reset_index()
    g["avg_qty"] = round_ha((g["sum_qty"] / g["cnt"]).to_numpy())
    g["sum_qty"] = round_ha(g["sum_qty"].to_numpy(), 2)
    g["sum_base_price"] = round_ha(
        g["sum_base_price"].to_numpy().astype(np.float64) / 100.0, 2)
    g["sum_disc_price"] = round_ha(
        g["sum_disc_price"].to_numpy().astype(np.float64) / 10000.0, 2)
    g["cnt"] = g["cnt"].astype("int64")
    return g.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


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
        keys = batch.column("o_custkey").to_numpy()
        seg = np.array([lookup.get(k, "UNKNOWN") for k in keys])
        df = pd.DataFrame({"c_mktsegment": seg, "o_totalprice": batch.column("o_totalprice").to_numpy()})
        g = df.groupby("c_mktsegment").agg(
            revenue=("o_totalprice", "sum"), num_orders=("o_totalprice", "size")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(joiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby("c_mktsegment").agg(
        revenue=("revenue", "sum"), num_orders=("num_orders", "sum")
    ).reset_index()
    g["revenue"] = round_ha(g["revenue"].to_numpy(), 2)
    g["num_orders"] = g["num_orders"].astype("int64")
    return g.sort_values("c_mktsegment").reset_index(drop=True)


def q_documents_stats(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return grouped_stats(ds, ["source"], "n_chars")


def q_documents_token_count(sf_dir: str) -> pd.DataFrame:
    """Whitespace token counting per doc -> per-lang totals.  Token
    semantics = split on single space, matching SQL string_split."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def combiner(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        texts = batch.column("text").to_pylist()
        ntok = np.array([len(t.split(" ")) for t in texts], dtype=np.int64)
        df = pd.DataFrame({"lang": langs, "ntok": ntok})
        g = df.groupby("lang").agg(total_tokens=("ntok", "sum"), n_docs=("ntok", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(combiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby("lang").agg(
        total_tokens=("total_tokens", "sum"), n_docs=("n_docs", "sum")
    ).reset_index()
    g["total_tokens"] = g["total_tokens"].astype("int64")
    g["n_docs"] = g["n_docs"].astype("int64")
    return g.sort_values("lang").reset_index(drop=True)


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup count report: per source, total rows vs distinct texts.

    Fully distributed two-level aggregate: stage 1 groups by (source,
    128-bit content hash) so every distinct document collapses to ONE row
    inside the cluster; stage 2 groups the (already distinct-sized) set by
    source.  Nothing per-document reaches the driver — round 3 pulled one
    hash row per doc into pandas, i.e. the corpus's hash column at 10^12
    docs.  Full-md5 keys like q_dedup_exact_keep_first: a 64-bit key would
    silently merge two distinct texts on a collision at 1e9-doc scale."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def combiner(batch: pa.Table) -> pa.Table:
        from ts_pymfe_ray.functions.md5vec import md5_pair64, pack_bytes

        src = batch.column("source").to_pylist()
        txt = batch.column("text").to_pylist()
        lo, hi = md5_pair64(*pack_bytes([t.encode() for t in txt]))
        # int64 bit-pattern views: Ray 2.49 re-infers uint64 group keys
        # above 2^63 as int64 in the aggregate path, overflows, and
        # degrades to pickled-object columns the shuffle sort rejects.
        # Dedup semantics are order-free, so the reinterpretation is safe.
        return pa.table({"source": pa.array(src, pa.string()),
                         "h_lo": pa.array(lo.view(np.int64), pa.int64()),
                         "h_hi": pa.array(hi.view(np.int64), pa.int64())})

    distinct = (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby(["source", "h_lo", "h_hi"])
        .aggregate(Count())  # one row per distinct (source, text)
    )
    g = distinct.groupby("source").aggregate(Sum("count()"), Count()).to_pandas()
    out = pd.DataFrame({
        "source": g["source"],
        "n_docs": g["sum(count())"].astype("int64"),
        "uniq_docs": g["count()"].astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


def q_dedup_exact_keep_first(sf_dir: str) -> pd.DataFrame:
    """Exact dedup MATERIALIZATION: one surviving row per distinct text —
    hash-partitioned keep-first (min doc_id) semantics via a vectorized
    groupby aggregate over content hashes; shuffles only (hash, doc_id)
    rows, never text.  Returns the kept doc_ids with their duplicate
    counts (the downstream pipeline reads the kept rows by id)."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def hash_rows(batch: pa.Table) -> pa.Table:
        # full 128-bit digest as two group keys: a 64-bit key would
        # silently merge two distinct documents on a collision — negligible
        # here but a real hazard at the 1e9-doc scale this targets.  Carried
        # as int64 bit-pattern views (Ray 2.49 uint64 groupby-key overflow).
        from ts_pymfe_ray.functions.md5vec import md5_pair64, pack_bytes

        txt = batch.column("text").to_pylist()
        lo, hi = md5_pair64(*pack_bytes([t.encode() for t in txt]))
        return pa.table({"h_lo": pa.array(lo.view(np.int64), pa.int64()),
                         "h_hi": pa.array(hi.view(np.int64), pa.int64()),
                         "doc_id": batch.column("doc_id")})

    g = (
        ds.map_batches(hash_rows, batch_format="pyarrow")
        .groupby(["h_lo", "h_hi"])
        .aggregate(Min("doc_id"), Count())
        .to_pandas()
    )
    out = pd.DataFrame({
        "doc_id": g["min(doc_id)"].astype("int64"),
        "n_copies": g["count()"].astype("int64"),
    })
    return out.sort_values("doc_id").reset_index(drop=True)


def q_embeddings_knn(sf_dir: str, k: int = 5, query_vec_id: int = 0) -> pd.DataFrame:
    """Brute-force cosine top-k against a broadcast query vector: numpy
    matmul per batch, per-batch partial top-k, tiny final merge.  The
    scale path swaps the per-batch scan for an LSH/IVF bucket probe
    (q_embeddings_neardup uses the banding variant)."""
    import pyarrow.compute as pc

    # pushdown-filtered read: only the query vector's row leaves storage
    qtbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") == query_vec_id,
    ).to_pandas()
    q = np.asarray(qtbl["embedding"].iloc[0], dtype=np.float64)
    qn = q / np.linalg.norm(q)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ qn) / norms
        top = np.argsort(-sims)[:k]
        return pa.table({"vec_id": ids[top], "cosine": sims[top]})

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    partials["cosine"] = round_ha(partials["cosine"].to_numpy())
    out = partials.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


def q_embeddings_knn_multi(sf_dir: str, k: int = 3,
                           n_queries: int = 4) -> pd.DataFrame:
    """Brute-force cosine top-k for a BATCH of queries — one broadcast
    (n_queries, dim) query matrix, one matmul per corpus batch, partial
    per-query top-k, tiny final merge.  At scale the query matrix ships
    once via the task closure (ray.put semantics) while the corpus
    streams; cost is one GEMM per batch instead of n_queries scans."""
    import pyarrow.compute as pc

    qtbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < n_queries,
    ).to_pandas().sort_values("vec_id")
    Q = np.asarray(qtbl["embedding"].to_list(), dtype=np.float64)
    Qn = Q / np.linalg.norm(Q, axis=1)[:, None]
    qids = qtbl["vec_id"].to_numpy()

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        # same float association as the hash-proven single-query path:
        # dot against the normalized query, then divide by the row norm
        sims = (mat @ Qn.T) / norms[:, None]  # (batch, n_queries)
        out_q, out_v, out_c = [], [], []
        for j in range(Qn.shape[0]):
            top = np.argsort(-sims[:, j])[:k]
            out_q.append(np.full(top.size, qids[j], dtype=np.int64))
            out_v.append(ids[top].astype(np.int64))
            out_c.append(sims[top, j])
        return pa.table({"query_id": np.concatenate(out_q),
                         "vec_id": np.concatenate(out_v),
                         "cosine": np.concatenate(out_c)})

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    # rank on the UNROUNDED cosine with vec_id tiebreak — mirrors the SQL
    # twin's row_number over the raw similarity (ranking on the rounded
    # value could keep a different vec_id on a 4dp tie at the k boundary)
    out = (
        partials.sort_values(["query_id", "cosine", "vec_id"],
                             ascending=[True, False, True])
        .groupby("query_id", group_keys=False)
        .head(k)
    )
    # 4dp on the EMITTED value only: DuckDB's list_cosine_similarity
    # accumulates in FLOAT32 (~5e-8 error vs the engine's float64 path),
    # so 6dp equality sits on a rounding knife edge
    out = out.copy()
    out["cosine"] = round_ha(out["cosine"].to_numpy(), 4)
    out["query_id"] = out["query_id"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


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
        et = batch.column("event_type").to_pylist()
        val = batch.column("value").to_numpy()
        base = ts // hop_us  # last window whose span contains the event
        n = ts.size
        k = np.arange(overlap, dtype=np.int64)
        wins = (base[:, None] - k[None, :]).ravel()
        return pa.table(
            {
                "event_type": pa.array(np.repeat(np.array(et, dtype=object), overlap),
                                       pa.string()),
                "window_id": pa.array(wins, pa.int64()),
                "value": pa.array(np.repeat(val, overlap), pa.float64()),
            }
        )

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
        k = batch.column("l_orderkey").to_numpy()
        # exact 1e-4 units (the cents recipe): the discounted product is
        # 4dp-granular, so integer revenue sums are association-order-free
        # and the final 2dp round can never straddle a half boundary
        rev = np.round((batch.column("l_extendedprice").to_numpy()
                        * (1 - batch.column("l_discount").to_numpy()))
                       * 10000).astype(np.int64)
        df = pd.DataFrame({"key": k, "rev": rev})
        g = df.groupby("key")["rev"].sum().reset_index()
        return pa.table({"key": pa.array(g["key"].to_numpy(), pa.int64()),
                         "rev": pa.array(g["rev"].to_numpy(), pa.int64())})

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
        nk = batch.column("c_nationkey").to_numpy()
        rname = np.array([r2name.get(n2r.get(int(k), -1), "UNKNOWN") for k in nk])
        df = pd.DataFrame({"r_name": rname, "bal": batch.column("c_acctbal").to_numpy()})
        g = df.groupby("r_name").agg(
            num_customers=("bal", "size"), total_acctbal=("bal", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(joiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby("r_name").agg(
        num_customers=("num_customers", "sum"), total_acctbal=("total_acctbal", "sum")
    ).reset_index()
    g["num_customers"] = g["num_customers"].astype("int64")
    g["total_acctbal"] = round_ha(g["total_acctbal"].to_numpy(), 2)
    return g.sort_values("r_name").reset_index(drop=True)


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
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def user_days(batch: pa.Table) -> pa.Table:
        pairs = _user_days(batch)
        return pa.table({"user_id": pa.array(pairs[:, 0], pa.int64()),
                         "day": pa.array(pairs[:, 1], pa.int64())})

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        days = np.unique(df["day"].to_numpy())
        cohort = days[0]
        return pd.DataFrame({
            "cohort": np.full(days.size, cohort, dtype=np.int64),
            "offset": (days - cohort).astype(np.int64),
        })

    # per_user's np.unique dedups across batches, so the per-batch
    # distinct rows go straight to the per-user group (rows bounded by
    # active days x touching batches, never events)
    pairs = (
        ds.map_batches(user_days, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
    )

    def count_cells(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["cohort", "offset"]).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = pairs.map_batches(count_cells, batch_format="pyarrow").to_pandas()
    g = partials.groupby(["cohort", "offset"])["n"].sum().reset_index(name="n_users")
    g["n_users"] = g["n_users"].astype("int64")
    return g.sort_values(["cohort", "offset"]).reset_index(drop=True)


def q_events_interarrival(sf_dir: str, span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """Per-type inter-arrival gap statistics (count / mean / min / max of
    adjacent event gaps in global chronological order) — the traffic-
    cadence rollup, distributed with the same span-pair shape as the
    per-type acf1: each (event_type, span) task reduces to ONE row of
    interior-gap integer sums plus its first/last timestamp; the per-type
    merge over span rows adds the cross-span boundary gaps.  Gap sums are
    exact int64 (total <= the time range in us), so mean is one shared
    IEEE division and min/max are exact."""
    _BIG = np.int64(2**62)

    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts_us"].to_numpy()
        gaps = np.diff(t)
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "span_id": [np.int64(df["span_id"].iloc[0])],
            "n": [np.int64(gaps.size)],
            "s1": [np.int64(gaps.sum())],
            "gmin": [np.int64(gaps.min()) if gaps.size else _BIG],
            "gmax": [np.int64(gaps.max()) if gaps.size else np.int64(-1)],
            "first_ts": [np.int64(t[0])],
            "last_ts": [np.int64(t[-1])],
        })

    def merge_type(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("span_id")
        bg = df["first_ts"].to_numpy()[1:] - df["last_ts"].to_numpy()[:-1]
        n = int(df["n"].sum()) + bg.size
        s1 = int(df["s1"].sum()) + int(bg.sum())
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "n_gaps": [np.int64(n)],
            "mean_gap_us": [round_ha(float(s1) / n) if n else np.nan],
            "min_gap_us": [np.concatenate([df["gmin"].to_numpy(), bg]).min()],
            "max_gap_us": [np.concatenate([df["gmax"].to_numpy(), bg]).max()],
        })

    tagged = _span_tagged(sf_dir, ["event_type", "event_id"], span_hours)
    out = (
        _span_partials(tagged, "event_type", per_span)
        .groupby("event_type")
        .map_groups(merge_type, batch_format="pandas")
        .to_pandas()
    )
    # a single-event type has no gap: the twin's MIN/MAX are NULL, which
    # DuckDB hands over as NaN in a float64 column
    no_gap = out["n_gaps"].to_numpy() == 0
    if no_gap.any():
        for c in ("min_gap_us", "max_gap_us"):
            out[c] = np.where(no_gap, np.nan, out[c].to_numpy())
    return out.sort_values("event_type").reset_index(drop=True)


def q_events_wau(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """Rolling weekly-active-users: distinct users in the 7-day window
    ending each day — the sliding-distinct rollup (WAU/MAU) shape.

    Exact: per-batch distinct (user, day) combiner, map-side replication
    of each user-day into its ``window_days`` covering windows (the
    hopping-window trick applied to a DISTINCT count), then one
    (window, user) distinct pass collapsed per window.  Shuffle volume =
    window_days x active user-days — never events."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def user_day_windows(batch: pa.Table) -> pa.Table:
        pairs = _user_days(batch)
        k = np.arange(window_days, dtype=np.int64)
        wins = (pairs[:, 1][:, None] + k[None, :]).ravel()
        users = np.repeat(pairs[:, 0], window_days)
        return pa.table({"window_day": pa.array(wins, pa.int64()),
                         "user_id": pa.array(users, pa.int64())})

    counts = (
        ds.map_batches(user_day_windows, batch_format="pyarrow")
        .groupby(["window_day", "user_id"])
        .aggregate(Count())          # global distinct (window, user)
        .groupby("window_day")
        .aggregate(Count())
        .to_pandas()
    )
    out = counts.rename(columns={"count()": "wau"})
    out["wau"] = out["wau"].astype("int64")
    return out.sort_values("window_day").reset_index(drop=True)


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
    _NONE = np.int64(2**62)  # sentinel: no such event in the span

    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"].to_numpy()
        ts = df["ts_us"].to_numpy()
        clicks = ts[et == "click"]
        purch = ts[et == "purchase"]
        fc = clicks[0] if clicks.size else _NONE
        fp = purch[0] if purch.size else _NONE
        after = purch[purch >= fc]
        fpa = after[0] if after.size else _NONE
        return pd.DataFrame({
            "user_id": [np.int64(df["user_id"].iloc[0])],
            "span_id": [np.int64(df["span_id"].iloc[0])],
            "first_click": [np.int64(fc)],
            "first_purchase": [np.int64(fp)],
            "first_purchase_after": [np.int64(fpa)],
        })

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("span_id")
        fc_all = df["first_click"].to_numpy()
        has = fc_all < _NONE
        if not has.any():
            return pd.DataFrame({"cohort_day": np.empty(0, np.int64),
                                 "conv": np.empty(0, np.int64)})
        k = int(np.flatnonzero(has)[0])
        fc = fc_all[k]
        candidates = [df["first_purchase_after"].to_numpy()[k]]
        later = df["first_purchase"].to_numpy()[k + 1:]
        if later.size:
            candidates.append(later.min())
        fp = int(min(candidates))
        conv = int(fp < _NONE and fp - fc <= win_us)
        return pd.DataFrame({"cohort_day": [np.int64(fc // _DAY_US)],
                             "conv": [np.int64(conv)]})

    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "event_type"], span_hours)
    rows = (
        _span_partials(tagged, "user_id", per_span)
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
    )

    def count_cells(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("cohort_day").agg(
            n_users=("conv", "size"), n_converted=("conv", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = rows.map_batches(count_cells, batch_format="pyarrow").to_pandas()
    g = partials.groupby("cohort_day").agg(
        n_users=("n_users", "sum"), n_converted=("n_converted", "sum")).reset_index()
    g["n_users"] = g["n_users"].astype("int64")
    g["n_converted"] = g["n_converted"].astype("int64")
    return g.sort_values("cohort_day").reset_index(drop=True)


def q_events_value_var(sf_dir: str) -> pd.DataFrame:
    """Mergeable variance per event_type: per-batch (n, sum, sumsq) partial
    sketches -> exact sample variance at the merge — the same algebra the
    tier rollup uses, SQL-checkable via var_samp."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def combiner(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "v": batch.column("value").to_numpy(),
        })
        df["v2"] = df["v"] * df["v"]
        g = df.groupby("event_type").agg(n=("v", "size"), s1=("v", "sum"), s2=("v2", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(combiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby("event_type").agg(n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum")).reset_index()
    mean = g["s1"] / g["n"]
    g["value_var"] = round_ha(((g["s2"] - g["n"] * mean**2) / (g["n"] - 1)).to_numpy())
    g["value_count"] = g["n"].astype("int64")
    out = g[["event_type", "value_count", "value_var"]]
    return out.sort_values("event_type").reset_index(drop=True)


# ------------------------------------------------- positional-window engine
#
# The user-window family (rollup / 10x merge / acf1 / gap-fill / moments)
# aggregates non-overlapping positional windows of each user's
# chronologically sorted events with the tier ladder's sketch kernels, on
# the span-partial engine above — no task co-locates a user's history:
#
#   1. count partials: groupby (user, span) + Count() — the shuffle
#      carries combiner-collapsed count rows only, never events;
#   2. per-user prefix sum over those counts (ONE tiny row per active
#      (user, span)) yields each span's starting chronological rank;
#   3. events co-partitioned with their span's offset row assign global
#      ranks locally; windows FULLY inside the span are sketched
#      vectorized right there (compute_window_sketches — the bulk of the
#      data at production event rates);
#   4. only the <= bucket-1 head/tail boundary events per span ship to a
#      (user_id, window_id) groupby whose groups are <= bucket rows BY
#      CONSTRUCTION.
#
# No task ever holds more than max(span event count, bucket) rows of one
# user.  Per-window sketches computed in isolation are bitwise-identical
# to the whole-series path for every field except the comoment c1 (a
# (sum+cross)-cross vs sum+0 ulp-class association difference that only
# feeds acf1, an off-grid ratio the 6dp rounding absorbs — same tolerance
# class as engine-vs-DuckDB association drift).  Equality with a per-user
# pandas reference is pinned by
# tests/test_pipeline.py::test_window_family_hot_user_distributed.

_SKETCH_COLS = ("n", "s1", "s2", "s3", "s4", "c1", "vmin", "vmax",
                "first", "last", "s1_seq")


def _join_span_offsets(tagged):
    """Span-tagged (user_id, event_id, value) events as kind=0 rows, unioned
    with one kind=1 offset row per (user, span): offset = number of the
    user's events in EARLIER spans, i.e. the span's starting chronological
    rank.  The count shuffle moves combiner partials only; the prefix sum
    runs per user over one tiny row per active span (a 10^9-event bot
    spanning a month is ~720 rows)."""
    from ray.data.aggregate import Count

    counts = tagged.groupby(["user_id", "span_id"]).aggregate(Count())

    def prefix(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values("span_id")
        c = df["count()"].to_numpy(dtype=np.int64)
        off = np.concatenate([[0], np.cumsum(c)[:-1]]).astype(np.int64)
        nz = len(df)
        # arrow block with the events' column order: Ray's shuffle sort
        # rejects mixed pandas/arrow block unions
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(dtype=np.int64), pa.int64()),
            "event_id": pa.array(np.full(nz, -1, dtype=np.int64), pa.int64()),
            "value": pa.array(np.zeros(nz, dtype=np.float64), pa.float64()),
            "ts_us": pa.array(np.zeros(nz, dtype=np.int64), pa.int64()),
            "span_id": pa.array(df["span_id"].to_numpy(dtype=np.int64), pa.int64()),
            "kind": pa.array(np.ones(nz, dtype=np.int64), pa.int64()),
            "off": pa.array(off, pa.int64()),
        })

    def mark(batch: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(len(batch), dtype=np.int64), pa.int64())
        return batch.append_column("kind", zeros).append_column("off", zeros)

    offsets = counts.groupby("user_id").map_groups(prefix, batch_format="pandas")
    return tagged.map_batches(mark, batch_format="pyarrow").union(offsets)


def _sketch_window(df: pd.DataFrame, bucket: int) -> pa.Table:
    """One positional window's (user_id, window_id, rank, value) rows ->
    its sketch row (``s1_seq`` summed sequentially in rank order)."""
    from ts_pymfe_ray.functions import sketch as sk

    df = df.sort_values("rank")
    v = np.ascontiguousarray(df["value"].to_numpy(), dtype=np.float64)
    m = sk.compute_window_sketches(v, bucket)[0]
    rows = {
        "user_id": pa.array([int(df["user_id"].iloc[0])], pa.int64()),
        "window_id": pa.array([int(df["window_id"].iloc[0])], pa.int64()),
    }
    for i, c in enumerate(sk.FIELDS):
        rows[c] = pa.array([float(m[i])], pa.float64())
    rows["s1_seq"] = pa.array([float(sk.seq_window_sums(v, bucket)[0])],
                              pa.float64())
    return pa.table(rows)


def _window_stats(df: pd.DataFrame, scale: float = 1.0) -> pd.DataFrame:
    """Sketch rows -> per-window count / mean / var, with ``s1`` summed
    sequentially (DuckDB's association) and mean / var divided by
    ``scale`` / ``scale**2`` (100 undoes the exact-cents stream)."""
    from ts_pymfe_ray.functions import sketch as sk

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
    from ts_pymfe_ray.functions import sketch as sk

    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "value"], span_hours)
    if cents:
        def to_cents(batch: pa.Table) -> pa.Table:
            v = np.round(batch.column("value").to_numpy() * 100)
            return batch.set_column(batch.schema.get_field_index("value"),
                                    "value", pa.array(v, pa.float64()))

        tagged = tagged.map_batches(to_cents, batch_format="pyarrow")

    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        offset = int(df.loc[df["kind"] == 1, "off"].iloc[0])
        uid = np.int64(df["user_id"].iloc[0])
        v = np.ascontiguousarray(df.loc[df["kind"] == 0, "value"].to_numpy(),
                                 dtype=np.float64)
        n = v.size
        first_w = -(-offset // bucket)          # first window starting in-span
        last_we = (offset + n) // bucket        # first window NOT ending in-span
        head_end = tail_start = n
        out = []
        if last_we > first_w:
            head_end = first_w * bucket - offset
            tail_start = last_we * bucket - offset
            xs = v[head_end:tail_start]
            m = sk.compute_window_sketches(xs, bucket)
            nw = m.shape[0]
            rows = {
                "user_id": np.full(nw, uid, dtype=np.int64),
                "window_id": np.arange(first_w, last_we, dtype=np.int64),
                "kind": np.zeros(nw, dtype=np.int64),
                "rank": np.zeros(nw, dtype=np.int64),
                "value": np.zeros(nw, dtype=np.float64),
            }
            for i, c in enumerate(sk.FIELDS):
                rows[c] = m[:, i]
            rows["s1_seq"] = sk.seq_window_sums(xs, bucket)
            out.append(pd.DataFrame(rows))
        b_local = np.concatenate(
            [np.arange(0, head_end), np.arange(tail_start, n)])
        ranks = offset + b_local
        rows = {
            "user_id": np.full(b_local.size, uid, dtype=np.int64),
            "window_id": (ranks // bucket).astype(np.int64),
            "kind": np.ones(b_local.size, dtype=np.int64),
            "rank": ranks.astype(np.int64),
            "value": v[b_local],
        }
        for c in _SKETCH_COLS:
            rows[c] = np.zeros(b_local.size, dtype=np.float64)
        out.append(pd.DataFrame(rows))
        return pd.concat(out, ignore_index=True)

    local_sk, boundary = _split_kinds(
        _span_partials(_join_span_offsets(tagged), "user_id", per_span),
        ["user_id", "window_id", *_SKETCH_COLS],
        ["user_id", "window_id", "rank", "value"])
    boundary_sk = boundary.groupby(["user_id", "window_id"]).map_groups(
        _sketch_window, fn_kwargs={"bucket": bucket}, batch_format="pandas")
    return local_sk.union(boundary_sk)


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
    from ts_pymfe_ray.functions import sketch as sk

    sks = _positional_window_sketches(sf_dir, bucket, cents=True)
    s1 = sk.FIELDS.index("s1")

    def add_coarse(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "coarse_id", pc.divide(batch.column("window_id"), factor))

    def merge_coarse(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("window_id")
        fine = df[list(sk.FIELDS)].to_numpy(dtype=np.float64)
        s1_seq = df["s1_seq"].to_numpy(dtype=np.float64)
        fine[:, s1] = s1_seq
        merged = sk.merge_adjacent(fine, factor)  # one coarse row
        # sums-of-sums with DuckDB's sequential association (the two-level
        # oracle aggregates fine-window s1 the same way)
        merged[0, s1] = sk.seq_window_sums(s1_seq, factor)[0]
        feats = sk.derive_features(merged)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], dtype=np.int64),
            "window_id": np.array([df["coarse_id"].iloc[0]], dtype=np.int64),
            "value_count": feats["count"].astype(np.int64),
            "value_mean": round_ha(feats["mean"] / 100.0),
            "value_var": round_ha(feats["var"] / 10000.0),
        })

    out = (
        sks.map_batches(add_coarse, batch_format="pyarrow")
        .groupby(["user_id", "coarse_id"])
        .map_groups(merge_coarse, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def q_events_user_window_acf1(sf_dir: str, bucket: int = 16) -> pd.DataFrame:
    """Window-local lag-1 autocorrelation from the comoment sketch,
    SQL-checked: sum((x_i-mu)(x_{i+1}-mu))/sum((x_i-mu)^2) over full
    windows — the exact per-window ACF of the tier ladder, sketched by
    the distributed positional-window engine."""
    from ts_pymfe_ray.functions import sketch as sk

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
    ONE (first/last valid) carry row per span take a per-user pass, whose
    group is O(active spans + boundary-run events), never the full
    history.  The DuckDB twin reproduces the policy with IGNORE NULLS
    window functions, validating the gap-fill path end-to-end."""
    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "value"], span_hours)

    # kind 0: resolved (rank, filled value); kind 1: unresolved missing
    # (rank); kind 2: span carry (first/last valid rank+value packed into
    # rank=first_rank, value=first_value, rank2/value2)
    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        offset = int(df.loc[df["kind"] == 1, "off"].iloc[0])
        ev = df[df["kind"] == 0]
        n = len(ev)
        uid = np.int64(df["user_id"].iloc[0])
        v = np.ascontiguousarray(ev["value"].to_numpy(), dtype=np.float64)
        missing = (ev["event_id"].to_numpy() % 10) == 0
        ranks = offset + np.arange(n, dtype=np.int64)
        out = []

        def rows(kind, r, val, r2=None, v2=None):
            nz = np.asarray(r).size
            out.append(pd.DataFrame({
                "user_id": np.full(nz, uid, dtype=np.int64),
                "kind": np.full(nz, kind, dtype=np.int64),
                "rank": np.asarray(r, dtype=np.int64),
                "value": np.asarray(val, dtype=np.float64),
                "rank2": (np.zeros(nz, dtype=np.int64) if r2 is None
                          else np.asarray(r2, dtype=np.int64)),
                "value2": (np.zeros(nz, dtype=np.float64) if v2 is None
                           else np.asarray(v2, dtype=np.float64)),
            }))

        valid = ~missing
        if not valid.any():
            # all-missing span: every event unresolved, no carry
            rows(1, ranks, v)
            return pd.concat(out, ignore_index=True)
        vloc = np.flatnonzero(valid)
        fv, lv = vloc[0], vloc[-1]
        rows(0, ranks[valid], v[valid])  # valid events pass through
        # interior missing: both neighbors in-span -> the oracle expression
        interior = missing & (np.arange(n) > fv) & (np.arange(n) < lv)
        if interior.any():
            pos = np.flatnonzero(interior)
            pi = vloc[np.searchsorted(vloc, pos, side="right") - 1]
            ni = vloc[np.searchsorted(vloc, pos, side="left")]
            pv, nv = v[pi], v[ni]
            gp = ranks[pos].astype(np.float64)
            gpi = ranks[pi].astype(np.float64)
            gni = ranks[ni].astype(np.float64)
            filled = pv + (nv - pv) * (gp - gpi) / (gni - gpi)
            rows(0, ranks[pos], filled)
        # head/tail missing runs: neighbors live in other spans
        edge = missing & ~interior
        if edge.any():
            pos = np.flatnonzero(edge)
            rows(1, ranks[pos], v[pos])
        # one carry row: the span's first and last valid (rank, value)
        rows(2, [ranks[fv]], [v[fv]], [ranks[lv]], [v[lv]])
        return pd.concat(out, ignore_index=True)

    resolved, carry = _split_kinds(
        _span_partials(_join_span_offsets(tagged), "user_id", per_span),
        ["user_id", "rank", "value"])

    def resolve_user(df: pd.DataFrame) -> pa.Table:
        ca = df[df["kind"] == 2]
        # a user with no valid value anywhere keeps its missing events
        # unfilled: emit nothing
        un = df[df["kind"] == 1] if len(ca) else df.iloc[:0]
        # nearest valid BEFORE rank p is always some span's LAST valid;
        # nearest valid AFTER is some span's FIRST valid (no valids exist
        # between a span's last valid and the next span's first)
        first_r = ca["rank"].to_numpy(dtype=np.int64)
        first_v = ca["value"].to_numpy(dtype=np.float64)
        last_r = ca["rank2"].to_numpy(dtype=np.int64)
        last_v = ca["value2"].to_numpy(dtype=np.float64)
        o1 = np.argsort(first_r)
        first_r, first_v = first_r[o1], first_v[o1]
        o2 = np.argsort(last_r)
        last_r, last_v = last_r[o2], last_v[o2]
        p = un["rank"].to_numpy(dtype=np.int64)
        ip = np.searchsorted(last_r, p, side="left") - 1   # last_r[ip] < p
        iq = np.searchsorted(first_r, p, side="right")     # first_r[iq] > p
        has_p = ip >= 0
        has_n = iq < first_r.size
        gpi = last_r[np.clip(ip, 0, last_r.size - 1)].astype(np.float64)
        gni = first_r[np.clip(iq, 0, first_r.size - 1)].astype(np.float64)
        pv = last_v[np.clip(ip, 0, last_r.size - 1)]
        nv = first_v[np.clip(iq, 0, first_r.size - 1)]
        with np.errstate(invalid="ignore", divide="ignore"):
            interp = pv + (nv - pv) * (p.astype(np.float64) - gpi) / (gni - gpi)
        filled = np.where(~has_p, nv, np.where(~has_n, pv, interp))
        return pa.table({
            "user_id": pa.array(un["user_id"].to_numpy(dtype=np.int64), pa.int64()),
            "rank": pa.array(p, pa.int64()),
            "value": pa.array(filled.astype(np.float64), pa.float64()),
        })

    fixed = carry.groupby("user_id").map_groups(resolve_user, batch_format="pandas")

    def add_window(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "window_id", pc.divide(batch.column("rank"), bucket))

    sks = (
        resolved.union(fixed)
        .map_batches(add_window, batch_format="pyarrow")
        .groupby(["user_id", "window_id"])
        .map_groups(_sketch_window, fn_kwargs={"bucket": bucket},
                    batch_format="pandas")
        .to_pandas()
    )
    out = _window_stats(sks).drop(columns="value_var")
    return out.sort_values(["user_id", "window_id"]).reset_index(drop=True)


def q_events_user_window_moments(sf_dir: str, bucket: int = 16) -> pd.DataFrame:
    """Higher-moment sketch algebra SQL-checked: per-window skewness and
    kurtosis derived from the SAME (s1..s4) power sums the tier ladder
    stores (via the distributed positional-window engine), converted to
    DuckDB's bias-corrected (e1071 type-2) definitions for the oracle
    comparison."""
    from ts_pymfe_ray.functions import sketch as sk

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

    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts_us"].to_numpy()
        brk = np.concatenate([[True], np.diff(ts) > gap_us])
        sid = np.cumsum(brk) - 1
        n_s = int(sid[-1]) + 1
        counts = np.bincount(sid)
        bounds = np.concatenate([np.flatnonzero(brk), [ts.size]])
        s_first = ts[bounds[:-1]]
        s_last = ts[bounds[1:] - 1]
        spans = s_last - s_first
        interior = slice(1, n_s - 1)
        return pd.DataFrame(
            {
                "user_id": [np.int64(df["user_id"].iloc[0])],
                "span_id": [np.int64(df["span_id"].iloc[0])],
                "n_events": [np.int64(ts.size)],
                "f_cnt": [np.int64(counts[0])],
                "f_first": [s_first[0]],
                "f_last": [s_last[0]],
                "l_cnt": [np.int64(counts[-1])],
                "l_first": [s_first[-1]],
                "l_last": [s_last[-1]],
                "single": [n_s == 1],
                "int_n": [np.int64(max(0, n_s - 2))],
                "int_span_sum": [np.int64(spans[interior].sum() if n_s > 2 else 0)],
                "int_max": [np.int64(counts[interior].max() if n_s > 2 else 0)],
            }
        )

    def merge_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("span_id")
        n_sess = 0
        max_cnt = 0
        span_sum = 0
        open_cnt = open_first = open_last = None

        def finalize():
            nonlocal n_sess, max_cnt, span_sum
            n_sess += 1
            max_cnt = max(max_cnt, open_cnt)
            span_sum += open_last - open_first

        for row in df.itertuples(index=False):
            if open_cnt is not None and row.f_first - open_last <= gap_us:
                open_cnt += row.f_cnt  # boundary session continues
                open_last = row.f_last
            else:
                if open_cnt is not None:
                    finalize()
                open_cnt, open_first, open_last = row.f_cnt, row.f_first, row.f_last
            if not row.single:
                finalize()  # >1 session in span: the first one closed in-span
                n_sess += int(row.int_n)
                span_sum += int(row.int_span_sum)
                max_cnt = max(max_cnt, int(row.int_max))
                open_cnt, open_first, open_last = row.l_cnt, row.l_first, row.l_last
        finalize()
        n_events = int(df["n_events"].sum())
        return pd.DataFrame(
            {
                "user_id": [np.int64(df["user_id"].iloc[0])],
                "n_events": [np.int64(n_events)],
                "n_sessions": [np.int64(n_sess)],
                "max_session_events": [np.int64(max_cnt)],
                "avg_events_per_session": [round_ha(n_events / n_sess)],
                "avg_session_sec": [round_ha(int(span_sum) / n_sess / 1_000_000.0)],
            }
        )

    tagged = _span_tagged(sf_dir, ["user_id", "event_id"], span_hours)
    out = (
        _span_partials(tagged, "user_id", per_span)
        .groupby("user_id")
        .map_groups(merge_user, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def q_events_asof_purchase_carry(sf_dir: str,
                                 span_hours: int = _SPAN_HOURS) -> pd.DataFrame:
    """AS-OF JOIN (strictly-before LOCF match): every 'click' event joins
    the latest 'purchase' of the SAME user ordered by (ts, event_id).
    Boundary-carry: clicks resolve against in-span purchases locally;
    only the UNRESOLVED clicks (no earlier purchase in their own span) and
    one last-purchase carry row per span take the second, per-user pass.
    Resolved rows stream straight through — a user's full history is
    never co-located (pinned against a per-user pandas reference by
    tests/test_pipeline.py::test_asof_carry_matches_per_user)."""
    # kind: 0 = resolved click, 1 = unresolved click, 2 = span purchase carry
    def per_span(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts_us"].to_numpy()
        ids = df["event_id"].to_numpy()
        et = df["event_type"].to_numpy()
        is_p = et == "purchase"
        idx = np.arange(ts.size)
        last_p = np.maximum.accumulate(np.where(is_p, idx, -1))
        before = np.concatenate([[-1], last_p[:-1]])
        click = np.flatnonzero(et == "click")
        m = before[click]
        has = m >= 0
        out = {
            "user_id": np.full(click.size, np.int64(df["user_id"].iloc[0])),
            "span_id": np.full(click.size, np.int64(df["span_id"].iloc[0])),
            "kind": np.where(has, 0, 1).astype(np.int64),
            "event_id": ids[click].astype(np.int64),
            "ts_us": ts[click],
            "purchase_event_id": np.where(has, ids[np.maximum(m, 0)], -1).astype(np.int64),
            "lag_us": np.where(has, ts[click] - ts[np.maximum(m, 0)], -1).astype(np.int64),
        }
        res = pd.DataFrame(out)
        if is_p.any():
            j = int(np.flatnonzero(is_p)[-1])  # last purchase row of the span
            carry = pd.DataFrame(
                {
                    "user_id": [np.int64(df["user_id"].iloc[0])],
                    "span_id": [np.int64(df["span_id"].iloc[0])],
                    "kind": [np.int64(2)],
                    "event_id": [np.int64(ids[j])],
                    "ts_us": [np.int64(ts[j])],
                    "purchase_event_id": [np.int64(-1)],
                    "lag_us": [np.int64(-1)],
                }
            )
            res = pd.concat([res, carry], ignore_index=True)
        return res

    tagged = _span_tagged(sf_dir, ["user_id", "event_id", "event_type"], span_hours)
    resolved, carry = _split_kinds(_span_partials(tagged, "user_id", per_span),
                                   ["event_id", "purchase_event_id", "lag_us"])

    def merge_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["span_id", "kind"])  # clicks of a span before its carry
        last_id, last_ts = -1, -1
        ev, pid, lag = [], [], []
        cur_span = None
        pend_id, pend_ts = -1, -1
        for row in df.itertuples(index=False):
            if cur_span != row.span_id:
                # entering a new span: the previous span's carry activates
                if pend_id != -1:
                    last_id, last_ts = pend_id, pend_ts
                    pend_id = -1
                cur_span = row.span_id
            if row.kind == 1:
                ev.append(row.event_id)
                pid.append(last_id)
                lag.append(row.ts_us - last_ts if last_id != -1 else -1)
            else:  # kind 2: becomes visible from the NEXT span on
                pend_id, pend_ts = row.event_id, row.ts_us
        return pd.DataFrame(
            {
                "event_id": np.array(ev, dtype=np.int64),
                "purchase_event_id": np.array(pid, dtype=np.int64),
                "lag_us": np.array(lag, dtype=np.int64),
            }
        )

    fixed = carry.groupby("user_id").map_groups(merge_user, batch_format="pandas")
    out = resolved.union(fixed).to_pandas()
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

    The nearest-lag is vectorized: with sorted in-group click times, the
    nearest in-band click is the insertion-point predecessor or successor
    clipped to the band window — exact integer math, no per-error loop.
    Output: per error event, the number of in-band clicks and the nearest
    click's absolute lag."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    band_us = band_sec * 1_000_000
    BIG = np.int64(2**62)

    def emit(batch: pa.Table) -> pa.Table:
        ts_us = _ts_us(batch.column("ts")).to_numpy()
        is_err = pc.equal(batch.column("event_type"), "error").to_numpy(
            zero_copy_only=False)
        is_clk = pc.equal(batch.column("event_type"), "click").to_numpy(
            zero_copy_only=False)
        uid = batch.column("user_id").to_numpy()
        eid = batch.column("event_id").to_numpy()
        b = ts_us // band_us
        parts_u, parts_b, parts_k, parts_t, parts_e = [], [], [], [], []
        e = np.flatnonzero(is_err)
        parts_u.append(uid[e]); parts_b.append(b[e])
        parts_k.append(np.ones(e.size, dtype=np.int64))
        parts_t.append(ts_us[e]); parts_e.append(eid[e])
        c = np.flatnonzero(is_clk)
        for d in (-1, 0, 1):  # replicate clicks to the adjacent buckets
            parts_u.append(uid[c]); parts_b.append(b[c] + d)
            parts_k.append(np.zeros(c.size, dtype=np.int64))
            parts_t.append(ts_us[c]); parts_e.append(eid[c])
        return pa.table({
            "user_id": pa.array(np.concatenate(parts_u), pa.int64()),
            "bucket": pa.array(np.concatenate(parts_b), pa.int64()),
            "kind": pa.array(np.concatenate(parts_k), pa.int64()),
            "ts_us": pa.array(np.concatenate(parts_t), pa.int64()),
            "event_id": pa.array(np.concatenate(parts_e), pa.int64()),
        })

    def resolve(df: pd.DataFrame) -> pa.Table:
        err = df[df["kind"] == 1]
        if len(err) == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "n_clicks_in_band": pa.array([], pa.int64()),
                "nearest_click_lag_us": pa.array([], pa.int64()),
            })
        e_ts = err["ts_us"].to_numpy(dtype=np.int64)
        e_id = err["event_id"].to_numpy(dtype=np.int64)
        click_ts = np.sort(df.loc[df["kind"] == 0, "ts_us"].to_numpy(dtype=np.int64))
        if click_ts.size == 0:
            n_in = np.zeros(e_ts.size, dtype=np.int64)
            nearest = np.full(e_ts.size, -1, dtype=np.int64)
        else:
            lo = np.searchsorted(click_ts, e_ts - band_us, side="left")
            hi = np.searchsorted(click_ts, e_ts + band_us, side="right")
            n_in = (hi - lo).astype(np.int64)
            pos = np.searchsorted(click_ts, e_ts, side="left")
            prev_d = np.where(pos > lo,
                              e_ts - click_ts[np.maximum(pos - 1, 0)], BIG)
            next_d = np.where(pos < hi,
                              click_ts[np.minimum(pos, click_ts.size - 1)] - e_ts,
                              BIG)
            nearest = np.where(n_in > 0, np.minimum(prev_d, next_d),
                               np.int64(-1)).astype(np.int64)
        return pa.table({
            "event_id": pa.array(e_id, pa.int64()),
            "n_clicks_in_band": pa.array(n_in, pa.int64()),
            "nearest_click_lag_us": pa.array(nearest, pa.int64()),
        })

    out = (
        ds.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "bucket"])
        .map_groups(resolve, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_props_extract(sf_dir: str) -> pd.DataFrame:
    """SEMI-STRUCTURED EXTRACTION: parse the JSON ``props`` column and
    aggregate the extracted key per event_type (the metadata-column scan
    every training-data pipeline has).  json.loads per row inside
    map_batches with partial aggregation — only (type, partial-sums) rows
    leave the task."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def combiner(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (json.loads(p)["k"] for p in batch.column("props").to_pylist()),
            dtype=np.int64,
        )
        df = pd.DataFrame({"event_type": batch.column("event_type").to_pylist(), "k": ks})
        g = df.groupby("event_type").agg(
            n=("k", "size"), s=("k", "sum"), mn=("k", "min"), mx=("k", "max")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(combiner, batch_format="pyarrow").to_pandas()
    g = partials.groupby("event_type").agg(
        n=("n", "sum"), s=("s", "sum"), mn=("mn", "min"), mx=("mx", "max")
    ).reset_index()
    out = pd.DataFrame({
        "event_type": g["event_type"],
        "n_events": g["n"].astype("int64"),
        "sum_k": g["s"].astype("int64"),
        "min_k": g["mn"].astype("int64"),
        "max_k": g["mx"].astype("int64"),
        "mean_k": round_ha((g["s"] / g["n"]).to_numpy()),
    })
    return out.sort_values("event_type").reset_index(drop=True)


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


def q_documents_heavy_hitters(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Exact corpus-level heavy hitters: top-k words by frequency.

    Per-batch np.unique collapses each batch to its distinct words before
    the shuffle (the combiner bounds shuffle rows by vocabulary, not corpus
    size), the per-word merge is a distributed groupby, and only k rows per
    output block reach the driver — the q_events_user_topk shape over text."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def combiner(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        if not texts:  # empty block: keep the (string, int64) schema
            return pa.table({"word": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        words = np.concatenate([np.array(t.split(" ")) for t in texts])
        w, c = np.unique(words, return_counts=True)
        return pa.table({"word": pa.array(w.tolist(), pa.string()),
                         "c": pa.array(c, pa.int64())})

    counts = (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("c"))
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["sum(c)", "word"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = counts.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    g = partials.rename(columns={"sum(c)": "cnt"})
    g = g.sort_values(["cnt", "word"], ascending=[False, True]).head(k)
    g["cnt"] = g["cnt"].astype("int64")
    return g[["word", "cnt"]].reset_index(drop=True)


def q_source_top_terms(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Per-source top-k vocabulary terms (the corpus-profiling report a
    curation run uses to spot boilerplate and domain drift).

    Same distributed shape as the global heavy hitters: per-batch
    np.unique collapses to (source, word) count rows (shuffle bounded by
    vocabulary x sources, never corpus size), a groupby merges counts,
    and each output block keeps only its per-source top-k candidates —
    the union of per-block top-ks provably contains the true per-source
    top-k, so the driver merge sees <= k x blocks x sources tiny rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def combiner(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        if not texts:
            return pa.table({"source": pa.array([], pa.string()),
                             "word": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        srcs = batch.column("source").to_pylist()
        words = [t.split(" ") for t in texts]
        src_rep = np.repeat(np.array(srcs, dtype=object),
                            [len(w) for w in words])
        df = pd.DataFrame({"source": src_rep,
                           "word": np.concatenate([np.array(w, dtype=object)
                                                   for w in words])})
        g = df.groupby(["source", "word"], observed=True).size() \
              .reset_index(name="c")
        return pa.table({"source": pa.array(g["source"].tolist(), pa.string()),
                         "word": pa.array(g["word"].tolist(), pa.string()),
                         "c": pa.array(g["c"].to_numpy(), pa.int64())})

    counts = (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby(["source", "word"])
        .aggregate(Sum("c"))
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["source", "sum(c)", "word"],
                            ascending=[True, False, True])
        df = df.groupby("source", group_keys=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = counts.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    g = partials.rename(columns={"sum(c)": "cnt"})
    g = g.sort_values(["source", "cnt", "word"], ascending=[True, False, True])
    g = g.groupby("source", group_keys=False).head(k).reset_index(drop=True)
    g["rank"] = g.groupby("source").cumcount() + 1
    g["cnt"] = g["cnt"].astype("int64")
    g["rank"] = g["rank"].astype("int64")
    return g[["source", "rank", "word", "cnt"]].reset_index(drop=True)


def _length_histogram(sf_dir: str) -> pd.DataFrame:
    """Distributed exact value-count histogram of n_chars per source.

    Shuffle rows are bounded by (sources x distinct integer lengths) — the
    value DOMAIN, not the corpus — which is what makes exact distributed
    order statistics tractable for integer-valued metrics at any scale."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def combiner(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["source", "n_chars"], observed=True).size().rename("c")
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    return (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby(["source", "n_chars"])
        .aggregate(Sum("c"))
        .to_pandas()
        .rename(columns={"sum(c)": "c"})
    )


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
        df = batch.to_pandas()
        t = np.array([lut[s] for s in df["source"]], dtype=np.int64)
        n = df["n_chars"].to_numpy()
        bucket = (n > t[:, 0]).astype(np.int64) + (n > t[:, 1]) + (n > t[:, 2])
        df["bucket"] = bucket
        g = df.groupby(["source", "bucket"], observed=True).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(bucketize, batch_format="pyarrow").to_pandas()
    g = partials.groupby(["source", "bucket"]).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
    ).reset_index()
    g["n_docs"] = g["n_docs"].astype("int64")
    g["sum_chars"] = g["sum_chars"].astype("int64")
    return g.sort_values(["source", "bucket"]).reset_index(drop=True)


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
        df = pd.DataFrame({"source": batch.column("source").to_pylist(),
                           "split": split,
                           "n_chars": batch.column("n_chars").to_numpy()})
        g = df.groupby(["source", "split"], observed=True).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(assign, batch_format="pyarrow").to_pandas()
    g = partials.groupby(["source", "split"]).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
    ).reset_index()
    g["n_docs"] = g["n_docs"].astype("int64")
    g["sum_chars"] = g["sum_chars"].astype("int64")
    return g.sort_values(["source", "split"]).reset_index(drop=True)


# ------------------------------------------------- embedding-space operators


def _load_centroids(sf_dir: str, k: int) -> np.ndarray:
    """Deterministic init: the embeddings of vec_id < k, pushdown-filtered
    so only k rows leave storage."""
    import pyarrow.compute as pc

    tbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < k,
    ).to_pandas().sort_values("vec_id")
    return np.array(tbl["embedding"].tolist(), dtype=np.float64)


def _kmeans_pass(sf_dir: str, cents: np.ndarray, want_sums: bool):
    """One streaming Lloyd pass: cosine assignment via a single GEMM per
    batch against the broadcast centroid matrix; emits per-cluster partial
    (count, inertia[, vector sums]) — K rows (x dim) per batch, never the
    corpus.  Ties pick the lowest centroid id (argmax-first == SQL
    ORDER BY sim DESC, cid)."""
    K, dim = cents.shape
    cn = cents / np.maximum(np.linalg.norm(cents, axis=1, keepdims=True), 1e-12)

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        if mat.size == 0:  # empty block: (0,) would break the GEMM
            mat = mat.reshape(0, dim)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ cn.T) / norms[:, None]
        assign = np.argmax(sims, axis=1)
        cnt = np.bincount(assign, minlength=K)
        inert = np.bincount(
            assign, weights=1.0 - sims[np.arange(mat.shape[0]), assign], minlength=K
        )
        cols = {"cluster": pa.array(np.arange(K), pa.int64()),
                "n": pa.array(cnt, pa.int64()),
                "inertia": pa.array(inert, pa.float64())}
        if want_sums:
            sums = np.zeros((K, dim))
            np.add.at(sums, assign, mat)
            for j in range(dim):
                cols[f"s{j}"] = pa.array(sums[:, j], pa.float64())
        return pa.table(cols)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(partial, batch_format="pyarrow").to_pandas()


def q_embeddings_kmeans_step(sf_dir: str, k: int = 8) -> pd.DataFrame:
    """One Lloyd assignment step of spherical k-means (cosine), centroids =
    first k embeddings: per-cluster member count and inertia (sum of
    1 - cosine).  SQL-oracled — the iterative variant shares this exact
    machinery per pass."""
    cents = _load_centroids(sf_dir, k)
    p = _kmeans_pass(sf_dir, cents, want_sums=False)
    g = p.groupby("cluster").agg(n_vecs=("n", "sum"), inertia=("inertia", "sum")).reset_index()
    g = g[g["n_vecs"] > 0]
    g["n_vecs"] = g["n_vecs"].astype("int64")
    g["inertia"] = round_ha(g["inertia"].to_numpy())
    return g.sort_values("cluster").reset_index(drop=True)


def q_embeddings_kmeans(sf_dir: str, k: int = 8, iters: int = 5) -> pd.DataFrame:
    """Distributed spherical k-means, `iters` Lloyd iterations: each pass
    streams the corpus once (GEMM assignment per batch), reduces K x (dim+2)
    partial rows, and the driver recombines centroids (empty clusters keep
    their previous centroid).  Hash-exact against a chained step-CTE DuckDB
    twin (five a->m->c CTE rounds in __ray_entry__.oracle_sql)."""
    cents = _load_centroids(sf_dir, k)
    dim = cents.shape[1]
    scols = [f"s{j}" for j in range(dim)]
    for _ in range(iters):
        p = _kmeans_pass(sf_dir, cents, want_sums=True)
        g = p.groupby("cluster")[["n"] + scols].sum()
        cnt = g["n"].to_numpy()
        sums = g[scols].to_numpy()
        nz = cnt > 0
        cents = cents.copy()
        cents[nz] = sums[nz] / cnt[nz, None]
    p = _kmeans_pass(sf_dir, cents, want_sums=False)
    g = p.groupby("cluster").agg(n_vecs=("n", "sum"), inertia=("inertia", "sum")).reset_index()
    g = g[g["n_vecs"] > 0]
    g["n_vecs"] = g["n_vecs"].astype("int64")
    g["inertia"] = round_ha(g["inertia"].to_numpy())
    return g.sort_values("cluster").reset_index(drop=True)


def q_embeddings_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Element-wise per-label centroid (class prototype) in long format
    (label, pos, mean_val): per-batch partial sums collapse each batch to
    one (labels x dim) block, so the merge is label-domain-sized."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch.column("label").to_numpy()
        if labels.size == 0:  # empty block: keep the typed schema
            return pa.table({"label": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        u, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((u.size, mat.shape[1]))
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv)
        dim = mat.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(u, dim).astype(np.int64), pa.int64()),
            "pos": pa.array(np.tile(np.arange(1, dim + 1), u.size), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(cnt, dim), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = partials.groupby(["label", "pos"]).agg(s=("s", "sum"), n=("n", "sum")).reset_index()
    out = pd.DataFrame({
        "label": g["label"].astype("int64"),
        "pos": g["pos"].astype("int64"),
        "mean_val": round_ha((g["s"] / g["n"]).to_numpy()),
    })
    return out.sort_values(["label", "pos"]).reset_index(drop=True)


def q_documents_longest_per_source(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Per-group top-k ranking (the PARTITION BY ... ORDER BY ... LIMIT k
    idiom): the k longest docs per source, ties broken by doc_id.  Partial
    top-k inside every batch bounds the merge at k rows per (batch,
    source) — the corpus never co-locates per group."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        return pa.Table.from_pandas(df.groupby("source", observed=True).head(k),
                                    preserve_index=False)

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    p = p.sort_values(["source", "n_chars", "doc_id"],
                      ascending=[True, False, True])
    out = p.groupby("source", observed=True).head(k).copy()
    out["rank"] = out.groupby("source").cumcount() + 1
    out = out[["source", "rank", "doc_id", "n_chars"]]
    for c in ("rank", "doc_id", "n_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["source", "rank"]).reset_index(drop=True)


def q_documents_mix_uniform(sf_dir: str) -> pd.DataFrame:
    """Data mixing: downsample every source to the SMALLEST source's size
    (uniform mixing proportions) with the deterministic md5 coin — the
    two-pass mixing step a pretraining pipeline runs to hit target source
    weights.  Pass 1 is a bounded-domain count; pass 2 broadcasts the tiny
    integer per-mille rate table into a map-side filter.  Rates are
    INTEGER arithmetic (1000 * min_cnt // cnt) so the SQL twin is exact
    with no float thresholds."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def count_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("source", observed=True).size().rename("c").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .to_pandas().groupby("source")["c"].sum()
    )
    min_cnt = int(counts.min())
    rate = {s: (1000 * min_cnt) // int(c) for s, c in counts.items()}

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
