"""Flagship pipelines.

1. :func:`run_rollup` — the headline retention-ladder job: sequences ->
   gap-fill -> raw/10x/100x window sketches -> Gorilla-compressed tier rows
   -> partitioned parquet + manifest (exact resume).  Map-only: zero
   shuffles (SURVEY.md §7.3 — series are row-atomic).
2. :func:`run_features` — per-series ts-pymfe feature extraction (the
   fit+extract engine) -> wide parquet.
3. :func:`rollup_by_source` — cross-series continuous aggregate:
   partial sketches per (source, tier, window_id) combined inside each
   batch (combiner), then one small groupby merge (partial+final pattern;
   the only shuffle in the engine, over pre-aggregated rows).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

import ray.data

from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.sources.sequences import list_parquet_files, read_sequences, shard_files
from ts_pymfe_ray.stages.features import FeatureStage
from ts_pymfe_ray.stages.rollup import RollupStage, split_long_rows
from ts_pymfe_ray.state import manifest as mf

DEFAULT_OUT_ROOT = "/tmp/ts_pymfe_ray_out"


def _shard_workers(num_plans: int) -> int:
    """Concurrent shard executions: overlap hides per-execution latency,
    but each execution needs enough CPUs to stream — below ~4 CPUs per
    concurrent execution the overlap thrashes instead of helping."""
    import ray

    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    return max(1, min(8, num_plans, ncpu // 4))


def _input_counts(files: list[str], max_chunk_tokens: int) -> dict[str, tuple[int, int]]:
    """Per-FILE (tier rows, raw token count), computed from the input's
    n_tok column in ONE distributed pass — rows per doc are 3 tiers x its
    hot-split chunk count, so shard commit metadata never requires
    re-reading the written output onto the driver (at 10^9 docs per shard
    that pull was the scale liability), and a single execution up front
    does not contend with the overlapped shard runs."""
    from ts_pymfe_ray.stages.rollup import RAW_BUCKET, TIER_FACTORS

    align = RAW_BUCKET * TIER_FACTORS["100x"]
    max_chunk = max(align, (max_chunk_tokens // align) * align)
    n_tiers = len(TIER_FACTORS)

    def part(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nt = batch.column("n_tok").to_numpy().astype(np.int64)
        chunks = np.where(nt > max_chunk, -(-nt // max_chunk), 1)
        df = pd.DataFrame({"path": batch.column("path").to_pylist(),
                           "rows": chunks * n_tiers, "tokens": nt})
        g = df.groupby("path", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    p = (
        ray.data.read_parquet(files, columns=["n_tok"], include_paths=True)
        .map_batches(part, batch_format="pyarrow")
        .to_pandas()
        .groupby("path")
        .sum()
    )
    out: dict[str, tuple[int, int]] = {}
    for path, row in p.iterrows():
        out[os.path.normpath(str(path))] = (int(row["rows"]), int(row["tokens"]))
    return out


def run_rollup(
    input_dir: str,
    out_dir: str,
    num_shards: int = 8,
    resume: bool = True,
    batch_size: int = 256,
    num_parts: int = 64,
    store_tokens: bool = True,
    max_chunk_tokens: int = 1_048_576,
    max_shards: int | None = None,
    compressor_actors: int | None = None,
) -> dict:
    """Tier-ladder rollup with exact shard-level checkpoint/resume.

    ``max_shards`` limits how many (uncommitted) shards to process this
    call — used by the kill/resume test to simulate a mid-job crash.

    ``compressor_actors``: run the sketch+Gorilla stage as an actor pool of
    that size (per-worker codec/scratch state built once — the north
    rule's per-partition compressor-state shape).  Default None = stateless
    tasks, which measure slightly faster in single-node local mode; on a
    real multi-node cluster the actor pool amortizes per-worker setup.
    """
    files = list_parquet_files(input_dir)
    shards = shard_files(files, num_shards)
    config = {
        "job": "rollup",
        "num_parts": num_parts,
        "store_tokens": store_tokens,
        "max_chunk_tokens": max_chunk_tokens,
    }
    lock = mf.AttemptLock(out_dir).acquire()
    try:
        return _run_rollup_locked(
            input_dir, out_dir, shards, config, resume, batch_size, num_parts,
            store_tokens, max_chunk_tokens, max_shards, compressor_actors,
        )
    finally:
        lock.release()


def _run_rollup_locked(
    input_dir, out_dir, shards, config, resume, batch_size, num_parts,
    store_tokens, max_chunk_tokens, max_shards, compressor_actors,
):
    if resume:
        mf.clean_uncommitted(out_dir, len(shards))
    committed = mf.load_committed(out_dir) if resume else {}
    stage = RollupStage(num_parts=num_parts, store_tokens=store_tokens)

    import threading
    from concurrent.futures import ThreadPoolExecutor

    commit_lock = threading.Lock()

    def build(shard: list[str]):
        ds = read_sequences(shard)
        ds = ds.map_batches(
            split_long_rows,
            batch_format="pyarrow",
            fn_kwargs={"max_chunk_tokens": max_chunk_tokens},
        )
        if compressor_actors:
            return ds.map_batches(
                RollupStage,
                fn_constructor_kwargs={"num_parts": num_parts, "store_tokens": store_tokens},
                concurrency=compressor_actors,
                batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
            )
        return ds.map_batches(
            stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
        )

    def execute(sid: int, shard: list[str], ds) -> None:
        t0 = time.perf_counter()
        out_shard = mf.shard_dir(out_dir, sid)
        # hive-partition by tier inside each shard so the retention ladder
        # can age out a whole tier with a directory delete (state/retention)
        ds.write_parquet(out_shard, partition_cols=["tier"])
        counts = counts_fut.result()
        rows = sum(counts.get(os.path.normpath(f), (0, 0))[0] for f in shard)
        tokens = sum(counts.get(os.path.normpath(f), (0, 0))[1] for f in shard)
        with commit_lock:
            mf.commit_shard(
                out_dir, sid, shard, config, rows, tokens,
                (time.perf_counter() - t0) * 1000.0,
            )

    def _stale(sid: int, shard: list[str]) -> bool:
        """A committed shard whose input-file list changed (files appended
        or resharded) must recompute — its manifest line no longer
        describes the data it would produce."""
        rec = committed.get(sid)
        return rec is not None and rec.get("input_files") != sorted(shard)

    todo = [(sid, shard) for sid, shard in enumerate(shards)
            if shard and (sid not in committed or _stale(sid, shard))]
    for sid, shard in todo:
        if _stale(sid, shard):
            import shutil as _sh

            _sh.rmtree(mf.shard_dir(out_dir, sid), ignore_errors=True)
    if max_shards is not None:
        todo = todo[:max_shards]
    # one tiny n_tok-column pass for commit metadata, overlapped with the
    # shard executions (commits block on it only at commit time)
    counts_pool = ThreadPoolExecutor(max_workers=1)
    counts_fut = (counts_pool.submit(
        _input_counts, [f for _, s in todo for f in s], max_chunk_tokens)
        if todo else None)
    # Overlap shard executions (each is an independent streaming Dataset
    # run; Ray shares the CPU pool) so one shard's read fills another's
    # compute gap.  Plans are BUILT serially (lazy, cheap — avoids
    # concurrent lazy-import races in filesystem resolution) and EXECUTED
    # concurrently.  Checkpoint semantics unchanged: a shard commits only
    # after its write fully completes.
    plans = [(sid, shard, build(shard)) for sid, shard in todo]
    workers = _shard_workers(len(plans))
    if len(plans) == 1 or workers == 1:
        for p in plans:
            execute(*p)
    elif plans:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(execute, *p) for p in plans]
            for f in futs:
                f.result()
    return {
        "out_dir": out_dir,
        "committed": len(mf.load_committed(out_dir)),
        "num_shards": len(shards),
        "fingerprint": mf.manifest_fingerprint(out_dir),
    }


def run_features(
    input_dir: str,
    out_dir: str,
    groups: tuple[str, ...] | None = None,
    max_cost: str = "medium",
    num_shards: int = 4,
    resume: bool = True,
    batch_size: int = 256,
    concurrency: int | None = None,
) -> dict:
    """Per-series feature extraction.  Heavy kernel packs (GP / model fits)
    run the stage as an actor pool (``concurrency``) so per-actor setup is
    amortized; cheap/medium packs run as stateless tasks.

    ``batch_size`` 256 amortizes per-task scheduling over the ~ms/row
    kernels (64 -> 256 measured 18.6s -> ~14s at sf0.1/32cpus) while
    keeping worst-case batches tens of MB; drop it for HEAVY packs
    (seconds/row — small batches keep the pool load-balanced)."""
    files = list_parquet_files(input_dir)
    shards = shard_files(files, num_shards)
    config = {"job": "features", "groups": sorted(groups) if groups else None, "max_cost": max_cost}
    lock = mf.AttemptLock(out_dir).acquire()
    try:
        return _run_features_locked(
            out_dir, shards, config, resume, batch_size, groups, max_cost, concurrency,
        )
    finally:
        lock.release()


def _run_features_locked(out_dir, shards, config, resume, batch_size, groups, max_cost, concurrency):
    if resume:
        mf.clean_uncommitted(out_dir, len(shards))
    committed = mf.load_committed(out_dir) if resume else {}

    import threading
    from concurrent.futures import ThreadPoolExecutor

    commit_lock = threading.Lock()

    def build(shard: list[str]):
        ds = read_sequences(shard)
        kwargs: dict = {"batch_format": "pyarrow", "zero_copy_batch": True, "batch_size": batch_size}
        if concurrency or max_cost == "heavy":
            # heavy packs (GP / model fits) -> actor pool: per-actor setup
            # (kernel plan, sim tables) happens once per worker; size the
            # pool to the cluster, leaving headroom for read/write tasks
            if concurrency:
                kwargs["concurrency"] = concurrency
            else:
                import ray as _ray

                ncpu = int(_ray.cluster_resources().get("CPU", 8))
                kwargs["concurrency"] = max(4, ncpu - 4)
            return ds.map_batches(
                FeatureStage, fn_constructor_kwargs={"groups": groups, "max_cost": max_cost}, **kwargs
            )
        return ds.map_batches(FeatureStage(groups=groups, max_cost=max_cost), **kwargs)

    def execute(sid: int, shard: list[str], ds) -> None:
        t0 = time.perf_counter()
        out_shard = mf.shard_dir(out_dir, sid)
        ds.write_parquet(out_shard)
        rows = pads.dataset(out_shard, format="parquet").count_rows()
        with commit_lock:
            mf.commit_shard(out_dir, sid, shard, config, rows, 0,
                            (time.perf_counter() - t0) * 1000.0)

    def _stale(sid: int, shard: list[str]) -> bool:
        rec = committed.get(sid)
        return rec is not None and rec.get("input_files") != sorted(shard)

    todo = [(sid, shard) for sid, shard in enumerate(shards)
            if shard and (sid not in committed or _stale(sid, shard))]
    for sid, shard in todo:
        if _stale(sid, shard):
            import shutil as _sh

            _sh.rmtree(mf.shard_dir(out_dir, sid), ignore_errors=True)
    plans = [(sid, shard, build(shard)) for sid, shard in todo]
    workers = _shard_workers(len(plans))
    if len(plans) == 1 or workers == 1:
        for p in plans:
            execute(*p)
    elif plans:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for f in [pool.submit(execute, *p) for p in plans]:
                f.result()
    return {
        "out_dir": out_dir,
        "committed": len(mf.load_committed(out_dir)),
        "fingerprint": mf.manifest_fingerprint(out_dir),
    }


# ------------------------------------------------------- cross-series rollup

_PARTIAL_SCHEMA = pa.schema(
    [("source", pa.string()), ("tier", pa.string()), ("window_id", pa.int64())]
    # first/last carry the SUMS of window boundary values and m the count
    # of merged series-windows — what pooled_acf1 needs at the final merge
    + [(f, pa.float64()) for f in sk.FIELDS]
    + [("m", pa.float64())]
)


def _partial_sketches(batch: pa.Table, tiers=("raw", "10x", "100x")) -> pa.Table:
    """Combiner: per-batch partial sketches keyed by (source, tier,
    window_id).  Output rows per batch are bounded by distinct keys, so the
    downstream groupby shuffles tiny pre-aggregated rows, not raw windows —
    the partial+final aggregation pattern that keeps the all-to-all cheap."""
    from ts_pymfe_ray.stages.rollup import RAW_BUCKET, TIER_FACTORS, TIERS, sketch_ladder, tokens_views

    views, t_off, _ = tokens_views(batch)
    sources = batch.column("source").to_pylist()
    # hot-key-split chunk rows carry a window_offset; their windows must
    # land at GLOBAL positions (offset // bucket), not restart at 0
    offsets = (
        batch.column("window_offset").to_numpy()
        if "window_offset" in batch.column_names
        else np.zeros(len(views), dtype=np.int64)
    )
    src_names = sorted(set(sources))
    src_id = {s: i for i, s in enumerate(src_names)}
    row_src = np.fromiter((src_id[s] for s in sources), dtype=np.int64, count=len(sources))
    tier_names = list(tiers)

    # RollupStage's batch-wide ladder; each requested tier's block keeps
    # the rows in batch order, so inside every (source, tier, window) key
    # the stable sort below sees the windows in row order, as per-row
    # ladders appended row by row did
    ladder, tier_off = sketch_ladder(views, t_off)
    block = np.concatenate([[0], np.cumsum([o[-1] for o in tier_off])])
    take, rel_wid, row_key = [], [], []
    for t, tier in enumerate(tier_names):
        lvl = TIERS.index(tier)
        o = tier_off[lvl]
        nw = np.diff(o)
        within = np.arange(int(o[-1]), dtype=np.int64) - np.repeat(o[:-1], nw)
        take.append(block[lvl] + np.arange(int(o[-1]), dtype=np.int64))
        rel_wid.append(np.repeat(offsets // (RAW_BUCKET * TIER_FACTORS[tier]), nw) + within)
        row_key.append(np.repeat(row_src * len(tier_names) + t, nw))
    wids = np.concatenate(rel_wid)
    if not wids.size:
        return pa.table({n: pa.array([], _PARTIAL_SCHEMA.field(n).type) for n in _PARTIAL_SCHEMA.names})
    max_wid = max(1, int(wids.max()) + 1)
    big = ladder[np.concatenate(take)]
    key_parts = np.concatenate(row_key) * max_wid + wids
    # sort-group-reduce: one argsort, then reduceat per field — no Python
    # per-window loop
    order = np.argsort(key_parts, kind="stable")
    skeys = key_parts[order]
    sbig = big[order]
    starts = np.flatnonzero(np.concatenate([[True], skeys[1:] != skeys[:-1]]))
    uniq = skeys[starts]
    agg = np.empty((uniq.size, sk.N_FIELDS))
    for f in ("n", "s1", "s2", "s3", "s4", "c1"):
        agg[:, sk._I[f]] = np.add.reduceat(sbig[:, sk._I[f]], starts)
    agg[:, sk._I["vmin"]] = np.minimum.reduceat(sbig[:, sk._I["vmin"]], starts)
    agg[:, sk._I["vmax"]] = np.maximum.reduceat(sbig[:, sk._I["vmax"]], starts)
    # boundary-value SUMS (not single values): pooled_acf1 inputs
    agg[:, sk._I["first"]] = np.add.reduceat(sbig[:, sk._I["first"]], starts)
    agg[:, sk._I["last"]] = np.add.reduceat(sbig[:, sk._I["last"]], starts)
    m_counts = np.diff(np.append(starts, skeys.size)).astype(np.float64)

    wid = uniq % max_wid
    st = (uniq // max_wid) % len(tier_names)
    ss = uniq // (max_wid * len(tier_names))
    cols: dict[str, object] = {
        "source": [src_names[i] for i in ss],
        "tier": [tier_names[i] for i in st],
        "window_id": wid,
        "m": m_counts,
    }
    for j, f in enumerate(sk.FIELDS):
        cols[f] = agg[:, j]
    return pa.table({n: pa.array(cols[n], _PARTIAL_SCHEMA.field(n).type) for n in _PARTIAL_SCHEMA.names})


def _derive_merged(batch: pa.Table) -> pa.Table:
    """Vectorized feature derivation over a block of final-merged sketch
    rows (the groupby-aggregate output) — replaces the old per-group
    1-row map_groups consumer with ~10 numpy kernels per BLOCK."""
    g = {f: batch.column(f"sum({f})").to_numpy()
         for f in ("n", "s1", "s2", "s3", "s4", "c1", "first", "last", "m")}
    mat = np.empty((len(batch), sk.N_FIELDS), dtype=np.float64)
    for f in ("n", "s1", "s2", "s3", "s4", "c1"):
        mat[:, sk._I[f]] = g[f]
    mat[:, sk._I["vmin"]] = batch.column("min(vmin)").to_numpy()
    mat[:, sk._I["vmax"]] = batch.column("max(vmax)").to_numpy()
    mat[:, sk._I["first"]] = np.nan
    mat[:, sk._I["last"]] = np.nan
    feats = sk.derive_features(mat)
    acf1 = sk.pooled_acf1(g["n"], g["s1"], g["s2"], g["c1"],
                          g["first"], g["last"], g["m"])
    cols: dict[str, object] = {
        "source": batch.column("source"),
        "tier": batch.column("tier"),
        "window_id": batch.column("window_id"),
        "n": pa.array(g["n"], pa.float64()),
        "mean": pa.array(feats["mean"], pa.float64()),
        "var": pa.array(feats["var"], pa.float64()),
        "sd": pa.array(feats["sd"], pa.float64()),
        "acf1": pa.array(acf1, pa.float64()),
        "skewness": pa.array(feats["skewness"], pa.float64()),
        "kurtosis": pa.array(feats["kurtosis"], pa.float64()),
        "vmin": pa.array(feats["vmin"], pa.float64()),
        "vmax": pa.array(feats["vmax"], pa.float64()),
    }
    return pa.table(cols)


def _filter_gapfree(batch: pa.Table) -> pa.Table:
    """Keep only rows whose token array has no -1 sentinel (used by the
    SQL-oracled gap-free twin: interpolated fill values are association-
    sensitive at the driver hash's rounding grid, integer sums are not)."""
    from ts_pymfe_ray.stages.rollup import tokens_views

    _, offsets, flat = tokens_views(batch)
    if len(offsets) <= 1:
        return batch
    # per-row min over the flat values in one reduceat — a row is gap-free
    # iff its minimum is not the -1 sentinel (tokens are >= 0 otherwise);
    # empty rows (offset[i] == offset[i+1]) are kept as gap-free
    mins = np.full(len(offsets) - 1, np.iinfo(np.int64).max, dtype=np.int64)
    nonempty = offsets[:-1] < offsets[1:]
    if flat.size:
        red = np.minimum.reduceat(flat.astype(np.int64, copy=False), offsets[:-1][nonempty])
        mins[nonempty] = red
    keep = np.flatnonzero(mins != -1)
    return batch.take(pa.array(keep, pa.int64()))


def rollup_by_source(input_dir: str, tiers=("100x",),
                     gap_free: bool = False) -> ray.data.Dataset:
    """Continuous aggregate across series: per (source, tier, window_id)
    merged moment sketches -> mean/var/acf1/skew/kurt curves per source.
    The final merge is a built-in vectorized groupby-aggregate (Sum/Min/
    Max over pre-combined partial rows) followed by one block-level derive
    map — no per-group Python consumer anywhere.  acf1 is the POOLED
    in-series lag-1 autocorrelation (sketch.pooled_acf1)."""
    from ray.data.aggregate import Max, Min, Sum

    ds = read_sequences(input_dir)
    if gap_free:
        ds = ds.map_batches(_filter_gapfree, batch_format="pyarrow",
                            zero_copy_batch=True)
    ds = ds.map_batches(split_long_rows, batch_format="pyarrow")
    ds = ds.map_batches(
        _partial_sketches, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"tiers": tuple(tiers)},
    )
    agg = ds.groupby(["source", "tier", "window_id"]).aggregate(
        *[Sum(f) for f in ("n", "s1", "s2", "s3", "s4", "c1", "first", "last", "m")],
        Min("vmin"), Max("vmax"),
    )
    return agg.map_batches(_derive_merged, batch_format="pyarrow")


def flagship(sf_dir_or_input: str, out_root: str = DEFAULT_OUT_ROOT) -> dict:
    """End-to-end: synthesize-or-read sequences, run the rollup ladder and
    the core feature pack."""
    from ts_pymfe_ray.synth import ensure_sequences_for_dir

    if os.path.isdir(sf_dir_or_input) and any(
        f.startswith("sequences") or f.endswith(".parquet") for f in os.listdir(sf_dir_or_input)
    ) and os.path.basename(os.path.normpath(sf_dir_or_input)).startswith("sequences"):
        seq_dir = sf_dir_or_input
    else:
        seq_dir = ensure_sequences_for_dir(sf_dir_or_input)
    tag = os.path.basename(os.path.normpath(seq_dir))
    res_r = run_rollup(seq_dir, os.path.join(out_root, tag, "tiers"))
    res_f = run_features(seq_dir, os.path.join(out_root, tag, "features"))
    return {"rollup": res_r, "features": res_f, "sequences": seq_dir}


def token_histogram_by_source(input_dir: str, num_bins: int = 256) -> "pd.DataFrame":
    """Mergeable fixed-edge histogram rollup (SURVEY.md §2.2: histograms
    are mergeable when bin edges are fixed): per-source 256-bin counts over
    the bounded token domain [0, 65535], with exact-to-bin-resolution
    quantile estimates.  Partial bincounts per batch, one tiny groupby."""
    import pandas as pd

    from ts_pymfe_ray.stages.rollup import tokens_views

    width = 65536 // num_bins

    def combiner(batch: pa.Table) -> pa.Table:
        views, offsets, flat = tokens_views(batch)
        sources = batch.column("source").to_pylist()
        acc: dict[str, np.ndarray] = {}
        for i, tok in enumerate(views):
            valid = tok[tok >= 0]
            h = np.bincount(np.minimum(valid // width, num_bins - 1), minlength=num_bins)
            s = sources[i]
            if s in acc:
                acc[s] += h
            else:
                acc[s] = h.astype(np.int64)
        return pa.table(
            {
                "source": list(acc.keys()),
                "counts": pa.array([a.tolist() for a in acc.values()],
                                   pa.list_(pa.int64(), num_bins)),
            }
        )

    partials = read_sequences(input_dir).map_batches(
        combiner, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    rows = []
    for source, grp in partials.groupby("source"):
        total = np.sum(np.stack(grp["counts"].to_numpy()), axis=0)
        n = total.sum()
        cum = np.cumsum(total)
        qs = {}
        for q in (0.25, 0.5, 0.75, 0.95):
            b = int(np.searchsorted(cum, q * n))
            qs[f"q{int(q*100)}_est"] = float((b + 0.5) * width)
        rows.append({"source": source, "n_tokens": int(n), **qs})
    return pd.DataFrame(rows).sort_values("source").reset_index(drop=True)
