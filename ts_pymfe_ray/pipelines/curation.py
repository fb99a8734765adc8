"""Materialized curation pipeline: the persisted, resumable form of
:func:`textops.q_curation_pipeline` (which reports counts only).

Stage 1 (one streaming corpus pass + one hash-partitioned write): quality
gate + 128-bit content hash per doc, written hive-partitioned by
``bucket = h_lo % num_buckets``.  Hash bucketing co-locates every copy of
a text in exactly one bucket, so dedup never needs a global exchange
afterwards, and partition pruning makes each bucket independently
readable.

Stage 2 (embarrassingly parallel, manifest-resumable per bucket):
keep-first dedup inside the bucket (min doc_id per content hash), the
deterministic md5 sampling coin, the SALTED split coin, then a hive
``shard=K/split=train|val|test/`` parquet write.  Each bucket commits to
the append-only manifest; a killed run resumes by recomputing only
uncommitted buckets, and ``manifest_fingerprint`` is identical across a
straight run and a kill+resume run.

Scale shape: one corpus pass, one all-to-all (the bucket write — the only
shuffle, carrying each doc once), then bucket-local work whose memory is
corpus_size / num_buckets (uniform by content hash; pick num_buckets so a
bucket fits a worker).  The count report over the output matches the
SQL-oracled q_curation_pipeline exactly (equality-tested).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

import ray.data

from ts_pymfe_ray.state import manifest as mf

_STAGE1 = "_stage1"


def _stage1_marker(stage1_dir: str) -> str:
    return os.path.join(stage1_dir, "_SUCCESS")


def _gate_and_bucket(num_buckets: int):
    from ts_pymfe_ray.functions.md5vec import md5_pair64, pack_bytes
    from ts_pymfe_ray.pipelines.textops import _quality_signals_batch

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        src = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        nw, n_chars, n_stop, n_punct, _ = _quality_signals_batch(texts)
        keep = (
            (nw >= 30) & (nw <= 5000)
            & (n_stop * 100 >= nw * 10)
            & (n_punct * 100 <= n_chars * 5)
        )
        kept = np.flatnonzero(keep)
        lo, hi = md5_pair64(*pack_bytes([texts[i].encode() for i in kept]))
        return pa.table({
            "doc_id": pa.array(ids[kept], pa.int64()),
            "source": pa.array([src[i] for i in kept], pa.string()),
            "text": pa.array([texts[i] for i in kept], pa.string()),
            "n_chars": pa.array(n_chars[kept].astype(np.int64), pa.int64()),
            "h_lo": pa.array(lo.view(np.int64), pa.int64()),
            "h_hi": pa.array(hi.view(np.int64), pa.int64()),
            "bucket": pa.array((lo % np.uint64(num_buckets)).astype(np.int64),
                               pa.int64()),
        })

    return fn


def _curate_bucket(stage1_dir: str, k: int, sample_pct: int) -> pd.DataFrame:
    """Bucket-local keep-first dedup + sample + salted split."""
    from ts_pymfe_ray.functions.md5vec import md5_lower64_list
    from ts_pymfe_ray.pipelines.queries import _md5_mod100

    ds = pads.dataset(stage1_dir, format="parquet", partitioning="hive",
                      ignore_prefixes=[".", "_"])
    tbl = ds.to_table(filter=(pads.field("bucket") == k))
    df = tbl.to_pandas()
    if df.empty:
        return df
    df = df.sort_values(["h_lo", "h_hi", "doc_id"])
    df = df.drop_duplicates(subset=["h_lo", "h_hi"], keep="first")
    coin = _md5_mod100(df["doc_id"].to_numpy())
    df = df[coin < sample_pct]
    if df.empty:
        return df
    salted = md5_lower64_list(
        [f"{int(i)}:split".encode() for i in df["doc_id"]]
    ) % np.uint64(100)
    df = df.copy()
    df["split"] = np.where(salted < 80, "train",
                           np.where(salted < 90, "val", "test"))
    return df[["doc_id", "source", "text", "n_chars", "split"]]


def run_curation(doc_path: str, out_dir: str, num_buckets: int = 8,
                 sample_pct: int = 50, resume: bool = True) -> dict:
    lock = mf.AttemptLock(out_dir).acquire()
    try:
        return _run_curation_locked(doc_path, out_dir, num_buckets,
                                    sample_pct, resume)
    finally:
        lock.release()


def _run_curation_locked(doc_path: str, out_dir: str, num_buckets: int,
                         sample_pct: int, resume: bool) -> dict:
    cfg = {"num_buckets": num_buckets, "sample_pct": sample_pct, "v": 1}
    stage1_dir = os.path.join(out_dir, _STAGE1)
    lineage = mf.lineage_hash([doc_path], cfg)

    marker = _stage1_marker(stage1_dir)
    stage1_ok = False
    if resume and os.path.exists(marker):
        with open(marker) as f:
            stage1_ok = json.load(f).get("lineage") == lineage
    if not stage1_ok:
        import shutil

        if os.path.isdir(stage1_dir):
            shutil.rmtree(stage1_dir)
        ds = ray.data.read_parquet(doc_path,
                                   columns=["doc_id", "source", "text"])
        ds.map_batches(_gate_and_bucket(num_buckets),
                       batch_format="pyarrow").write_parquet(
            stage1_dir, partition_cols=["bucket"])
        with open(marker, "w") as f:
            json.dump({"lineage": lineage}, f)

    if resume:
        mf.clean_uncommitted(out_dir, num_buckets)
    committed = mf.load_committed(out_dir) if resume else {}

    for k in range(num_buckets):
        rec = committed.get(k)
        if rec is not None and rec.get("lineage_hash") == lineage:
            continue
        t0 = time.perf_counter()
        df = _curate_bucket(stage1_dir, k, sample_pct)
        sdir = mf.shard_dir(out_dir, k)
        os.makedirs(sdir, exist_ok=True)
        groups = df.groupby("split", observed=True) if not df.empty else ()
        for split, sub in groups:
            d = os.path.join(sdir, f"split={split}")
            os.makedirs(d, exist_ok=True)
            sub.drop(columns=["split"]).to_parquet(
                os.path.join(d, "part-0.parquet"), index=False)
        mf.commit_shard(out_dir, k, [doc_path], cfg, len(df), 0,
                        (time.perf_counter() - t0) * 1000.0)

    return {
        "out_dir": out_dir,
        "committed": len(mf.load_committed(out_dir)),
        "num_buckets": num_buckets,
        "fingerprint": mf.manifest_fingerprint(out_dir),
    }
