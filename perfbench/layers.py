"""Traced mode: spans around the benchmark's calls into each layer, the
kernel-level sweep, and Ray Data operator stats.

No span goes inside the package.  The spans below, taken in the benchmark
process, wrap public functions; the kernel-level numbers come from the
benchmark calling those functions itself on a batch it reads with pyarrow,
the way ``tools/profile_features.py`` profiles the feature kernels.
"""

from __future__ import annotations

import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import gen

SWEEP_ROWS = 256
FEATURE_ROWS = 96
TOP_KERNELS = 10
# layers whose calls the benchmark process can see; each gets a
# ``self_s.<layer>`` metric on every workload (0 where it did no work)
SPAN_LAYERS = (
    "sources.sequences",
    "stages.rollup",
    "stages.fast_features",
    "state.manifest",
    "pipelines.flagship",
    "pipelines.tier_analytics",
    "pipelines.queries",
    "ray.data",
)

_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_HEAD = re.compile(r"^Operator \d+ (.+?): ", re.M)
_TOTAL = re.compile(r"([\d.]+)(us|ms|s)? total")


def ray_op_stats(stats_text: str) -> dict[str, dict[str, float]]:
    """Per-operator wall, UDF time, rows and bytes out from the text of
    ``Dataset.stats()`` (summed when an operator name repeats)."""
    out: dict[str, dict[str, float]] = {}
    heads = list(_OP_HEAD.finditer(stats_text))
    for i, m in enumerate(heads):
        body = stats_text[m.end(): heads[i + 1].start() if i + 1 < len(heads) else None]
        name = re.sub(r"\(\d+\)", "", m.group(1)).replace("->", "-")
        name = re.sub(r"\(([^)]*)\)", r"_\1", name)
        name = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
        rec = out.setdefault(name, {"wall_s": 0.0, "udf_s": 0.0, "rows_out": 0.0, "bytes_out": 0.0})
        for line in body.splitlines():
            t = _TOTAL.search(line)
            if not t:
                continue
            val = float(t.group(1)) * _UNIT.get(t.group(2) or "", 1.0)
            if "Remote wall time" in line:
                rec["wall_s"] += val
            elif "UDF time" in line:
                rec["udf_s"] += val
            elif "Output num rows per block" in line:
                rec["rows_out"] += val
            elif "Output size bytes per block" in line:
                rec["bytes_out"] += val
    return out


def _flat_ray(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    return {f"ray.{op}.{k}": v for op, rec in stats.items() for k, v in rec.items()}


# ------------------------------------------------------------ traced passes


def traced_rollup(tracer, seq: str, out: str, num_shards: int, expect: str) -> dict:
    """``run_rollup`` rebuilt from its public parts, shard by shard:
    read_sequences -> split_long_rows -> RollupStage -> write, then the
    manifest commit; the Ray Data operator stats of every shard plan."""
    from ts_pymfe_ray.sources.sequences import list_parquet_files, read_sequences, shard_files
    from ts_pymfe_ray.stages.rollup import RollupStage, split_long_rows
    from ts_pymfe_ray.state import manifest as mf

    shutil.rmtree(out, ignore_errors=True)
    config = {"job": "rollup", "num_parts": 64, "store_tokens": True,
              "max_chunk_tokens": 1_048_576}
    stats = ""
    with tracer.span("pipelines.flagship", "run_rollup"):
        with tracer.span("sources.sequences", "shard_files"):
            shards = shard_files(list_parquet_files(seq), num_shards)
        stage = RollupStage()
        for sid, shard in enumerate(shards):
            t0 = time.perf_counter()
            with tracer.span("sources.sequences", "read_sequences", shard=sid):
                ds = read_sequences(shard)
            with tracer.span("stages.rollup", "plan", shard=sid):
                ds = ds.map_batches(split_long_rows, batch_format="pyarrow")
                ds = ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True,
                                    batch_size=256)
            with tracer.span("ray.data", "write_parquet", shard=sid):
                ds.write_parquet(mf.shard_dir(out, sid), partition_cols=["tier"])
            stats += ds.stats() + "\n"
            with tracer.span("perfbench", "count_output", shard=sid):
                tier = pads.dataset(mf.shard_dir(out, sid), format="parquet",
                                    partitioning="hive").to_table(columns=["tier", "n_tok"])
                raw = np.asarray(tier.column("tier").to_pylist()) == "raw"
                tokens = int(tier.column("n_tok").to_numpy()[raw].sum())
            with tracer.span("state.manifest", "commit_shard", shard=sid):
                mf.commit_shard(out, sid, shard, config, tier.num_rows, tokens,
                                (time.perf_counter() - t0) * 1000.0)
        with tracer.span("state.manifest", "manifest_fingerprint"):
            fp = mf.manifest_fingerprint(out)
    return {**_flat_ray(ray_op_stats(stats)),
            "trace.fingerprint_matches_run_rollup": float(fp == expect)}


def traced_features(tracer, sub: str, seq: str, work: str) -> dict:
    from ts_pymfe_ray.pipelines import flagship
    from ts_pymfe_ray.stages.fast_features import run_fast_features

    feat, fast = os.path.join(work, "traced_feat"), os.path.join(work, "traced_fast")
    shutil.rmtree(feat, ignore_errors=True)
    with tracer.span("pipelines.flagship", "run_features"):
        flagship.run_features(sub, feat, max_cost="cheap", num_shards=4)
    with tracer.span("stages.fast_features", "run_fast_features"):
        ds = run_fast_features(seq)
    with tracer.span("ray.data", "write_parquet"):
        shutil.rmtree(fast, ignore_errors=True)
        ds.write_parquet(fast)
    return _flat_ray(ray_op_stats(ds.stats()))


def traced_tier_reads(tracer, seq: str, tiers: str, num_shards: int) -> dict:
    from ts_pymfe_ray.pipelines import flagship
    from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics
    from ts_pymfe_ray.state import manifest as mf

    shutil.rmtree(mf.shard_dir(tiers, 0))
    with tracer.span("state.manifest", "load_committed") as s_load:
        committed = mf.load_committed(tiers)
    with tracer.span("pipelines.flagship", "run_rollup") as s_resume:
        flagship.run_rollup(seq, tiers, num_shards=num_shards)
    with tracer.span("state.manifest", "manifest_fingerprint") as s_fp:
        mf.manifest_fingerprint(tiers)
    with tracer.span("pipelines.tier_analytics", "tier_diagnostics") as s_diag:
        tier_diagnostics(tiers, tier="10x")
    with tracer.span("pipelines.flagship", "rollup_by_source"):
        ds = flagship.rollup_by_source(seq, tiers=("100x",))
    with tracer.span("ray.data", "materialize"):
        mat = ds.materialize()
    windows = mat.count()
    ops = ray_op_stats(mat.stats())
    partial = next((r for op, r in ops.items() if "_partial_sketches" in op), None)
    rows_10x = pads.dataset(tiers, format="parquet", partitioning="hive",
                            ignore_prefixes=[".", "_", "manifest"]).count_rows(
        filter=pads.field("tier") == "10x")
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    return {
        **_flat_ray(ops),
        "resume.s": dur(s_resume),
        "resume.shards_recomputed": float(num_shards - len(committed)),
        "resume.manifest_load_s": dur(s_load),
        "resume.manifest_fingerprint_s": dur(s_fp),
        "tier_diag.s": dur(s_diag),
        "tier_diag.rows_decoded": float(rows_10x),
        "source_rollup.windows": float(windows),
        "source_rollup.partial_rows_per_window":
            partial["rows_out"] / windows if partial and windows else float("nan"),
        "source_rollup.shuffle_bytes": partial["bytes_out"] if partial else float("nan"),
    }


def traced_events(tracer, entries: dict, ev_dir: str, to_df) -> dict:
    out = {}
    for name, fn in entries.items():
        with tracer.span("pipelines.queries", name) as s:
            df = to_df(fn(ev_dir))
        out[f"queries.{name}.s"] = s["end"] - s["start"]
        out[f"queries.{name}.rows"] = float(len(df))
    return out


# ------------------------------------------------------- kernel-level sweep


def sweep(tracer, seed: int, work: str) -> dict[str, float]:
    """Per-layer kernel numbers on a seeded batch the benchmark reads
    itself.  Identical on every workload, so the figures line up."""
    from ts_pymfe_ray.functions import gorilla
    from ts_pymfe_ray.functions import sketch as sk
    from ts_pymfe_ray.functions.gapfill import SENTINEL, gap_fill
    from ts_pymfe_ray.registry import kernels_of
    from ts_pymfe_ray.sources.sequences import list_parquet_files, read_sequences
    from ts_pymfe_ray.stages.fast_features import FastFeatureStage
    from ts_pymfe_ray.stages.features import FeatureStage
    from ts_pymfe_ray.stages.rollup import RAW_BUCKET, STREAMS, RollupStage, split_long_rows
    from ts_pymfe_ray.state import manifest as mf

    d = os.path.join(work, "sweep")
    shutil.rmtree(d, ignore_errors=True)
    gen.write_sequences(gen.sequences_table(seed, SWEEP_ROWS), d, 2)
    m: dict[str, float] = {}

    def timed(layer, func, fn, *args, **kwargs):
        with tracer.span(layer, func) as s:
            res = fn(*args, **kwargs)
        return s["end"] - s["start"], res

    files = list_parquet_files(d)
    dt, ds = timed("sources.sequences", "read_sequences", lambda: read_sequences(files).materialize())
    m.update({"read.s": dt, "read.rows": float(ds.count()), "read.bytes": float(ds.size_bytes())})

    table = pq.read_table(files)
    dt, split = timed("stages.rollup", "split_long_rows", split_long_rows, table)
    m["split.chunks"] = float(split.num_rows)
    views = [np.asarray(t, dtype=np.int32) for t in split.column("tokens").to_pylist()]
    n_tok = sum(v.size for v in views)

    dt, filled = timed("functions.gapfill", "gap_fill", lambda: [gap_fill(v) for v in views])
    m["gapfill.s"] = dt
    m["gapfill.filled_tokens"] = float(sum(int((v == SENTINEL).sum()) for v in views))

    dt, raw = timed("functions.sketch", "compute_window_sketches",
                    lambda: [sk.compute_window_sketches(x, RAW_BUCKET) for x in filled])
    m["sketch.s"] = dt
    m["sketch.windows"] = float(sum(r.shape[0] for r in raw))
    dt, _ = timed("functions.sketch", "merge_adjacent",
                  lambda: [sk.merge_adjacent(sk.merge_adjacent(r, 10), 10) for r in raw])
    m["sketch.merge_s"] = dt

    # gorilla over what the rollup encodes: window streams and raw tokens
    streams = np.concatenate([np.concatenate([sk.derive_features(r)[s] for s in STREAMS])
                              for r in raw])
    s_off = np.concatenate([[0], np.cumsum([len(STREAMS) * r.shape[0] for r in raw])])
    toks = np.concatenate(views).astype(np.int64)
    t_off = np.concatenate([[0], np.cumsum([v.size for v in views])])
    dt_f, (fdata, foff) = timed("functions.gorilla", "encode_floats_xor_many",
                                gorilla.encode_floats_xor_many, streams, s_off)
    dt_i, (idata, ioff) = timed("functions.gorilla", "encode_ints_dod_many",
                                gorilla.encode_ints_dod_many, toks, t_off, order=1)
    in_bytes = streams.nbytes + toks.nbytes
    m["gorilla.encode_mb_s"] = in_bytes / 1e6 / (dt_f + dt_i)
    m["gorilla.bytes_out_per_in"] = (fdata.nbytes + idata.nbytes) / in_bytes
    fblobs = [fdata[foff[i]: foff[i + 1]].tobytes() for i in range(len(raw))]
    iblobs = [idata[ioff[i]: ioff[i + 1]].tobytes() for i in range(len(views))]
    dt_f, _ = timed("functions.gorilla", "decode_floats_xor",
                    lambda: [gorilla.decode_floats_xor(b) for b in fblobs])
    dt_i, _ = timed("functions.gorilla", "decode_ints_dod",
                    lambda: [gorilla.decode_ints_dod(b) for b in iblobs])
    m["gorilla.decode_mb_s"] = in_bytes / 1e6 / (dt_f + dt_i)

    dt, tiers = timed("stages.rollup", "RollupStage", RollupStage(), split)
    m.update({"rollup_stage.s": dt, "rollup_stage.us_per_token": dt / n_tok * 1e6,
              "rollup_stage.tier_rows": float(tiers.num_rows)})

    dt, _ = timed("stages.fast_features", "FastFeatureStage", FastFeatureStage(), table)
    m["fast_features.us_per_row"] = dt / table.num_rows * 1e6

    fbatch = table.slice(0, FEATURE_ROWS)
    stage = FeatureStage(max_cost="cheap")
    dt, feats = timed("stages.features", "FeatureStage", stage, fbatch)
    m["feature_stage.ms_per_row"] = dt / fbatch.num_rows * 1e3
    vals = np.column_stack([feats.column(c).to_numpy() for c in stage.columns])
    m["registry.nan_fraction"] = float(np.isnan(vals).mean())
    m.update(kernel_costs(tracer, fbatch, kernels_of(None, max_cost="cheap")))

    mdir = os.path.join(work, "sweep_manifest")
    shutil.rmtree(mdir, ignore_errors=True)
    os.makedirs(mdir)
    for sid in range(4):
        os.makedirs(mf.shard_dir(mdir, sid))
    dt, _ = timed("state.manifest", "commit_shard", lambda: [
        mf.commit_shard(mdir, sid, files, {"job": "sweep"}, 3, n_tok, 0.0) for sid in range(4)])
    m["manifest.commit_s"] = dt
    m["manifest.load_s"], _ = timed("state.manifest", "load_committed", mf.load_committed, mdir)
    m["manifest.fingerprint_s"], _ = timed("state.manifest", "manifest_fingerprint",
                                           mf.manifest_fingerprint, mdir)
    return m


def kernel_costs(tracer, batch: pa.Table, kernels) -> dict[str, float]:
    """ms/row of the ``TOP_KERNELS`` costliest registry kernels, each
    ``k.fn(ctx)`` timed over the batch after the stage's shared preseed."""
    from ts_pymfe_ray.functions.gapfill import gap_fill
    from ts_pymfe_ray.registry import SeriesCtx
    from ts_pymfe_ray.stages.features import preseed_stacked

    ctxs = [SeriesCtx(gap_fill(np.asarray(t, np.int32)), doc_id=d) for t, d in
            zip(batch.column("tokens").to_pylist(), batch.column("doc_id").to_pylist())]
    per: dict[str, float] = {}
    with tracer.span("registry", "kernels"), np.errstate(all="ignore"):
        preseed_stacked(ctxs, kernels)
        for k in kernels:
            t0 = time.perf_counter()
            for c in ctxs:
                try:
                    k.fn(c)
                except Exception:
                    pass  # the registry maps a kernel error to NaN
            per[k.name] = time.perf_counter() - t0
    top = sorted(per.items(), key=lambda kv: -kv[1])[:TOP_KERNELS]
    return {f"registry.kernel.{n}.ms_per_row": t / len(ctxs) * 1e3 for n, t in top}
