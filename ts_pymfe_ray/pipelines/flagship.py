"""Flagship pipelines.

1. :func:`run_rollup` — the headline retention-ladder job: sequences ->
   gap-fill -> raw/10x/100x window sketches -> Gorilla-compressed tier rows
   -> partitioned parquet + manifest (exact resume).  Map-only: zero
   shuffles (SURVEY.md §7.3 — series are row-atomic).
2. :func:`run_features` — per-series ts-pymfe feature extraction (the
   fit+extract engine) -> wide parquet.
3. :func:`rollup_by_source` — cross-series continuous aggregate: one
   :func:`~ts_pymfe_ray.pipelines.combine.combine` of the series-window
   sketches per (source, tier, window_id), partial rows inside the read
   tasks and one order-free merge of them on the driver.  Map-only like
   jobs 1 and 2: the sequence layer has no shuffle.

Jobs 1 and 2 are sharded jobs with one runner (:func:`_run_sharded`): ONE
streaming Ray Data execution reads every file of every shard still to do,
each row carrying its shard in the path of the file it came from.  Each
map task runs the stage, writes its rows under ``shard=K/`` itself and
emits a per-shard tally (input rows, output rows, raw tokens); the driver
reads the tally stream and commits a shard the moment its input rows
reach the row count in its files' Parquet footers.  The shard stays the
commit and resume unit, and the manifest's rows/tokens come from the pass
that wrote the data — no side pass re-reads the input for them.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data

from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.pipelines.combine import combine
from ts_pymfe_ray.sources.sequences import (
    list_parquet_files,
    read_row_groups,
    read_sequences,
    shard_files,
)
from ts_pymfe_ray.stages.features import FeatureStage
from ts_pymfe_ray.stages.rollup import RollupStage, in_slices, split_long_rows
from ts_pymfe_ray.state import manifest as mf
from ts_pymfe_ray.synth import stable_hash64

DEFAULT_OUT_ROOT = "/tmp/ts_pymfe_ray_out"

# ------------------------------------------------------------ sharded jobs

_TALLY_SCHEMA = pa.schema([("shard", pa.int64()), ("in_rows", pa.int64()),
                           ("out_rows", pa.int64()), ("tokens", pa.int64())])


class _ShardWriter:
    """Stage, write and tally one batch of a sharded job.

    The batch's rows are split by shard (``path`` -> shard id); each part
    runs the stage on slices of at most ``batch_size`` rows and is written
    to ``shard=K[/tier=T]/<name>-0.parquet``, the partition columns dropped
    from the file data as Ray's hive write does.  ``<name>`` hashes the
    part's first (path, doc_id) — chunk 0, as hot rows are split inside the
    stage — so a retried task overwrites its own files instead of adding
    copies.  Returns one
    tally row per shard of the batch: input rows, output rows and raw
    tokens (the token-list lengths, i.e. the raw tier's ``n_tok`` sum).

    ``stage`` is a class built here from ``stage_kwargs``, so the same
    writer runs as stateless tasks (pass an instance) or as an actor pool
    (pass the class)."""

    def __init__(self, stage, stage_kwargs: dict, batch_size: int, out_dir: str,
                 shard_of: dict[str, int], partition_cols: tuple[str, ...] = ()):
        self.stage = stage(**stage_kwargs)
        self.batch_size = batch_size
        self.out_dir = out_dir
        self.shard_of = shard_of
        self.partitioning = list(partition_cols) or None

    def __call__(self, batch: pa.Table) -> pa.Table:
        tally: dict[str, list[int]] = {c: [] for c in _TALLY_SCHEMA.names}
        if not batch.num_rows:
            return pa.table(tally, schema=_TALLY_SCHEMA)
        paths = batch.column("path")
        uniq = pc.unique(paths)
        sid_of = np.array([self.shard_of[os.path.normpath(p)] for p in uniq.to_pylist()])
        sids = sid_of[pc.index_in(paths, uniq).to_numpy()]
        data = batch.drop_columns(["path"])
        for sid in np.unique(sids):
            mask = sids == sid
            part = data.filter(pa.array(mask))
            first = int(np.argmax(mask))
            name = stable_hash64(f"{paths[first].as_py()}:{part.column('doc_id')[0].as_py()}")
            out = in_slices(part, self.stage, self.batch_size)
            if out.num_rows:
                pads.write_dataset(
                    out, mf.shard_dir(self.out_dir, int(sid)), format="parquet",
                    basename_template=f"{name:016x}-{{i}}.parquet",
                    partitioning=self.partitioning, partitioning_flavor="hive",
                    existing_data_behavior="overwrite_or_ignore")
            tally["shard"].append(int(sid))
            tally["in_rows"].append(part.num_rows)
            tally["out_rows"].append(out.num_rows)
            tally["tokens"].append(int(pc.sum(pc.list_value_length(part.column("tokens"))).as_py() or 0))
        return pa.table(tally, schema=_TALLY_SCHEMA)


def _commit_as_complete(tallies, expected: dict[int, int], commit) -> None:
    """Commit every shard exactly once, as soon as its tallied input rows
    reach ``expected[shard]`` (its files' footer row count); a zero-row
    shard commits before the first tally.  ``tallies`` yields mappings of
    equal-length arrays with the ``_TALLY_SCHEMA`` columns; ``commit(shard,
    out_rows, tokens)`` writes the manifest line.  A shard whose rows end
    short of or past its count raises: its output does not match its
    input files."""
    got = {sid: [0, 0, 0] for sid in expected}
    for sid, n in expected.items():
        if n == 0:
            commit(sid, 0, 0)
    for t in tallies:
        for sid, n_in, n_out, tok in zip(*(t[c].tolist() for c in _TALLY_SCHEMA.names)):
            acc = got[sid]
            acc[0] += n_in
            acc[1] += n_out
            acc[2] += tok
            if n_in and acc[0] == expected[sid]:
                commit(sid, acc[1], acc[2])
    bad = {sid: acc[0] for sid, acc in got.items() if acc[0] != expected[sid]}
    if bad:
        raise RuntimeError(f"shard input rows {bad} differ from their files' "
                           f"footer row counts {expected}")


def _run_sharded(out_dir: str, shards: list[list[str]], config: dict, resume: bool,
                 max_shards: int | None, writer: dict, concurrency: int | None,
                 record_tokens: bool) -> dict:
    """Run the shards that are not committed (or whose input files
    changed) as ONE streaming execution: read with paths -> ``_ShardWriter``
    (``writer`` holds its stage, stage kwargs and partition columns) ->
    tally stream -> per-shard commits.  The writer takes whole read
    blocks (``batch_size=None``), so Ray fuses it into the read tasks and
    the input never round-trips through the object store; it batches the
    stage itself.  ``concurrency`` runs it as an actor pool of that size,
    over read tasks of one stage batch each.
    A commit's ``wall_ms`` is the time from the job's start to that
    commit."""
    if resume:
        mf.clean_uncommitted(out_dir, len(shards))
    committed = mf.load_committed(out_dir) if resume else {}

    def _stale(sid: int, shard: list[str]) -> bool:
        """A committed shard whose input-file list changed (files appended
        or resharded) must recompute — its manifest line no longer
        describes the data it would produce."""
        rec = committed.get(sid)
        return rec is not None and rec.get("input_files") != sorted(shard)

    todo = {sid: shard for sid, shard in enumerate(shards)
            if shard and (sid not in committed or _stale(sid, shard))}
    for sid, shard in todo.items():
        if _stale(sid, shard):
            shutil.rmtree(mf.shard_dir(out_dir, sid), ignore_errors=True)
    if max_shards is not None:
        todo = dict(list(todo.items())[:max_shards])
    if todo:
        t0 = time.perf_counter()

        def commit(sid: int, rows: int, tokens: int) -> None:
            # a zero-row shard writes no file: its directory is what
            # load_committed(check_data=True) looks for
            os.makedirs(mf.shard_dir(out_dir, sid), exist_ok=True)
            mf.commit_shard(out_dir, sid, todo[sid], config, rows,
                            tokens if record_tokens else 0,
                            (time.perf_counter() - t0) * 1000.0)

        expected = {sid: sum(pq.read_metadata(f).num_rows for f in shard)
                    for sid, shard in todo.items()}
        writer = dict(writer, out_dir=out_dir, shard_of={
            os.path.normpath(f): sid for sid, shard in todo.items() for f in shard})
        # files in shard order, so shards complete (and commit) one by one;
        # an actor pool is fed read tasks of one stage batch each, as its
        # parallelism is the number of blocks it is given
        ds = read_row_groups([f for shard in todo.values() for f in shard], include_paths=True,
                             rows_per_task=writer["batch_size"] if concurrency else None)
        kwargs = {"batch_format": "pyarrow", "zero_copy_batch": True, "batch_size": None}
        if concurrency:
            ds = ds.map_batches(_ShardWriter, fn_constructor_kwargs=writer,
                                concurrency=concurrency, **kwargs)
        else:
            ds = ds.map_batches(_ShardWriter(**writer), **kwargs)
        _commit_as_complete(ds.iter_batches(batch_format="numpy", batch_size=None),
                            expected, commit)
    return {
        "out_dir": out_dir,
        "committed": len(mf.load_committed(out_dir)),
        "num_shards": len(shards),
        "fingerprint": mf.manifest_fingerprint(out_dir),
    }


class _SplitRollup:
    """``split_long_rows``, then ``RollupStage`` over slices of at most
    ``batch_size`` chunk rows: a hot document's chunks stay in the call
    that read the document, so the tally's input rows count whole
    documents whose every tier row is written."""

    def __init__(self, num_parts: int, store_tokens: bool, max_chunk_tokens: int,
                 batch_size: int):
        self.stage = RollupStage(num_parts=num_parts, store_tokens=store_tokens)
        self.max_chunk_tokens = max_chunk_tokens
        self.batch_size = batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = split_long_rows(batch, max_chunk_tokens=self.max_chunk_tokens)
        return in_slices(rows, self.stage, self.batch_size)


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
) -> dict:
    """Tier-ladder rollup with exact shard-level checkpoint/resume.

    Every uncommitted shard runs in one streaming execution (see the module
    docstring); each shard commits as soon as its last input row is
    written, with rows = its tier rows and tokens = its raw ``n_tok`` sum.
    Output: ``shard=K/tier=T/*.parquet`` (the tier partition lets the
    retention ladder age out a whole tier with a directory delete).

    ``max_shards`` limits how many (uncommitted) shards to process this
    call — used by the kill/resume test to simulate a mid-job crash.
    """
    files = list_parquet_files(input_dir)
    shards = shard_files(files, num_shards)
    config = {
        "job": "rollup",
        "num_parts": num_parts,
        "store_tokens": store_tokens,
        "max_chunk_tokens": max_chunk_tokens,
    }
    writer = {
        "stage": _SplitRollup,
        "stage_kwargs": {"num_parts": num_parts, "store_tokens": store_tokens,
                         "max_chunk_tokens": max_chunk_tokens, "batch_size": batch_size},
        "batch_size": batch_size,
        "partition_cols": ("tier",),
    }
    with mf.AttemptLock(out_dir):
        return _run_sharded(out_dir, shards, config, resume, max_shards, writer,
                            None, record_tokens=True)


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
    """Per-series feature extraction -> ``shard=K/*.parquet``, every
    uncommitted shard in one streaming execution with per-shard commits
    (rows = feature rows; tokens recorded as 0).  Heavy kernel packs (GP /
    model fits) run the stage as an actor pool (``concurrency``) so
    per-actor setup is amortized; cheap/medium packs run as stateless
    tasks.

    ``batch_size`` caps the rows per ``FeatureStage`` call, keeping
    worst-case batches tens of MB; tasks are whole read blocks."""
    files = list_parquet_files(input_dir)
    shards = shard_files(files, num_shards)
    config = {"job": "features", "groups": sorted(groups) if groups else None, "max_cost": max_cost}
    writer = {"stage": FeatureStage, "stage_kwargs": {"groups": groups, "max_cost": max_cost},
              "batch_size": batch_size}
    if concurrency is None and max_cost == "heavy":
        # heavy packs (GP / model fits) -> actor pool: per-actor setup
        # (kernel plan, sim tables) happens once per worker; size the
        # pool to the cluster, leaving headroom for read tasks
        import ray as _ray

        concurrency = max(4, int(_ray.cluster_resources().get("CPU", 8)) - 4)
    with mf.AttemptLock(out_dir):
        return _run_sharded(out_dir, shards, config, resume, None, writer,
                            concurrency, record_tokens=False)


# ------------------------------------------------------- cross-series rollup

def _partial_sketches(batch: pa.Table, tiers=("raw", "10x", "100x")) -> pa.Table:
    """One row per series window of each requested tier: its key (source,
    tier, window_id) and its sketch fields, each row one partial of its
    key's cross-series sketch.  Hot-key-split chunk rows carry a
    ``window_offset``, so their windows land at GLOBAL positions
    (offset // bucket), not restart at 0.  The ladder is RollupStage's
    batch-wide one; each tier's rows keep batch row order."""
    from ts_pymfe_ray.stages.rollup import RAW_BUCKET, TIER_FACTORS, TIERS, sketch_ladder, tokens_flat

    t_off, t_flat = tokens_flat(batch)
    offsets = (
        batch.column("window_offset").to_numpy()
        if "window_offset" in batch.column_names
        else np.zeros(t_off.size - 1, dtype=np.int64)
    )
    ladder, tier_off = sketch_ladder(t_flat, t_off)
    block = np.concatenate([[0], np.cumsum([o[-1] for o in tier_off])])
    take, wids, rows, tier_idx = [], [], [], []
    for t, tier in enumerate(tiers):
        lvl = TIERS.index(tier)
        o = tier_off[lvl]
        nw = np.diff(o)
        within = np.arange(int(o[-1]), dtype=np.int64) - np.repeat(o[:-1], nw)
        take.append(block[lvl] + np.arange(int(o[-1]), dtype=np.int64))
        wids.append(np.repeat(offsets // (RAW_BUCKET * TIER_FACTORS[tier]), nw) + within)
        rows.append(np.repeat(np.arange(nw.size), nw))
        tier_idx.append(np.full(int(o[-1]), t, dtype=np.int32))
    big = ladder[np.concatenate(take)]
    cols = {
        "source": batch.column("source").take(pa.array(np.concatenate(rows), pa.int64())),
        "tier": pa.DictionaryArray.from_arrays(np.concatenate(tier_idx), list(tiers)),
        "window_id": pa.array(np.concatenate(wids), pa.int64()),
    }
    return pa.table({**cols, **{f: big[:, j] for j, f in enumerate(sk.FIELDS)}})


# per window field, how its key's partials merge: every field sums but the
# extrema (first/last become the SUMS of window boundary values), and m
# counts the merged series-windows — what pooled_acf1 needs
_AGGS = {**{f: (f, "min" if f == "vmin" else "max" if f == "vmax" else "sum")
            for f in sk.FIELDS}, "m": ("n", "size")}


def _derive_merged(merged: pa.Table) -> pa.Table:
    """Vectorized feature derivation over the merged sketch rows: ~10
    numpy kernels over the whole table.  ``first``/``last`` hold
    boundary-value sums, so they feed ``pooled_acf1`` only."""
    g = {f: merged.column(f).to_numpy() for f in _AGGS}
    mat = np.full((len(merged), sk.N_FIELDS), np.nan)
    for f in ("n", "s1", "s2", "s3", "s4", "c1", "vmin", "vmax"):
        mat[:, sk._I[f]] = g[f]
    feats = dict(sk.derive_features(mat), n=g["n"], acf1=sk.pooled_acf1(
        g["n"], g["s1"], g["s2"], g["c1"], g["first"], g["last"], g["m"]))
    return pa.table({**{k: merged.column(k) for k in ("source", "tier", "window_id")}, **{
        c: pa.array(feats[c], pa.float64()) for c in
        ("n", "mean", "var", "sd", "acf1", "skewness", "kurtosis", "vmin", "vmax")}})


def _filter_gapfree(batch: pa.Table) -> pa.Table:
    """Keep only rows whose token array has no -1 sentinel (used by the
    SQL-oracled gap-free twin: interpolated fill values are association-
    sensitive at the driver hash's rounding grid, integer sums are not)."""
    from ts_pymfe_ray.stages.rollup import tokens_flat

    offsets, flat = tokens_flat(batch)
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
    merged moment sketches -> mean/var/acf1/skew/kurt curves per source,
    one row per key in key order.  One :func:`combine`: inside the read
    tasks (one per row group) each block gives one row per series window
    (:func:`_partial_sketches`, in calls of at most 1024 rows, after the
    gap-free filter when asked) and reduces them to one partial row per
    key; the driver merges the small partial tables in sorted order (no
    shuffle, the same bits in any task order).  acf1 is the POOLED
    in-series lag-1 autocorrelation (sketch.pooled_acf1)."""
    tiers = tuple(tiers)

    def windows(block: pa.Table) -> pa.Table:
        if gap_free:
            block = _filter_gapfree(block)
        return in_slices(block, lambda rows: _partial_sketches(split_long_rows(rows), tiers), 1024)

    merged = combine(read_sequences(input_dir), ["source", "tier", "window_id"], _AGGS, windows)
    return ray.data.from_arrow(_derive_merged(merged))


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
    quantile estimates.  Each batch reduces to one (source, bin, count) row
    per bin of each of its sources in one bincount; :func:`combine` sums
    them per (source, bin)."""
    import pandas as pd

    from ts_pymfe_ray.stages.rollup import tokens_flat

    width = 65536 // num_bins

    def bins(batch: pa.Table) -> pa.Table:
        offsets, flat = tokens_flat(batch)
        src = pc.dictionary_encode(batch.column("source").combine_chunks())
        n_src = len(src.dictionary)
        row_src = np.repeat(src.indices.to_numpy().astype(np.int64), np.diff(offsets))
        ok = flat >= 0
        code = row_src[ok] * num_bins + np.minimum(flat[ok] // width, num_bins - 1)
        return pa.table({
            "source": src.dictionary.take(pa.array(np.repeat(np.arange(n_src), num_bins))),
            "bin": pa.array(np.tile(np.arange(num_bins), n_src), pa.int64()),
            "c": pa.array(np.bincount(code, minlength=n_src * num_bins), pa.int64()),
        })

    g = combine(read_sequences(input_dir), ["source", "bin"], {"c": ("c", "sum")}, bins)
    cum = np.cumsum(g.column("c").to_numpy().reshape(-1, num_bins), axis=1)
    n = cum[:, -1]
    out = pd.DataFrame({"source": g.column("source").to_pylist()[::num_bins], "n_tokens": n})
    for q in (0.25, 0.5, 0.75, 0.95):
        # first bin whose cumulative count reaches q * n (searchsorted-left)
        b = (cum < q * n[:, None]).sum(axis=1)
        out[f"q{int(q * 100)}_est"] = (b + 0.5) * width
    return out
