"""Sketch-derived fast per-series features — ladder-speed extraction.

The full kernel registry evaluates ~150 features per row with per-row
Python dispatch (ms/row).  This stage computes the sketch-DERIVABLE subset
— whole-series and first-difference moments, lag-1 autocorrelation,
extrema, mean-crossing fraction — with the SAME vectorized machinery as
the tier rollup: two batch-wide sketch passes + one batched derive pass,
~tens of microseconds per row.  At 10^12 sequences this is the feature pass you can
afford on every row; the full registry runs on samples or behind the
medium/heavy packs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.functions.gapfill import gap_fill_flat
from ts_pymfe_ray.stages.rollup import in_slices, tokens_flat
from ts_pymfe_ray.synth import stable_hash64

FAST_FEATURES = (
    "length", "mean", "var", "sd", "skewness", "kurtosis", "acf1",
    "vmin", "vmax", "vrange",
    "diff_mean", "diff_var", "diff_sd", "diff_skewness", "diff_kurtosis", "diff_acf1",
)


class FastFeatureStage:
    """Whole-row and first-difference sketches of every row of a batch in
    two ``compute_window_sketches_at`` calls, the batch-wide shape of
    ``rollup.sketch_ladder``: rows gap-fill into one flat buffer
    (``gap_fill_flat``) and each row is one window, with row barriers
    zeroing the cross-row products — bitwise identical to one sketch call
    per row.  The difference windows
    run over the flat first differences with each row's first position
    dropped.  A zero-length row reads ``length`` 0 and NaN elsewhere; a
    one-token row has NaN difference features."""

    def __init__(self, num_parts: int = 64):
        self.num_parts = num_parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        t_off, t_flat = tokens_flat(batch)
        n = t_off.size - 1
        off = (t_off - t_off[0]).astype(np.int64)
        lens = np.diff(off)
        x = gap_fill_flat(t_flat, t_off, np.empty(int(off[-1])))
        whole = _row_sketches(x, off)
        # first differences inside each row: the flat np.diff without the
        # differences that cross into a row's first position
        keep = np.ones(x.size, dtype=bool)
        keep[off[:-1][lens > 0]] = False
        d_off = np.concatenate([[0], np.cumsum(np.maximum(lens - 1, 0))])
        diffs = _row_sketches(np.diff(x)[keep[1:]], d_off)
        part_ids = np.fromiter((stable_hash64(d) % self.num_parts
                                for d in batch.column("doc_id").to_pylist()),
                               dtype=np.int32, count=n)
        fw = sk.derive_features(whole)
        fd = sk.derive_features(diffs)
        cols: dict[str, object] = {
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "part_id": pa.array(part_ids),
            "length": pa.array(lens.astype(np.float64), pa.float64()),
        }
        for name in ("mean", "var", "sd", "skewness", "kurtosis", "acf1", "vmin", "vmax", "vrange"):
            cols[name] = pa.array(fw[name], pa.float64())
        for name in ("mean", "var", "sd", "skewness", "kurtosis", "acf1"):
            cols[f"diff_{name}"] = pa.array(fd[name], pa.float64())
        return pa.table(cols)


def _row_sketches(x: np.ndarray, off: np.ndarray) -> np.ndarray:
    """One sketch per row of the flat ``x`` (row ``i`` is
    ``x[off[i]:off[i+1]]``); NaN for an empty row."""
    out = np.full((off.size - 1, sk.N_FIELDS), np.nan)
    rows = np.flatnonzero(np.diff(off) > 0)
    if rows.size:
        b = off[1:-1] - 1
        out[rows] = sk.compute_window_sketches_at(
            x, off[rows], off[rows + 1], barriers=b[b >= 0])
    return out


def run_fast_features(input_dir: str, out_dir: str | None = None):
    """Streaming fast-feature pass; returns the Dataset (caller writes or
    aggregates)."""
    from ts_pymfe_ray.sources.sequences import read_sequences

    stage = FastFeatureStage()
    ds = read_sequences(input_dir).map_batches(  # fused into the read, 512 rows a call
        in_slices, fn_args=(stage, 512), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)
    if out_dir is not None:
        ds.write_parquet(out_dir)
        return None
    return ds
