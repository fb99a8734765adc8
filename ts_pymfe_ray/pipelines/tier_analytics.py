"""Downstream analytics over the COMPRESSED tier output — the consumption
side of the retention ladder.

The rollup writes per-(doc, tier) Gorilla blobs; this pipeline reads those
parquet files back as a Ray Dataset, decodes the window-statistic streams
in ``map_batches`` and computes per-doc trend/volatility diagnostics from
the window-mean/var/acf1 curves.

Zero raw-token access — the whole point of retention: after the raw tier
ages out, analytics continue on 10x/100x.  :func:`read_tier_dataset`
enforces it at the file level: a hive partition filter lists only the
requested tier's ``shard=K/tier=T/`` directories (a 10x read never opens a
raw-tier file), and the column projection never includes ``tokens_dod``.

This is the continuous-aggregate query path of the north star: the tier
store is 1-2 orders of magnitude smaller than the token store, and every
query here touches only the compressed streams.
"""

from __future__ import annotations

import glob
import os
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ts_pymfe_ray.functions import gorilla
from ts_pymfe_ray.functions.rounding import round_ha
from ts_pymfe_ray.pipelines.combine import combine
from ts_pymfe_ray.stages.rollup import STREAMS, TIER_SCHEMA

# every tier column but the raw tier's token blob
_TIER_COLUMNS = [c for c in TIER_SCHEMA.names if c != "tokens_dod"]
_DIAG_COLUMNS = ["doc_id", "source", "tier", "n_windows", "win_streams"]
_DIAG_DTYPES = {"source": object, "n_docs": "int64", "avg_window_drift": "float64",
                "avg_sd_volatility": "float64", "avg_window_acf1": "float64"}


def read_tier_dataset(out_dir: str, tier: str,
                      columns: list[str] | None = None) -> ray.data.Dataset:
    """One tier of a rollup output, reading only that tier's files and only
    ``columns`` (default: every column but ``tokens_dod``).  A tier with no
    files (aged out by retention) reads as an empty dataset."""
    import ts_pymfe_ray._compat  # noqa: F401
    from ray.data.datasource.partitioning import Partitioning, PathPartitionFilter

    columns = list(_TIER_COLUMNS if columns is None else columns)
    if "tokens_dod" in columns:
        raise ValueError("tier analytics never read the raw token column")
    if not glob.glob(os.path.join(glob.escape(out_dir), "shard=*", f"tier={tier}", "*.parquet")):
        return ray.data.from_arrow(TIER_SCHEMA.empty_table().select(columns))
    # keys.get: the filter also sees manifest.jsonl (no partition keys)
    # before the extension filter drops it
    return ray.data.read_parquet(
        out_dir,
        columns=columns,
        file_extensions=["parquet"],
        partition_filter=PathPartitionFilter.of(
            lambda keys: keys.get("tier") == tier, style="hive", base_dir=out_dir),
        partitioning=Partitioning("hive"),
    )


def _decode_batch(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's ``win_streams`` blob decoded in one batched call:
    ``(flat, offsets, n_windows)``; row i's stream j is
    ``flat[offsets[i] + j * nw : offsets[i] + (j + 1) * nw]``."""
    col = batch.column("win_streams")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    _, off_buf, data_buf = arr.buffers()
    # a sliced array's offsets start at arr.offset and point into the
    # parent's data buffer
    offsets = np.frombuffer(off_buf, dtype=np.int32, count=len(arr) + 1, offset=4 * arr.offset)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.empty(0, np.uint8)
    flat, offsets = gorilla.decode_floats_xor_many(data, offsets)
    return flat, offsets, batch.column("n_windows").to_numpy().astype(np.int64)


def _decode_and_diagnose(batch: pa.Table) -> pa.Table:
    """Per tier row: decode the window streams, fit a linear drift to the
    window means, report volatility-of-volatility and mean window ACF.

    Rows are grouped by ``n_windows`` and each statistic is one ``axis=1``
    reduction over the group's ``(rows, nw)`` matrix — bitwise equal to the
    per-row ``np.nanmean``/``np.nansum``/``np.nanstd`` calls (a row's
    reduction runs over the same contiguous values either way;
    ``np.add.reduceat`` would associate differently)."""
    flat, offsets, nws = _decode_batch(batch)
    n = nws.size
    level, drift, volvol, mean_acf1 = (np.full(n, np.nan) for _ in range(4))
    i_mean, i_var, i_acf1 = (STREAMS.index(s) for s in ("mean", "var", "acf1"))
    for nw in np.unique(nws):
        rows = np.flatnonzero(nws == nw)
        mat = flat[offsets[rows][:, None] + np.arange(len(STREAMS) * nw)]
        mat = mat.reshape(rows.size, len(STREAMS), nw)
        means, acf1 = mat[:, i_mean], mat[:, i_acf1]
        with warnings.catch_warnings():  # all-NaN rows read NaN, as per row
            warnings.simplefilter("ignore", RuntimeWarning)
            mm = np.nanmean(means, axis=1)
            level[rows] = mm
            if nw > 1:
                t = np.arange(nw, dtype=np.float64)
                tm = t.mean()
                drift[rows] = (np.nansum((t - tm) * (means - mm[:, None]), axis=1)
                               / ((t - tm) ** 2).sum())
            if nw > 2:
                sd = np.sqrt(np.maximum(mat[:, i_var], 0))
                volvol[rows] = np.nanstd(sd, axis=1, ddof=1)
            with np.errstate(all="ignore"):
                mean_acf1[rows] = np.where(np.isfinite(acf1).any(axis=1),
                                           np.nanmean(acf1, axis=1), np.nan)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "source": batch.column("source"),
        "tier": batch.column("tier"),
        "n_windows": pa.array(nws, pa.int64()),
        "window_mean_level": level,
        "window_mean_drift": drift,
        "window_sd_volatility": volvol,
        "mean_window_acf1": mean_acf1,
    })


def tier_diagnostics(out_dir: str, tier: str = "10x",
                     gap_free: bool = False) -> pd.DataFrame:
    """Per-source diagnostics computed purely from compressed tier rows.

    ``gap_free=True`` restricts to rows with no gap sentinels — the
    SQL-oracled mode where a DuckDB twin recomputes the same window
    means/sd/acf1 from the RAW tokens (validating sequences -> rollup ->
    Gorilla decode -> analytics end-to-end; gap-filled values are float
    association-sensitive and stay rows-only)."""
    ds = read_tier_dataset(out_dir, tier, _DIAG_COLUMNS + (["n_gap"] if gap_free else []))
    if gap_free:
        ds = ds.filter(expr="n_gap == 0")
    diag = ds.map_batches(_decode_and_diagnose, batch_format="pyarrow", batch_size=512)

    avgs = {"avg_window_drift": "window_mean_drift",
            "avg_sd_volatility": "window_sd_volatility",
            "avg_window_acf1": "mean_window_acf1"}
    g = combine(diag, ["source"], {
        "n_docs": ("doc_id", "size"),
        **{f"s_{a}": (c, "sum") for a, c in avgs.items()},
        **{f"n_{a}": (c, "count") for a, c in avgs.items()},
    })
    if g.num_rows == 0:  # an aged-out tier, or no gap-free rows
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _DIAG_DTYPES.items()})
    g = g.to_pandas()
    for a in avgs:
        g[a] = round_ha(g.pop(f"s_{a}") / g.pop(f"n_{a}"))
    return g
