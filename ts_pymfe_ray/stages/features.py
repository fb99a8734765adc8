"""Per-series feature extraction stage: the reference's fit+extract
pipeline (tsmfe.py:632-980) fused into one map_batches pass.

A batch is evaluated kernel by kernel, not row by row
(:func:`registry.evaluate_batch`): the rows' capped, gap-filled series
form one :class:`registry.SeriesBatch`, each batch kernel (its only body
is ``many``) runs ONCE over all rows, and only the per-row kernels
(``period``, ``acf``, ``lz_complexity`` and the medium/heavy packs) run
row by row on SeriesCtx caches pre-seeded from the batch.  Outputs are
bitwise equal to :func:`registry.evaluate_row`, which runs a batch kernel
as its one-row call (tests/test_batch_kernels.py).

Stateless variant (cheap/medium kernels: pure numpy, no warm state) runs as
Ray tasks; the heavy variant (GP fits, embedding NN searches, model fits)
is the same callable used as an ACTOR POOL via
``map_batches(FeatureStage, concurrency=N)`` so per-actor state (kernel
list, scratch buffers) is built once per worker, not per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ts_pymfe_ray.features  # noqa: F401  (populates the registry)
from ts_pymfe_ray.functions.gapfill import gap_fill_flat
from ts_pymfe_ray.registry import (
    DEFAULT_ANALYSIS_CAP,
    SeriesBatch,
    SeriesCtx,
    evaluate_batch,
    feature_columns,
    kernels_of,
)
from ts_pymfe_ray.stages.rollup import tokens_flat
from ts_pymfe_ray.synth import stable_hash64


def preseed_stacked(ctxs: list[SeriesCtx], kernels) -> SeriesBatch:
    """Build the batch of ``ctxs`` and seed every row's SeriesCtx with its
    slice of the batch precomputes (z-scores, first differences, and —
    when some kernel runs per row — the SuperSmoother trend from ONE
    ragged ``supersmoother_ragged`` call).  Every seeded value is bitwise
    equal to the lazy per-row one.  (Per-row FFTs — acf/period — stay
    per row: pocketfft's stacked transforms are NOT bitwise-stable vs
    single-row calls.)"""
    b = SeriesBatch(ctxs)
    b.seed_ctxs(trend=any(k.many is None for k in kernels))
    return b


class FeatureStage:
    def __init__(
        self,
        groups: tuple[str, ...] | None = None,
        max_cost: str = "medium",
        cap: int = DEFAULT_ANALYSIS_CAP,
        num_parts: int = 64,
    ):
        self.kernels = kernels_of(groups, max_cost=max_cost)
        self.columns = feature_columns(self.kernels)
        self.cap = cap
        self.num_parts = num_parts
        # driver-side pre-seed: simulated stat-test null tables ship with
        # the stage instead of being rebuilt in every worker process
        self._null_tables = None
        if any(k.group == "stat_tests" and k.cost == "heavy" for k in self.kernels):
            from ts_pymfe_ray.functions.kernels_stat_tests import build_null_tables

            buckets = tuple(sorted({min(cap, 1024), 512} | {min(cap, 1024)}))
            self._null_tables = build_null_tables(buckets)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._null_tables is not None:
            from ts_pymfe_ray.functions.kernels_stat_tests import preseed_null_tables

            preseed_null_tables(self._null_tables)
        t_off, t_flat = tokens_flat(batch)
        off = (t_off - t_off[0]).astype(np.int64)
        x = gap_fill_flat(t_flat, t_off, np.empty(int(off[-1])))
        doc_ids = batch.column("doc_id").to_pylist()
        sources = batch.column("source").to_pylist()
        n = off.size - 1
        part_ids = np.empty(n, dtype=np.int32)
        ctxs = []
        for i in range(n):
            part_ids[i] = stable_hash64(doc_ids[i]) % self.num_parts
            ctxs.append(SeriesCtx(x[off[i]: off[i + 1]], doc_id=doc_ids[i], cap=self.cap))
        data = evaluate_batch(ctxs, self.kernels, preseed_stacked(ctxs, self.kernels))
        cols = {
            "doc_id": pa.array(doc_ids, pa.string()),
            "source": pa.array(sources, pa.string()),
            "part_id": pa.array(part_ids),
            "n_tok": batch.column("n_tok"),
        }
        # fixed, name-sorted feature schema (reference sorts by name,
        # tsmfe.py:941-947); dots are Arrow-safe in flat column names
        for c in self.columns:
            cols[c] = pa.array(data[c], pa.float64())
        return pa.table(cols)
