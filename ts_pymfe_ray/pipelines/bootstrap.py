"""Distributed bootstrap confidence intervals — the reference's
``extract_with_confidence`` (tsmfe.py:982-1248) re-expressed Ray-Data-first
(SURVEY.md §2.1):

    row -> flat_map into K resampled replicate rows (seeded per (doc, rep))
        -> the same fused feature kernel
        -> per-doc quantile rows (a segment kernel), all in one map

The reference reseeds the GLOBAL numpy RNG per replicate
(tsmfe.py:1051-1054); here each replicate's resampling indices come from
``PCG64(hash(doc_id) ^ rep)`` so results are identical regardless of which
worker or node processes which replicate."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ts_pymfe_ray.pipelines.combine import fetch_table
from ts_pymfe_ray.pipelines.queries import _seg, _sorted_groups
from ts_pymfe_ray.sources.sequences import read_sequences
from ts_pymfe_ray.stages.features import FeatureStage
from ts_pymfe_ray.stages.rollup import tokens_views
from ts_pymfe_ray.synth import stable_hash64


def _explode(batch: pa.Table, sample_num: int) -> pa.Table:
    views, _, _ = tokens_views(batch)
    doc_ids = batch.column("doc_id").to_pylist()
    sources = batch.column("source").to_pylist()
    out = {"doc_id": [], "tokens": [], "n_tok": [], "source": []}
    for i, tok in enumerate(views):
        n = tok.size
        for rep in range(sample_num):
            rng = np.random.Generator(np.random.PCG64(stable_hash64(doc_ids[i]) ^ rep))
            res = tok[rng.integers(n, size=n)]
            out["doc_id"].append(doc_ids[i])
            out["tokens"].append(res)
            out["n_tok"].append(n)
            out["source"].append(sources[i])
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "tokens": pa.array(out["tokens"], pa.list_(pa.int32())),
            "n_tok": pa.array(out["n_tok"], pa.int32()),
            "source": pa.array(out["source"], pa.string()),
        }
    )


def bootstrap_features(
    input_dir: str,
    sample_num: int = 16,
    confidence: float = 0.95,
    groups: tuple[str, ...] = ("general",),
    max_cost: str = "cheap",
    max_docs: int | None = 256,
) -> pd.DataFrame:
    """Per-feature bootstrap quantile intervals per doc.

    ``max_docs`` bounds the replicate fan-out for interactive runs (cost is
    sample_num x the feature pass); pass None to run the full table.
    """
    feat_stage = FeatureStage(groups=groups, max_cost=max_cost)
    cols = feat_stage.columns
    schema = pa.schema([("doc_id", pa.string()), ("n_reps", pa.int64())]
                       + [(f"{c}.{e}", pa.float64()) for c in cols for e in ("lo", "hi")])
    lo_q = (1.0 - confidence) / 2.0

    def intervals(batch: pa.Table) -> pa.Table:
        # subset, replicates, features and intervals in ONE map: a doc's
        # replicates all come from its one row here, so its group is whole
        # in this batch and no shuffle is needed
        if max_docs is not None:
            # deterministic subset: smallest hash values, independent of order
            cut = max(1, 1024 * max_docs // 100_000)
            batch = batch.filter(pa.array(
                [stable_hash64(d) % 1024 < cut for d in batch.column("doc_id").to_pylist()],
                pa.bool_()))
        reps = _explode(batch, sample_num)
        if not reps.num_rows:
            return schema.empty_table()
        feats = pa.concat_tables([feat_stage(reps.slice(i, 64))
                                  for i in range(0, reps.num_rows, 64)])
        return _interval_rows(*_sorted_groups(feats, ["doc_id"]), cols, lo_q)

    out = fetch_table(read_sequences(input_dir).map_batches(
        intervals, batch_format="pyarrow", batch_size=32), schema)
    return out.sort_by("doc_id").to_pandas()


def _interval_rows(block: pa.Table, starts: np.ndarray, cols, lo_q: float) -> pa.Table:
    """Segment kernel: one row per doc of the block — its replicate count
    and, per feature, the (lo_q, 1 - lo_q) quantiles of its finite
    replicate values (NaN when none is finite)."""
    ends, _ = _seg(starts, block.num_rows)
    out = {"doc_id": block.column("doc_id").take(pa.array(starts, pa.int64())),
           "n_reps": pa.array(ends - starts, pa.int64())}
    with np.errstate(all="ignore"):
        for c in cols:
            x = block.column(c).to_numpy()
            fin = [v[np.isfinite(v)] for v in (x[a:b] for a, b in zip(starts, ends))]
            for side, q in (("lo", lo_q), ("hi", 1 - lo_q)):
                out[f"{c}.{side}"] = pa.array(
                    [np.quantile(v, q) if v.size else np.nan for v in fin], pa.float64())
    return pa.table(out)
