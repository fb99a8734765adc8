"""Per-kernel micro-profiler for the batch feature path (no Ray).

Builds a synthetic batch the same way the Parquet source does
(synth.make_row_tokens) and, for each pack (cheap and medium by default):

- times ``FeatureStage`` on the whole batch (stage ms/row, median of 3);
- times the batch precompute separately (``preseed_stacked``: the flat
  SeriesBatch, the seeded z-scores/differences and the ragged
  SuperSmoother trend);
- times every kernel the way the stage runs it (``evaluate_batch`` of that
  kernel alone on the seeded batch, summaries included): its batch form
  ``many`` when it has one ("batch"), else its per-row ``fn`` ("row").
  A batch precompute shared by several kernels (sliding windows, tiles,
  walker) is charged to the first kernel that needs it.

Prints one table per pack, sorted by cost, with cumulative %.

Usage: python tools/profile_features.py [rows] [--cost cheap|medium|heavy]
                                        [--groups g1,g2]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

# this checkout first, so the script profiles the code next to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ts_pymfe_ray.functions.gapfill import gap_fill  # noqa: E402
from ts_pymfe_ray.registry import SeriesCtx, evaluate_batch, kernels_of  # noqa: E402
from ts_pymfe_ray.stages.features import FeatureStage, preseed_stacked  # noqa: E402
from ts_pymfe_ray.synth import make_row_tokens  # noqa: E402


def profile(rows: int, max_cost: str, groups) -> None:
    kernels = kernels_of(groups, max_cost=max_cost)
    ids = [f"doc{i:06d}" for i in range(rows)]
    toks = [make_row_tokens(d) for d in ids]
    table = pa.table({
        "doc_id": pa.array(ids, pa.string()),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": pa.array(["synth"] * rows, pa.string()),
    })
    stage = FeatureStage(groups=groups, max_cost=max_cost)
    runs = []
    for _ in range(3):  # the median: the first call also pays set-up
        t0 = time.perf_counter()
        stage(table)
        runs.append(time.perf_counter() - t0)
    t_stage = sorted(runs)[1]

    ctxs = [SeriesCtx(gap_fill(t), doc_id=d) for t, d in zip(toks, ids)]
    t0 = time.perf_counter()
    b = preseed_stacked(ctxs, kernels)
    t_pre = time.perf_counter() - t0
    per: dict[str, tuple[float, str]] = {}
    for k in kernels:
        t0 = time.perf_counter()
        evaluate_batch(ctxs, [k], b)
        per[k.name] = (time.perf_counter() - t0, "batch" if k.many is not None else "row")

    total = sum(t for t, _ in per.values())
    n_batch = sum(kind == "batch" for _, kind in per.values())
    print(f"\n== {max_cost} pack: rows={rows} kernels={len(kernels)} "
          f"({n_batch} batch forms, {len(kernels) - n_batch} per row)")
    print(f"stage:      {t_stage * 1e3:8.1f} ms  ({t_stage / rows * 1e3:6.3f} ms/row)")
    print(f"precompute: {t_pre * 1e3:8.1f} ms  ({t_pre / rows * 1e3:6.3f} ms/row)")
    for kind in ("batch", "row"):
        t = sum(v for v, kd in per.values() if kd == kind)
        print(f"{kind + ' kernels:':12s}{t * 1e3:8.1f} ms  ({t / rows * 1e3:6.3f} ms/row)")
    print("\n  ms_total  ms/row   cum%  path   kernel")
    cum = 0.0
    for name, (t, kind) in sorted(per.items(), key=lambda x: -x[1][0])[:30]:
        cum += t
        print(f"  {t * 1e3:8.1f}  {t / rows * 1e3:6.3f}  {cum / total * 100:5.1f}  {kind:5s}  {name}")


def main() -> None:
    rows = 256
    costs = ["cheap", "medium"]
    groups = None
    args = sys.argv[1:]
    if args and args[0].isdigit():
        rows = int(args.pop(0))
    if "--cost" in args:
        costs = [args[args.index("--cost") + 1]]
    if "--groups" in args:
        groups = tuple(args[args.index("--groups") + 1].split(","))
    with np.errstate(all="ignore"):
        for cost in costs:
            profile(rows, cost, groups)


if __name__ == "__main__":
    main()
