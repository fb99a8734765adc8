"""Per-kernel micro-profiler for the feature stage (no Ray).

Builds a synthetic batch the same way the Parquet source does
(synth.make_row_tokens), replicates FeatureStage's ctx construction +
preseed_stacked, then times every kernel across all rows.  Prints a
per-kernel cost table (sorted, cumulative %) and total ms/row so hot-path
work can be measured without bench.py's regime noise.

Usage: python tools/profile_features.py [rows] [--heavy] [--groups g1,g2]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# this checkout first, so the script profiles the code next to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ts_pymfe_ray.functions.gapfill import gap_fill
from ts_pymfe_ray.registry import SeriesCtx, kernels_of, summarize_array
from ts_pymfe_ray.stages.features import preseed_stacked
from ts_pymfe_ray.synth import make_row_tokens


def main() -> None:
    rows = 256
    max_cost = "medium"
    groups = None
    args = sys.argv[1:]
    if args and args[0].isdigit():
        rows = int(args.pop(0))
    if "--heavy" in args:
        max_cost = "heavy"
        args.remove("--heavy")
    if "--cost" in args:
        i = args.index("--cost")
        max_cost = args[i + 1]
    if "--groups" in args:
        i = args.index("--groups")
        groups = tuple(args[i + 1].split(","))
    kernels = kernels_of(groups, max_cost=max_cost)

    ctxs = []
    for i in range(rows):
        tok = make_row_tokens(f"doc{i:06d}")
        ctxs.append(SeriesCtx(gap_fill(tok), doc_id=f"doc{i:06d}"))

    t0 = time.perf_counter()
    preseed_stacked(ctxs, kernels)
    t_seed = time.perf_counter() - t0

    per_kernel = {k.name: 0.0 for k in kernels}
    t_sum = 0.0
    with np.errstate(all="ignore"):
        for c in ctxs:
            for k in kernels:
                t0 = time.perf_counter()
                try:
                    val = k.fn(c)
                except Exception:
                    val = np.nan
                dt = time.perf_counter() - t0
                per_kernel[k.name] += dt
                if k.returns_array and isinstance(val, np.ndarray):
                    t0 = time.perf_counter()
                    summarize_array(val)
                    t_sum += time.perf_counter() - t0

    total = sum(per_kernel.values())
    print(f"rows={rows} kernels={len(kernels)} max_cost={max_cost}")
    print(f"preseed: {t_seed*1e3:8.1f} ms  ({t_seed/rows*1e3:6.3f} ms/row)")
    print(f"kernels: {total*1e3:8.1f} ms  ({total/rows*1e3:6.3f} ms/row)")
    print(f"summarize: {t_sum*1e3:6.1f} ms")
    grand = t_seed + total + t_sum
    print(f"TOTAL:   {grand*1e3:8.1f} ms  ({grand/rows*1e3:6.3f} ms/row)")
    print("\n  ms_total  ms/row   cum%  kernel")
    cum = 0.0
    for name, t in sorted(per_kernel.items(), key=lambda x: -x[1])[:30]:
        cum += t
        print(f"  {t*1e3:8.1f}  {t/rows*1e3:6.3f}  {cum/total*100:5.1f}  {name}")


if __name__ == "__main__":
    main()
