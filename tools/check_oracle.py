"""Local driver-mimic: run every queries() entry and compare with its
oracle_sql() twin via DuckDB (row count + schema + order-insensitive
value comparison).  Usage: python tools/check_oracle.py [sf_dir]"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# this checkout first, so the script grades the code next to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            # upcast BEFORE rounding (driver semantics): erases float32
            # storage artifacts, e.g. duckdb list_cosine_similarity FLOAT
            df[c] = np.round(df[c].to_numpy().astype(np.float64), 6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    """Mimics the driver gate: row count + schema + order-insensitive EXACT
    value match after rounding floats to 6 (anything short of bitwise
    equality post-round flips the driver's value hash)."""
    a, b = canon(ray_df), canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}"
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind != bv.dtype.kind:
            return f"HASH-DTYPE MISMATCH col={c} ray={av.dtype} sql={bv.dtype}"
        if av.dtype.kind == "f":
            exact = (av == bv) | (np.isnan(av) & np.isnan(bv))
        else:
            exact = av == bv
        if not exact.all():
            bad = int(np.flatnonzero(~exact)[0])
            close = _eq(av[bad], bv[bad])
            kind = "HASH-VALUE MISMATCH (within rtol)" if close else "VALUE MISMATCH"
            return f"{kind} col={c} row={bad} ray={av[bad]!r} sql={bv[bad]!r}"
    return "OK"


def _eq(x, y):
    try:
        if isinstance(x, float) or isinstance(y, float):
            return bool(np.isclose(float(x), float(y), rtol=1e-6, atol=1e-6, equal_nan=True))
    except (TypeError, ValueError):
        pass
    return x == y


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:] or None

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    # the seq_* oracle twins bind the sequences-cache glob from
    # synth.LAST_DRIVER_SF at oracle_sql() CALL time (driver default
    # 0.01); running at another sf requires setting it BEFORE fetching
    # the SQL, or the twins read the wrong scale's cache
    from ts_pymfe_ray.synth import LAST_DRIVER_SF, sf_from_dir

    LAST_DRIVER_SF[0] = sf_from_dir(sf_dir)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    fails = 0
    counts: dict = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_df(fn(sf_dir))
        except Exception as ex:
            import traceback
            traceback.print_exc()
            print(f"{name:28s} RAY-ERROR {type(ex).__name__}: {ex}")
            fails += 1
            continue
        dt = time.perf_counter() - t0
        if name in oracles:
            sql_df = con.execute(oracles[name]).fetchdf()
            verdict = compare(name, ray_df, sql_df)
        else:
            verdict = f"rows-only ({len(ray_df)} rows)"
        status = verdict if verdict.startswith(("OK", "rows-only")) else f"FAIL {verdict}"
        if status.startswith("FAIL"):
            fails += 1
        counts[status.split()[0].split("(")[0]] = counts.get(status.split()[0].split("(")[0], 0) + 1
        print(f"{name:28s} {dt:6.2f}s  {status}")
    total = sum(counts.values())
    print(f"== {total} queries: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
