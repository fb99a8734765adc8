"""End-to-end pipeline tests over a tiny deterministic sequences table:
rollup ladder correctness, token round-trip, resume, cross-series rollup."""

import logging
import os
import re

import numpy as np
import pyarrow.dataset as pads
import pytest

from ts_pymfe_ray.functions import gorilla, sketch as sk
from ts_pymfe_ray.functions.gapfill import gap_fill
from ts_pymfe_ray.pipelines import flagship
from ts_pymfe_ray.stages.rollup import RAW_BUCKET, decode_tier_row
from ts_pymfe_ray.state import manifest as mf


@pytest.fixture(scope="module")
def rollup_out(ray_session, seq_dir_small, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tiers"))
    res = flagship.run_rollup(seq_dir_small, out, num_shards=4)
    return out, res


def _load_rows(out_dir, **filt):
    ds = pads.dataset(out_dir, format="parquet", partitioning="hive",
                      ignore_prefixes=[".", "_", "manifest"])
    tbl = ds.to_table()
    rows = tbl.to_pylist()
    for k, v in filt.items():
        rows = [r for r in rows if r[k] == v]
    return rows


def test_rollup_completes_and_has_three_tiers(rollup_out):
    out, res = rollup_out
    assert res["committed"] == res["num_shards"]
    rows = _load_rows(out)
    tiers = {r["tier"] for r in rows}
    assert tiers == {"raw", "10x", "100x"}
    docs = {r["doc_id"] for r in rows}
    assert len(rows) == 3 * len({(r["doc_id"], r["chunk_id"]) for r in rows})
    assert len(docs) >= 400


def test_raw_tier_token_roundtrip_bitwise(rollup_out, seq_dir_small):
    """BASELINE.json invariant: decode(tokens_dod) == original tokens."""
    out, _ = rollup_out
    src = pads.dataset(seq_dir_small, format="parquet").to_table(
        columns=["doc_id", "tokens"]
    )
    originals = dict(zip(src.column("doc_id").to_pylist(), src.column("tokens").to_pylist()))
    rows = _load_rows(out, tier="raw")
    assert rows
    for r in rows[:200]:
        dec = gorilla.decode_ints_dod(r["tokens_dod"])
        orig = np.asarray(originals[r["doc_id"]], dtype=np.int64)
        assert np.array_equal(dec, orig), r["doc_id"]


def test_tier_ladder_matches_direct_computation(rollup_out, seq_dir_small):
    """Tier streams decoded from parquet == sketches computed directly on
    the gap-filled series (FIXTURES.md §3.2 at the pipeline level)."""
    out, _ = rollup_out
    src = pads.dataset(seq_dir_small, format="parquet").to_table(
        columns=["doc_id", "tokens"]
    )
    originals = dict(zip(src.column("doc_id").to_pylist(), src.column("tokens").to_pylist()))
    for tier, factor in (("raw", 1), ("10x", 10), ("100x", 100)):
        rows = _load_rows(out, tier=tier)[:50]
        assert rows
        for r in rows:
            x = gap_fill(np.asarray(originals[r["doc_id"]], dtype=np.int32))
            direct = sk.derive_features(sk.compute_window_sketches(x, RAW_BUCKET * factor))
            dec = decode_tier_row(r)
            for stream in ("mean", "var", "acf1", "count"):
                np.testing.assert_allclose(
                    dec[stream], direct[stream], rtol=1e-9, equal_nan=True
                )
            assert dec["window_id"].tolist() == list(range(len(dec["mean"])))


def test_resume_skips_committed_and_fingerprint_stable(
    ray_session, seq_dir_small, tmp_path_factory
):
    """Kill after k shards -> resume -> manifest fingerprint identical to a
    straight run (FIXTURES.md §3.4)."""
    out_a = str(tmp_path_factory.mktemp("resume_a"))
    out_b = str(tmp_path_factory.mktemp("resume_b"))
    full = flagship.run_rollup(seq_dir_small, out_a, num_shards=4)
    partial = flagship.run_rollup(seq_dir_small, out_b, num_shards=4, max_shards=2)
    assert partial["committed"] == 2
    resumed = flagship.run_rollup(seq_dir_small, out_b, num_shards=4)
    assert resumed["committed"] == 4
    assert resumed["fingerprint"] == full["fingerprint"]
    # manifests carry lineage + metrics
    rec = mf.load_committed(out_b)[0]
    for key in ("input_files", "lineage_hash", "rows", "tokens", "wall_ms"):
        assert key in rec


def test_hot_key_splitting_exact(ray_session, seq_dir_small, tmp_path_factory):
    """Forcing a tiny chunk threshold splits long rows; sketches must stay
    exact per chunk and cover the full series."""
    out = str(tmp_path_factory.mktemp("tiers_split"))
    flagship.run_rollup(seq_dir_small, out, num_shards=2, max_chunk_tokens=6400)
    rows = _load_rows(out, tier="raw")
    split_docs = {}
    for r in rows:
        split_docs.setdefault(r["doc_id"], []).append(r)
    multi = {d: rs for d, rs in split_docs.items() if len(rs) > 1}
    assert multi, "expected at least one split doc"
    doc, rs = next(iter(multi.items()))
    rs.sort(key=lambda r: r["chunk_id"])
    # chunks tile the series without overlap
    total = sum(r["n_tok"] for r in rs)
    toks = np.concatenate([gorilla.decode_ints_dod(r["tokens_dod"]) for r in rs])
    assert toks.size == total
    # window ids are globally consistent
    wids = np.concatenate([decode_tier_row(r)["window_id"] for r in rs])
    assert wids.tolist() == list(range(len(wids)))


def test_features_pipeline(ray_session, seq_dir_small, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("feat"))
    res = flagship.run_features(
        seq_dir_small, out, groups=("general", "global_stats"), max_cost="medium",
        num_shards=2,
    )
    ds = pads.dataset(out, format="parquet", ignore_prefixes=[".", "_", "manifest"]).to_table()
    assert ds.num_rows >= 400
    names = ds.column_names
    assert "trend_strenght" in names and "length" in names
    ts_col = ds.column("trend_strenght").to_numpy()
    ok = np.isfinite(ts_col)
    assert ok.mean() > 0.95
    assert np.all((ts_col[ok] >= 0) & (ts_col[ok] <= 1))


def test_rollup_by_source(ray_session, seq_dir_small):
    res = flagship.rollup_by_source(seq_dir_small, tiers=("100x",)).to_pandas()
    assert set(res["source"]) <= {"web", "code", "books", "chat"}
    assert (res["tier"] == "100x").all()
    # window 0 aggregates every doc of the source
    w0 = res[res["window_id"] == 0]
    assert (w0["n"] > 0).all()


def _source_rollup_reference(token_rows, tiers) -> "pd.DataFrame":
    """Per-row reference of ``rollup_by_source`` over a one-source table:
    each row's direct window sketches, then per (tier, window_id) the
    ``math.fsum`` of every summed field, the min/max and the window count
    ``m``, derived as the engine derives them."""
    import math

    import pandas as pd

    from ts_pymfe_ray.stages.rollup import TIER_FACTORS

    acc: dict = {}
    for tok in token_rows:
        x = gap_fill(np.asarray(tok, dtype=np.int32))
        for tier in tiers:
            if x.size:
                for w, row in enumerate(sk.compute_window_sketches(x, RAW_BUCKET * TIER_FACTORS[tier])):
                    acc.setdefault((tier, w), []).append(row)
    keys = sorted(acc)
    mat = np.full((len(keys), sk.N_FIELDS), np.nan)
    m = np.array([len(acc[k]) for k in keys], dtype=np.float64)
    for i, k in enumerate(keys):
        w = np.array(acc[k])
        for f in ("n", "s1", "s2", "s3", "s4", "c1", "first", "last"):
            mat[i, sk._I[f]] = math.fsum(w[:, sk._I[f]])
        mat[i, sk._I["vmin"]] = w[:, sk._I["vmin"]].min()
        mat[i, sk._I["vmax"]] = w[:, sk._I["vmax"]].max()
    col = {f: mat[:, sk._I[f]] for f in sk.FIELDS}
    feats = dict(sk.derive_features(mat), n=col["n"], acf1=sk.pooled_acf1(
        col["n"], col["s1"], col["s2"], col["c1"], col["first"], col["last"], m))
    return pd.DataFrame({"source": ["web"] * len(keys), "tier": [k[0] for k in keys],
                         "window_id": [k[1] for k in keys],
                         **{c: feats[c] for c in ("n", "mean", "var", "sd", "acf1",
                                                  "skewness", "kurtosis", "vmin", "vmax")}})


def test_rollup_by_source_degenerate_rows(ray_session, tmp_path):
    """A zero-token row, a one-token row, an all-gap row, a constant row
    and a row over two 100x windows, all of one source, through
    ``rollup_by_source``: the per-row reference's rows, keys exact, ``n``,
    ``mean``, ``vmin`` and ``vmax`` exact (integer sums), the rest within
    the float sum-order move; with ``gap_free`` the rows with a gap drop
    out.  No window sketch holds a NaN, so the merge's NaN-as-missing rule
    skips nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    gappy = rng.integers(0, 60000, 900).astype(np.int32)
    gappy[rng.random(900) < 0.1] = -1
    rows = [[], [7], [-1] * 100, [42] * 130, gappy.tolist(),
            rng.integers(0, 60000, 2 * RAW_BUCKET * 100 + 37).tolist()]
    pq.write_table(pa.table({
        "doc_id": [f"d{i}" for i in range(len(rows))],
        "tokens": pa.array(rows, pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], pa.int32()),
        "source": ["web"] * len(rows)}), str(tmp_path / "part-0.parquet"))
    tiers = ("raw", "10x", "100x")
    for gap_free, kept in ((False, rows), (True, [rows[i] for i in (0, 1, 3, 5)])):
        got = flagship.rollup_by_source(str(tmp_path), tiers=tiers, gap_free=gap_free).to_pandas()
        want = _source_rollup_reference(kept, tiers)
        assert got[["source", "tier", "window_id"]].astype(object).values.tolist() == \
            want[["source", "tier", "window_id"]].values.tolist()
        for c in ("n", "mean", "vmin", "vmax"):
            assert got[c].tolist() == want[c].tolist(), c
        for c in ("var", "sd", "acf1", "skewness", "kurtosis"):
            np.testing.assert_allclose(got[c], want[c], rtol=1e-9, atol=1e-12,
                                       equal_nan=True, err_msg=c)


def test_rollup_by_source_without_windows_is_typed(ray_session, tmp_path):
    """``rollup_by_source(gap_free=True)`` over two rows that both have a
    gap has no window: no rows, and the same typed schema as over the
    rows kept without the filter."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "doc_id": ["a", "b"],
        "tokens": pa.array([[-1, 5, 9], [3, -1, -1, 4]], pa.list_(pa.int32())),
        "n_tok": pa.array([3, 4], pa.int32()),
        "source": ["web", "code"]}), str(tmp_path / "part-0.parquet"))
    empty = flagship.rollup_by_source(str(tmp_path), gap_free=True)
    full = flagship.rollup_by_source(str(tmp_path))
    assert empty.count() == 0 and full.count() > 0
    assert empty.schema().names == full.schema().names
    assert empty.schema().types == full.schema().types


def test_retention_prunes_tier_dirs(ray_session, seq_dir_small, tmp_path_factory):
    """North-rule retention: age out the raw tier by directory delete;
    coarser tiers stay decodable; resume does not resurrect raw."""
    from ts_pymfe_ray.state import retention

    out = str(tmp_path_factory.mktemp("tiers_ret"))
    flagship.run_rollup(seq_dir_small, out, num_shards=3)
    tiers_before = retention.list_tiers(out)
    assert set(tiers_before) == {"raw", "10x", "100x"}

    removed = retention.apply_retention(out, drop_tiers=("raw",))
    assert removed["raw"] == tiers_before["raw"]
    assert set(retention.list_tiers(out)) == {"10x", "100x"}

    # coarser tiers still decodable
    rows = _load_rows(out, tier="10x")
    assert rows
    row = rows[0]
    dec = decode_tier_row(row)
    assert dec["mean"].size == row["n_windows"]

    # resume must NOT recompute committed shards (raw stays pruned)
    res = flagship.run_rollup(seq_dir_small, out, num_shards=3)
    assert res["committed"] == 3
    assert set(retention.list_tiers(out)) == {"10x", "100x"}

    # audit record landed in the manifest
    import json

    with open(f"{out}/manifest.jsonl") as f:
        recs = [json.loads(l) for l in f if l.strip()]
    assert any(r.get("type") == "retention" for r in recs)


def test_true_sigkill_resume(ray_session, seq_dir_small, tmp_path_factory):
    """Hard-kill (SIGKILL) a rollup subprocess mid-job, then resume in a
    fresh process: final manifest fingerprint must equal a straight run's."""
    import json
    import subprocess
    import sys
    import time as _t

    out = str(tmp_path_factory.mktemp("tiers_kill"))
    code = f"""
import ray, logging
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
logging.getLogger("ray.data").setLevel(logging.ERROR)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ts_pymfe_ray.pipelines import flagship
flagship.run_rollup({seq_dir_small!r}, {out!r}, num_shards=4)
"""
    proc = subprocess.Popen([sys.executable, "-c", code], cwd="/root/repo",
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # wait for the first shard commit, then SIGKILL the whole job
    manifest = os.path.join(out, "manifest.jsonl")
    for _ in range(600):
        if os.path.exists(manifest) and os.path.getsize(manifest) > 0:
            break
        _t.sleep(0.1)
    proc.kill()
    proc.wait()
    # FENCE: the killed driver's raylet keeps its in-flight write tasks
    # alive for a moment; wait for them to be reaped so zombie writers
    # cannot race the resumed run's recompute of uncommitted shards
    # (production guidance: SCALE.md §5 — fence the previous attempt).
    _t.sleep(5)
    committed_after_kill = sum(1 for l in open(manifest) if l.strip()) if os.path.exists(manifest) else 0
    assert committed_after_kill >= 1

    # resume in-process (fresh logical run)
    res = flagship.run_rollup(seq_dir_small, out, num_shards=4)
    assert res["committed"] == 4

    straight = str(tmp_path_factory.mktemp("tiers_straight"))
    ref = flagship.run_rollup(seq_dir_small, straight, num_shards=4)
    assert res["fingerprint"] == ref["fingerprint"]


def _with_empty_file(seq_dir, dst):
    """``seq_dir``'s parquet files copied to ``dst`` plus one zero-row file
    with the same schema."""
    import shutil

    import pyarrow.parquet as pq

    os.makedirs(dst)
    files = sorted(f for f in os.listdir(seq_dir) if f.endswith(".parquet"))
    for f in files:
        shutil.copy(os.path.join(seq_dir, f), dst)
    schema = pq.read_schema(os.path.join(seq_dir, files[0]))
    pq.write_table(schema.empty_table(), os.path.join(dst, "zz-empty.parquet"))
    return len(files) + 1


@pytest.mark.parametrize("job", ["rollup", "features"])
def test_sharded_jobs_commit_a_shard_of_empty_files(ray_session, seq_dir_small,
                                                    tmp_path_factory, job):
    """An input dir holding a zero-row file: with one shard per file the
    empty file is a zero-row shard.  It commits with 0 rows and its own
    ``shard=K`` directory, so a rerun finds every shard committed, appends
    no line and keeps the fingerprint."""
    import json

    src = str(tmp_path_factory.mktemp(f"empty_in_{job}")) + "/seq"
    n_files = _with_empty_file(seq_dir_small, src)
    out = str(tmp_path_factory.mktemp(f"empty_out_{job}"))
    if job == "rollup":
        run = lambda: flagship.run_rollup(src, out, num_shards=n_files)  # noqa: E731
    else:
        run = lambda: flagship.run_features(  # noqa: E731
            src, out, groups=("general",), max_cost="cheap", num_shards=n_files)
    first, second = run(), run()
    assert first["committed"] == second["committed"] == n_files
    assert first["fingerprint"] == second["fingerprint"]
    lines = [json.loads(l) for l in open(mf.manifest_path(out)) if l.strip()]
    assert sorted(r["shard_id"] for r in lines) == list(range(n_files))
    empty = [r for r in lines if r["input_files"][0].endswith("zz-empty.parquet")]
    assert len(empty) == 1 and empty[0]["rows"] == 0 and empty[0]["tokens"] == 0
    assert os.path.isdir(mf.shard_dir(out, empty[0]["shard_id"]))


def test_commit_as_complete_bookkeeping():
    """The sharded runner's commit step over a hand-made tally stream:
    shards interleaved, one shard's rows split over several tallies, a
    zero-row shard.  Each shard commits once, right after the tally that
    completes its input rows, with its summed output rows and tokens."""
    expected = {0: 5, 1: 3, 2: 0, 3: 4}
    stream = [
        {"shard": [0, 1], "in_rows": [2, 1], "out_rows": [6, 3], "tokens": [20, 10]},
        {"shard": [3], "in_rows": [4], "out_rows": [12], "tokens": [40]},
        {"shard": [1, 0], "in_rows": [2, 2], "out_rows": [6, 3], "tokens": [21, 11]},
        {"shard": [0], "in_rows": [1], "out_rows": [6], "tokens": [22]},
        {"shard": [], "in_rows": [], "out_rows": [], "tokens": []},
        {"shard": [2], "in_rows": [0], "out_rows": [0], "tokens": [0]},
    ]
    events = []

    def tallies():
        for i, t in enumerate(stream):
            events.append(("tally", i))
            yield {k: np.asarray(v, dtype=np.int64) for k, v in t.items()}

    flagship._commit_as_complete(
        tallies(), expected, lambda sid, rows, tok: events.append(("commit", sid, rows, tok)))
    assert events == [
        ("commit", 2, 0, 0),
        ("tally", 0), ("tally", 1), ("commit", 3, 12, 40),
        ("tally", 2), ("commit", 1, 9, 31),
        ("tally", 3), ("commit", 0, 15, 53),
        ("tally", 4), ("tally", 5),
    ]
    # a shard whose rows never reach (or pass) its footer count raises
    for short in ([{"shard": [0], "in_rows": [4], "out_rows": [1], "tokens": [1]}],
                  [{"shard": [0], "in_rows": [6], "out_rows": [1], "tokens": [1]}]):
        with pytest.raises(RuntimeError):
            flagship._commit_as_complete(
                ({k: np.asarray(v) for k, v in t.items()} for t in short),
                {0: 5}, lambda *a: None)


def test_row_group_read_tasks_cover_the_files(tmp_path):
    """The sequence read makes one task per row group (per range of at
    most ``rows_per_task`` rows with it set) whatever the CPU count, and
    its tasks' blocks, in order, are the files' rows, each with its
    file's path; a zero-row file still gives one (empty) block."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ts_pymfe_ray.sources.sequences import SEQ_COLUMNS, ParquetRowGroupDatasource

    t = pa.table({"doc_id": [f"d{i:02d}" for i in range(13)],
                  "tokens": [[i, -1, i + 1] for i in range(13)],
                  "n_tok": pa.array([3] * 13, pa.int32()), "source": ["web"] * 13,
                  "extra": list(range(13))})
    a, e = str(tmp_path / "a.parquet"), str(tmp_path / "e.parquet")
    pq.write_table(t, a, row_group_size=5)  # row groups of 5, 5 and 3 rows
    pq.write_table(t.slice(0, 0), e)
    for rows_per_task, sizes in ((None, [5, 5, 3, 0]), (2, [2, 2, 1, 2, 2, 1, 2, 1, 0]),
                                 (5, [5, 5, 3, 0]), (100, [5, 5, 3, 0])):
        tasks = ParquetRowGroupDatasource([a, e], SEQ_COLUMNS, True,
                                          rows_per_task).get_read_tasks(1)
        assert [task.metadata.num_rows for task in tasks] == sizes
        blocks = [b for task in tasks for b in task()]
        assert [b.num_rows for b in blocks] == sizes
        got = pa.concat_tables(blocks)
        assert got.drop_columns(["path"]).equals(t.select(SEQ_COLUMNS))
        assert got.column("path").to_pylist() == [a] * 13


def test_in_slices_matches_one_call_and_keeps_empty_schemas(seq_dir_small):
    """``in_slices`` over a batch equals one stage call over it for
    row-wise stages, and an empty batch (e.g. a gap-free filter that kept
    nothing) gives an empty table with the stage's own schema."""
    import pyarrow as pa

    from ts_pymfe_ray.stages.fast_features import FastFeatureStage
    from ts_pymfe_ray.stages.rollup import in_slices, split_long_rows

    batch = pads.dataset(seq_dir_small, format="parquet").to_table().slice(0, 40)
    stage = FastFeatureStage()
    assert in_slices(batch, stage, 7).equals(stage(batch))
    for stage in (stage, lambda b: flagship._partial_sketches(split_long_rows(b))):
        full = stage(batch)
        empty = in_slices(batch.slice(0, 0), stage, 7)
        assert empty.num_rows == 0 and empty.schema == full.schema
    rows = in_slices(batch, lambda b: pa.table({"n": [b.num_rows]}), 16).column("n")
    assert rows.to_pylist() == [16, 16, 8]


def test_tier_analytics_from_compressed_streams(ray_session, seq_dir_small, tmp_path_factory):
    """Consumption side of the ladder: per-source diagnostics computed
    purely from compressed 10x tier rows — works even after the raw tier
    has been aged out."""
    from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics
    from ts_pymfe_ray.state import retention

    out = str(tmp_path_factory.mktemp("tiers_analytics"))
    flagship.run_rollup(seq_dir_small, out, num_shards=2)
    retention.apply_retention(out, drop_tiers=("raw",))  # tokens are gone
    df = tier_diagnostics(out, tier="10x")
    assert df["n_docs"].sum() >= 400
    assert (df["avg_window_acf1"].abs() <= 1.0).all()
    # NaN allowed for sources whose docs are all too short for volatility
    # (nw <= 2); the bulk sources must produce finite diagnostics
    assert df["avg_sd_volatility"].notna().sum() >= 3


def test_tier_read_lists_only_the_requested_tier(ray_session, rollup_out):
    """A 10x read opens only tier=10x files and never projects the raw
    tier's token blob."""
    from ts_pymfe_ray.pipelines.tier_analytics import read_tier_dataset

    out, _ = rollup_out
    ds = read_tier_dataset(out, "10x")
    files = ds.input_files()
    assert files and all(f"{os.sep}tier=10x{os.sep}" in f for f in files)
    assert "tokens_dod" not in ds.schema().names
    assert set(ds.unique("tier")) == {"10x"}
    with pytest.raises(ValueError):
        read_tier_dataset(out, "raw", ["doc_id", "tokens_dod"])


def test_tier_diagnostics_of_a_dropped_tier_is_empty(ray_session, seq_dir_small, tmp_path_factory):
    """Diagnostics of an aged-out tier are a typed empty frame, not a
    KeyError."""
    import pandas as pd

    from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics
    from ts_pymfe_ray.state import retention

    out = str(tmp_path_factory.mktemp("tiers_dropped"))
    flagship.run_rollup(seq_dir_small, out, num_shards=2)
    full = tier_diagnostics(out, tier="10x")
    retention.apply_retention(out, drop_tiers=("10x",))
    for gap_free in (False, True):
        df = tier_diagnostics(out, tier="10x", gap_free=gap_free)
        assert len(df) == 0
        pd.testing.assert_series_equal(df.dtypes, full.dtypes)
    assert len(tier_diagnostics(out, tier="100x")) == len(full)


def test_source_rollup_consistent_under_splitting(ray_session, seq_dir_small):
    """Cross-series rollup must be invariant to hot-key splitting: chunk
    rows contribute their windows at GLOBAL positions."""
    import pandas as pd

    from ts_pymfe_ray.pipelines.combine import combine
    from ts_pymfe_ray.sources.sequences import read_sequences
    from ts_pymfe_ray.stages.rollup import split_long_rows

    def run(max_chunk):
        def windows(block):
            return flagship._partial_sketches(split_long_rows(block, max_chunk), ("100x",))

        return combine(read_sequences(seq_dir_small), ["source", "tier", "window_id"],
                       flagship._AGGS, windows).select(
            ["source", "tier", "window_id", "n", "s1", "s2", "m"]).to_pandas()

    n_tok = pads.dataset(seq_dir_small, format="parquet").to_table(columns=["n_tok"])
    assert max(n_tok.column("n_tok").to_pylist()) > 6400
    whole = run(1_048_576)
    split = run(6400)  # force splitting of every row > 6400 tokens
    pd.testing.assert_frame_equal(whole, split, check_exact=False, rtol=1e-9)


class _PlanLog(logging.Handler):
    """Collects, from Ray Data's own log lines, the plan of every Dataset
    execution and every read whose blocks are split after the read."""

    _LOGGERS = {"ray.data._internal.execution.streaming_executor": logging.INFO,
                "ray.data._internal.logical.rules.set_read_parallelism": logging.DEBUG}

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.plans: list[tuple[str, str]] = []  # (dataset id, plan)
        self.splits: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        m = re.match(r"Execution plan of Dataset (\S+): (.*)", msg)
        if m:
            self.plans.append((m.group(1), m.group(2)))
        elif "each read task output is split into" in msg:
            self.splits.append(msg)

    def __enter__(self):
        self._levels = {}
        for name, level in self._LOGGERS.items():
            lg = logging.getLogger(name)
            self._levels[name] = lg.level
            lg.setLevel(level)
            lg.addHandler(self)
        return self

    def __exit__(self, *exc):
        for name, level in self._levels.items():
            lg = logging.getLogger(name)
            lg.removeHandler(self)
            lg.setLevel(level)

    def faults(self, shuffles: bool = True) -> list[str]:
        """Every SplitBlocks seen, every Dataset executed more than once
        and, unless ``shuffles`` is False, every Sort, Aggregate or shuffle
        operator."""
        out = [f"SplitBlocks: {s}" for s in self.splits]
        for ds_id, plan in self.plans:
            if not ds_id.endswith("_0"):
                out.append(f"{ds_id} executed again: {plan}")
            ops = re.findall(r"(\w+)\[([^\]]*)\]", plan) if shuffles else []
            for cls, name in ops:
                parts = name.split("->")
                if (cls == "AllToAllOperator" or "Hash" in cls or "Shuffle" in cls
                        or {"Sort", "Aggregate"} & set(parts)
                        or any(p.startswith("SplitBlocks") for p in parts)):
                    out.append(f"{ds_id}: {cls}[{name}]")
        return out


def test_sequence_jobs_are_fused_map_only_plans(ray_session, seq_dir_small, tmp_path_factory):
    """Every sequence job runs map-only plans with one read task per row group:
    no SplitBlocks after the read, no Sort, Aggregate or shuffle operator,
    and no Dataset executed twice."""
    import shutil

    import ray.data

    from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics
    from ts_pymfe_ray.sources.sequences import list_parquet_files
    from ts_pymfe_ray.stages.fast_features import run_fast_features

    out = str(tmp_path_factory.mktemp("plans"))
    tiers = os.path.join(out, "tiers")
    assert len(list_parquet_files(seq_dir_small)) == 8  # four 2-file shards
    jobs = {
        "run_rollup": lambda: flagship.run_rollup(seq_dir_small, tiers, num_shards=4),
        "run_features": lambda: flagship.run_features(
            seq_dir_small, os.path.join(out, "feat"), max_cost="cheap", num_shards=4),
        "run_fast_features": lambda: run_fast_features(seq_dir_small, os.path.join(out, "fast")),
        "resume": lambda: (shutil.rmtree(mf.shard_dir(tiers, 1)),
                           flagship.run_rollup(seq_dir_small, tiers, num_shards=4)),
        "rollup_by_source": lambda: flagship.rollup_by_source(seq_dir_small).to_pandas(),
        "rollup_by_source_gap_free": lambda: flagship.rollup_by_source(
            seq_dir_small, gap_free=True).to_pandas(),
        "tier_diagnostics": lambda: tier_diagnostics(tiers, tier="10x"),
    }
    for name, job in jobs.items():
        with _PlanLog() as log:
            job()
        assert log.plans, f"{name}: no execution plan captured"
        assert log.faults() == [], name

    # the capture sees what it is meant to reject
    files = list_parquet_files(seq_dir_small)[:2]
    with _PlanLog() as log:
        ray.data.read_parquet(files, override_num_blocks=6).materialize()
        ds = ray.data.range(8).sort("id")
        for _ in range(2):
            list(ds.iter_batches())
    faults = log.faults()
    assert any(f.startswith("SplitBlocks") for f in faults), faults
    assert any("Sort" in f for f in faults), faults
    assert any("executed again" in f for f in faults), faults
    assert all(f.startswith("SplitBlocks") or "executed again" in f
               for f in log.faults(shuffles=False))


# perfbench's events workload and the band join: the event entries whose
# reads the plan-shape and block-layout tests below pin
_EVENT_ENTRIES = (
    "events_window_rollup", "events_user_window_moments", "events_acf1",
    "events_gapfill_rollup", "events_interarrival", "events_sessionize_carry",
    "events_asof_carry", "events_funnel", "events_retention_cohorts", "events_wau",
    "events_range_join",
)


def test_event_entries_read_one_task_per_row_group(ray_session, check_oracle):
    """Every event entry is one Ray execution that reads its table one task
    per row group: no SplitBlocks after any read, no Dataset executed
    twice and no second plan (a materialize() and the plan that consumes
    it log two).  The span engine's Sort is its shuffle and stays allowed."""
    import ray.data

    import __ray_entry__ as e

    from perfbench.workloads import EVENT_ENTRIES

    assert set(EVENT_ENTRIES) < set(_EVENT_ENTRIES)
    names = (*_EVENT_ENTRIES, "events_user_window_rollup",
             "events_user_window_rollup_10x", "events_user_window_acf1")
    for name in names:
        with _PlanLog() as log:
            check_oracle.to_df(e.queries()[name]("/root/testdata/sf0.001"))
        assert len(log.plans) == 1, (name, log.plans)
        assert log.faults(shuffles=False) == [], name

    # the capture sees a materialized Dataset's second execution
    with _PlanLog() as log:
        ds = ray.data.range(8).map_batches(lambda b: b).materialize()
        ds.map_batches(lambda b: b).to_pandas()
    assert len(log.plans) == 2, log.plans


@pytest.fixture(scope="module")
def row_group_layouts(tmp_path_factory):
    """The same events written as one row group and as seven."""
    import pyarrow.parquet as pq

    table = pq.read_table("/root/testdata/sf0.001/events.parquet")
    dirs = []
    for groups in (1, 7):
        d = str(tmp_path_factory.mktemp(f"events_rg{groups}"))
        pq.write_table(table, os.path.join(d, "events.parquet"),
                       row_group_size=-(-table.num_rows // groups))
        assert pq.read_metadata(os.path.join(d, "events.parquet")).num_row_groups == groups
        dirs.append(d)
    return dirs


@pytest.mark.parametrize("name", _EVENT_ENTRIES)
def test_event_entries_do_not_depend_on_row_groups(ray_session, check_oracle,
                                                   row_group_layouts, name):
    """An event entry gives the same frame, bit for bit, whether its table
    is one row group (one read task) or seven."""
    import pandas as pd

    import __ray_entry__ as e

    one, seven = (check_oracle.to_df(e.queries()[name](d)) for d in row_group_layouts)
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, seven, check_exact=True)


def test_fast_features_match_full_kernels(ray_session, seq_dir_small, tmp_path_factory):
    """Sketch-derived fast features equal the registry kernels' values on
    the same (uncapped) series."""
    import pandas as pd

    from ts_pymfe_ray.stages.fast_features import run_fast_features

    df = run_fast_features(seq_dir_small).to_pandas().set_index("doc_id")
    src = pads.dataset(seq_dir_small, format="parquet").to_table(columns=["doc_id", "tokens"])
    originals = dict(zip(src.column("doc_id").to_pylist(), src.column("tokens").to_pylist()))
    from ts_pymfe_ray.functions.stats import skewness, kurtosis

    for doc_id in list(df.index)[:40]:
        x = gap_fill(np.asarray(originals[doc_id], dtype=np.int32))
        row = df.loc[doc_id]
        assert row["length"] == x.size
        assert row["mean"] == pytest.approx(x.mean(), rel=1e-12)
        assert row["var"] == pytest.approx(x.var(ddof=1), rel=1e-9)
        assert row["skewness"] == pytest.approx(skewness(x), abs=1e-9)
        assert row["kurtosis"] == pytest.approx(kurtosis(x), abs=1e-8)
        d = np.diff(x)
        assert row["diff_sd"] == pytest.approx(d.std(ddof=1), rel=1e-9)
        mu = x.mean()
        acf1 = ((x[:-1] - mu) * (x[1:] - mu)).sum() / ((x - mu) ** 2).sum()
        assert row["acf1"] == pytest.approx(acf1, abs=1e-9)


def test_token_histogram_quantiles(ray_session, seq_dir_small):
    """Mergeable histogram rollup: quantile estimates within one bin width
    of exact quantiles computed directly."""
    from ts_pymfe_ray.pipelines.flagship import token_histogram_by_source

    df = token_histogram_by_source(seq_dir_small).set_index("source")
    src = pads.dataset(seq_dir_small, format="parquet").to_table(columns=["source", "tokens"])
    by_src: dict[str, list] = {}
    for s, toks in zip(src.column("source").to_pylist(), src.column("tokens").to_pylist()):
        by_src.setdefault(s, []).extend(t for t in toks if t >= 0)
    width = 65536 / 256
    for s, vals in by_src.items():
        vals = np.asarray(vals)
        assert df.loc[s, "n_tokens"] == vals.size
        for q, col in ((0.5, "q50_est"), (0.95, "q95_est")):
            exact = np.quantile(vals, q)
            assert abs(df.loc[s, col] - exact) <= width + 1, (s, col)


def test_resume_recomputes_when_input_files_change(ray_session, seq_dir_small, tmp_path_factory):
    """Appending input files changes shard composition; affected committed
    shards must recompute rather than silently serve stale output."""
    import shutil

    import pyarrow.parquet as pq

    src_dir = str(tmp_path_factory.mktemp("seq_grow"))
    files = sorted(os.listdir(seq_dir_small))
    pq_files = [f for f in files if f.endswith(".parquet")]
    for f in pq_files[:-1]:
        shutil.copy(os.path.join(seq_dir_small, f), os.path.join(src_dir, f))

    out = str(tmp_path_factory.mktemp("tiers_grow"))
    r1 = flagship.run_rollup(src_dir, out, num_shards=2)
    rows_before = len(_load_rows(out))

    # append the held-out file — shard composition changes
    shutil.copy(os.path.join(seq_dir_small, pq_files[-1]), os.path.join(src_dir, pq_files[-1]))
    r2 = flagship.run_rollup(src_dir, out, num_shards=2)
    rows_after = len(_load_rows(out))
    assert rows_after > rows_before
    assert r2["fingerprint"] != r1["fingerprint"]
    # and the result equals a from-scratch run over the grown input
    fresh = str(tmp_path_factory.mktemp("tiers_grow_fresh"))
    r3 = flagship.run_rollup(src_dir, fresh, num_shards=2)
    assert r2["fingerprint"] == r3["fingerprint"]


def test_attempt_lock_blocks_concurrent_writers(ray_session, seq_dir_small, tmp_path_factory):
    """Two drivers must not double-write one output dir; a dead owner's
    lock is stolen."""
    from ts_pymfe_ray.state.manifest import AttemptLock

    out = str(tmp_path_factory.mktemp("tiers_lock"))
    with AttemptLock(out):
        with pytest.raises(RuntimeError, match="locked by a live run"):
            flagship.run_rollup(seq_dir_small, out, num_shards=2)
    # lock released -> run proceeds
    res = flagship.run_rollup(seq_dir_small, out, num_shards=2)
    assert res["committed"] == 2
    # stale lock (dead pid) is stolen transparently
    import json as _json

    with open(os.path.join(out, ".attempt_lock"), "w") as f:
        f.write(_json.dumps({"pid": 999999999}))
    res2 = flagship.run_rollup(seq_dir_small, out, num_shards=2)
    assert res2["committed"] == 2


def test_comp_engine_csv_ingest_end_to_end(ray_session, tmp_path):
    """The reference's own corpus CSV ingests into the sequences schema and
    flows through the tier rollup + fast features unchanged."""
    from ts_pymfe_ray.sources.comp_engine import ingest_comp_engine_csv
    from ts_pymfe_ray.stages.fast_features import run_fast_features

    seq_dir = ingest_comp_engine_csv(
        "/root/reference/data/comp-engine-export-sample.20200503.csv",
        str(tmp_path / "ce_seq"), max_obs=512,
    )
    out = str(tmp_path / "ce_tiers")
    res = flagship.run_rollup(seq_dir, out, num_shards=2)
    assert res["committed"] == 2
    df = run_fast_features(seq_dir).to_pandas()
    assert len(df) == 20  # the corpus has 20 series
    assert (df["source"] == "comp-engine").all()
    assert df["length"].between(1, 512).all()
    assert np.isfinite(df["mean"]).all()


def _events_by_user(sf_dir):
    """Each user's events in (ts, event_id) order, ts as epoch us."""
    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "events.parquet"))
    df["ts_us"] = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
    return df.sort_values(["ts_us", "event_id"]).groupby("user_id")


def test_sessionize_carry_matches_per_user(ray_session):
    """The boundary-carry sessionize (time-range partitions, carry-row
    merge) must reproduce a whole-history per-user pandas computation
    exactly — including with a 1-hour span that forces many
    cross-boundary session stitches."""
    import pandas as pd
    from ts_pymfe_ray.functions.rounding import round_ha
    from ts_pymfe_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.01"
    gap_us = 30 * 60 * 1_000_000
    rows = []
    for uid, g in _events_by_user(sf):
        ts = g["ts_us"].to_numpy()
        brk = np.concatenate([[True], np.diff(ts) > gap_us])
        n_sessions = int(brk.sum())
        bounds = np.concatenate([np.flatnonzero(brk), [ts.size]])
        spans = ts[bounds[1:] - 1] - ts[bounds[:-1]]
        rows.append({
            "user_id": np.int64(uid),
            "n_events": np.int64(ts.size),
            "n_sessions": np.int64(n_sessions),
            "max_session_events": np.int64(np.diff(bounds).max()),
            "avg_events_per_session": round_ha(ts.size / n_sessions),
            "avg_session_sec": round_ha(int(spans.sum()) / n_sessions / 1_000_000.0),
        })
    base = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(q.q_events_sessionize_carry(sf), base, check_exact=True)
    pd.testing.assert_frame_equal(q.q_events_sessionize_carry(sf, span_hours=1), base,
                                  check_exact=True)


def test_asof_carry_matches_per_user(ray_session):
    """The boundary-carry as-of join must equal a whole-history per-user
    pandas pass (each click -> the latest strictly earlier purchase), at
    the default span and at a 1-hour span."""
    import pandas as pd
    from ts_pymfe_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.01"
    parts = []
    for _, g in _events_by_user(sf):
        ts, ids = g["ts_us"].to_numpy(), g["event_id"].to_numpy()
        et = g["event_type"].to_numpy()
        click = et == "click"
        last_p = np.maximum.accumulate(np.where(et == "purchase", np.arange(ts.size), -1))
        m = np.concatenate([[-1], last_p[:-1]])[click]  # strictly earlier rows
        has = m >= 0
        parts.append(pd.DataFrame({
            "event_id": ids[click].astype(np.int64),
            "purchase_event_id": np.where(has, ids[np.maximum(m, 0)], -1).astype(np.int64),
            "lag_us": np.where(has, ts[click] - ts[np.maximum(m, 0)], -1).astype(np.int64),
        }))
    base = pd.concat(parts).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(q.q_events_asof_purchase_carry(sf), base, check_exact=True)
    pd.testing.assert_frame_equal(q.q_events_asof_purchase_carry(sf, span_hours=1), base,
                                  check_exact=True)


def test_disc_quantiles_match_duckdb_semantics():
    """_disc_quantiles implements DuckDB quantile_disc's element-at-
    ceil(q*n)-1 convention; lock it against DuckDB itself on adversarial
    integer multisets (heavy ties, n=1, duplicate-only, skewed counts)."""
    import duckdb
    import pandas as pd
    import numpy as np

    from ts_pymfe_ray.pipelines.queries import _disc_quantiles

    rng = np.random.default_rng(7)
    qs = (0.25, 0.5, 0.75, 0.9)
    cases = [
        np.array([5]),
        np.array([3, 3, 3, 3]),
        rng.integers(0, 10, 37),          # heavy ties
        rng.integers(0, 100_000, 256),    # near-distinct
        np.repeat([1, 2], [99, 1]),       # extreme skew
    ]
    for i, vals in enumerate(cases):
        u, c = np.unique(vals, return_counts=True)
        hist = pd.DataFrame({"source": f"s{i}", "n_chars": u, "c": c})
        got = _disc_quantiles(hist, qs).iloc[0]
        exp = duckdb.sql(
            "SELECT " + ", ".join(
                f"quantile_disc(x, {q}) AS p{int(q * 100)}" for q in qs
            ) + " FROM (SELECT unnest($vals) AS x)",
            params={"vals": [int(v) for v in vals]},
        ).fetchone()
        for (q, e) in zip(qs, exp):
            assert got[f"p{int(q * 100)}"] == e, (i, q, got, exp)


def test_hash_sampling_deterministic_and_unbiased(ray_session):
    """The md5 sampling coin is stable across runs (same kept set) and its
    keep-rate lands near the target for a uniform id population."""
    import numpy as np

    from ts_pymfe_ray.pipelines.queries import _md5_mod100, q_documents_sample_hash

    ids = np.arange(10_000, dtype=np.int64)
    coin = _md5_mod100(ids)
    assert np.array_equal(coin, _md5_mod100(ids))
    rate = float((coin < 25).mean())
    assert 0.22 < rate < 0.28
    a = q_documents_sample_hash("/root/testdata/sf0.001")
    b = q_documents_sample_hash("/root/testdata/sf0.001")
    assert a.equals(b)


def test_disc_quantiles_property_vs_duckdb():
    """Property check: for arbitrary small integer multisets and quantile
    levels, _disc_quantiles matches DuckDB quantile_disc exactly."""
    import duckdb
    import numpy as np
    import pandas as pd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ts_pymfe_ray.pipelines.queries import _disc_quantiles

    @settings(max_examples=60, deadline=None)
    @given(
        vals=st.lists(st.integers(min_value=-1000, max_value=1000),
                      min_size=1, max_size=60),
        q=st.sampled_from([0.01, 0.1, 0.25, 0.33, 0.5, 0.66, 0.75, 0.9, 0.99]),
    )
    def check(vals, q):
        u, c = np.unique(np.asarray(vals), return_counts=True)
        hist = pd.DataFrame({"source": "s", "n_chars": u, "c": c})
        got = int(_disc_quantiles(hist, (q,)).iloc[0][f"p{int(q * 100)}"])
        exp = duckdb.sql(
            f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest($v) AS x)",
            params={"v": [int(v) for v in vals]},
        ).fetchone()[0]
        assert got == exp, (vals, q, got, exp)

    check()


def _write_events(path, n_per_user, seed=5, days=30):
    """Deterministic synthetic events table (user_id, ts, event_id, value)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    uid, ts, val = [], [], []
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    span_total = days * 24 * 3600 * 1_000_000
    for u, n in n_per_user.items():
        uid.append(np.full(n, u, dtype=np.int64))
        # strictly increasing within user so (ts, event_id) order is stable
        ts.append(t0 + (np.arange(n, dtype=np.int64) * (span_total // n)))
        val.append(np.round(rng.normal(50.0, 20.0, size=n), 2))
    uid = np.concatenate(uid)
    ts = np.concatenate(ts)
    val = np.concatenate(val)
    eid = np.arange(uid.size, dtype=np.int64)  # global ids -> %10 gap pattern
    etype = np.array(["click", "error", "view"], dtype=object)[eid % 3]
    tbl = pa.table({
        "event_id": pa.array(eid, pa.int64()),
        "ts": pa.array(ts.view("datetime64[us]")),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(etype, pa.string()),
        "value": pa.array(val, pa.float64()),
    })
    pq.write_table(tbl, os.path.join(path, "events.parquet"))
    return pd.DataFrame({"event_id": eid, "ts": ts.view("datetime64[us]"),
                         "user_id": uid, "event_type": etype, "value": val})


def _ref_window_rollup(df, bucket=16):
    """Whole-user-per-task reference form (the round-4 implementation),
    on the exact-cents stream the round-5 queries sketch."""
    import pandas as pd
    from ts_pymfe_ray.functions.rounding import round_ha

    out = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        v = np.round(g["value"].to_numpy() * 100)
        m = sk.compute_window_sketches(v, bucket)
        m[:, sk.FIELDS.index("s1")] = sk.seq_window_sums(v, bucket)
        f = sk.derive_features(m)
        nw = m.shape[0]
        out.append(pd.DataFrame({
            "user_id": np.full(nw, uid, dtype=np.int64),
            "window_id": np.arange(nw, dtype=np.int64),
            "value_count": f["count"].astype(np.int64),
            "value_mean": round_ha(f["mean"] / 100.0),
            "value_var": round_ha(f["var"] / 10000.0),
        }))
    return (pd.concat(out, ignore_index=True)
            .sort_values(["user_id", "window_id"]).reset_index(drop=True))


def test_window_family_hot_user_distributed(ray_session, tmp_path_factory):
    """A planted 10^6-event bot user must flow through the positional-window
    engine without any single group materializing its history: the engine's
    largest per-task unit is one (user, span) slice — assert the span
    partitioning bounds it — and the distributed output must equal the
    whole-user-per-task reference form exactly."""
    import pandas as pd
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("hotevents"))
    df = _write_events(d, {0: 1_000_000, 1: 500, 2: 173, 3: 16})

    # engine partitioning bound: no (user, span) group holds more than a
    # span's worth of the bot's events (30 days -> ~33k/span), and the
    # window groupby holds <= bucket rows by construction
    span_us = 24 * 3600 * 1_000_000
    ts_us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
    per_span = pd.DataFrame({"u": df["user_id"], "s": ts_us // span_us}) \
        .groupby(["u", "s"]).size()
    assert per_span.max() < 50_000 < 1_000_000
    assert per_span.loc[0].size >= 25  # the bot's history spans many groups

    got = q.q_events_user_window_rollup(d)
    exp = _ref_window_rollup(df)
    pd.testing.assert_frame_equal(got, exp)
    assert len(got) == -(-1_000_000 // 16) + sum((-(-n // 16)) for n in (500, 173, 16))


def test_routed_groups_stay_bounded_for_a_hot_user(ray_session, tmp_path_factory,
                                                   monkeypatch):
    """Span rows routed by sort key never co-locate a user's history: with
    one user holding 90% of the events over 30 day-spans, no group that
    the routing kernels receive holds a kind 0 row among more than
    ``bucket`` rows, and the hot user's gap-fill carry group holds under
    10% of its events.  The kernels run in Ray tasks, so the wrappers
    record each call's groups to files."""
    import glob
    import uuid

    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("hot90"))
    df = _write_events(d, {0: 9000, 1: 500, 2: 300, 3: 200})
    rec = str(tmp_path_factory.mktemp("groups"))

    def recording(kernel, name):
        def wrapped(block, starts, *args, **kwargs):
            ends = np.append(starts[1:], block.num_rows).astype(np.int64)
            kind0 = (block.column("kind").to_numpy() == 0).astype(np.int64)
            np.save(os.path.join(rec, f"{name}-{uuid.uuid4().hex}.npy"), np.stack([
                block.column("user_id").to_numpy()[starts], ends - starts,
                np.add.reduceat(kind0, starts) if starts.size else kind0[:0]]))
            return kernel(block, starts, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(q, "_window_sketches", recording(q._window_sketches, "window"))
    monkeypatch.setattr(q, "_gapfill_resolve", recording(q._gapfill_resolve, "gapfill"))
    q.q_events_user_window_rollup(d)
    q.q_events_gapfill_rollup(d)

    hot = int((df["user_id"] == 0).sum())
    assert hot == 0.9 * len(df)
    for name in ("window", "gapfill"):
        uid, rows, kind0 = np.concatenate(
            [np.load(f) for f in glob.glob(os.path.join(rec, f"{name}-*.npy"))], axis=1)
        assert rows.sum() > hot / 16 and (uid == 0).sum() > 20, name
        assert rows[kind0 > 0].max() <= 16, name
    carry = rows[(uid == 0) & (kind0 == 0)]  # gap-fill: the hot user's carry rows
    assert carry.size == 1 and 20 < carry[0] < 0.1 * hot, carry


def test_window_family_distributed_matches_per_user(ray_session, tmp_path_factory):
    """All five window-family queries: distributed positional-window engine
    == whole-user reference form on a multi-user table (acf1 within the
    documented c1 ulp-class tolerance, everything else exact)."""
    import pandas as pd
    from ts_pymfe_ray.functions.rounding import round_ha
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("events2"))
    df = _write_events(d, {7: 60_000, 8: 321, 9: 47}, seed=11)

    pd.testing.assert_frame_equal(q.q_events_user_window_rollup(d),
                                  _ref_window_rollup(df))

    # 10x merge reference: merge_adjacent over per-user fine sketches
    def ref_10x(bucket=16, factor=10):
        out = []
        for uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"])
            v = np.round(g["value"].to_numpy() * 100)  # exact-cents stream
            fine = sk.compute_window_sketches(v, bucket)
            s1 = sk.FIELDS.index("s1")
            fine[:, s1] = sk.seq_window_sums(v, bucket)
            merged = sk.merge_adjacent(fine, factor)
            merged[:, s1] = sk.seq_window_sums(fine[:, s1], factor)
            f = sk.derive_features(merged)
            nw = merged.shape[0]
            out.append(pd.DataFrame({
                "user_id": np.full(nw, uid, dtype=np.int64),
                "window_id": np.arange(nw, dtype=np.int64),
                "value_count": f["count"].astype(np.int64),
                "value_mean": round_ha(f["mean"] / 100.0),
                "value_var": round_ha(f["var"] / 10000.0),
            }))
        return (pd.concat(out, ignore_index=True)
                .sort_values(["user_id", "window_id"]).reset_index(drop=True))

    pd.testing.assert_frame_equal(q.q_events_user_window_rollup_10x(d), ref_10x())

    # acf1: c1 is the one sketch field whose isolated-window association
    # differs by ~1 ulp from the whole-series path (documented); compare
    # at the rounding quantum
    def ref_acf1(bucket=16):
        out = []
        for uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"])
            m = sk.compute_window_sketches(g["value"].to_numpy(), bucket)
            f = sk.derive_features(m)
            ok = (f["count"] == bucket) & np.isfinite(f["acf1"])
            out.append(pd.DataFrame({
                "user_id": np.full(int(ok.sum()), uid, dtype=np.int64),
                "window_id": np.flatnonzero(ok).astype(np.int64),
                "acf1": round_ha(f["acf1"][ok]),
            }))
        return (pd.concat(out, ignore_index=True)
                .sort_values(["user_id", "window_id"]).reset_index(drop=True))

    got, exp = q.q_events_user_window_acf1(d), ref_acf1()
    pd.testing.assert_frame_equal(got[["user_id", "window_id"]],
                                  exp[["user_id", "window_id"]])
    assert np.allclose(got["acf1"], exp["acf1"], atol=2e-6, rtol=0)

    # gap-fill: engine policy on the whole series, then windows
    def ref_gapfill(bucket=16):
        out = []
        for uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"])
            v = g["value"].to_numpy().copy()
            missing = (g["event_id"].to_numpy() % 10) == 0
            if missing.all():
                continue
            pos = np.arange(v.size)
            valid = ~missing
            vidx = pos[valid]
            prev_i = np.searchsorted(vidx, pos, side="right") - 1
            next_i = np.searchsorted(vidx, pos, side="left")
            pi = vidx[np.clip(prev_i, 0, vidx.size - 1)]
            ni = vidx[np.clip(next_i, 0, vidx.size - 1)]
            pv, nv = v[pi], v[ni]
            with np.errstate(invalid="ignore", divide="ignore"):
                interp = pv + (nv - pv) * (pos - pi) / (ni - pi)
            filled = np.where(valid, v,
                              np.where(prev_i < 0, nv,
                                       np.where(next_i >= vidx.size, pv, interp)))
            m = sk.compute_window_sketches(filled, bucket)
            m[:, sk.FIELDS.index("s1")] = sk.seq_window_sums(filled, bucket)
            f = sk.derive_features(m)
            nw = m.shape[0]
            out.append(pd.DataFrame({
                "user_id": np.full(nw, uid, dtype=np.int64),
                "window_id": np.arange(nw, dtype=np.int64),
                "value_count": f["count"].astype(np.int64),
                "value_mean": round_ha(f["mean"]),
            }))
        return (pd.concat(out, ignore_index=True)
                .sort_values(["user_id", "window_id"]).reset_index(drop=True))

    pd.testing.assert_frame_equal(q.q_events_gapfill_rollup(d), ref_gapfill())


def test_acf1_span_partials_match_whole_history(ray_session, tmp_path_factory):
    """The span-partial acf1 must equal np.corrcoef over each type's full
    chronological history (to the shared 6dp rounding) — on a fixture with
    one hot type carrying 100x the events of the others, so the partials
    path (many spans merged via boundary pairs) is actually exercised."""
    import pandas as pd
    from ts_pymfe_ray.functions.rounding import round_ha
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("acf1events"))
    df = _write_events(d, {1: 60_000, 2: 400, 3: 150}, seed=9)
    got = q.q_events_acf1(d, span_hours=6)

    exp_rows = []
    for et, g in df.groupby("event_type"):
        g = g.sort_values(["ts", "event_id"])
        v = g["value"].to_numpy()
        r = float(np.corrcoef(v[:-1], v[1:])[0, 1]) if v.size >= 3 else np.nan
        exp_rows.append({"event_type": et, "acf1": round_ha(r),
                         "n": np.int64(v.size)})
    exp = pd.DataFrame(exp_rows).sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_range_join_bucketed_matches_per_user(ray_session, tmp_path_factory):
    """The interval-bucketed range join must equal the whole-user-per-task
    reference form exactly (integer lag math) — including on a dense user
    whose events are far closer together than the band width (many
    replicated clicks per bucket) and a sparse user with empty bands."""
    import pandas as pd
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("rjevents"))
    # user 7: 60k events over 30 days (~23 s apart, band 60 s -> dense)
    df = _write_events(d, {7: 60_000, 8: 321, 9: 47}, seed=11)

    def ref(band_sec=60):
        band_us = band_sec * 1_000_000
        out = []
        for uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"])
            ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            et = g["event_type"].to_numpy()
            ids = g["event_id"].to_numpy()
            click_ts = ts[et == "click"]
            err = et == "error"
            e_ts, e_id = ts[err], ids[err]
            lo = np.searchsorted(click_ts, e_ts - band_us, side="left")
            hi = np.searchsorted(click_ts, e_ts + band_us, side="right")
            n_in = (hi - lo).astype(np.int64)
            nearest = np.full(e_ts.size, -1, dtype=np.int64)
            for j in range(e_ts.size):
                if n_in[j] > 0:
                    nearest[j] = np.abs(click_ts[lo[j]:hi[j]] - e_ts[j]).min()
            out.append(pd.DataFrame({"event_id": e_id.astype(np.int64),
                                     "n_clicks_in_band": n_in,
                                     "nearest_click_lag_us": nearest}))
        return (pd.concat(out, ignore_index=True)
                .sort_values("event_id").reset_index(drop=True))

    pd.testing.assert_frame_equal(q.q_events_range_join(d), ref())


def test_cents_recipe_pins_half_boundary_means(ray_session, tmp_path_factory):
    """Regression pin for the sf0.1 rounding-boundary class: a 2dp value
    stream whose hour-bucket mean lands EXACTLY on the 6dp half must
    produce identical engine and DuckDB output.  Constructed case: 32
    events in one hour with an ODD cent sum (142623) -> true mean
    142623/3200 = 44.5696875, an exact 6dp half; the raw-float path put
    the two sides' ulp-different sums on opposite sides of it at sf0.1.
    The cents recipe makes both sides compute the SAME double before
    rounding, so the outputs agree whichever way that double rounds."""
    from fractions import Fraction

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("boundary"))
    vals = [44.57] * 31 + [44.56]          # cents sum 142623 (odd), n = 32
    true_mean = Fraction(sum(round(v * 100) for v in vals), 3200)
    # sanity: the true mean sits EXACTLY on the 6dp rounding half
    assert (true_mean * 10**7) % 10 == 5
    n = len(vals)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "ts": pa.array((t0 + np.arange(n, dtype=np.int64) * 1_000_000)
                       .view("datetime64[us]")),
        "user_id": pa.array(np.zeros(n, dtype=np.int64), pa.int64()),
        "event_type": pa.array(["click"] * n, pa.string()),
        "value": pa.array(np.array(vals, dtype=np.float64), pa.float64()),
    })
    pq.write_table(tbl, os.path.join(d, "events.parquet"))

    got = q.q_events_window_rollup(d)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    import __ray_entry__ as e
    exp = con.execute(e.oracle_sql()["events_window_rollup"]).df()
    assert len(got) == len(exp) == 1
    for col in ("value_count", "value_sum", "value_mean",
                "value_min", "value_max"):
        assert float(got[col].iloc[0]) == float(exp[col].iloc[0]), col


def test_hash_join_partials_matches_pandas_merge(ray_session):
    """The union+groupby shuffle join == pandas inner merge + group sums,
    including unmatched keys on both sides and multi-partial probe keys."""
    import pandas as pd
    import pyarrow as pa
    import ray
    from ts_pymfe_ray.pipelines.join import hash_join_partials

    rng = np.random.default_rng(21)
    bkeys = np.arange(0, 300, dtype=np.int64)            # build: unique keys
    bpay = rng.integers(0, 50, size=bkeys.size).astype(np.int64)
    pkeys = rng.integers(-20, 320, size=2000).astype(np.int64)  # some miss
    pvals = rng.integers(0, 1000, size=pkeys.size).astype(np.int64)

    build = ray.data.from_arrow(pa.table({"key": bkeys, "pay": bpay}))
    probe = ray.data.from_arrow(pa.table({"key": pkeys, "rev": pvals})) \
        .repartition(7)  # multiple partial rows per key across blocks
    got = hash_join_partials(build, probe, sum_cols=("rev",)).to_pandas()
    got = got.groupby("pay")["rev"].sum().sort_index()

    exp = (pd.DataFrame({"key": pkeys, "rev": pvals})
           .merge(pd.DataFrame({"key": bkeys, "pay": bpay}), on="key")
           .groupby("pay")["rev"].sum().sort_index())
    pd.testing.assert_series_equal(got, exp, check_dtype=False)


def test_funnel_span_partials_match_bruteforce(ray_session, tmp_path_factory):
    """The span-partial forward funnel must equal a brute-force pandas
    computation — including on a hot user whose events span many 6h spans
    (first click in one span, first qualifying purchase several spans
    later) and users with purchases only before their first click."""
    import pandas as pd
    from ts_pymfe_ray.pipelines import queries as q

    d = str(tmp_path_factory.mktemp("funnelevents"))
    df = _write_events(d, {1: 40_000, 2: 300, 3: 11, 4: 2}, seed=13)
    # _write_events assigns event_type by event_id % 3: click/error/view —
    # rewrite deterministically so purchases exist sparsely
    import pyarrow as pa
    import pyarrow.parquet as pq
    rng = np.random.default_rng(7)
    et = np.where(rng.random(len(df)) < 0.03, "purchase",
                  np.where(rng.random(len(df)) < 0.5, "click", "view"))
    df["event_type"] = et
    tbl = pa.table({
        "event_id": pa.array(df["event_id"].to_numpy(), pa.int64()),
        "ts": pa.array(df["ts"].to_numpy().astype("datetime64[us]")),
        "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
        "event_type": pa.array(df["event_type"].to_numpy(dtype=object), pa.string()),
        "value": pa.array(df["value"].to_numpy(), pa.float64()),
    })
    pq.write_table(tbl, os.path.join(d, "events.parquet"))

    got = q.q_events_funnel(d, span_hours=6)

    day_us = 86400 * 1_000_000
    win_us = 72 * 3600 * 1_000_000
    rows = []
    for uid, g in df.groupby("user_id"):
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        et = g["event_type"].to_numpy()
        clicks = ts[et == "click"]
        if clicks.size == 0:
            continue
        fc = clicks.min()
        purch = ts[(et == "purchase") & (ts >= fc)]
        conv = int(purch.size > 0 and purch.min() - fc <= win_us)
        rows.append({"cohort_day": fc // day_us, "conv": conv})
    ref = pd.DataFrame(rows)
    exp = ref.groupby("cohort_day").agg(
        n_users=("conv", "size"), n_converted=("conv", "sum")).reset_index()
    exp["cohort_day"] = exp["cohort_day"].astype("int64")
    exp["n_users"] = exp["n_users"].astype("int64")
    exp["n_converted"] = exp["n_converted"].astype("int64")
    exp = exp.sort_values("cohort_day").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def _degenerate_events(path, parts=1):
    """A hand-built events table of edge cases for the span-partial
    operators (see test_span_partials_degenerate_inputs_match_twins).
    ``parts`` > 1 writes ``events.parquet`` as a directory of that many
    files, the second one empty."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    h = 3600 * 1_000_000
    d, m = 24 * h, 60 * 1_000_000
    u3_vals = [12.5, 13.75, 11.0, 15.25, 9.5, 14.0, 10.25, 16.5, 12.0, 13.0,
               11.5, 17.25, 8.75, 12.25, 14.5, 10.0, 15.75, 9.25, 13.5, 11.75]
    u3_types = ["click", "view", "purchase", "view"] * 5
    u3_types[4] = "error"  # the only error event of the table
    rows = [
        # user 1: a single event
        (1, 1, 5 * h, "click", 10.5),
        # user 2: every event inside one 1-hour span
        (2, 2, d + 2 * h, "click", 3.25), (3, 2, d + 2 * h + m, "view", 4.0),
        (4, 2, d + 2 * h + 2 * m, "purchase", 7.5),
        (5, 2, d + 2 * h + 3 * m, "click", 1.0),
        (6, 2, d + 2 * h + 4 * m, "signup", 2.5),
        (7, 2, d + 2 * h + 5 * m, "purchase", 9.99),
        # user 3: ten events on day 0 and ten on day 3 (non-adjacent
        # spans); a 16-event window straddles them, and the missing
        # values (ids 20, 30) end each span
        *[(11 + i, 3, (i // 10) * 3 * d + 10 * h + (i % 10) * 5 * m,
           u3_types[i], u3_vals[i]) for i in range(20)],
        # user 4: every purchase before the first click; a gap of
        # exactly 30 minutes (no session break)
        (31, 4, 2 * d + h, "purchase", 5.0),
        (32, 4, 2 * d + h + 30 * m, "purchase", 6.0),
        (33, 4, 2 * d + 3 * h, "click", 1.5), (34, 4, 2 * d + 4 * h, "view", 2.0),
        # user 5: clicks and no purchase; a 30-minute gap across an hour
        # boundary and two events at the same ts
        (35, 5, 4 * d + 45 * m, "click", 2.0), (36, 5, 4 * d + 75 * m, "click", 3.0),
        (37, 5, 4 * d + 75 * m, "view", 4.0), (38, 5, 4 * d + 5 * h, "signup", 1.0),
        # user 6: every value missing under gap-fill's event_id % 10 rule
        (40, 6, 5 * d + h, "click", 1.0), (50, 6, 5 * d + 2 * h, "purchase", 2.0),
        (60, 6, 5 * d + 3 * h, "view", 3.0),
    ]
    eid, uid, off, et, val = zip(*rows)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    tbl = pa.table({
        "event_id": pa.array(eid, pa.int64()),
        "ts": pa.array((t0 + np.array(off, dtype=np.int64)).view("datetime64[us]")),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "value": pa.array(val, pa.float64()),
    })
    out = os.path.join(path, "events.parquet")
    if parts == 1:
        pq.write_table(tbl, out)
        return
    os.makedirs(out)
    cuts = np.linspace(0, tbl.num_rows, parts, dtype=int)
    bounds = [0, 0, *cuts[1:]]  # the second file holds no rows
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        pq.write_table(tbl.slice(a, b - a), os.path.join(out, f"part-{i}.parquet"))


@pytest.fixture(scope="module")
def degenerate_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("degenerate"))
    _degenerate_events(d)
    return d


_SPAN_ENTRIES = {
    "events_acf1": True, "events_interarrival": True, "events_funnel": True,
    "events_sessionize_carry": True, "events_asof_carry": True,
    "events_gapfill_rollup": True, "events_user_window_rollup": False,
    "events_user_window_moments": False, "events_retention_cohorts": False,
    "events_user_window_acf1": False, "events_user_window_rollup_10x": False,
}


@pytest.mark.parametrize("name,span_hours", [
    *[(n, None) for n in _SPAN_ENTRIES],
    *[(n, 1) for n, has_span in _SPAN_ENTRIES.items() if has_span],
])
def test_span_partials_degenerate_inputs_match_twins(
        ray_session, degenerate_dir, check_oracle, name, span_hours):
    """Every span-partial entry equals its DuckDB twin on degenerate
    inputs: single-event users and types, a two-event type, a user inside
    one span, a user in two non-adjacent spans, purchases only before the
    first click, clicks without a purchase, an all-missing gap-fill user."""
    import __ray_entry__ as e

    d = degenerate_dir
    fn = e.queries()[name]
    got = fn(d) if span_hours is None else fn(d, span_hours=span_hours)
    _assert_twin(check_oracle, name, got, f"{d}/events.parquet")


def _assert_twin(check_oracle, name, got, events_files, **tables):
    """``got`` equals the DuckDB twin of ``name`` over ``events_files``
    (and any other ``table=files`` views), and the twin returns rows."""
    import duckdb

    import __ray_entry__ as e

    con = duckdb.connect()
    for table, files in {"events": events_files, **tables}.items():
        con.execute(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{files}')")
    exp = con.execute(e.oracle_sql()[name]).fetchdf()
    assert len(exp) > 0
    assert check_oracle.compare(name, got, exp) == "OK"


@pytest.fixture(scope="module")
def degenerate_parts_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("degenerate_parts"))
    _degenerate_events(d, parts=5)
    return d


def test_sorted_groups_colocated_across_blocks(ray_session, degenerate_parts_dir):
    """Read from five files (one empty), the shuffle sort spreads the
    (user, span) groups over several blocks and never splits one: each
    group reaches exactly one kernel call."""
    import pyarrow as pa
    from ts_pymfe_ray.pipelines import queries as q

    def per_block(block, starts):
        return pa.table({"groups": [starts.size], "rows": [block.num_rows]})

    tagged = q._span_tagged(degenerate_parts_dir, ["user_id", "event_id"], 1)
    got = q._map_sorted_groups(tagged, ["user_id", "span_id"], per_block).to_pandas()
    exp = tagged.to_pandas().groupby(["user_id", "span_id"]).size()
    assert len(got) > 1
    assert got["rows"].sum() == exp.sum() and got["groups"].sum() == len(exp)


_MULTI_BLOCK_ENTRIES = (
    "events_window_rollup", "events_user_window_moments", "events_acf1",
    "events_gapfill_rollup", "events_interarrival", "events_sessionize_carry",
    "events_asof_carry", "events_funnel", "events_retention_cohorts",
    "events_wau", "events_user_window_rollup", "events_user_window_acf1",
    "events_user_window_rollup_10x",
)


@pytest.mark.parametrize("name", _MULTI_BLOCK_ENTRIES)
def test_multi_block_events_match_twins(
        ray_session, degenerate_parts_dir, check_oracle, name):
    """The degenerate events written as a directory of five parquet files
    (one empty), so every sort-based step sees several blocks: each entry
    still equals its DuckDB twin over the same files."""
    import __ray_entry__ as e

    d = degenerate_parts_dir
    _assert_twin(check_oracle, name, e.queries()[name](d),
                 f"{d}/events.parquet/*.parquet")


_WAU_CASES = {
    "one_user_one_event": [(1, 0)],
    "days_exactly_window_apart": [(1, 0), (1, 7), (1, 14)],
    "days_window_minus_one_apart": [(1, 0), (1, 6), (1, 12)],
    "mixed": [(1, 0), (1, 0), (1, 7), (2, 3), (2, 9), (2, 20), (3, 6), (3, 13),
              (4, 1), (4, 2), (4, 30), (5, 5)],
}


@pytest.mark.parametrize("case", sorted(_WAU_CASES))
def test_wau_runs_match_twin(ray_session, tmp_path_factory, check_oracle, case):
    """events_wau equals its DuckDB twin on active days exactly 7 and 6
    days apart (two runs against one merged run), one user with one event,
    and a mix whose repeated user-days are spread over three files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    rows = _WAU_CASES[case]
    day_us = 86_400 * 1_000_000
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    uid = np.array([u for u, _ in rows], dtype=np.int64)
    ts = t0 + np.array([d * day_us + 3_600_000_000 * (i % 5) for i, (_, d) in enumerate(rows)])
    tbl = pa.table({"event_id": pa.array(np.arange(len(rows)), pa.int64()),
                    "ts": pa.array(ts.astype(np.int64).view("datetime64[us]")),
                    "user_id": pa.array(uid, pa.int64())})
    d = str(tmp_path_factory.mktemp(f"wau_{case}"))
    os.makedirs(f"{d}/events.parquet")
    for k in range(3):
        pq.write_table(tbl.slice(k * len(rows) // 3, (k + 1) * len(rows) // 3 - k * len(rows) // 3),
                       f"{d}/events.parquet/part-{k}.parquet")
    _assert_twin(check_oracle, "events_wau", e.queries()["events_wau"](d),
                 f"{d}/events.parquet/*.parquet")


@pytest.fixture(scope="module")
def null_value_dir(tmp_path_factory):
    """Six events, one NULL value among three clicks of one hour and a
    lone signup whose only value is NULL."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    m = 60 * 1_000_000
    t0 = np.datetime64("2024-01-01T10:00:00", "us").astype("int64")
    off = np.array([0, 5, 9, 70, 130, 200], dtype=np.int64) * m
    tbl = pa.table({
        "event_id": pa.array(np.arange(6), pa.int64()),
        "ts": pa.array((t0 + off).view("datetime64[us]")),
        "user_id": pa.array([1, 2, 1, 3, 2, 1], pa.int64()),
        "event_type": pa.array(["click", "click", "click", "view", "signup", "view"]),
        "value": pa.array([1.25, None, 2.5, 4.0, None, 0.75], pa.float64()),
    })
    d = str(tmp_path_factory.mktemp("null_value"))
    pq.write_table(tbl, f"{d}/events.parquet")
    return d


@pytest.mark.parametrize("name", ["events_window_rollup", "events_hopping_window",
                                  "events_daily_extremes"])
def test_null_value_grouped_stats_match_twins(ray_session, null_value_dir, check_oracle, name):
    """A NULL value counts as a row and adds nothing to a sum: every
    grouped_stats events entry equals its DuckDB twin (the exact-cents
    cast once turned the NULL into INT64_MIN cents)."""
    import __ray_entry__ as e

    d = null_value_dir
    _assert_twin(check_oracle, name, e.queries()[name](d), f"{d}/events.parquet")


def test_null_price_drops_out_of_revenue_by_nation(ray_session, tmp_path, check_oracle):
    """On a copy of sf0.001 whose first lineitem price is NULL,
    revenue_by_nation equals its DuckDB twin: the NULL row adds nothing to
    its nation's revenue (it once became INT64_MIN 1e-4 units) and its
    order still counts."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    src = "/root/testdata/sf0.001"
    tables = ("lineitem", "orders", "customer", "nation")
    for t in tables[1:]:
        shutil.copy(f"{src}/{t}.parquet", tmp_path / f"{t}.parquet")
    li = pq.read_table(f"{src}/lineitem.parquet")
    price = li.column("l_extendedprice").to_pylist()
    price[0] = None
    i = li.schema.get_field_index("l_extendedprice")
    pq.write_table(li.set_column(i, "l_extendedprice", pa.array(price, pa.float64())),
                   tmp_path / "lineitem.parquet")
    got = e.queries()["revenue_by_nation"](str(tmp_path))
    _assert_twin(check_oracle, "revenue_by_nation", got, f"{src}/events.parquet",
                 **{t: f"{tmp_path}/{t}.parquet" for t in tables})


def test_out_root_follows_the_package_sources(tmp_path):
    """The entries' output root is keyed by the package sources: a copy of
    the checkout gets the same root, and editing one package file moves
    it, so a tier written by other code is never resumed."""
    import shutil

    import __ray_entry__ as e

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(os.path.join(root, "ts_pymfe_ray"), tmp_path / "ts_pymfe_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "__ray_entry__.py"), tmp_path)
    here = os.path.dirname(e._out("tiers"))
    assert e._out_root(str(tmp_path)) == here == e._out_root(root)
    edited = tmp_path / "ts_pymfe_ray" / "pipelines" / "combine.py"
    edited.write_text(edited.read_text() + "\n# edited\n")
    assert e._out_root(str(tmp_path)) != here
