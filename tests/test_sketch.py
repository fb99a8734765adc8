"""Rollup algebra invariants (FIXTURES.md §3.2): merged sketches equal
direct computation — exact, property-based."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_pymfe_ray.functions import sketch as sk


@given(
    n=st.integers(1, 400),
    bucket=st.integers(1, 64),
    group=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
@settings(max_examples=120, deadline=None)
def test_merge_adjacent_equals_direct(n, bucket, group, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10
    fine = sk.compute_window_sketches(x, bucket)
    merged = sk.merge_adjacent(fine, group)
    direct = sk.compute_window_sketches(x, bucket * group)
    assert merged.shape == direct.shape
    np.testing.assert_allclose(merged, direct, rtol=1e-9, atol=1e-9)


@given(n=st.integers(3, 500), seed=st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_derived_stats_match_numpy(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 3.0, size=n)
    whole = sk.compute_window_sketches(x, n)
    f = sk.derive_features(whole)
    mu = x.mean()
    assert np.isclose(f["mean"][0], mu)
    assert np.isclose(f["var"][0], x.var(ddof=1))
    acf1 = ((x[:-1] - mu) * (x[1:] - mu)).sum() / ((x - mu) ** 2).sum()
    assert np.isclose(f["acf1"][0], acf1)
    m2 = ((x - mu) ** 2).mean()
    m3 = ((x - mu) ** 3).mean()
    m4 = ((x - mu) ** 4).mean()
    skew3 = m3 / m2**1.5 * ((n - 1) / n) ** 1.5
    kurt3 = (m4 / m2**2) * (1 - 1 / n) ** 2 - 3
    assert np.isclose(f["skewness"][0], skew3)
    assert np.isclose(f["kurtosis"][0], kurt3)
    assert f["vmin"][0] == x.min() and f["vmax"][0] == x.max()


def test_rollup_stage_degenerate_rows():
    """Single-token, all-sentinel, constant and EMPTY rows flow through the
    rollup stage; raw-tier round trip stays exact."""
    import pyarrow as pa

    from ts_pymfe_ray.stages.rollup import RollupStage, decode_tier_row, split_long_rows

    toks = [
        np.array([7], dtype=np.int32),
        np.full(100, -1, dtype=np.int32),
        np.full(130, 42, dtype=np.int32),
        np.array([], dtype=np.int32),
    ]
    batch = pa.table({
        "doc_id": [f"edge-{i}" for i in range(len(toks))],
        "tokens": pa.array(list(toks), pa.list_(pa.int32())),
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": ["web"] * len(toks),
    })
    out = RollupStage()(split_long_rows(batch))
    assert out.num_rows == 3 * len(toks)
    for r in out.to_pylist():
        dec = decode_tier_row(r)
        assert dec["mean"].size == r["n_windows"]
        if r["tier"] == "raw":
            i = int(r["doc_id"].split("-")[1])
            assert np.array_equal(dec["tokens"], toks[i].astype(np.int64))


@given(
    lengths=st.lists(st.integers(0, 900), min_size=1, max_size=12),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_rollup_stage_fuzz_roundtrip(lengths, seed):
    """Hypothesis fuzz over arbitrary batch shapes: every raw row's token
    blob round-trips and stream lengths match window counts."""
    import pyarrow as pa

    from ts_pymfe_ray.stages.rollup import RollupStage, decode_tier_row

    rng = np.random.default_rng(seed)
    toks = [rng.integers(-1, 65536, size=n).astype(np.int32) for n in lengths]
    batch = pa.table({
        "doc_id": [f"f{i}" for i in range(len(toks))],
        "tokens": pa.array(list(toks), pa.list_(pa.int32())),
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": ["web"] * len(toks),
    })
    out = RollupStage()(batch).to_pylist()
    raw = {r["doc_id"]: r for r in out if r["tier"] == "raw"}
    for i, t in enumerate(toks):
        dec = decode_tier_row(raw[f"f{i}"])
        assert np.array_equal(dec["tokens"], t.astype(np.int64))
        assert dec["var"].size == raw[f"f{i}"]["n_windows"]


@given(
    lengths=st.lists(st.integers(0, 700), min_size=1, max_size=10),
    bucket=st.sampled_from([1, 7, 64]),
    seed=st.integers(0, 200),
)
@settings(max_examples=60, deadline=None)
def test_global_at_bitwise_parity(lengths, bucket, seed):
    """compute_window_sketches_at / merge_adjacent_at over a multi-row flat
    array (row-barrier products zeroed) are BITWISE equal to per-row
    compute_window_sketches / merge_adjacent — the contract the rollup
    stage's batch-global pass 1 rides on."""
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=n) * 50 for n in lengths]
    flat = np.concatenate(rows) if rows else np.empty(0)
    rel = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.int64)
    nw = -(-np.diff(rel) // bucket)
    w_off = np.concatenate([[0], np.cumsum(nw)])
    W = int(w_off[-1])
    within = np.arange(W, dtype=np.int64) - np.repeat(w_off[:-1], nw)
    starts = np.repeat(rel[:-1], nw) + within * bucket
    ends = np.minimum(starts + bucket, np.repeat(rel[1:], nw))
    barriers = rel[1:-1] - 1
    got = sk.compute_window_sketches_at(
        flat, starts, ends, barriers=barriers[barriers >= 0])
    per_row = [sk.compute_window_sketches(r, bucket) for r in rows if r.size]
    want = np.vstack(per_row) if per_row else np.empty((0, sk.N_FIELDS))
    assert got.tobytes() == want.tobytes()

    # merge level: groups of 3 within each row's window range
    nm = -(-nw // 3)
    m_off = np.concatenate([[0], np.cumsum(nm)])
    M = int(m_off[-1])
    within_m = np.arange(M, dtype=np.int64) - np.repeat(m_off[:-1], nm)
    ms = np.repeat(w_off[:-1], nm) + within_m * 3
    me = np.minimum(ms + 3, np.repeat(w_off[1:], nm))
    mb = w_off[1:-1] - 1
    got_m = sk.merge_adjacent_at(got, ms, me, barriers=mb[mb >= 0])
    per_row_m = [sk.merge_adjacent(p, 3) for p in per_row]
    want_m = np.vstack(per_row_m) if per_row_m else np.empty((0, sk.N_FIELDS))
    assert got_m.tobytes() == want_m.tobytes()


def test_buffer_reuse_bitwise_parity():
    """The out=/scratch= buffer-reuse paths (gap_fill_flat, window
    sketches, merge_adjacent, RollupStage instance reuse across batches)
    are bitwise identical to allocate-fresh computation — the reuse knobs
    must never change a single ulp of tier output."""
    import pyarrow as pa

    from ts_pymfe_ray.functions.gapfill import gap_fill, gap_fill_flat
    from ts_pymfe_ray.stages.rollup import RollupStage

    rng = np.random.default_rng(11)
    # function-level parity, dirty buffers on purpose
    for n in (1, 63, 64, 65, 640, 1931):
        tok = rng.integers(-1, 50000, size=n).astype(np.int32)
        xbuf = np.full(4096, 1e300)
        scratch = np.full((2, 4096), -1e300)
        x_fresh = gap_fill(tok)
        x_buf = gap_fill_flat(tok, np.array([0, n]), xbuf)
        assert np.array_equal(x_fresh, x_buf)
        fresh = sk.compute_window_sketches(x_fresh, 64)
        outbuf = np.full((fresh.shape[0], sk.N_FIELDS), 7.7)
        reused = sk.compute_window_sketches(x_buf, 64, out=outbuf, scratch=scratch)
        assert fresh.tobytes() == reused.tobytes()
        m_fresh = sk.merge_adjacent(fresh, 10)
        mbuf = np.full((m_fresh.shape[0], sk.N_FIELDS), -3.3)
        m_reused = sk.merge_adjacent(reused, 10, out=mbuf, scratch=scratch[1])
        assert m_fresh.tobytes() == m_reused.tobytes()

    # stage-level parity: ONE instance over several differently-shaped
    # batches (buffers grow and are reused dirty) == fresh instance each
    def mk(nrows, seed):
        r = np.random.default_rng(seed)
        toks = [r.integers(-1, 50000, size=int(r.integers(0, 2500))).astype(np.int32)
                for _ in range(nrows)]
        return pa.table({
            "doc_id": [f"p{seed}-{i}" for i in range(nrows)],
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array([t.size for t in toks], pa.int32()),
            "source": ["web"] * nrows,
        })

    reused_stage = RollupStage()
    for seed, nrows in ((1, 30), (2, 7), (3, 45)):
        batch = mk(nrows, seed)
        assert reused_stage(batch).equals(RollupStage()(batch))


def _fast_features_per_row(batch):
    """FastFeatureStage's former per-row loop (one whole-row and one
    first-difference sketch call per row), kept as the parity reference;
    a zero-length row reads length 0 and NaN elsewhere."""
    import pyarrow as pa

    from ts_pymfe_ray.functions.gapfill import gap_fill
    from ts_pymfe_ray.stages.rollup import tokens_views
    from ts_pymfe_ray.synth import stable_hash64

    views, _, _ = tokens_views(batch)
    doc_ids = batch.column("doc_id").to_pylist()
    n = len(views)
    whole = np.full((n, sk.N_FIELDS), np.nan)
    diffs = np.full((n, sk.N_FIELDS), np.nan)
    part_ids = np.empty(n, dtype=np.int32)
    for i, tok in enumerate(views):
        part_ids[i] = stable_hash64(doc_ids[i]) % 64
        if not tok.size:
            continue
        x = gap_fill(tok)
        whole[i] = sk.compute_window_sketches(x, max(1, x.size))[0]
        d = np.diff(x)
        if d.size:
            diffs[i] = sk.compute_window_sketches(d, d.size)[0]
    fw = sk.derive_features(whole)
    fd = sk.derive_features(diffs)
    length = np.where(np.isnan(fw["count"]), 0.0, fw["count"])
    cols = {"doc_id": batch.column("doc_id"), "source": batch.column("source"),
            "part_id": pa.array(part_ids), "length": pa.array(length, pa.float64())}
    for name in ("mean", "var", "sd", "skewness", "kurtosis", "acf1", "vmin", "vmax", "vrange"):
        cols[name] = pa.array(fw[name], pa.float64())
    for name in ("mean", "var", "sd", "skewness", "kurtosis", "acf1"):
        cols[f"diff_{name}"] = pa.array(fd[name], pa.float64())
    return pa.table(cols)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_feature_stage_matches_per_row_loop(seed):
    """The batch-wide FastFeatureStage equals the per-row loop bitwise on
    ragged batches: 0-, 1- and 2-token rows, all-gap rows, rows ending or
    starting in gaps, hot-split chunk rows, rows near 2^30 (a missing row
    barrier changes their comoment bits) and a batch sliced out of a
    larger one (list offsets not starting at 0)."""
    import warnings

    import pyarrow as pa

    from ts_pymfe_ray.stages.fast_features import FastFeatureStage
    from ts_pymfe_ray.stages.rollup import split_long_rows

    rng = np.random.default_rng(seed)
    lens = [0, 1, 2, 0, 3, 64, 7, 1, 13000] + list(rng.integers(0, 900, 30))
    toks = []
    for n in lens:
        t = rng.integers(0, 60000, size=n).astype(np.int32)
        t[rng.random(n) < 0.1] = -1
        if n > 2:
            t[[0, -1]] = rng.integers(2**29, 2**30, 2)
        toks.append(t)
    toks[4][:] = -1
    toks[6][:3] = -1
    toks[6][-2:] = -1
    batch = pa.table({
        "doc_id": [f"ff{seed}-{i}" for i in range(len(lens))],
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array(lens, pa.int32()),
        "source": ["web", "code"] * (len(lens) // 2) + ["chat"] * (len(lens) % 2),
    })
    split = split_long_rows(batch, max_chunk_tokens=6400)
    assert split.num_rows > batch.num_rows
    for b in (batch, split, split.slice(3, 20), batch.slice(0, 1), batch.slice(1, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = FastFeatureStage()(b)
            want = _fast_features_per_row(b)
        assert got.schema == want.schema and got.num_rows == b.num_rows
        for name in got.column_names:
            a, w = got.column(name).to_numpy(), want.column(name).to_numpy()
            if a.dtype == np.float64:
                assert a.view(np.uint64).tobytes() == w.view(np.uint64).tobytes(), name
            else:
                assert a.tolist() == w.tolist(), name
    empty = FastFeatureStage()(batch.slice(0, 1)).to_pylist()[0]
    assert empty["length"] == 0.0
    assert all(np.isnan(v) for k, v in empty.items()
               if k not in ("doc_id", "source", "part_id", "length"))


def _tier_format_batch():
    """A seeded batch over the tier format's edge cases: gaps at row
    starts and ends, an all-gap row, an empty row, 1- and 2-token rows,
    int32-extreme tokens (widest varints) and a hot row that
    ``split_long_rows`` cuts into three chunks."""
    import pyarrow as pa

    rng = np.random.default_rng(2015)
    toks = [
        np.array([-1, -1, 5, 9, 12], dtype=np.int32),
        np.array([3, 4, 8, -1, -1, -1], dtype=np.int32),
        np.full(70, -1, dtype=np.int32),
        np.array([], dtype=np.int32),
        np.array([17], dtype=np.int32),
        np.array([-1, 40000], dtype=np.int32),
        np.tile(np.array([-2**31, 2**31 - 1, 0], dtype=np.int32), 50),
        rng.integers(-1, 65536, size=15_000).astype(np.int32),
        np.full(200, 42, dtype=np.int32),
        rng.integers(0, 300, size=777).astype(np.int32),
    ]
    toks[7][:9] = -1
    toks[7][6390:6410] = -1
    toks[7][-4:] = -1
    return pa.table({
        "doc_id": [f"fmt-{i}" for i in range(len(toks))],
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": [("web", "code", "papers")[i % 3] for i in range(len(toks))],
    })


def test_rollup_stage_tier_format_digest():
    """A blake2b digest of all 13 RollupStage output columns, with and
    without stored tokens, pins the tier format byte for byte: any change
    to a codec, the sketch ladder or the stage's row layout moves it."""
    import hashlib

    from ts_pymfe_ray.stages.rollup import TIER_SCHEMA, RollupStage, split_long_rows

    batch = split_long_rows(_tier_format_batch(), max_chunk_tokens=6400)
    assert batch.num_rows == 12
    h = hashlib.blake2b(digest_size=16)
    for store in (True, False):
        out = RollupStage(store_tokens=store)(batch)
        assert out.schema.equals(TIER_SCHEMA) and out.num_rows == 36
        for name in out.column_names:
            h.update(name.encode())
            h.update(repr(out.column(name).to_pylist()).encode())
    assert h.hexdigest() == "e706bfaaca282849a51a4fadd1ad79f3"
