"""Read side of the tier store without a Ray session: the batched Gorilla
decoder, the batched per-row diagnostics and the batch-wide sketch ladder
behind ``rollup_by_source``, each against its per-row reference."""

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ts_pymfe_ray.functions import gorilla as g
from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.functions.gapfill import gap_fill
from ts_pymfe_ray.pipelines import flagship
from ts_pymfe_ray.pipelines.tier_analytics import _decode_and_diagnose
from ts_pymfe_ray.stages.rollup import (
    RAW_BUCKET, STREAMS, TIER_FACTORS, split_long_rows, tokens_views)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


# ------------------------------------------------------ batched decoder


def _ragged_rows():
    rng = np.random.default_rng(3)
    rows = [
        np.empty(0),
        np.array([1.5]),
        np.full(6, np.nan),
        np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan, 1.0]),
        np.array([-0.0]),
        np.full(9, 7.25),
        np.empty(0),
        rng.normal(size=300),
        np.cumsum(rng.normal(size=41)).round(2),
    ]
    rows += [rng.normal(size=int(k)).round(int(d))
             for k, d in zip(rng.integers(0, 30, 60), rng.integers(0, 8, 60))]
    return rows


def test_decode_floats_xor_many_bitwise_per_row():
    """Every row of the batched decode is bitwise the per-row decode, on
    the batched encoder's output used directly (no per-row bytes)."""
    rows = _ragged_rows()
    flat = np.concatenate(rows)
    offs = np.concatenate([[0], np.cumsum([r.size for r in rows])])
    data, doff = g.encode_floats_xor_many(flat, offs)
    got, got_off = g.decode_floats_xor_many(data, doff)
    assert np.array_equal(got_off, offs)
    assert _bits(got) == _bits(flat)
    for i, r in enumerate(rows):
        ref = g.decode_floats_xor(bytes(data[doff[i]:doff[i + 1]]))
        assert _bits(got[got_off[i]:got_off[i + 1]]) == _bits(ref), i
        assert _bits(ref) == _bits(r), i


def test_decode_floats_xor_many_offsets_into_a_larger_buffer():
    """Offsets need not start at 0 (a sliced Arrow binary column points
    into its parent's data buffer); empty batches decode to nothing."""
    rows = _ragged_rows()[:12]
    blobs = [g.encode_floats_xor(r) for r in rows]
    pad = b"\xff" * 13
    data = np.frombuffer(pad + b"".join(blobs) + pad, dtype=np.uint8)
    offs = len(pad) + np.concatenate([[0], np.cumsum([len(b) for b in blobs])])
    got, got_off = g.decode_floats_xor_many(data, offs[3:])
    assert _bits(got) == _bits(np.concatenate(rows[3:]))
    assert np.array_equal(np.diff(got_off), [r.size for r in rows[3:]])
    empty, empty_off = g.decode_floats_xor_many(np.empty(0, np.uint8), np.zeros(1, np.int64))
    assert empty.size == 0 and empty_off.tolist() == [0]
    with pytest.raises(ValueError):
        g.decode_floats_xor_many(np.frombuffer(b"XXXX" + blobs[1][4:], np.uint8),
                                 np.array([0, len(blobs[1])]))


# ------------------------------------------------------ batched diagnostics


def _diagnose_per_row(batch: pa.Table) -> pa.Table:
    """Per-row reference: one decode_floats_xor and one set of numpy
    nan-reductions per tier row."""
    out = {
        "doc_id": batch.column("doc_id").to_pylist(),
        "source": batch.column("source").to_pylist(),
        "tier": batch.column("tier").to_pylist(),
        "n_windows": batch.column("n_windows").to_pylist(),
    }
    drift, volvol, mean_acf1, level = [], [], [], []
    for blob, nw in zip(batch.column("win_streams").to_pylist(), out["n_windows"]):
        flat = g.decode_floats_xor(blob)
        streams = {s: flat[j * nw : (j + 1) * nw] for j, s in enumerate(STREAMS)}
        means = streams["mean"]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            level.append(float(np.nanmean(means)))
            if nw > 1:
                t = np.arange(nw, dtype=np.float64)
                tm, mm = t.mean(), np.nanmean(means)
                drift.append(float(np.nansum((t - tm) * (means - mm)) / ((t - tm) ** 2).sum()))
                sd = np.sqrt(np.maximum(streams["var"], 0))
                volvol.append(float(np.nanstd(sd, ddof=1)) if nw > 2 else np.nan)
            else:
                drift.append(np.nan)
                volvol.append(np.nan)
            mean_acf1.append(float(np.nanmean(streams["acf1"]))
                             if np.isfinite(streams["acf1"]).any() else np.nan)
    out["window_mean_level"] = level
    out["window_mean_drift"] = drift
    out["window_sd_volatility"] = volvol
    out["mean_window_acf1"] = mean_acf1
    return pa.table(out)


def _tier_rows(nws, seed):
    """Tier rows whose six streams have NaN holes, negative variances, an
    all-NaN acf1 and an acf1 with only infinities."""
    rng = np.random.default_rng(seed)
    blobs = []
    for i, nw in enumerate(nws):
        m = rng.normal(size=(len(STREAMS), nw)) * rng.choice([1e-3, 1.0, 1e4])
        m[STREAMS.index("mean")] += np.linspace(0, rng.normal() * 5, nw)
        m[rng.random(m.shape) < 0.15] = np.nan
        m[STREAMS.index("var")] -= 0.3  # some negative: clipped to 0
        if i % 7 == 3:
            m[STREAMS.index("acf1")] = np.nan
        if i % 11 == 5:
            m[STREAMS.index("acf1")] = rng.choice([np.inf, -np.inf, np.nan], nw)
        if i % 13 == 6:
            m[STREAMS.index("mean")] = np.nan
        blobs.append(g.encode_floats_xor(m.ravel()))
    return pa.table({
        "doc_id": [f"d{seed}-{i}" for i in range(len(nws))],
        "source": [("web", "code", "chat")[i % 3] for i in range(len(nws))],
        "tier": ["10x"] * len(nws),
        "n_windows": pa.array(nws, pa.int32()),
        "win_streams": pa.array(blobs, pa.binary()),
    })


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_and_diagnose_matches_per_row(seed):
    """Grouped-by-n_windows axis=1 reductions equal the per-row numpy
    reductions exactly: nw 0, 1 and 2, many rows sharing one nw, long rows
    (the pairwise-summation regime), a batch split over two chunks and a
    sliced batch."""
    rng = np.random.default_rng(seed)
    nws = [1, 2, 0, 3, 3, 3, 3, 2, 1, 9, 129, 1025, 257] + list(rng.integers(1, 40, 50))
    batch = _tier_rows(nws, seed)
    chunked = pa.concat_tables([batch.slice(0, 17), batch.slice(17)])
    # a sliced record batch's binary offsets point into its parent's data
    sliced = batch.combine_chunks().to_batches()[0].slice(5, 40)
    assert sliced.column("win_streams").offset == 5
    for b in (batch, chunked, sliced):
        want = _diagnose_per_row(b).to_pandas()
        got = _decode_and_diagnose(b).to_pandas()
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        for col in ("window_mean_level", "window_mean_drift",
                    "window_sd_volatility", "mean_window_acf1"):
            assert _bits(got[col].to_numpy()) == _bits(want[col].to_numpy()), col
    assert np.isnan(_diagnose_per_row(batch).column("mean_window_acf1").to_numpy()).any()
    assert _decode_and_diagnose(batch.slice(0, 0)).num_rows == 0


# ------------------------------------------------------ batch-wide ladder


def _partial_sketches_per_row(batch: pa.Table, tiers) -> pa.Table:
    """Per-row reference: gap_fill -> compute_window_sketches -> two
    merge_adjacent per row; one row per series window, tier by tier and
    row by row."""
    views, _, _ = tokens_views(batch)
    sources = batch.column("source").to_pylist()
    offsets = batch.column("window_offset").to_numpy()
    per_row = []
    for tok in views:
        raw = sk.compute_window_sketches(gap_fill(tok), RAW_BUCKET)
        t10 = sk.merge_adjacent(raw, 10)
        per_row.append({"raw": raw, "10x": t10, "100x": sk.merge_adjacent(t10, 10)})
    cols = {"source": [], "tier": [], "window_id": []}
    mats = [np.empty((0, sk.N_FIELDS))]
    for tier in tiers:
        for i, mats_i in enumerate(per_row):
            nw = mats_i[tier].shape[0]
            base = int(offsets[i]) // (RAW_BUCKET * TIER_FACTORS[tier])
            cols["source"] += [sources[i]] * nw
            cols["tier"] += [tier] * nw
            cols["window_id"] += list(range(base, base + nw))
            mats.append(mats_i[tier])
    big = np.vstack(mats)
    return pa.table({**cols, **{f: big[:, j] for j, f in enumerate(sk.FIELDS)}})


def _sequence_batch(seed):
    """Three sources; a row shorter than one raw bucket, a one-token row,
    an all-gap row, sentinel runs, large first and last tokens, and two
    rows long enough to be split into chunk rows with window_offset > 0."""
    rng = np.random.default_rng(seed)
    lens = [5, 1, 64, 65, 700, 1300, 14000, 64 * 100 * 2 + 37] + list(rng.integers(2, 3000, 25))
    toks = []
    for n in lens:
        t = rng.integers(0, 60000, size=n).astype(np.int32)
        t[rng.random(n) < 0.05] = -1
        # rows start and end near 2^30: a cross-row product would swamp
        # the row's own comoment sums, so a missing row barrier shows
        t[[0, -1]] = rng.integers(2**29, 2**30, 2)
        toks.append(t)
    toks[2][:] = -1
    batch = pa.table({
        "doc_id": [f"s{seed}-{i}" for i in range(len(lens))],
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array(lens, pa.int32()),
        "source": [("web", "code", "chat")[int(i)] for i in rng.integers(0, 3, len(lens))],
    })
    return split_long_rows(batch, max_chunk_tokens=6400)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tiers", [("raw", "10x", "100x"), ("100x",), ("10x", "raw")])
def test_partial_sketches_batch_ladder_bitwise(seed, tiers):
    """_partial_sketches over the batch-wide ladder equals the per-row
    ladder's windows bitwise, column by column, and no window field is
    NaN or infinite, even for the degenerate rows."""
    batch = _sequence_batch(seed)
    assert (batch.column("window_offset").to_numpy() > 0).sum() >= 2
    got = flagship._partial_sketches(batch, tiers=tiers)
    want = _partial_sketches_per_row(batch, tiers)
    assert got.column_names == want.column_names and got.num_rows == want.num_rows
    for name in got.column_names:
        a, b = got.column(name), want.column(name)
        if name in sk.FIELDS:
            assert _bits(a.to_numpy()) == _bits(b.to_numpy()), name
            assert np.isfinite(a.to_numpy()).all(), name
        else:
            assert a.to_pylist() == b.to_pylist(), name
