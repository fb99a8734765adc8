"""Tier-ladder rollup stage: sequences -> per-(doc, tier) Gorilla-compressed
window-aggregate rows.

Design (SURVEY.md §1.2, §7.0): each input row is one series; windows are
*within* the row, so the raw -> 10x -> 100x downsample ladder needs NO
shuffle — raw-bucket sketches are computed once per row
(compute_window_sketches) and merged upward exactly (merge_adjacent).  The
output is one row per (doc, tier) whose per-window statistic streams
(mean/var/acf1/...) are Gorilla-XOR-compressed binary columns, keeping
output row count at 3x the doc count regardless of sequence length — at
10^12 sequences this is what keeps tier storage and shuffle bytes bounded.

Raw tier rows additionally carry the delta+zigzag-compressed original token
array (``tokens_dod``): BASELINE.json's bitwise round-trip invariant.

Stage contract: callable class for ``map_batches(RollupStage,
batch_format="pyarrow", zero_copy_batch=True)``.  Token buffers are read
zero-copy out of the Arrow list column; all math is numpy on those views.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ts_pymfe_ray.functions import gorilla
from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.functions.gapfill import SENTINEL, gap_fill_flat
from ts_pymfe_ray.synth import stable_hash64

RAW_BUCKET = 64
TIER_FACTORS = {"raw": 1, "10x": 10, "100x": 100}
TIERS = ("raw", "10x", "100x")
# Gorilla-compressed per-window statistic streams stored per tier row
STREAMS = ("mean", "var", "acf1", "count", "vmin", "vmax")

TIER_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source", pa.string()),
        ("part_id", pa.int32()),
        ("tier", pa.string()),
        ("chunk_id", pa.int32()),
        ("window_offset", pa.int64()),
        ("bucket_size", pa.int32()),
        ("n_windows", pa.int32()),
        ("n_tok", pa.int64()),
        ("n_gap", pa.int64()),
        # the six per-window statistic streams (STREAMS order), concatenated
        # then Gorilla-XOR encoded as ONE blob per row — one codec call per
        # tier row instead of six
        ("win_streams", pa.binary()),
        ("win_id_dod", pa.binary()),
        ("tokens_dod", pa.binary()),
    ]
)


def tokens_flat(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(offsets, flat values)`` of the list<int32> tokens
    column: row i is ``flat[offsets[i]:offsets[i+1]]``."""
    col = batch.column("tokens")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return arr.offsets.to_numpy(), arr.values.to_numpy(zero_copy_only=False)


def tokens_views(batch: pa.Table) -> tuple[list, np.ndarray, np.ndarray]:
    """:func:`tokens_flat` plus one zero-copy view per row: (per-row
    views, offsets, flat values)."""
    offsets, flat = tokens_flat(batch)
    views = [flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]
    return views, offsets, flat


def _fresh_buffers(n_windows: int, total: int):
    return np.empty((n_windows, sk.N_FIELDS)), np.empty(total), None


def sketch_ladder(flat: np.ndarray, offsets: np.ndarray,
                  buffers=_fresh_buffers) -> tuple[np.ndarray, list[np.ndarray]]:
    """Raw, 10x and 100x window sketches of EVERY row of a batch in three
    global reduceat passes.

    Rows gap-fill into one flat buffer (one :func:`gap_fill_flat` call);
    raw windows of every row tile that buffer, so
    compute_window_sketches_at sketches all of them in ~10 numpy kernels (row-barrier cross products zeroed — bitwise identical to
    per-row calls, parity gate in test_sketch.py).  The sketch matrix is
    laid out in tier BLOCKS (all raw | all 10x | all 100x) so each merge
    level is likewise ONE merge_adjacent_at call instead of a Python call
    per row — round-4 profile: the 768 per-row sketch/merge calls were
    ~1/3 of stage wall.

    Row i is ``flat[offsets[i]:offsets[i+1]]`` (see :func:`tokens_flat`);
    ``buffers(n_windows, n_tokens)`` hands out the ``(sketch matrix,
    gap-fill buffer, power-sum scratch)`` to write into (RollupStage passes
    its reusable ones; scratch may be None).  Returns ``(big, tier_off)``:
    ``tier_off[t]`` are the per-row window offsets inside tier block ``t``
    (TIERS order), the blocks stacked in that order in ``big``.
    """
    rel_off = (offsets - offsets[0]).astype(np.int64)
    nw_raw = -(-np.diff(rel_off) // RAW_BUCKET)
    nw10 = -(-nw_raw // 10)
    tier_off = [np.concatenate([[0], np.cumsum(w)]) for w in (nw_raw, nw10, -(-nw10 // 10))]
    raw_off, t10_off, t100_off = tier_off
    Wr, W10 = int(raw_off[-1]), int(t10_off[-1])
    W = Wr + W10 + int(t100_off[-1])
    total = int(rel_off[-1])
    bigbuf, gf, scratch = buffers(W, total)
    big, gff = bigbuf[:W], gap_fill_flat(flat, offsets, gf)

    def _tile(dst_off, src_off, unit):
        # source-coordinate (starts, ends) tiling every row's windows
        widths = np.diff(dst_off)
        within = (np.arange(int(dst_off[-1]), dtype=np.int64)
                  - np.repeat(dst_off[:-1], widths))
        starts = np.repeat(src_off[:-1], widths) + within * unit
        ends = np.minimum(starts + unit, np.repeat(src_off[1:], widths))
        return starts, ends

    def _barriers(src_off):
        b = src_off[1:-1] - 1
        return b[b >= 0]

    if W:
        merge_scratch = None if scratch is None else scratch[0]
        s_r, e_r = _tile(raw_off, rel_off, RAW_BUCKET)
        sk.compute_window_sketches_at(
            gff, s_r, e_r, out=big[:Wr], scratch=scratch,
            barriers=_barriers(rel_off))
        s10, e10 = _tile(t10_off, raw_off, 10)
        sk.merge_adjacent_at(
            big[:Wr], s10, e10, out=big[Wr : Wr + W10], scratch=merge_scratch,
            barriers=_barriers(raw_off))
        s100, e100 = _tile(t100_off, t10_off, 10)
        sk.merge_adjacent_at(
            big[Wr : Wr + W10], s100, e100, out=big[Wr + W10 : W],
            scratch=merge_scratch, barriers=_barriers(t10_off))
    return big, tier_off


class RollupStage:
    """Per-batch tier-ladder computation.

    Holds reusable scratch buffers (sketch matrix, gap-fill row buffer,
    power-sum temporaries, stream-blob staging) that grow to the batch
    working set once and then stay cache-resident: fresh large numpy
    allocations first-touch pathologically slowly on this box, and the
    round-3 profile showed the 8->32 scaling knee is memory-bandwidth —
    every eliminated cold page is shuffle-free bandwidth back.  All reuse
    paths are bitwise-identical to the allocate-fresh versions
    (parity-tested in tests/test_sketch.py)."""

    def __init__(self, num_parts: int = 64, store_tokens: bool = True):
        self.num_parts = num_parts
        self.store_tokens = store_tokens
        self._big = np.empty((0, sk.N_FIELDS), dtype=np.float64)
        self._gf = np.empty(0, dtype=np.float64)
        self._scratch = np.empty((2, 0), dtype=np.float64)
        self._ws = np.empty(0, dtype=np.float64)
        self._tok = np.empty(0, dtype=np.int64)
        self._gap = np.empty(0, dtype=np.float64)

    def _buffers(self, n_windows: int, ws_len: int, total: int):
        """Grow (with headroom) and hand out the per-batch scratch views."""
        if self._big.shape[0] < n_windows:
            self._big = np.empty((n_windows + (n_windows >> 2), sk.N_FIELDS))
        if self._gf.size < total:
            self._gf = np.empty(total + (total >> 2))
            self._scratch = np.empty((2, self._gf.size))
        if self._ws.size < ws_len:
            self._ws = np.empty(ws_len + (ws_len >> 2))
        if self._tok.size < total:
            self._tok = np.empty(total + (total >> 2), dtype=np.int64)
        if self._gap.size < total + 1:
            self._gap = np.empty(total + 1 + (total >> 2))
        return self._big, self._gf, self._scratch, self._ws, self._tok, self._gap

    def __call__(self, batch: pa.Table) -> pa.Table:
        t_off, t_flat = tokens_flat(batch)
        n_in = t_off.size - 1
        chunk_ids = (
            batch.column("chunk_id").to_numpy()
            if "chunk_id" in batch.column_names
            else np.zeros(n_in, dtype=np.int32)
        )
        window_offs = (
            batch.column("window_offset").to_numpy()
            if "window_offset" in batch.column_names
            else np.zeros(n_in, dtype=np.int64)
        )

        # pass 1: the whole batch's raw/10x/100x sketches (tier blocks)
        # (the callback grows every scratch buffer of the stage)
        ns = len(STREAMS)
        big, tier_off = sketch_ladder(
            t_flat, t_off, lambda W, total: self._buffers(W, ns * W, total)[:3])
        wsbuf, tokbuf, gapbuf = self._ws, self._tok, self._gap
        raw_off, t10_off, t100_off = tier_off
        rel_off = (t_off - t_off[0]).astype(np.int64)
        lens = np.diff(rel_off)
        total = int(rel_off[-1])
        # per-row order is (raw, 10x, 100x)
        nws = np.column_stack([np.diff(o) for o in tier_off]).ravel()
        sk_off = np.concatenate([[0], np.cumsum(nws)])
        W = int(sk_off[-1])
        Wr, W10 = int(raw_off[-1]), int(t10_off[-1])
        feats = sk.derive_features(big)
        # (ns, W): stream j of block-layout window w at j * W + w
        streams = np.stack([feats[s] for s in STREAMS])
        # source offset of each output tier row's windows in the block layout
        src_start = np.empty(3 * n_in, dtype=np.int64)
        src_start[0::3] = raw_off[:-1]
        src_start[1::3] = Wr + t10_off[:-1]
        src_start[2::3] = Wr + W10 + t100_off[:-1]

        # pass 2 is fully batched: every per-(row, tier) quantity is built
        # as one numpy array, and ALL Gorilla streams of the batch are
        # encoded in one *_many call each
        R = 3 * n_in
        idxs = np.repeat(np.arange(n_in, dtype=np.int64), 3)
        factors = np.tile([1, 10, 100], n_in)

        # win_streams blobs: each tier row's windows, one stream after
        # another (STREAMS order), gathered in one take into the staging
        # buffer: blob element (row r, stream j, window w) reads
        # streams[j, src_start[r] + w]
        row = np.repeat(np.arange(R, dtype=np.int64), ns * nws)
        j, w = np.divmod(np.arange(ns * W, dtype=np.int64) - ns * sk_off[:-1][row], nws[row])
        ws_flat = np.take(streams.ravel(), j * W + src_start[row] + w, out=wsbuf[: ns * W])
        ws_data, ws_off = gorilla.encode_floats_xor_many(ws_flat, ns * sk_off)

        # win_id streams: base_wid + arange(nw) per tier row
        base_wid = window_offs[idxs] // (RAW_BUCKET * factors)
        within = np.arange(W, dtype=np.int64) - np.repeat(sk_off[:-1], nws)
        wid_flat = np.repeat(base_wid, nws) + within
        wid_data, wid_off = gorilla.encode_ints_dod_many(wid_flat, sk_off, order=2)

        # token streams: raw-tier rows only (nulls elsewhere).  The list
        # column's child buffer is contiguous after combine_chunks, so the
        # whole batch's tokens widen to int64 in ONE vectorized cast into
        # the reused staging buffer (row order == flat order by
        # construction) — no per-row astype/concatenate allocations.
        tok_valid = np.zeros(R, dtype=bool)
        flat_slice = t_flat[t_off[0] : t_off[-1]]
        if self.store_tokens:
            tok_valid[0::3] = True  # per_row order is (raw, 10x, 100x)
            tok_flat = tokbuf[:total]
            np.copyto(tok_flat, flat_slice)
            tok_in_off = rel_off
        else:
            tok_flat = np.empty(0, np.int64)
            tok_in_off = np.zeros(1, np.int64)
        tok_data, tok_off_raw = gorilla.encode_ints_dod_many(tok_flat, tok_in_off, order=1)
        tok_len = np.zeros(R, dtype=np.int64)
        tok_len[tok_valid] = np.diff(tok_off_raw)
        tok_off = np.concatenate([[0], np.cumsum(tok_len)])

        # gap counts: one vectorized pass over the flat tokens; the float
        # prefix sum is exact (counts < 2^53) and empty rows read 0
        gapbuf[0] = 0.0
        np.equal(flat_slice, SENTINEL, out=gapbuf[1 : total + 1], casting="unsafe")
        np.cumsum(gapbuf[: total + 1], out=gapbuf[: total + 1])
        n_gap_per = (gapbuf[rel_off[1:]] - gapbuf[rel_off[:-1]]).astype(np.int64)
        # one blake2b per input row (the only per-row Python left: there is
        # no vectorized blake2b in numpy)
        part_per = np.fromiter(
            (stable_hash64(d) % self.num_parts for d in batch.column("doc_id").to_pylist()),
            dtype=np.int64, count=n_in)
        take = pa.array(idxs)

        def _bin(data: np.ndarray, offsets: np.ndarray, valid: np.ndarray | None = None) -> pa.Array:
            # pa.binary() offsets are int32: a batch whose concatenated
            # encoded blobs exceed 2 GiB would silently wrap and corrupt
            # tier output — fail loudly (the fix would be pa.large_binary).
            # Explicit raise, not assert: the failure mode is silent data
            # corruption and must survive `python -O`.
            if int(offsets[-1]) >= 2**31:
                raise ValueError("binary column exceeds int32 offsets")
            bufs = [
                None if valid is None else pa.py_buffer(
                    np.packbits(valid, bitorder="little").tobytes()),
                pa.py_buffer(offsets.astype(np.int32).tobytes()),
                pa.py_buffer(data),
            ]
            return pa.Array.from_buffers(pa.binary(), R, bufs,
                                         null_count=0 if valid is None else int((~valid).sum()))

        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(take),
                "source": batch.column("source").take(take),
                "part_id": pa.array(part_per[idxs], pa.int32()),
                "tier": pa.array(TIERS).take(pa.array(np.tile(np.arange(3), n_in))),
                "chunk_id": pa.array(chunk_ids[idxs], pa.int32()),
                "window_offset": pa.array(window_offs[idxs], pa.int64()),
                "bucket_size": pa.array(RAW_BUCKET * factors, pa.int32()),
                "n_windows": pa.array(nws, pa.int32()),
                "n_tok": pa.array(lens[idxs], pa.int64()),
                "n_gap": pa.array(n_gap_per[idxs], pa.int64()),
                "win_streams": _bin(ws_data, ws_off),
                "win_id_dod": _bin(wid_data, wid_off),
                "tokens_dod": _bin(tok_data, tok_off, tok_valid),
            },
            schema=TIER_SCHEMA,
        )


def in_slices(batch: pa.Table, stage, size: int) -> pa.Table:
    """``stage`` over ``batch`` in slices of at most ``size`` rows,
    concatenated: a task that takes a whole read block still makes
    bounded-memory stage calls.  An empty batch runs ``stage`` once on
    itself, so the output keeps the stage's schema."""
    return pa.concat_tables([stage(batch.slice(i, size))
                             for i in range(0, batch.num_rows, size)] or [stage(batch)])


def split_long_rows(batch: pa.Table, max_chunk_tokens: int = 1_048_576) -> pa.Table:
    """Hot-key splitting (SURVEY.md §4.2): rows longer than
    ``max_chunk_tokens`` are exploded into chunk rows carrying
    ``(chunk_id, window_offset)``.  Chunk boundaries are aligned to the
    coarsest tier bucket, so every window of every tier lies wholly inside
    one chunk and rollup sketches stay exact under the split; decode-side
    consumers reassemble streams by (doc_id, chunk_id) order.  Gap runs that
    cross a chunk boundary are filled per-chunk (LOCF/NOCB at the cut) — a
    documented, bounded deviation from whole-row linear interpolation.
    Short batches pass through untouched."""
    align = RAW_BUCKET * TIER_FACTORS["100x"]
    max_chunk = max(align, (max_chunk_tokens // align) * align)
    n_tok = batch.column("n_tok").to_numpy()
    if not (n_tok > max_chunk).any():
        if "chunk_id" in batch.column_names:
            return batch
        z32 = pa.array(np.zeros(len(batch), dtype=np.int32))
        z64 = pa.array(np.zeros(len(batch), dtype=np.int64))
        return batch.append_column("chunk_id", z32).append_column("window_offset", z64)

    views, _, _ = tokens_views(batch)
    doc_ids = batch.column("doc_id").to_pylist()
    sources = batch.column("source").to_pylist()
    out = {"doc_id": [], "tokens": [], "n_tok": [], "source": [], "chunk_id": [], "window_offset": []}
    for i, tok in enumerate(views):
        if tok.size <= max_chunk:
            out["doc_id"].append(doc_ids[i])
            out["tokens"].append(tok)
            out["n_tok"].append(tok.size)
            out["source"].append(sources[i])
            out["chunk_id"].append(0)
            out["window_offset"].append(0)
            continue
        for ci, start in enumerate(range(0, tok.size, max_chunk)):
            chunk = tok[start : start + max_chunk]
            out["doc_id"].append(doc_ids[i])
            out["tokens"].append(chunk)
            out["n_tok"].append(chunk.size)
            out["source"].append(sources[i])
            out["chunk_id"].append(ci)
            out["window_offset"].append(start)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "tokens": pa.array(out["tokens"], pa.list_(pa.int32())),
            "n_tok": pa.array(out["n_tok"], pa.int32()),
            "source": pa.array(out["source"], pa.string()),
            "chunk_id": pa.array(out["chunk_id"], pa.int32()),
            "window_offset": pa.array(out["window_offset"], pa.int64()),
        }
    )


def decode_tier_row(row: dict) -> dict[str, np.ndarray]:
    """Decode one tier row's compressed streams back to numpy arrays."""
    flat = gorilla.decode_floats_xor(row["win_streams"])
    nw = row["n_windows"]
    out = {s: flat[j * nw : (j + 1) * nw] for j, s in enumerate(STREAMS)}
    out["window_id"] = gorilla.decode_ints_dod(row["win_id_dod"])
    if row.get("tokens_dod") is not None:
        out["tokens"] = gorilla.decode_ints_dod(row["tokens_dod"])
    return out
