"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video decode libraries are not available in this container, so
the DECODE KERNEL is a clearly-marked stub (deterministic fake features
derived from payload bytes; swap ``_decode_payload`` for a real
PIL/torchaudio call in production).  Everything around it — the schema
(binary payload column + metadata), the actor-pool map_batches stage with
per-actor model initialization, small batch sizes for large payloads, and
the output layout — is real and tested.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ts_pymfe_ray.functions.rounding import round_ha
from ts_pymfe_ray.pipelines.combine import combine

FEATURE_DIM = 8


class MediaDecodeStage:
    """Actor-pool stage: ``map_batches(MediaDecodeStage, concurrency=N,
    batch_size=small)``.  The (fake) model is loaded once per actor in
    __init__ — the pattern a real decoder/feature extractor needs."""

    def __init__(self, model_name: str = "stub-v1"):
        # stands in for loading a decode library / feature-extraction model
        self.model_name = model_name
        digest = hashlib.blake2b(model_name.encode(), digest_size=8).digest()
        self._proj_seed = int.from_bytes(digest, "little")

    def _decode_payload(self, payload: bytes) -> np.ndarray:
        """STUB — deterministic fake decode.  A real implementation would
        raise NotImplementedError without the media libs; here we derive a
        stable FEATURE_DIM-float vector from md5 digests of the payload so
        the plumbing is testable end-to-end AND the per-kind rollup has an
        exact DuckDB twin (f0 = first md5 uint32, little-endian, / 2^32 ==
        (md5_number_upper & 0xFFFFFFFF) / 2^32 in SQL)."""
        h = hashlib.md5(payload).digest() + hashlib.md5(payload + b"\x01").digest()
        return (
            np.frombuffer(h, dtype=np.uint32).astype(np.float64) / np.float64(2**32)
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media_ids = batch.column("media_id")
        kinds = batch.column("kind")
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        feats = np.stack([self._decode_payload(p) for p in payloads]) if payloads else np.empty((0, FEATURE_DIM))
        return pa.table(
            {
                "media_id": media_ids,
                "kind": kinds,
                "n_bytes": pa.array(n_bytes),
                "features": pa.array(list(feats), pa.list_(pa.float64(), FEATURE_DIM)),
                "decoder": pa.array([self.model_name] * len(payloads)),
            }
        )


class FrameSampleStage:
    """Actor-pool row-EXPANSION stage: one media payload -> ``n_frames``
    frame rows (media_id, kind, frame_idx, payload).  The stub samples
    char-aligned payload segments (a real video decoder would pull
    keyframes); the plumbing — flat row expansion with binary payloads,
    per-actor decoder state, small batches — is the real thing."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out_id, out_kind, out_idx, out_pay = [], [], [], []
        for i, p in enumerate(payloads):
            t = p.decode()
            n = len(t)
            for f in range(self.n_frames):
                seg = t[f * n // self.n_frames : (f + 1) * n // self.n_frames]
                out_id.append(ids[i])
                out_kind.append(kinds[i])
                out_idx.append(f)
                out_pay.append(seg.encode())
        return pa.table(
            {
                "media_id": pa.array(out_id, batch.schema.field("media_id").type),
                "kind": pa.array(out_kind, pa.string()),
                "frame_idx": pa.array(out_idx, pa.int32()),
                "payload": pa.array(out_pay, pa.binary()),
            }
        )


class MediaResizeStage:
    """Actor-pool payload-TRANSFORM stage: downsample each payload to at
    most ``target`` units (stub: char-stride sampling; a real image
    resizer would decode/resample/re-encode).  Binary in, binary out,
    with before/after byte counts for the rollup."""

    def __init__(self, target: int = 256):
        self.target = target

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        out_pay, n_in, n_out = [], [], []
        for p in payloads:
            t = p.decode()
            n = len(t)
            stride = max(1, -(-n // self.target))  # ceil(n / target)
            r = t[::stride].encode()
            out_pay.append(r)
            n_in.append(len(p))
            n_out.append(len(r))
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "kind": batch.column("kind"),
                "payload": pa.array(out_pay, pa.binary()),
                "n_bytes_in": pa.array(n_in, pa.int64()),
                "n_bytes_out": pa.array(n_out, pa.int64()),
            }
        )


def documents_as_media(sf_dir: str):
    """Adapter: treat document text bytes as opaque media payloads so the
    multimodal path has a driver-table input."""
    import os

    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source"]
    )

    def to_media(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        kinds = [f"blob/{s}" for s in batch.column("source").to_pylist()]
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "kind": pa.array(kinds, pa.string()),
                "payload": pa.array([t.encode() for t in texts], pa.binary()),
            }
        )

    return ds.map_batches(to_media, batch_format="pyarrow")


def _f0_rollup(decoded, n_col: str):
    """Per-kind row count (``n_col``), byte total and mean first feature
    of decoded rows."""

    def f0(batch: pa.Table) -> pa.Table:
        return batch.append_column("f0", pc.list_element(batch.column("features"), 0))

    g = combine(decoded, ["kind"], {n_col: ("f0", "size"), "sum_bytes": ("n_bytes", "sum"),
                                    "sum_f0": ("f0", "sum")}, f0).to_pandas()
    g["mean_f0"] = round_ha(g.pop("sum_f0") / g[n_col])
    return g


def q_multimodal_frames(sf_dir: str, n_frames: int = 4):
    """Frame-sample -> decode pipeline: payload -> n_frames char-aligned
    frame rows (actor pool) -> decode stub -> per-kind frame rollup."""
    ds = documents_as_media(sf_dir)
    # the frame stage ships as a plain TASK closure (stateless stub);
    # only the decode stage holds model state and runs as an actor pool.
    # Two chained actor pools deadlock the streaming executor's resource
    # reservation on small-cpu sessions, and Ray treats a bare callable
    # INSTANCE as a callable class too — hence the function wrapper.
    fstage = FrameSampleStage(n_frames=n_frames)

    def frame_fn(batch: pa.Table) -> pa.Table:
        return fstage(batch)

    frames = ds.map_batches(frame_fn, batch_format="pyarrow", batch_size=64)
    decoded = frames.map_batches(MediaDecodeStage, batch_format="pyarrow",
                                 batch_size=128, concurrency=2)
    return _f0_rollup(decoded, "n_frames")


def q_multimodal_resize(sf_dir: str, target: int = 256):
    """Resize -> decode pipeline: payload -> stride-downsampled payload
    (actor pool) -> decode stub -> per-kind before/after rollup."""
    ds = documents_as_media(sf_dir)
    rstage = MediaResizeStage(target=target)

    def resize_fn(batch: pa.Table) -> pa.Table:
        return rstage(batch)

    resized = ds.map_batches(resize_fn, batch_format="pyarrow", batch_size=64)
    dec = MediaDecodeStage()  # tiny stub state; closed over by the prep

    def decode_f0(batch: pa.Table) -> pa.Table:
        f0 = [dec._decode_payload(p)[0] for p in batch.column("payload").to_pylist()]
        return batch.append_column("f0", pa.array(f0, pa.float64()))

    g = combine(resized, ["kind"], {
        "n_media": ("f0", "size"), "bytes_in": ("n_bytes_in", "sum"),
        "bytes_out": ("n_bytes_out", "sum"), "sum_f0": ("f0", "sum"),
    }, decode_f0).to_pandas()
    g["mean_f0"] = round_ha(g.pop("sum_f0") / g["n_media"])
    return g


def q_multimodal_decode(sf_dir: str):
    """Decode-stub pipeline: binary payloads -> actor-pool decode ->
    per-kind feature rollup.  Batch size kept small (large-payload rule)."""
    decoded = documents_as_media(sf_dir).map_batches(
        MediaDecodeStage,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )
    return _f0_rollup(decoded, "n_media")


class ByteEntropyStage:
    """Actor-pool stage computing a REAL (non-stub) opaque-payload signal:
    the Shannon entropy of each payload's byte histogram — the cheap
    corruption / compressibility screen a media-ingest pipeline runs
    before spending decode time.  Vectorized: one concatenated uint8 view
    per batch, a single bincount over byte+256*doc_index, no per-byte
    Python."""

    def __init__(self, levels: int = 256):
        self.levels = levels

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        n = len(payloads)
        if n == 0:
            return pa.schema([
                ("media_id", pa.string()), ("kind", pa.string()),
                ("n_bytes", pa.int64()), ("byte_entropy", pa.float64()),
            ]).empty_table()
        lens = np.fromiter((len(p) for p in payloads), np.int64, count=n)
        flat = np.frombuffer(b"".join(payloads), dtype=np.uint8).astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        counts = np.bincount(
            flat + self.levels * doc_idx, minlength=self.levels * n
        ).reshape(n, self.levels)
        with np.errstate(all="ignore"):
            p = counts / lens[:, None]
            ent = -np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
        return pa.table({
            "media_id": batch.column("media_id"),
            "kind": batch.column("kind"),
            "n_bytes": pa.array(lens, pa.int64()),
            "byte_entropy": pa.array(ent, pa.float64()),
        })


def q_multimodal_byte_entropy(sf_dir: str):
    """Per-kind byte-histogram entropy report over opaque payloads — a
    real multimodal computation (no decode stub involved).  Per-payload
    entropies are rounded to 6dp on both sides (256-term log sums carry
    association ulps — the hist_entropy precedent), then averaged per
    kind."""

    def non_empty(batch: pa.Table) -> pa.Table:
        # an empty payload has no byte to count: the twin's
        # generate_series(1, length(text)) yields no row for it either
        return batch.filter(pc.greater(pc.binary_length(batch.column("payload")), 0))

    ds = documents_as_media(sf_dir).map_batches(non_empty, batch_format="pyarrow")
    ent = ds.map_batches(ByteEntropyStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2)

    def rounded(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "ent", pa.array(round_ha(batch.column("byte_entropy").to_numpy(), 6)))

    g = combine(ent, ["kind"], {"n_media": ("ent", "size"), "sum_ent": ("ent", "sum")},
                rounded).to_pandas()
    g["avg_entropy"] = round_ha(g.pop("sum_ent") / g["n_media"], 4)
    return g
