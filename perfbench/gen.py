"""Seeded input generators owned by the benchmark.

The distributions copy ``ts_pymfe_ray.synth`` (sequences) and the testdata
``events`` table, but live here so that a later change to the package's
own synthesis cannot move a workload.  Sequence rows are drawn in
stratified blocks so that the seed changes the rows but hardly the amount
of work.  Every function is a pure function of its ``seed`` and size
arguments.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SOURCES = ("web", "code", "books", "chat")
SOURCE_P = (0.70, 0.20, 0.09, 0.01)
TOKEN_MAX = 65535
SENTINEL = -1
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
N_USERS = 150
HOT_SHARE = 0.30  # share of events held by the planted hot user
EVENT_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
EVENT_SPAN_US = 30 * 86_400 * 1_000_000


def _series(rng: np.random.Generator, n: int, shape: int) -> np.ndarray:
    """Shape 0-5: noise, trend, seasonal, random walk, level shifts,
    heteroskedastic bursts."""
    t = np.arange(n, dtype=np.float64)
    noise = rng.normal(0.0, 1.0, n)
    if shape == 0:
        return noise
    if shape == 1:
        return 0.3 * t + noise
    if shape == 2:
        p = int(rng.choice((7, 12, 24, 50)))
        amp = rng.uniform(1.0, 5.0)
        return amp * np.sin(2.0 * np.pi * t / p) + rng.uniform(-0.05, 0.05) * t + 0.3 * noise
    if shape == 3:
        return np.cumsum(noise)
    if shape == 4:
        v = noise.copy()
        for _ in range(int(rng.integers(2, 6))):
            cp = int(rng.integers(1, n))
            v[cp:] += rng.uniform(2.0, 8.0) * rng.choice((-1.0, 1.0))
        return v
    vol = np.ones(n)
    for _ in range(int(rng.integers(1, 4))):
        a = int(rng.integers(0, n))
        b = min(n, a + int(rng.integers(8, max(9, n // 4))))
        vol[a:b] *= rng.uniform(3.0, 8.0)
    return noise * vol


BLOCK = 100  # rows per stratified block


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` uniforms on [0, 1), one in each of ``k`` equal strata, in
    random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def _counts(shares: tuple[float, ...], n: int) -> list[int]:
    counts = [int(round(p * n)) for p in shares[:-1]]
    return counts + [n - sum(counts)]


def _block_plan(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """Lengths, shapes, source indices and gap flags for ``n`` rows.

    Length classes: 80% uniform 64-512, 15% uniform 512-4k, 5%
    log-uniform 4k-65k.  Class shares, shape shares, source shares and the
    10% of gap rows are exact within the block, and each class's lengths are a
    stratified sample of its distribution, so the token total of a table
    (and of any prefix of whole blocks) barely moves with the seed."""
    n_short, n_mid, n_long = _counts((0.80, 0.15, 0.05), n)
    lens = np.concatenate([
        64 + np.floor(_strata(rng, n_short) * 449),
        512 + np.floor(_strata(rng, n_mid) * 3585),
        np.floor(np.exp(np.log(4096) + _strata(rng, n_long) * np.log(16))),
    ]).astype(np.int64)
    sources = np.repeat(np.arange(len(SOURCES)), _counts(SOURCE_P, n))
    gaps = np.arange(n) < int(round(0.10 * n))
    shapes = np.arange(n) % 6
    return tuple(rng.permutation(a) for a in (lens, shapes, sources, gaps))


def _tokens(rng: np.random.Generator, n: int, shape: int, gaps: bool) -> np.ndarray:
    v = _series(rng, n, shape)
    lo, hi = float(v.min()), float(v.max())
    scale = (TOKEN_MAX / (hi - lo)) if hi > lo else 0.0
    tok = np.rint((v - lo) * scale).astype(np.int32)
    if gaps:  # 1-5 sentinel gap runs of 1-20 tokens
        for _ in range(int(rng.integers(1, 6))):
            a = int(rng.integers(0, n))
            tok[a : min(n, a + int(rng.integers(1, 21)))] = SENTINEL
    return tok


def sequences_table(seed: int, n_rows: int) -> pa.Table:
    """``sequences`` table (doc_id, tokens, n_tok, source) of ``n_rows``,
    built from stratified blocks of ``BLOCK`` rows."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    tokens, sources = [], []
    for start in range(0, n_rows, BLOCK):
        lens, shapes, srcs, gaps = _block_plan(rng, min(BLOCK, n_rows - start))
        tokens += [_tokens(rng, int(n), int(k), bool(g)) for n, k, g in zip(lens, shapes, gaps)]
        sources += [SOURCES[i] for i in srcs]
    return pa.table(
        {
            "doc_id": pa.array([f"doc-{s}-{i:08d}" for i, s in enumerate(sources)], pa.string()),
            "tokens": pa.array(tokens, pa.list_(pa.int32())),
            "n_tok": pa.array([t.size for t in tokens], pa.int32()),
            "source": pa.array(sources, pa.string()),
        }
    )


def write_sequences(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Write ``table`` as ``n_files`` parquet parts (one file shard each)."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    paths = []
    for k in range(n_files):
        path = os.path.join(out_dir, f"part-{k:05d}.parquet")
        pq.write_table(table.slice(bounds[k], bounds[k + 1] - bounds[k]), path)
        paths.append(path)
    return paths


def events_table(seed: int, n_events: int) -> pa.Table:
    """Testdata-schema ``events`` table with one planted hot user.

    Timestamps are uniform over 30 days (sorted, event_id in time order),
    users uniform over ``N_USERS``, event types uniform over five, values
    exponential(50) at 2 decimals, and the hot user holds ``HOT_SHARE`` of
    the events."""
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    ts = np.sort(EVENT_EPOCH_US + rng.integers(0, EVENT_SPAN_US, n_events))
    hot = int(rng.integers(N_USERS))
    users = rng.integers(0, N_USERS, n_events)
    users[rng.random(n_events) < HOT_SHARE] = hot
    types = rng.integers(0, len(EVENT_TYPES), n_events)
    values = np.round(rng.exponential(50.0, n_events), 2)
    props = rng.integers(0, 100, n_events)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(users.astype(np.int64)),
            "event_type": pa.array([EVENT_TYPES[i] for i in types], pa.string()),
            "value": pa.array(values, pa.float64()),
            "props": pa.array([f'{{"k": {k}}}' for k in props], pa.string()),
        }
    )
