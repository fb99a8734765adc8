"""Training-data operators over the documents/embeddings tables:
deduplication (exact / MinHash+LSH / SimHash / n-gram Jaccard /
embedding-cosine), text analysis (language-ID, quality scoring, token
counting, fingerprinting) and the multimodal decode stub plumbing.

Scale shape: every operator is (1) a vectorized/per-batch map computing
compact signatures, (2) a groupby on signature buckets (LSH bands /
simhash segments) so candidate generation shuffles only small signature
rows, (3) an in-group verification.  No stage materializes the corpus.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ts_pymfe_ray.functions.md5vec import md5_lower64, md5_lower64_list
from ts_pymfe_ray.functions.rounding import round_ha
from ts_pymfe_ray.pipelines.combine import combine, shuffle_combine, topk
from ts_pymfe_ray.pipelines.queries import (_BY_COSINE, _cosines, _embeddings, _hash_keys,
                                            _md5_mod100)

NUM_PERM = 64
BANDS = 16  # 16 bands x 4 rows
ROWS_PER_BAND = NUM_PERM // BANDS

# 31-bit Mersenne prime: products a*x fit exactly in uint64, so the
# MinHash permutation (a*x + b) mod p vectorizes with no overflow.
_MERSENNE = (1 << 31) - 1


def _read_docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns or ["doc_id", "text"]
    )


# deterministic MinHash permutation parameters (a*x + b mod p)
_rng = np.random.Generator(np.random.PCG64(20240817))
_A = _rng.integers(1, _MERSENNE, size=NUM_PERM, dtype=np.uint64)
_B = _rng.integers(0, _MERSENNE, size=NUM_PERM, dtype=np.uint64)


def _mod_mersenne(v: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """v mod (2^31 - 1) IN PLACE via bit-folding (2^31 === 1 mod M),
    exactly equal to ``v % M`` — numpy's uint64 ``%`` is a per-element C
    division and dominates the minhash wall time otherwise.  ``tmp`` is a
    same-shape scratch buffer; every op is in-place (fresh large
    allocations page-fault at this container's capped memory bandwidth)."""
    m = np.uint64(_MERSENNE)
    s = np.uint64(31)
    if tmp is None:
        tmp = np.empty_like(v)
    for _ in range(2):  # two folds: <= M + 2^33, then <= M + 4
        np.right_shift(v, s, out=tmp)
        v &= m
        v += tmp
    # exact residue: v - m wraps past 2^64 when v < m, so minimum() picks
    # the unwrapped value iff v >= m (and M itself folds to 0)
    np.subtract(v, m, out=tmp)
    np.minimum(v, tmp, out=v)
    return v


def minhash_signatures_batch(shingle_lists: list[np.ndarray]) -> np.ndarray:
    """(N, NUM_PERM) signatures for a batch of shingle-hash sets: ONE
    (perm x all-shingles) modmul + per-doc minimum.reduceat, chunked so the
    permutation matrix stays ~50 MB regardless of batch size."""
    n = len(shingle_lists)
    out = np.empty((n, NUM_PERM), dtype=np.uint64)
    sizes = np.fromiter((len(s) for s in shingle_lists), dtype=np.int64, count=n)
    # a zero-shingle doc would duplicate a reduceat offset and silently
    # return the NEXT doc's first value as this doc's minimum; the shingle
    # source guarantees >=1 window per doc — fail loudly if that changes
    # (explicit raise so the guard survives `python -O`: the failure mode
    # is silent cross-doc signature corruption)
    if n > 0 and not (sizes > 0).all():
        raise ValueError("empty shingle set in minhash batch")
    # fixed-size cache-resident work buffers reused across chunks — all
    # hot ops are in-place, no per-chunk large allocation
    chunk = 32768
    work = np.empty((NUM_PERM, chunk), dtype=np.uint64)
    scratch = np.empty((NUM_PERM, chunk), dtype=np.uint64)
    start = 0
    while start < n:
        end, tot = start, 0
        while end < n and (tot == 0 or tot + sizes[end] <= chunk):
            tot += sizes[end]
            end += 1
        flat = np.concatenate(shingle_lists[start:end]) if tot else np.empty(0, np.uint64)
        x = _mod_mersenne(flat)
        if tot > chunk:  # one giant doc exceeds the fixed buffers
            w = np.empty((NUM_PERM, tot), dtype=np.uint64)
            sc = np.empty_like(w)
        else:
            w, sc = work[:, :tot], scratch[:, :tot]
        np.multiply(_A[:, None], x[None, :], out=w)
        w += _B[:, None]
        _mod_mersenne(w, sc)
        offs = np.zeros(end - start, dtype=np.int64)
        np.cumsum(sizes[start : end - 1], out=offs[1:])
        out[start:end] = np.minimum.reduceat(w, offs, axis=1).T
        start = end
    return out


def band_keys_batch(sigs: np.ndarray) -> np.ndarray:
    """(N, BANDS) uint64 band keys for a (N, NUM_PERM) signature matrix —
    band strings built per row, all hashed in one vectorized md5 pass."""
    items = []
    for r in range(sigs.shape[0]):
        s = sigs[r]
        for b in range(BANDS):
            chunk = s[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
            items.append((",".join(str(int(v)) for v in chunk) + "|" + str(b)).encode())
    return md5_lower64_list(items).reshape(sigs.shape[0], BANDS)


def _doc_windows(texts: list[str], k: int):
    """Batch k-word-window layout over a whole batch of documents: one
    concatenated UTF-8 buffer + window (offset, length) views + per-doc
    window offsets.  Zero per-window AND zero per-word Python work — word
    boundaries come from one vectorized space scan of the flat buffer
    (doc boundaries are word boundaries too), byte-identical to
    ``" ".join(words[i:i+k])`` of the doc's single-space split
    (parity-tested).

    Returns (flat_uint8, win_offsets, win_lengths, doc_win_offsets) where
    doc_win_offsets has len(texts)+1 entries (documents with fewer than k
    words contribute one whole-text window)."""
    n = len(texts)
    encs = [t.encode() for t in texts]
    flat = np.frombuffer(b"".join(encs), dtype=np.uint8)
    if n == 0:
        return flat, np.empty(0, np.int64), np.empty(0, np.int64), np.zeros(1, np.int64)
    dlen = np.fromiter((len(e) for e in encs), np.int64, count=n)
    doc_b = np.zeros(n + 1, np.int64)
    np.cumsum(dlen, out=doc_b[1:])
    sp = np.flatnonzero(flat == np.uint8(0x20))
    nw = np.diff(np.searchsorted(sp, doc_b)) + 1  # split(" ") word counts
    # word starts = doc starts + byte-after-space; word ends = spaces +
    # doc ends.  Each doc contributes nw_d of each; value ties at doc
    # boundaries (empty edge words) are interchangeable, so a plain sort
    # pairs the i-th start with the i-th end correctly.
    starts = np.sort(np.concatenate([doc_b[:-1], sp + 1]))
    ends = np.sort(np.concatenate([sp, doc_b[1:]]))
    woff = np.zeros(n + 1, np.int64)
    np.cumsum(nw, out=woff[1:])
    if k == 1:
        return flat, starts, ends - starts, woff
    nwin = np.maximum(nw - k + 1, 1)  # < k words -> one whole-text window
    doc_off = np.zeros(n + 1, np.int64)
    np.cumsum(nwin, out=doc_off[1:])
    total = int(doc_off[-1])
    # window j of doc d spans starts[woff[d]+j] .. ends[woff[d]+j+k-1]
    wi = np.repeat(woff[:-1], nwin) + (
        np.arange(total, dtype=np.int64) - np.repeat(doc_off[:-1], nwin))
    offs_out = starts[wi]
    lens_out = ends[np.minimum(wi + (k - 1), woff[-1] - 1)] - offs_out
    short = np.repeat(nw < k, nwin)
    if short.any():
        offs_out[short] = np.repeat(doc_b[:-1], nwin)[short]
        lens_out[short] = np.repeat(dlen, nwin)[short]
    return flat, offs_out, lens_out, doc_off


def _md5_shingles_batch(texts: list[str], k: int = 3) -> list[np.ndarray]:
    """Per-doc DISTINCT word-k-shingle md5_64 hashes for a whole batch —
    one vectorized md5 pass over every window of every doc."""
    flat, offs, lens, doc_off = _doc_windows(texts, k)
    h = md5_lower64(flat, offs, lens)
    return [np.unique(h[doc_off[i] : doc_off[i + 1]]) for i in range(len(texts))]


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """(N,) uint64 SimHash values: all words of all docs hashed in one
    vectorized md5 pass, per-doc bit scores via one add.reduceat."""
    if not texts:
        return np.empty(0, np.uint64)
    flat, offs, lens, doc_off = _doc_windows(texts, 1)
    h = md5_lower64(flat, offs, lens)
    bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    # per-doc slice sums beat reduceat/cumsum here by ~50x: the big-matrix
    # alternatives write O(words x 64 x 4B) intermediates, which this
    # container's capped memory bandwidth turns into seconds
    n = len(texts)
    cnt = np.empty((n, 64), dtype=np.int32)
    for i in range(n):
        bits[doc_off[i] : doc_off[i + 1]].sum(axis=0, dtype=np.int32, out=cnt[i])
    nwords = np.diff(doc_off)[:, None].astype(np.int32)
    pos = (2 * cnt - nwords) > 0  # majority vote == sign(sum of +/-1)
    packed = np.packbits(pos, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).ravel()


def rolling_fingerprints_batch(texts: list[str], window: int = 8) -> np.ndarray:
    """(N,) uint64 winnowing-lite fingerprints: min md5_64 over rolling
    ``window``-word windows, one vectorized md5 pass per batch."""
    if not texts:
        return np.empty(0, np.uint64)
    flat, offs, lens, doc_off = _doc_windows(texts, window)
    h = md5_lower64(flat, offs, lens)
    return np.minimum.reduceat(h, doc_off[:-1])


def _bucket_pair_indices(n: int, bucket_cap: int | None):
    """Candidate-pair index arrays for one LSH bucket of n SORTED member
    ids.  Uncapped: all O(n^2) pairs (the SQL-oracled exact mode).  Hot
    buckets (> bucket_cap members) STAR-PAIR instead — every member pairs
    with the bucket's min id.  The CANDIDATE graph's connected components
    are unchanged (members stay linked through the hub), so for a
    degenerate bucket of near-identical docs the verified clusters are
    identical while 1e6 boilerplate copies emit 1e6 - 1 pair rows instead
    of ~5e11.  Caveat (standard for this knob, like df_cap): when a hot
    bucket mixes DISSIMILAR docs, a pair that fails verification against
    the hub is not retried against other members, so capped mode is an
    approximation there — None (default) keeps the exact SQL-oracled
    all-pairs mode."""
    if n < 2:
        z = np.empty(0, np.int64)
        return z, z
    if bucket_cap is not None and n > bucket_cap:
        return (np.zeros(n - 1, dtype=np.int64),
                np.arange(1, n, dtype=np.int64))
    return np.triu_indices(n, k=1)


class _MinhashVerify:
    """Verify stage for MinHash candidate pairs (stateless callable,
    shipped as a plain task — no actor-pool spin-up cost): per batch,
    re-reads just the candidate doc_ids' texts (parquet point read),
    recomputes their signatures (deterministic), and emits pairs whose
    signature-agreement estimate clears the threshold.  Signatures never
    enter the shuffle — round 2 shipped the 512-byte signature into all
    16 band rows per doc."""

    def __init__(self, path: str, threshold: float):
        self.path = path
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "est_jaccard": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        need = np.unique(np.concatenate([a, b]))
        tbl = pq.read_table(self.path, columns=["doc_id", "text"],
                            filters=[("doc_id", "in", [int(v) for v in need])])
        ids = tbl.column("doc_id").to_numpy()
        sigs = minhash_signatures_batch(
            _md5_shingles_batch(tbl.column("text").to_pylist()))
        lookup = {int(d): sigs[i] for i, d in enumerate(ids)}
        A = np.stack([lookup[int(x)] for x in a])
        B = np.stack([lookup[int(x)] for x in b])
        est = (A == B).mean(axis=1)
        keep = est >= self.threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep].astype(np.int64), pa.int64()),
                "doc_b": pa.array(b[keep].astype(np.int64), pa.int64()),
                "est_jaccard": pa.array(round_ha(est[keep]), pa.float64()),
            }
        )


def q_dedup_minhash(sf_dir: str, threshold: float = 0.6,
                    bucket_cap: int | None = None) -> pd.DataFrame:
    """MinHash+LSH near-duplicate pairs: shingle -> minhash -> band ->
    (band_key, doc_id) groupby -> candidate pairs -> distributed pair
    dedup -> signature-recompute verify with point-read gather.

    Scale shape: only (band_key:u64, doc_id:i64) rows cross the
    all-to-all shuffle; the verify stage recomputes signatures for
    exactly the doc_ids its candidate batch touches (candidates are a
    vanishing fraction of the corpus at a sane band/row config).
    ``bucket_cap`` star-pairs hot band buckets (see _bucket_pair_indices)
    — the production knob against boilerplate-cluster pair blowup; None =
    exact all-pairs (the SQL-oracled mode)."""
    from ray.data.aggregate import Count

    path = os.path.join(sf_dir, "documents.parquet")
    ds = _read_docs(sf_dir)

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        # md5 base hashes: the SQL twin computes the identical signatures
        sigs = minhash_signatures_batch(_md5_shingles_batch(texts))
        keys = band_keys_batch(sigs)
        return pa.table(
            {
                "band_key": pa.array(keys.ravel(), pa.uint64()),
                "doc_id": pa.array(np.repeat(ids, BANDS), pa.int64()),
            }
        )

    def cand_pairs(group: pa.Table) -> pa.Table:
        ids = np.unique(group.column("doc_id").to_numpy())  # sorted
        ii, jj = _bucket_pair_indices(ids.size, bucket_cap)
        return pa.table({"doc_a": pa.array(ids[ii], pa.int64()),
                         "doc_b": pa.array(ids[jj], pa.int64())})

    pairs = (
        ds.map_batches(to_bands, batch_format="pyarrow")
        .groupby("band_key")
        .map_groups(cand_pairs, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count())  # distributed pair dedup across bands
        .drop_columns(["count()"])
        .map_batches(_MinhashVerify(path, threshold), batch_format="pyarrow")
        .to_pandas()
    )
    if len(pairs):
        pairs = pairs.sort_values(["doc_a", "doc_b"])
    return pairs.reset_index(drop=True)


def q_dedup_simhash(sf_dir: str, max_hamming: int = 3,
                    bucket_cap: int | None = None) -> pd.DataFrame:
    """SimHash near-dup pairs via 4-segment LSH (any pair within hamming
    distance 3 shares at least one exact 16-bit segment).  ``bucket_cap``
    star-pairs hot segment buckets against the min-id member (hamming
    filter still applied) — O(m) rows per degenerate bucket instead of
    O(m^2); None = exact all-pairs (the SQL-oracled mode)."""
    ds = _read_docs(sf_dir)

    def to_segments(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        h = simhash64_batch(batch.column("text").to_pylist())
        s_idx = np.arange(4, dtype=np.uint64)
        seg = (h[:, None] >> (np.uint64(16) * s_idx)[None, :]) & np.uint64(0xFFFF)
        seg_key = ((seg.astype(np.int64) << 2) | s_idx.astype(np.int64)[None, :]).ravel()
        return pa.table(
            {
                "seg_key": pa.array(seg_key, pa.int64()),
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "sim": pa.array(np.repeat(h, 4), pa.uint64()),
            }
        )

    def verify(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_pylist()
        sims = group.column("sim").to_pylist()
        out = {"doc_a": [], "doc_b": [], "hamming": []}
        uniq = sorted(set(zip(ids, sims)))
        if bucket_cap is not None and len(uniq) > bucket_cap:
            hub = [uniq[0]]  # star-pair against the min-id member
            rest = range(1, len(uniq))
        else:
            hub, rest = None, None
        for i in range(len(uniq) if hub is None else 1):
            js = range(i + 1, len(uniq)) if hub is None else rest
            for j in js:
                if uniq[i][0] == uniq[j][0]:
                    continue
                ham = bin(uniq[i][1] ^ uniq[j][1]).count("1")
                if ham <= max_hamming:
                    out["doc_a"].append(uniq[i][0])
                    out["doc_b"].append(uniq[j][0])
                    out["hamming"].append(ham)
        return pa.table(
            {
                "doc_a": pa.array(out["doc_a"], pa.int64()),
                "doc_b": pa.array(out["doc_b"], pa.int64()),
                "hamming": pa.array(out["hamming"], pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(to_segments, batch_format="pyarrow")
        .groupby("seg_key")
        .map_groups(verify, batch_format="pyarrow")
        .to_pandas()
    )
    if len(pairs):
        pairs = pairs.drop_duplicates(["doc_a", "doc_b"]).sort_values(["doc_a", "doc_b"])
    return pairs.reset_index(drop=True)


def q_dedup_ngram_jaccard(sf_dir: str, threshold: float = 0.5,
                          df_cap: int | None = None,
                          num_buckets: int = 512) -> pd.DataFrame:
    """EXACT n-gram Jaccard near-dup pairs via a distributed shingle
    inverted index — no driver-side corpus materialization and no
    LSH-recall gap:

    1. map: per doc -> distinct 3-word-shingle hash rows
       ``(bucket, shingle, doc_id, size)`` (size = |shingle set|, carried on
       every row so no sizes table needs broadcasting or joining);
    2. groupby(bucket): vectorized self-merge on shingle inside each hash
       bucket -> one candidate-pair row per shared shingle;
    3. groupby(pair): Count() = |intersection|;  jaccard = i/(sa+sb-i).

    Shuffle volume is shingle rows + shared-shingle pair rows, never text.
    ``df_cap`` (document frequency cap) drops shingles shared by more than
    that many docs inside a bucket — the standard web-scale knob against
    hot-shingle pair blowup (stopword trigrams); None = exact (the
    SQL-oracled mode)."""
    from ray.data.aggregate import Count

    ds = _read_docs(sf_dir)

    def to_shingles(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_b, out_s, out_d, out_n = [], [], [], []
        for i, hs in enumerate(_md5_shingles_batch(texts)):
            out_s.append(hs)
            out_b.append((hs % np.uint64(num_buckets)).astype(np.int64))
            out_d.append(np.full(hs.size, ids[i], dtype=np.int64))
            out_n.append(np.full(hs.size, hs.size, dtype=np.int64))
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(out_b), pa.int64()),
                "shingle": pa.array(np.concatenate(out_s), pa.uint64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "size": pa.array(np.concatenate(out_n), pa.int64()),
            }
        )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            df = df[df.groupby("shingle")["doc_id"].transform("size") <= df_cap]
        m = df.merge(df, on="shingle")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(),
                "doc_b": m["doc_id_y"].to_numpy(),
                "size_a": m["size_x"].to_numpy(),
                "size_b": m["size_y"].to_numpy(),
            }
        )

    inter = (
        ds.map_batches(to_shingles, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b", "size_a", "size_b"])
        .aggregate(Count())
        .to_pandas()
    )
    if inter.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    i = inter["count()"].to_numpy(dtype=np.float64)
    union = inter["size_a"].to_numpy() + inter["size_b"].to_numpy() - i
    inter["jaccard"] = round_ha(i / union)
    out = inter.loc[i / union >= threshold, ["doc_a", "doc_b", "jaccard"]]
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    out["doc_a"] = out["doc_a"].astype("int64")
    out["doc_b"] = out["doc_b"].astype("int64")
    return out


_PLANT_OFFSET = 1_000_000


def _planted_vector(base: np.ndarray, base_id: int) -> np.ndarray:
    """Deterministic planted near-duplicate of ``base`` (1% relative
    noise, float32-quantized like the stream stores it) — reproducible
    from (base vector, base_id) alone, so the verify stage can
    reconstruct planted vectors instead of shipping them."""
    rng = np.random.Generator(np.random.PCG64(int(base_id)))
    scale = 0.01 * np.linalg.norm(base) / np.sqrt(base.size)
    return (base + rng.normal(0.0, scale, base.size)).astype(np.float32)


class _GatherVerifyCosine:
    """Verify stage for candidate pairs (stateless callable, shipped as a
    plain task): per batch, gather the
    needed vectors with a vec_id-filtered parquet point read (row-group
    stats pruning — the corpus never re-enters the shuffle) and compute
    exact cosines.  Planted ids (>= _PLANT_OFFSET) are reconstructed
    deterministically from their base vector."""

    def __init__(self, path: str, threshold: float):
        self.path = path
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        empty = pa.table({"vec_a": pa.array([], pa.int64()),
                          "vec_b": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        a = batch.column("vec_a").to_numpy()
        b = batch.column("vec_b").to_numpy()
        need = np.unique(np.concatenate([a, b]))
        base = np.unique(np.where(need >= _PLANT_OFFSET, need - _PLANT_OFFSET, need))
        tbl = pq.read_table(self.path, columns=["vec_id", "embedding"],
                            filters=[("vec_id", "in", [int(v) for v in base])])
        vid = tbl.column("vec_id").to_numpy()
        vmat = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float64)
        lookup = {int(v): vmat[i] for i, v in enumerate(vid)}
        vecs: dict[int, np.ndarray] = {}
        for v in need:
            iv = int(v)
            if iv >= _PLANT_OFFSET:
                vecs[iv] = _planted_vector(lookup[iv - _PLANT_OFFSET],
                                           iv - _PLANT_OFFSET).astype(np.float64)
            else:
                vecs[iv] = lookup[iv]
        A = np.stack([vecs[int(x)] for x in a])
        B = np.stack([vecs[int(x)] for x in b])
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cos = np.einsum("ij,ij->i", A / na[:, None], B / nb[:, None])
        keep = cos >= self.threshold
        return pa.table(
            {
                "vec_a": pa.array(a[keep].astype(np.int64), pa.int64()),
                "vec_b": pa.array(b[keep].astype(np.int64), pa.int64()),
                "cosine": pa.array(round_ha(cos[keep]), pa.float64()),
            }
        )


def q_embeddings_neardup(sf_dir: str, threshold: float = 0.95,
                         plant: int = 0,
                         bucket_cap: int | None = None) -> pd.DataFrame:
    """Embedding-cosine near-duplicates via random-hyperplane LSH banding:
    signature map -> (bucket, vec_id) groupby -> candidate pairs ->
    distributed pair dedup -> exact cosine verify with point-read gather.

    Scale shape: the ONLY payload through the all-to-all shuffle is
    (bucket:int64, vec_id:int64) — raw vectors never leave the columnar
    layout; the verify stage re-reads just the vec_ids its pair batch
    touches (parquet row-group pruning).  Round 2 shipped the full
    float64 vector x4 segments through the groupby; at corpus scale that
    was the pipeline's byte bill.

    ``plant`` > 0 injects that many deterministic near-duplicate rows
    (vec_id + 1e6, 1% relative noise, cosine ~0.9999) derived from the
    input inside the stream — the driver data has no pairs above 0.95
    (max true pair cosine at sf0.01 is 0.51), so without planting the
    operator would run but prove nothing."""
    from ray.data.aggregate import Count

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    if plant:
        def add_planted(batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy()
            keep = np.flatnonzero(ids < plant)
            if keep.size == 0:
                return batch
            mat = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
            dup_ids = [int(ids[r]) + _PLANT_OFFSET for r in keep]
            dup_vecs = [_planted_vector(mat[r], int(ids[r])) for r in keep]
            planted = pa.table(
                {
                    "vec_id": pa.array(dup_ids, batch.schema.field("vec_id").type),
                    "embedding": pa.array([v.tolist() for v in dup_vecs],
                                          batch.schema.field("embedding").type),
                }
            )
            return pa.concat_tables([batch, planted])

        ds = ds.map_batches(add_planted, batch_format="pyarrow")
    probe = next(iter(ds.limit(1).iter_batches(batch_format="pyarrow")))
    dim = len(probe.column("embedding").to_pylist()[0])
    rng = np.random.Generator(np.random.PCG64(7))
    planes = rng.normal(size=(16, dim))  # 16-bit signatures, 4 segments

    def to_buckets(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        signs = (mat @ planes.T) > 0
        sig = (signs.astype(np.uint32) << np.arange(16, dtype=np.uint32)).sum(axis=1)
        s_idx = np.arange(4, dtype=np.int64)
        seg = (sig.astype(np.int64)[:, None] >> (4 * s_idx)[None, :]) & 0xF
        bucket = ((seg << 3) | s_idx[None, :]).T.ravel()  # segment-major
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "vec_id": pa.array(np.tile(ids.astype(np.int64), 4), pa.int64()),
            }
        )

    def cand_pairs(group: pa.Table) -> pa.Table:
        ids = np.unique(group.column("vec_id").to_numpy())  # sorted
        ii, jj = _bucket_pair_indices(ids.size, bucket_cap)
        return pa.table({"vec_a": pa.array(ids[ii], pa.int64()),
                         "vec_b": pa.array(ids[jj], pa.int64())})

    pairs = (
        ds.map_batches(to_buckets, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(cand_pairs, batch_format="pyarrow")
        .groupby(["vec_a", "vec_b"])
        .aggregate(Count())  # distributed pair dedup across buckets
        .drop_columns(["count()"])
        .map_batches(_GatherVerifyCosine(path, threshold), batch_format="pyarrow")
        .to_pandas()
    )
    if len(pairs):
        pairs = pairs.sort_values(["vec_a", "vec_b"])
    return pairs.reset_index(drop=True)


def q_dedup_clusters(sf_dir: str, threshold: float = 0.6,
                     bucket_cap: int | None = None) -> pd.DataFrame:
    """Near-duplicate CLUSTER materialization — the step after pair
    generation in a production dedup: connected components over the
    MinHash pair graph, representative = smallest doc_id (keep-first).

    The pair graph is the distributed q_dedup_minhash output; components
    are resolved with union-find on the driver, which is the correct
    scale shape because the pair set is the (tiny) operator OUTPUT, not
    the corpus — at 10^9 docs the pair list is what a dedup job ships to
    its final reducer anyway.  Output: one row per multi-doc cluster
    (cluster_id = representative, n_docs, max_doc_id)."""
    pairs = q_dedup_minhash(sf_dir, threshold, bucket_cap=bucket_cap)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp: dict[int, list[int]] = {}
    for node in parent:
        comp.setdefault(find(node), []).append(node)
    rows = sorted(
        (min(members), len(members), max(members)) for members in comp.values()
    )
    return pd.DataFrame(
        {
            "cluster_id": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_docs": pd.Series([r[1] for r in rows], dtype="int64"),
            "max_doc_id": pd.Series([r[2] for r in rows], dtype="int64"),
        }
    )


def q_dedup_clusters_lp(sf_dir: str, threshold: float = 0.6,
                        bucket_cap: int | None = None,
                        max_iters: int = 32) -> pd.DataFrame:
    """DISTRIBUTED connected components over the near-dup pair graph —
    the min-label (hash-to-min) variant of q_dedup_clusters for
    adversarial pair volumes where even the pair OUTPUT is too large for
    a driver union-find.

    Each round is groupby-only: symmetrize edges, group by node, link
    every neighbor (and the node itself) to the group's minimum id.
    Components converge to star graphs around their min id in O(log
    diameter) rounds; convergence is detected from a cheap (count, sum)
    edge-multiset checksum.  Output is identical to the union-find
    version (pytest-enforced) and shares its recursive-CTE SQL twin."""
    from ray.data.aggregate import Count, Max, Sum

    pairs = q_dedup_minhash(sf_dir, threshold, bucket_cap=bucket_cap)
    empty = pd.DataFrame({
        "cluster_id": pd.Series([], dtype="int64"),
        "n_docs": pd.Series([], dtype="int64"),
        "max_doc_id": pd.Series([], dtype="int64"),
    })
    if pairs.empty:
        return empty
    edges = ray.data.from_pandas(pd.DataFrame({
        "u": pairs["doc_a"].astype("int64"),
        "v": pairs["doc_b"].astype("int64"),
    }))

    def symmetrize(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy()
        v = batch.column("v").to_numpy()
        return pa.table({"u": np.concatenate([u, v]),
                         "v": np.concatenate([v, u])})

    def hash_to_min(df: pd.DataFrame) -> pd.DataFrame:
        u = int(df["u"].iloc[0])
        vs = df["v"].to_numpy()
        m = min(u, int(vs.min()))
        nodes = np.unique(np.concatenate([vs, [u]]))
        return pd.DataFrame({"u": nodes.astype(np.int64),
                             "v": np.full(nodes.size, m, dtype=np.int64)})

    prev_sig = None
    for _ in range(max_iters):
        edges = (
            edges.map_batches(symmetrize, batch_format="pyarrow")
            .groupby("u")
            .map_groups(hash_to_min, batch_format="pandas")
            .groupby(["u", "v"])
            .aggregate(Count())
            .drop_columns(["count()"])
            # materialize the per-round state: Datasets are lazy plans, so
            # without this round i would re-execute every earlier round's
            # shuffles (O(iters^2) work) each time the checksum runs
            .materialize()
        )
        stats = edges.aggregate(Count(), Sum("u"), Sum("v"))
        sig = (stats["count()"], stats["sum(u)"], stats["sum(v)"])
        if sig == prev_sig:
            break
        prev_sig = sig
    # fixpoint: every node u carries exactly one edge (u, component_min),
    # including (min, min) itself — the per-cluster rollup is a groupby
    g = edges.groupby("v").aggregate(Count(), Max("u")).to_pandas()
    out = pd.DataFrame({
        "cluster_id": g["v"].astype("int64"),
        "n_docs": g["count()"].astype("int64"),
        "max_doc_id": g["max(u)"].astype("int64"),
    })
    return out.sort_values("cluster_id").reset_index(drop=True)


# ------------------------------------------------------------- text analysis

from ts_pymfe_ray.functions.langprofiles import (
    ASCII_MIN, CJK_MIN, PROFILE_ORDER, PROFILES, SCORE_MIN, SHORT_DOC_WORDS,
)

# the text-quality stopword signal uses the English profile
_STOPWORDS = PROFILES["en"]

_PUNCT_BYTES = np.frombuffer(b".,;:!?", dtype=np.uint8)


def _pack_small_words(words) -> np.ndarray:
    """Sorted uint32 little-endian zero-padded packings of <=4-byte words
    — the stopword lookup table for exact vectorized membership."""
    arr = np.zeros((len(words), 4), dtype=np.uint8)
    for i, w in enumerate(sorted(words)):
        b = w.encode()
        assert len(b) <= 4, "stopword packing assumes <=4-byte words"
        arr[i, : len(b)] = np.frombuffer(b, np.uint8)
    return np.sort(arr.view(np.uint32).ravel())


_STOP_PACKED = _pack_small_words(_STOPWORDS)


def _count_stopwords(flat: np.ndarray, offs: np.ndarray, lens: np.ndarray,
                     doc_off: np.ndarray) -> np.ndarray:
    """Per-doc stopword counts via exact uint32 word packing: only words
    of <= 4 bytes can be stopwords (every profile word is <= 4 bytes), so
    the 4-byte zero-padded packing is collision-free — no hashing."""
    hit = np.zeros(offs.size, dtype=np.int64)
    sel = np.flatnonzero(lens <= 4)
    if sel.size and flat.size:
        idx = offs[sel, None] + np.arange(4, dtype=np.int64)[None, :]
        np.clip(idx, 0, flat.size - 1, out=idx)
        g = flat[idx] * (np.arange(4, dtype=np.int64)[None, :] < lens[sel, None])
        packed = np.ascontiguousarray(g.astype(np.uint8)).view(np.uint32).ravel()
        hit[sel] = np.isin(packed, _STOP_PACKED)
    return np.add.reduceat(hit, doc_off[:-1]) if offs.size else hit


def _quality_signals_batch(texts: list[str]):
    """Vectorized per-doc quality signals over a whole batch: ONE word-view
    layout + byte-level prefix sums replace the round-3 per-word Python
    loops.  Returns int64 arrays (n_words, n_chars, n_stop, n_punct,
    sum_word_chars); char counts are codepoints (non-continuation bytes),
    bitwise-matching len(t) / len(w) on the str side."""
    flat, offs, lens, doc_off = _doc_windows(texts, 1)
    n = len(texts)
    if n == 0:
        z = np.zeros(0, np.int64)
        return z, z, z, z, z
    nw = np.diff(doc_off)
    cc = np.zeros(flat.size + 1, dtype=np.int32)  # codepoint prefix counts
    np.cumsum((flat & np.uint8(0xC0)) != np.uint8(0x80), out=cc[1:])
    pp = np.zeros(flat.size + 1, dtype=np.int32)  # punct prefix counts
    np.cumsum(np.isin(flat, _PUNCT_BYTES), out=pp[1:])
    start = offs[doc_off[:-1]]                      # doc byte span = first
    last_w = doc_off[1:] - 1                        # word start .. last word
    end = offs[last_w] + lens[last_w]               # end (spaces included)
    n_chars = (cc[end] - cc[start]).astype(np.int64)
    n_punct = (pp[end] - pp[start]).astype(np.int64)
    # " ".join identity: word chars = doc chars minus the nw-1 spaces
    sum_wchars = n_chars - nw + 1
    n_stop = _count_stopwords(flat, offs, lens, doc_off)
    return nw, n_chars, n_stop, n_punct, sum_wchars


def text_quality_features(texts: list[str]) -> pd.DataFrame:
    nw, n_chars, n_stop, n_punct, sum_wchars = _quality_signals_batch(texts)
    nwf = np.maximum(1, nw).astype(np.float64)
    return pd.DataFrame(
        {
            "n_words": nw,
            "n_chars": n_chars,
            "stopword_ratio": n_stop / nwf,
            "punct_ratio": n_punct / np.maximum(1, n_chars).astype(np.float64),
            # integer sums < 2^53: identical to np.mean of per-word lengths
            "mean_word_len": sum_wchars / nw.astype(np.float64),
        }
    )


def _quality_rows(batch: pa.Table) -> pa.Table:
    """A documents batch as (source, per-doc quality signals) rows."""
    q = text_quality_features(batch.column("text").to_pylist())
    return pa.Table.from_pandas(q, preserve_index=False).append_column(
        "source", batch.column("source"))


def q_text_quality(sf_dir: str) -> pd.DataFrame:
    """Per-source quality scoring rollup (length / punctuation / stopword
    signals), partial-aggregated per batch.  SQL-oracled subset: the
    stopword/word-length signals have no clean ANSI-SQL twin and live in
    q_text_quality_full (rows-only)."""
    ds = _read_docs(sf_dir, ["source", "text"])
    g = combine(ds, ["source"], {"n_docs": ("n_words", "size"),
                                 "sum_words": ("n_words", "sum")},
                _quality_rows).to_pandas()
    g["avg_words"] = round_ha(g["sum_words"] / g["n_docs"])
    return g


def q_text_quality_full(sf_dir: str) -> pd.DataFrame:
    """Rows-only: full quality-signal rollup including stopword ratio and
    mean word length."""
    ds = _read_docs(sf_dir, ["source", "text"])
    signals = {"words": "n_words", "stopword_ratio": "stopword_ratio",
               "punct_ratio": "punct_ratio", "word_len": "mean_word_len"}
    g = combine(ds, ["source"], {"n_docs": ("n_words", "size"),
                                 **{k: (c, "sum") for k, c in signals.items()}},
                _quality_rows).to_pandas()
    for k in signals:
        g[f"avg_{k}"] = round_ha(g.pop(k) / g["n_docs"])
    return g


# BPE-ish subword pre-tokenization pattern (GPT-2-style word/number/
# punctuation splits, restricted to RE2-compatible syntax — no lookahead —
# so the DuckDB twin runs the IDENTICAL pattern; leftmost-first alternation
# semantics agree between Python re and RE2, parity-checked in tests)
BPE_SPLIT_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+| +"
_BPE_RX = None


def bpe_token_count(text: str) -> int:
    global _BPE_RX
    if _BPE_RX is None:
        import re

        _BPE_RX = re.compile(BPE_SPLIT_PATTERN)
    n = 0
    for _ in _BPE_RX.finditer(text):
        n += 1
    return n


def q_bpe_token_count(sf_dir: str) -> pd.DataFrame:
    """Subword token counting with a BPE-ish pre-tokenizer regex (the cost
    estimate every training-data pipeline runs before tokenizing): per
    source, docs / subword tokens / whitespace words — all integer-exact
    against the DuckDB twin running the same RE2 pattern."""
    ds = _read_docs(sf_dir, ["source", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "source": batch.column("source"),
            "bpe": pa.array([bpe_token_count(t) for t in texts], pa.int64()),
            "w": pa.array([t.count(" ") + 1 for t in texts], pa.int64()),
        })

    return combine(ds, ["source"], {"n_docs": ("bpe", "size"), "bpe_tokens": ("bpe", "sum"),
                                    "words": ("w", "sum")}, counts).to_pandas()


def q_quality_filter(sf_dir: str, min_words: int = 30, max_words: int = 5000,
                     min_stop_pct: int = 10, max_punct_pct: int = 5) -> pd.DataFrame:
    """QUALITY FILTERING as a materialization step — the keep/drop gate a
    training-data pipeline runs before tokenization.  A doc is kept iff
    word count is in [min_words, max_words], stopword ratio >=
    min_stop_pct% and punctuation ratio <= max_punct_pct%.  All rules are
    INTEGER comparisons (n_stop*100 >= n_words*pct etc.) so the SQL twin
    is exact with no float knife edges.  Output: per-source keep/drop
    counts, kept doc_id range and kept token volume (what the downstream
    job would read); -1 where a source keeps nothing, as in the twin."""
    ds = _read_docs(sf_dir, ["doc_id", "source", "text"])

    def gate(batch: pa.Table) -> pa.Table:
        nw, n_chars, n_stop, n_punct, _ = _quality_signals_batch(
            batch.column("text").to_pylist())
        keep = (
            (nw >= min_words) & (nw <= max_words)
            & (n_stop * 100 >= nw * min_stop_pct)
            & (n_punct * 100 <= n_chars * max_punct_pct)
        )
        # the kept-only aggregates read null-masked columns
        return pa.table({
            "source": batch.column("source"),
            "keep": keep.astype(np.int64),
            "kw": pa.array(nw, mask=~keep),
            "kept_id": pa.array(batch.column("doc_id").to_numpy().astype(np.int64), mask=~keep),
        })

    g = combine(ds, ["source"], {
        "n_total": ("keep", "size"), "n_kept": ("keep", "sum"), "kept_words": ("kw", "sum"),
        "min_kept": ("kept_id", "min"), "max_kept": ("kept_id", "max"),
    }, gate).to_pandas()
    for c in ("kept_words", "min_kept", "max_kept"):
        g[c] = g[c].fillna(-1).astype("int64")
    return g


def detect_lang(text: str) -> str:
    """Multi-profile stopword language-ID heuristic (en/es/de/fr via
    stopword-hit ratios, zh via CJK codepoint ratio, else unknown).

    Precedence is deterministic and mirrored exactly by the DuckDB oracle
    twin: non-ascii docs are 'zh' if the CJK ratio clears CJK_MIN else
    'unknown'; ascii docs take the FIRST profile (PROFILE_ORDER) whose hit
    ratio is maximal and clears SCORE_MIN; short ascii docs fall back to
    'en'."""
    words = text.lower().split(" ")
    if not words:
        return "unknown"
    ascii_ratio = sum(c.isascii() for c in text) / max(1, len(text))
    if ascii_ratio <= ASCII_MIN:
        cjk = sum("一" <= c <= "鿿" for c in text) / max(1, len(text))
        return "zh" if cjk > CJK_MIN else "unknown"
    scores = [(name, sum(w in PROFILES[name] for w in words) / len(words))
              for name in PROFILE_ORDER]
    best_name, best = max(scores, key=lambda kv: kv[1])  # ties: first wins
    if best > SCORE_MIN:
        return best_name
    if len(words) < SHORT_DOC_WORDS:
        return "en"
    return "unknown"


def q_lang_id(sf_dir: str) -> pd.DataFrame:
    ds = _read_docs(sf_dir, ["text", "lang"])

    def predict(batch: pa.Table) -> pa.Table:
        pred = [detect_lang(t) for t in batch.column("text").to_pylist()]
        return pa.table({"lang": batch.column("lang"), "pred_lang": pa.array(pred, pa.string())})

    return combine(ds, ["lang", "pred_lang"], {"n_docs": ("lang", "size")},
                   predict).to_pandas()


def q_doc_repetition(sf_dir: str, gate: float = 0.2) -> pd.DataFrame:
    """Gopher-style repetition quality signal: per doc, the fraction of
    word-3-gram OCCURRENCES that are duplicates of an earlier gram
    (1 - distinct/total over ALL windows — boilerplate and looped text
    score high), aggregated per source with a count of docs above the
    ``gate`` threshold (the filter a curation pipeline would apply).

    Shape: one vectorized md5 window pass per batch (the dedup machinery,
    duplicates kept), per-batch combiner collapses to one row per source
    — nothing per-doc leaves the tasks.  Per-doc fractions are single
    IEEE divisions of exact integer counts, so the gate compare and the
    SQL twin are exact; only the per-source sum carries association noise
    (rounded 6dp, the standard recipe)."""
    ds = _read_docs(sf_dir, ["source", "text"])

    def repetition(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        flat, offs, lens, doc_off = _doc_windows(texts, 3)
        h = md5_lower64(flat, offs, lens)
        total = np.diff(doc_off)
        distinct = np.fromiter(
            (np.unique(h[doc_off[i]: doc_off[i + 1]]).size
             for i in range(len(texts))), np.int64, count=len(texts))
        frac = 1.0 - distinct / total
        return pa.table({"source": batch.column("source"), "frac": frac,
                         "rep": (frac > gate).astype(np.int64)})

    g = combine(ds, ["source"], {"n_docs": ("frac", "size"), "frac_sum": ("frac", "sum"),
                                 "n_repetitive": ("rep", "sum")}, repetition).to_pandas()
    g.insert(2, "avg_dup_frac", round_ha(g.pop("frac_sum") / g["n_docs"]))
    return g


def q_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Per-source distinct rolling-fingerprint report — fully distributed
    two-level aggregate (a shuffle groupby on (source, fp) collapses
    duplicates inside the cluster; the per-source rollup then counts
    distinct rows).  Round 3 pulled one fingerprint row per doc to the
    driver for a pandas nunique — the corpus's fp column at scale."""
    def fingerprinted(batch: pa.Table) -> pa.Table:
        fps = rolling_fingerprints_batch(batch.column("text").to_pylist())
        # int64 bit-pattern view: Ray 2.49 uint64 groupby keys above 2^63
        # overflow in the aggregate path (CLAUDE.md invariant); distinct
        # counting is order-free so the reinterpretation is harmless.
        return pa.table({"source": batch.column("source"),
                         "fp": pa.array(np.asarray(fps, np.uint64).view(np.int64),
                                        pa.int64())})

    distinct = shuffle_combine(_read_docs(sf_dir, ["source", "text"]), ["source", "fp"],
                               {"c": ("fp", "size")}, fingerprinted)
    return combine(distinct, ["source"], {"n_docs": ("c", "sum"),
                                          "uniq_fingerprints": ("c", "size")}).to_pandas()


# ------------------------------------------------------------ ANN: IVF path


def _kmeans_lite(sample: np.ndarray, k: int = 16, iters: int = 10, seed: int = 11) -> np.ndarray:
    """Seeded Lloyd's k-means on a driver-side sample — builds the IVF
    coarse quantizer (centroids are broadcast to every map task)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = sample[rng.choice(sample.shape[0], size=min(k, sample.shape[0]), replace=False)].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(centroids.shape[0]):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


_IVF_CACHE_ROOT = "/tmp/ts_pymfe_ray_ivf"


def _hash_sample_matrix(ds, sample_rows: int) -> np.ndarray:
    """Unbiased bounded quantizer-training sample: keep a vector iff
    md5(vec_id) falls under a rate set from the metadata row count, a pure
    map-side coin (the ``q_documents_sample_hash`` machinery).  A
    ``ds.limit(n)`` first-N pull is order-biased — on a source-ordered
    corpus the quantizer would train on ONE source's cluster and starve
    the rest — while the hash coin sees every shard uniformly and stays
    deterministic/resumable.  Only the ~sample_rows survivors reach the
    driver."""
    from ts_pymfe_ray.functions.md5vec import md5_lower64_list

    total = ds.count()  # parquet metadata count — no data scan
    if total <= sample_rows:
        sample = ds.to_pandas()
    else:
        # 2^32-grain coin: fine enough that rate*total tracks sample_rows
        # closely at any corpus size (the %100 coin would quantize to 1%)
        thresh = np.uint64(int(np.ceil(sample_rows / total * 2**32)))

        def keep(batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy()
            h = md5_lower64_list([str(int(i)).encode() for i in ids])
            return batch.filter(pa.array((h % np.uint64(2**32)) < thresh))

        sample = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return np.asarray(sample["embedding"].to_list(), dtype=np.float64)


def build_ivf_index(sf_dir: str, n_cells: int = 16,
                    sample_rows: int = 2048) -> tuple[str, np.ndarray]:
    """One-off IVF layout build (cached per (input, n_cells)): train the
    coarse quantizer on an md5-coin hash sample (unbiased, bounded driver
    pull — see _hash_sample_matrix), assign every vector to its nearest
    centroid via map_batches, and write a hive-partitioned parquet layout
    ``cell=K/``.  Queries then read ONLY the probed partitions — at 10^9+
    vectors the scan touches n_probe/n_cells of the corpus and nothing
    else leaves storage.

    Returns (index_dir, centroids)."""
    src = os.path.join(sf_dir, "embeddings.parquet")
    # cache key covers the input's identity AND content generation
    # (mtime+size — a regenerated file at the same path invalidates the
    # layout), every build parameter, and a layout-version suffix bumped
    # when the quantizer/assignment code changes
    st = os.stat(src)
    tag = hashlib.blake2b(
        f"{os.path.abspath(src)}|{st.st_mtime_ns}|{st.st_size}|{n_cells}|{sample_rows}|ivf-v3".encode(),
        digest_size=8,
    ).hexdigest()
    out_dir = os.path.join(_IVF_CACHE_ROOT, tag)
    cpath = os.path.join(out_dir, "_centroids.npy")
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir, np.load(cpath)

    ds = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    mat_sample = _hash_sample_matrix(ds, sample_rows)
    centroids = _kmeans_lite(mat_sample, k=n_cells)

    def assign(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column("cell", pa.array(d.argmin(axis=1), pa.int32()))

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cell"]
    )
    np.save(cpath, centroids)
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write("ok")
    return out_dir, centroids


def q_embeddings_ann_ivf(sf_dir: str, k: int = 5, query_vec_id: int = 0,
                         n_cells: int = 16, n_probe: int = 4) -> pd.DataFrame:
    """IVF approximate top-k — the SCALE path for similarity search: probe
    the ``n_probe`` cells nearest the query and scan only those hive
    partitions of the prebuilt cell layout (build_ivf_index).  The query
    vector itself comes from a pushdown-filtered read, never a full-table
    pull."""
    index_dir, centroids = build_ivf_index(sf_dir, n_cells=n_cells)

    qtbl = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") == query_vec_id,
    ).to_pandas()
    q = np.asarray(qtbl["embedding"].iloc[0], dtype=np.float64)
    qn = q / np.linalg.norm(q)
    probe = np.argsort(((centroids - q) ** 2).sum(axis=1))[:n_probe]

    # partition pruning by construction: only the probed cell=K/ dirs are
    # passed to the read — nothing else leaves storage
    import glob as _glob

    paths = [f for c in probe
             for f in sorted(_glob.glob(os.path.join(index_dir, f"cell={int(c)}", "*.parquet")))]
    def scored(batch: pa.Table) -> pa.Table:
        # ranked on the 6dp-rounded cosine, as the driver hash sees it
        return pa.table({"vec_id": batch.column("vec_id"),
                         "cosine": round_ha(_cosines(_embeddings(batch, qn.size), qn))})

    return topk(ray.data.read_parquet(paths, columns=["vec_id", "embedding"]),
                _BY_COSINE, k, prep=scored).to_pandas()


def q_source_overlap_matrix(sf_dir: str) -> pd.DataFrame:
    """Cross-source contamination matrix: for every source pair, the number
    of DISTINCT word-3-shingles both corpora contain — the benchmark-
    contamination / corpus-overlap check a curation pipeline runs before
    mixing sources (set-intersection cardinalities, exact).

    Shape: (1) per-batch (shingle-hash, source) rows via the vectorized
    md5 shingler; (2) global distinct via a shuffle groupby(h, source);
    (3) each source becomes one BIT in a per-h mask — after global
    distinct every bit occurs at most once per h, so a shuffle sum IS the
    bitwise OR; (4) one 64x64 GEMM per batch turns bit matrices into pair
    co-occurrence counts, so only 64x64 partials reach the driver.
    Shuffles carry distinct-(h, source) rows, never the corpus; >64
    sources would shard the mask into multiple words."""
    def shingle_rows(batch: pa.Table) -> pa.Table:
        # explicit Arrow types end to end: an empty batch must still emit
        # the (int64, int64) schema or block unification degrades to
        # pickled-object columns that the shuffle sort rejects
        srcs = batch.column("source").to_pylist()
        per_doc = _md5_shingles_batch(batch.column("text").to_pylist())
        h = (np.concatenate(per_doc) if per_doc else np.empty(0, np.uint64))
        idx = np.repeat(
            np.array([int(s[3:]) for s in srcs], dtype=np.int64),
            [x.size for x in per_doc],
        )
        if idx.size and idx.max() > 62:
            raise ValueError("source index exceeds single-word bitmask")
        # int64 bit-pattern view: Ray 2.49's aggregate path re-infers key
        # columns as int64 and mangles uint64 values above 2^63 into
        # pickled objects that the shuffle sort rejects
        return pa.table({"h": pa.array(h.view(np.int64), pa.int64()),
                         "src_idx": pa.array(idx, pa.int64())})

    def to_mask(batch: pa.Table) -> pa.Table:
        idx = batch.column("src_idx").to_numpy()
        return pa.table({"h": batch.column("h"),
                         "mask": pa.array(np.int64(1) << idx, pa.int64())})

    def pair_counts(batch: pa.Table) -> pa.Table:
        m = batch.column("mask").to_numpy().astype(np.uint64)
        bits = np.unpackbits(m.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little").astype(np.int64)
        co = bits.T @ bits  # (64, 64) pair co-occurrence over this batch
        i, j = np.nonzero(np.triu(co, k=1))
        return pa.table({"i": pa.array(i, pa.int64()), "j": pa.array(j, pa.int64()),
                         "c": pa.array(co[i, j], pa.int64())})

    distinct = shuffle_combine(_read_docs(sf_dir, ["source", "text"]), ["h", "src_idx"],
                               {"n": ("h", "size")}, shingle_rows)
    # mask sum == OR: each bit set at most once per h
    masks = shuffle_combine(distinct, ["h"], {"mask": ("mask", "sum")}, to_mask)
    g = combine(masks, ["i", "j"], {"c": ("c", "sum")}, pair_counts).to_pandas()
    names_a = [f"src{i}" for i in g["i"]]
    names_b = [f"src{j}" for j in g["j"]]
    # SQL twin orders pairs by STRING comparison; bit indices are numeric
    src_a = [min(a, b) for a, b in zip(names_a, names_b)]
    src_b = [max(a, b) for a, b in zip(names_a, names_b)]
    out = pd.DataFrame({"src_a": src_a, "src_b": src_b, "shared_shingles": g["c"]})
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def q_curation_pipeline(sf_dir: str, sample_pct: int = 50) -> pd.DataFrame:
    """END-TO-END curation: quality filter -> exact dedup keep-first ->
    deterministic hash sample -> train/val/test split -> per-(source,
    split) report.  Every stage is the engine's production shape chained
    in ONE lazy Dataset plan:

    1. map-side quality gate (integer rules, `_quality_signals_batch`);
    2. keep-first dedup as a distributed groupby on the 128-bit text
       hash — the winner's (doc_id, source) ride the Min aggregate as one
       packed int64 (doc_id*64 + source_idx is monotone in doc_id), so no
       join ships winner attributes back;
    3. md5-coin sampling on the surviving doc_ids;
    4. split labels from a SALTED coin (md5(doc_id || ':split')) so the
       sample and split decisions are independent;
    5. bounded-domain (source, split) count/sum report.

    The DuckDB twin mirrors all five stages as CTEs — the whole pipeline
    is hash-exact, not just its pieces."""
    def gate_and_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        src = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        nw, n_chars, n_stop, n_punct, _ = _quality_signals_batch(texts)
        keep = (
            (nw >= 30) & (nw <= 5000)
            & (n_stop * 100 >= nw * 10)
            & (n_punct * 100 <= n_chars * 5)
        )
        kept = np.flatnonzero(keep)
        sidx = np.array([int(src[i][3:]) for i in kept], dtype=np.int64)
        return pa.table({
            **_hash_keys(batch.column("text").take(kept)),
            "packed": pa.array(ids[kept] * 64 + sidx, pa.int64()),
            "nc": pa.array(n_chars[kept].astype(np.int64), pa.int64()),
        })

    def sample_split(batch: pa.Table) -> pa.Table:
        packed = batch.column("packed").to_numpy()
        doc_id, sidx = packed // 64, packed % 64
        m = _md5_mod100(doc_id) < sample_pct
        doc_id, sidx = doc_id[m], sidx[m]
        salted = md5_lower64_list(
            [f"{int(i)}:split".encode() for i in doc_id]
        ) % np.uint64(100)
        split = np.where(salted < 80, "train", np.where(salted < 90, "val", "test"))
        # explicit types: an empty batch must not degrade to null columns
        return pa.table({"source": pa.array([f"src{i}" for i in sidx], pa.string()),
                         "split": pa.array(split.tolist(), pa.string()),
                         "nc": batch.column("nc").filter(pa.array(m))})

    # nc is constant per text hash
    winners = shuffle_combine(_read_docs(sf_dir, ["doc_id", "source", "text"]),
                              ["h_lo", "h_hi"], {"packed": ("packed", "min"),
                                                 "nc": ("nc", "min")}, gate_and_hash)
    return combine(winners, ["source", "split"], {"n_docs": ("nc", "size"),
                                                  "sum_chars": ("nc", "sum")},
                   sample_split).to_pandas()


def q_decontaminate(sf_dir: str, benchmark_source: str = "src0") -> pd.DataFrame:
    """Benchmark decontamination: count, per source, the docs that share
    ANY word-3-shingle with the benchmark corpus (here: the docs of
    ``benchmark_source``) — the removal gate run before training on data
    that might contain eval material.

    Scale shape: the benchmark side is small by definition, so its
    distinct shingle-hash set is collected once and BROADCAST (ships with
    the task closure, ray.put semantics); the corpus side is a pure
    map-side membership probe (np.isin against the sorted benchmark
    array) + bounded per-source count partials.  No shuffle at all."""
    path = os.path.join(sf_dir, "documents.parquet")

    bench_tbl = ray.data.read_parquet(
        path, columns=["source", "text"],
        filter=pc.field("source") == benchmark_source,
    ).to_pandas()
    bench = np.unique(np.concatenate(
        _md5_shingles_batch(bench_tbl["text"].tolist()) or
        [np.empty(0, np.uint64)]
    ))

    def probe(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch.column("source"), benchmark_source))
        per_doc = _md5_shingles_batch(batch.column("text").to_pylist())
        hit = [np.isin(hs, bench, assume_unique=True).any() for hs in per_doc]
        return pa.table({"source": batch.column("source"),
                         "hit": pa.array(hit, pa.bool_()).cast(pa.int64())})

    return combine(ray.data.read_parquet(path, columns=["source", "text"]), ["source"],
                   {"n_docs": ("hit", "size"), "n_dropped": ("hit", "sum")}, probe).to_pandas()
