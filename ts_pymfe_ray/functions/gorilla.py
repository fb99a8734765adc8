"""Gorilla-style compression codecs, fully vectorized in numpy.

Two codecs, both following the Gorilla paper's ideas (Pelkonen et al.,
"Gorilla: A Fast, Scalable, In-Memory Time Series Database", VLDB 2015):

- :func:`encode_floats_xor` — XOR-with-previous float encoding.  Each value
  is XORed with its predecessor; the leading- and trailing-zero *bytes* of
  the XOR are stripped and only the meaningful bytes are stored, with a
  1-byte header ``(leading_zero_bytes, meaningful_bytes)`` per value.
  This is a byte-aligned variant of Gorilla's bit-level scheme: same
  algorithm (XOR, strip zeros around the meaningful window), but aligned to
  bytes so both encode and decode are pure vectorized numpy (no per-value
  Python loop — mandatory at 100 TB scale).  Typical ratio on smooth series
  is 2-4x; the bit-level original reaches ~1.37 bytes/value on Facebook's
  data at the cost of a sequential bit cursor.

- :func:`encode_ints_dod` — delta-of-delta integer encoding for timestamps
  (and raw token arrays): ``order`` rounds of differencing, zigzag mapping,
  then byte-aligned varint packing with a 1-byte length header per value.
  Regular timestamps (constant stride) collapse to one header byte per
  point.

Round-trip is bitwise exact (tested; the raw-tier token invariant of
BASELINE.json rides on :func:`encode_ints_dod`).
"""

from __future__ import annotations

import numpy as np

_MAGIC_F = b"GXF1"  # float XOR stream
_MAGIC_I = b"GDD1"  # int delta-of-delta stream


def _pack_selected_bytes(bm: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Select bytes ``lo[i]..hi[i]-1`` from each row of byte-matrix ``bm``
    (shape (m, 8)), concatenated row-major.  Vectorized."""
    cols = np.arange(8, dtype=np.int64)
    mask = (cols >= lo[:, None]) & (cols < hi[:, None])
    return bm[mask]


def _unpack_selected_bytes(payload: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack_selected_bytes`: scatter payload bytes back
    into a zeroed (m, 8) byte matrix."""
    m = lo.shape[0]
    bm = np.zeros((m, 8), dtype=np.uint8)
    cols = np.arange(8, dtype=np.int64)
    mask = (cols >= lo[:, None]) & (cols < hi[:, None])
    bm[mask] = payload
    return bm


def encode_floats_xor(values: np.ndarray) -> bytes:
    """Compress a float64 array with byte-aligned XOR-of-previous encoding."""
    x = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    n = x.size
    head = _MAGIC_F + np.uint32(n).tobytes()
    if n == 0:
        return head
    first = x[:1].tobytes()
    if n == 1:
        return head + first
    xor = x[1:] ^ x[:-1]
    bm = xor.astype(">u8").view(np.uint8).reshape(n - 1, 8)
    nz = bm != 0
    any_nz = nz.any(axis=1)
    lzb = np.where(any_nz, nz.argmax(axis=1), 0).astype(np.int64)
    last = np.where(any_nz, 7 - nz[:, ::-1].argmax(axis=1), -1).astype(np.int64)
    nbytes = np.where(any_nz, last - lzb + 1, 0)
    headers = (lzb * 9 + nbytes).astype(np.uint8)
    payload = _pack_selected_bytes(bm, lzb, lzb + nbytes)
    return head + first + headers.tobytes() + payload.tobytes()


def decode_floats_xor(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_floats_xor` (bitwise exact)."""
    assert buf[:4] == _MAGIC_F, "not a GXF1 stream"
    n = int(np.frombuffer(buf, dtype=np.uint32, count=1, offset=4)[0])
    if n == 0:
        return np.empty(0, dtype=np.float64)
    first = np.frombuffer(buf, dtype=np.uint64, count=1, offset=8)
    if n == 1:
        return first.view(np.float64).copy()
    headers = np.frombuffer(buf, dtype=np.uint8, count=n - 1, offset=16).astype(np.int64)
    lzb, nbytes = headers // 9, headers % 9
    total = int(nbytes.sum())
    payload = np.frombuffer(buf, dtype=np.uint8, count=total, offset=16 + (n - 1))
    bm = _unpack_selected_bytes(payload, lzb, lzb + nbytes)
    xor = np.frombuffer(bm.tobytes(), dtype=">u8").astype(np.uint64)
    vals = np.empty(n, dtype=np.uint64)
    vals[0] = first[0]
    vals[1:] = xor
    return np.bitwise_xor.accumulate(vals).view(np.float64)


def _zigzag(d: np.ndarray) -> np.ndarray:
    # .view not .astype: int64 -> uint64 conversion is mod-2^64, i.e. a bit
    # reinterpret — the view skips one full-array copy
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    zi = z.astype(np.int64)
    return (zi >> 1) ^ -(zi & 1)


def encode_ints_dod(values: np.ndarray, order: int = 2) -> bytes:
    """Delta-of-delta (``order`` differencing rounds) + zigzag + byte-aligned
    varint compression of an integer array.  ``order=2`` is the Gorilla
    timestamp scheme; ``order=1`` (plain delta) suits token-value arrays."""
    x = np.ascontiguousarray(values, dtype=np.int64)
    n = x.size
    k = min(order, n)
    head = _MAGIC_I + np.uint32(n).tobytes() + np.uint8(order).tobytes()
    raw = x[:k].tobytes()
    if n <= k:
        return head + raw
    d = x
    for _ in range(order):
        d = np.diff(d)
    z = _zigzag(d)
    bm = z.astype(">u8").view(np.uint8).reshape(z.size, 8)
    nz = bm != 0
    any_nz = nz.any(axis=1)
    lzb = np.where(any_nz, nz.argmax(axis=1), 8).astype(np.int64)
    nbytes = 8 - lzb
    headers = nbytes.astype(np.uint8)
    payload = _pack_selected_bytes(bm, lzb, np.full(z.size, 8, dtype=np.int64))
    return head + raw + headers.tobytes() + payload.tobytes()


def decode_ints_dod(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_ints_dod` (bitwise exact)."""
    assert buf[:4] == _MAGIC_I, "not a GDD1 stream"
    n = int(np.frombuffer(buf, dtype=np.uint32, count=1, offset=4)[0])
    order = int(buf[8])
    k = min(order, n)
    raw = np.frombuffer(buf, dtype=np.int64, count=k, offset=9).copy()
    if n <= k:
        return raw
    m = n - order
    off = 9 + 8 * k
    nbytes = np.frombuffer(buf, dtype=np.uint8, count=m, offset=off).astype(np.int64)
    total = int(nbytes.sum())
    payload = np.frombuffer(buf, dtype=np.uint8, count=total, offset=off + m)
    bm = _unpack_selected_bytes(payload, 8 - nbytes, np.full(m, 8, dtype=np.int64))
    z = np.frombuffer(bm.tobytes(), dtype=">u8").astype(np.uint64)
    level = _unzigzag(z)  # level_order = diff^order(x), length n - order
    # Invert the differencing level by level: level_j has length n - j and
    # its first element diff^j(x)[0] is computable from the stored raw head
    # (raw = x[:order], and j <= order - 1 needs only x[0..j]).
    for j in range(order - 1, -1, -1):
        seed = np.diff(raw[: j + 1], n=j) if j > 0 else raw[:1]
        level = np.cumsum(np.concatenate([seed[-1:], level]))
    return level


def compression_ratio(raw_nbytes: int, encoded: bytes) -> float:
    return raw_nbytes / max(1, len(encoded))


# ------------------------------------------------------- batched codecs
#
# The rollup stage encodes ~3 streams per (row, tier) — tens of thousands
# of TINY codec calls per batch, which turns the vectorized encoders above
# into pure numpy-dispatch overhead (profiled at ~65% of RollupStage).
# The *_many variants below encode EVERY row of a batch in one set of
# vectorized passes and return a single (data, offsets) pair whose row
# slices are BITWISE IDENTICAL to the per-row encoders (tested), so the
# per-row decoders and every golden/oracle stay untouched.  The tier read
# side has the same shape in reverse: decode_floats_xor_many.


def _pack_suffix_reversed(bm_le: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """Big-endian varint payload for every element: the low ``nbytes[i]``
    little-endian bytes of row i, REVERSED, concatenated in element order.
    Equals ``_pack_selected_bytes(bm_be, 8 - nbytes, 8)`` but groups
    elements by width (almost all are 1-3 bytes) so the hot path is a few
    small gathers instead of two (m, 8) boolean-mask passes."""
    pay_cum = np.concatenate([[0], np.cumsum(nbytes)])
    out = np.empty(int(pay_cum[-1]), dtype=np.uint8)
    widths = np.bincount(nbytes, minlength=9)
    for k in range(1, 9):
        if widths[k] == 0:
            continue
        idx = np.flatnonzero(nbytes == k)
        block = bm_le[idx[:, None], np.arange(k - 1, -1, -1)[None, :]]  # (g, k)
        dest0 = pay_cum[idx]
        for j in range(k):
            out[dest0 + j] = block[:, j]
    return out


def _scatter_fixed(data: np.ndarray, pos: np.ndarray, chunk: np.ndarray) -> None:
    """data[pos[i] + k] = chunk[i, k] for every fixed-width k (vectorized
    over rows; k is the small fixed width)."""
    for k in range(chunk.shape[1]):
        data[pos + k] = chunk[:, k]


def encode_floats_xor_many(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`encode_floats_xor`: rows are
    ``flat[offsets[i]:offsets[i+1]]``; returns ``(data, out_offsets)``
    where ``bytes(data[out_offsets[i]:out_offsets[i+1]])`` equals
    ``encode_floats_xor(row_i)`` bitwise."""
    x = np.ascontiguousarray(flat, dtype=np.float64).view(np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    n_rows = counts.size
    m_cnt = np.maximum(counts - 1, 0)  # xor elements per row

    # per-element xor stats (elements = all positions except row firsts)
    total = x.size
    keep = np.ones(total, dtype=bool)
    keep[offsets[:-1][counts > 0]] = False
    xor = np.empty(total, dtype=np.uint64)
    if total:
        xor[0] = 0
        np.bitwise_xor(x[1:], x[:-1], out=xor[1:])
    xe = xor[keep]
    # big-endian byte matrix as a REVERSED VIEW of the native little-endian
    # bytes — no astype(">u8") byteswap copy (memory passes are the cost
    # on this box); bm[i, j] equals the big-endian byte j exactly
    bm = xe.view(np.uint8).reshape(xe.size, 8)[:, ::-1]
    nz = bm != 0
    any_nz = nz.any(axis=1)
    lzb = np.where(any_nz, nz.argmax(axis=1), 0).astype(np.int64)
    last = np.where(any_nz, 7 - nz[:, ::-1].argmax(axis=1), -1).astype(np.int64)
    nbytes = np.where(any_nz, last - lzb + 1, 0)
    headers = (lzb * 9 + nbytes).astype(np.uint8)
    packed = _pack_selected_bytes(bm, lzb, lzb + nbytes)

    # per-row payload sums: contiguous element ranges -> cumsum diffs
    first_elem = np.concatenate([[0], np.cumsum(m_cnt)])
    pay_cum = np.concatenate([[0], np.cumsum(nbytes)])
    pay_per_row = pay_cum[first_elem[1:]] - pay_cum[first_elem[:-1]]
    row_len = 8 + 8 * (counts > 0) + m_cnt + pay_per_row
    out_off = np.concatenate([[0], np.cumsum(row_len)])
    data = np.zeros(int(out_off[-1]), dtype=np.uint8)

    pos = out_off[:-1]
    head = np.frombuffer(_MAGIC_F, dtype=np.uint8)
    for k in range(4):
        data[pos + k] = head[k]
    _scatter_fixed(data, pos + 4, counts.astype(np.uint32)[:, None].view(np.uint8))
    nz_rows = counts > 0
    firsts = x[offsets[:-1][nz_rows]]
    _scatter_fixed(data, (pos + 8)[nz_rows], firsts[:, None].view(np.uint8))

    # variable pieces: both source (headers/packed) and destination are
    # CONTIGUOUS per row — per-row slice memcpys, never per-element scatter
    hdr_start = pos + 16
    pay_start = hdr_start + m_cnt
    for r in range(n_rows):
        e0, e1 = first_elem[r], first_elem[r + 1]
        if e0 == e1:
            continue
        hs = hdr_start[r]
        data[hs : hs + (e1 - e0)] = headers[e0:e1]
        p0, p1 = pay_cum[e0], pay_cum[e1]
        ps = pay_start[r]
        data[ps : ps + (p1 - p0)] = packed[p0:p1]
    return data, out_off


def _gather_words(data: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` little-endian bytes at ``data[pos[i]:]`` of every row,
    as a (len(pos), width) uint8 matrix (one fancy-index gather)."""
    return data[pos[:, None] + np.arange(width, dtype=np.int64)[None, :]]


def decode_floats_xor_many(data: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`decode_floats_xor`, the inverse of
    :func:`encode_floats_xor_many`: row i's stream is
    ``data[offsets[i]:offsets[i+1]]``; returns ``(flat, out_offsets)`` where
    ``flat[out_offsets[i]:out_offsets[i+1]]`` equals
    ``decode_floats_xor(row_i)`` bitwise.

    Every row's header and payload unpack in one set of vectorized passes,
    then ONE global ``bitwise_xor.accumulate`` runs over all rows; row i is
    re-based by XOR with the running value just before its first element
    (XOR is exact, so the re-based prefix equals the per-row one)."""
    data = np.asarray(data, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    pos = offsets[:-1]
    if not (_gather_words(data, pos, 4) == np.frombuffer(_MAGIC_F, np.uint8)).all():
        raise ValueError("not a GXF1 stream")
    counts = _gather_words(data, pos + 4, 4).view(np.uint32).ravel().astype(np.int64)
    out_off = np.concatenate([[0], np.cumsum(counts)])
    vals = np.empty(int(out_off[-1]), dtype=np.uint64)
    has = counts > 0
    row_first = out_off[:-1][has]
    vals[row_first] = _gather_words(data, pos[has] + 8, 8).view(np.uint64).ravel()

    # xor elements: every value but each row's first; headers and payload
    # are contiguous per row, so element -> byte positions are cumsum math
    m_cnt = np.maximum(counts - 1, 0)
    elem_off = np.concatenate([[0], np.cumsum(m_cnt)])
    within = np.arange(int(elem_off[-1]), dtype=np.int64) - np.repeat(elem_off[:-1], m_cnt)
    headers = data[np.repeat(pos + 16, m_cnt) + within].astype(np.int64)
    lzb, nbytes = headers // 9, headers % 9
    pay_cum = np.concatenate([[0], np.cumsum(nbytes)])
    # payload byte t of element e sits at pay_start[row(e)] + (t - pay_cum[row's first e])
    pay_base = np.repeat(pos + 16 + m_cnt - pay_cum[elem_off[:-1]], m_cnt)
    src = np.repeat(pay_base, nbytes) + np.arange(int(pay_cum[-1]), dtype=np.int64)
    bm = _unpack_selected_bytes(data[src], lzb, lzb + nbytes)
    # bm rows are big-endian: reverse to native little-endian uint64
    xor = np.ascontiguousarray(bm[:, ::-1]).view(np.uint64).ravel()
    is_first = np.zeros(vals.size, dtype=bool)
    is_first[row_first] = True
    vals[~is_first] = xor

    acc = np.bitwise_xor.accumulate(vals)
    prev = np.zeros(counts.size, dtype=np.uint64)
    starts = out_off[:-1]
    later = has & (starts > 0)
    prev[later] = acc[starts[later] - 1]
    acc ^= np.repeat(prev, counts)
    return acc.view(np.float64), out_off


def encode_ints_dod_many(flat: np.ndarray, offsets: np.ndarray,
                         order: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`encode_ints_dod` (same contract as
    :func:`encode_floats_xor_many`)."""
    x = np.ascontiguousarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    n_rows = counts.size
    k_row = np.minimum(counts, order)  # raw head values per row
    m_cnt = np.maximum(counts - order, 0)  # encoded elements per row

    # per-element order-fold differences, computed on the flat buffer with
    # row-boundary invalidation: after j rounds of differencing, element
    # positions whose window crosses a row start are dropped per row
    d = x
    for _ in range(order):
        d = np.diff(d) if d.size else d
    # element e of row i is diff^order(row_i)[e] == d[offsets[i] + e]
    # (np.diff of the flat array matches the per-row diff wherever the
    # whole order-window lies inside the row); gather per row (contiguous)
    first_elem = np.concatenate([[0], np.cumsum(m_cnt)])
    de = np.empty(int(first_elem[-1]), dtype=np.int64)
    for r in range(n_rows):
        e0, e1 = first_elem[r], first_elem[r + 1]
        if e0 != e1:
            de[e0:e1] = d[offsets[r] : offsets[r] + (e1 - e0)]
    z = _zigzag(de)
    m = z.size
    # native little-endian bytes, zero-copy: the last nonzero LE byte
    # gives the varint width; payload is the big-endian (reversed) suffix
    bm_le = z.view(np.uint8).reshape(m, 8)
    # varint width via a threshold ladder: one z.max() scan bounds the
    # loop, then each extra byte of width is a single compare-and-add pass
    # (values are overwhelmingly 1-3 bytes after delta+zigzag)
    nbytes = (z > 0).astype(np.int64)
    if m:
        zmax = int(z.max())
        thr = 0xFF
        while zmax > thr:
            nbytes += z > np.uint64(thr)
            thr = (thr << 8) | 0xFF
    headers = nbytes.astype(np.uint8)
    packed = _pack_suffix_reversed(bm_le, nbytes)

    pay_cum = np.concatenate([[0], np.cumsum(nbytes)])
    pay_per_row = pay_cum[first_elem[1:]] - pay_cum[first_elem[:-1]]
    row_len = 9 + 8 * k_row + m_cnt + pay_per_row
    out_off = np.concatenate([[0], np.cumsum(row_len)])
    data = np.zeros(int(out_off[-1]), dtype=np.uint8)

    pos = out_off[:-1]
    head = np.frombuffer(_MAGIC_I, dtype=np.uint8)
    for k in range(4):
        data[pos + k] = head[k]
    _scatter_fixed(data, pos + 4, counts.astype(np.uint32)[:, None].view(np.uint8))
    data[pos + 8] = np.uint8(order)

    xb = x.view(np.uint8)  # little-endian int64 bytes, 8 per value
    hdr_start = pos + 9 + 8 * k_row
    pay_start = hdr_start + m_cnt
    for r in range(n_rows):
        k = k_row[r]
        if k:
            data[pos[r] + 9 : pos[r] + 9 + 8 * k] = xb[8 * offsets[r] : 8 * (offsets[r] + k)]
        e0, e1 = first_elem[r], first_elem[r + 1]
        if e0 == e1:
            continue
        hs = hdr_start[r]
        data[hs : hs + (e1 - e0)] = headers[e0:e1]
        p0, p1 = pay_cum[e0], pay_cum[e1]
        ps = pay_start[r]
        data[ps : ps + (p1 - p0)] = packed[p0:p1]
    return data, out_off
