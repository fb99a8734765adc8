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

Stream layouts (all multi-byte fixed fields little-endian):

- ``GXF1``: ``b"GXF1"``, uint32 value count n, the first value's 8 bytes
  (if n > 0), then n - 1 header bytes ``9 * lzb + nbytes`` (leading zero
  bytes and meaningful bytes of each XOR with the previous value; a zero
  XOR is header 0), then the meaningful bytes of every XOR, big-endian,
  in value order.
- ``GDD1``: ``b"GDD1"``, uint32 value count n, uint8 ``order``, the first
  ``min(order, n)`` values as int64, then one header byte per value of
  the ``order``-fold difference (int64 wrap-around): the byte width of
  its zigzag value ``(d << 1) ^ (d >> 63)`` (0 for 0), then each zigzag
  value's significant bytes, big-endian, in value order.

Round-trip is bitwise exact (tested; the raw-tier token invariant of
BASELINE.json rides on :func:`encode_ints_dod`).
"""

from __future__ import annotations

import numpy as np

_MAGIC_F = b"GXF1"  # float XOR stream
_MAGIC_I = b"GDD1"  # int delta-of-delta stream


def _unpack_selected_bytes(payload: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Scatter payload bytes back into a zeroed (m, 8) byte matrix: row i
    receives its bytes at columns ``lo[i]..hi[i]-1``, rows in order."""
    m = lo.shape[0]
    bm = np.zeros((m, 8), dtype=np.uint8)
    cols = np.arange(8, dtype=np.int64)
    mask = (cols >= lo[:, None]) & (cols < hi[:, None])
    bm[mask] = payload
    return bm


def encode_floats_xor(values: np.ndarray) -> bytes:
    """Compress a float64 array with byte-aligned XOR-of-previous encoding
    (a one-row call of :func:`encode_floats_xor_many`)."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return encode_floats_xor_many(x, np.array([0, x.size]))[0].tobytes()


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
    """Zigzag-map the int64 array ``d`` IN PLACE and return it as uint64
    (a bit reinterpret: int64 -> uint64 is mod 2^64)."""
    sign = d >> 63
    d <<= 1
    d ^= sign
    return d.view(np.uint64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    # the shift is a LOGICAL one on the uint64 (an int64 shift would drag
    # the sign bit of a zigzag value >= 2^63 into the result)
    return (z >> np.uint64(1)).view(np.int64) ^ -(z & np.uint64(1)).view(np.int64)


def encode_ints_dod(values: np.ndarray, order: int = 2) -> bytes:
    """Delta-of-delta (``order`` differencing rounds) + zigzag + byte-aligned
    varint compression of an integer array.  ``order=2`` is the Gorilla
    timestamp scheme; ``order=1`` (plain delta) suits token-value arrays.
    A one-row call of :func:`encode_ints_dod_many`."""
    x = np.ascontiguousarray(values, dtype=np.int64).ravel()
    return encode_ints_dod_many(x, np.array([0, x.size]), order=order)[0].tobytes()


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


# ------------------------------------------------------- batched codecs
#
# The rollup stage encodes ~3 streams per (row, tier): tens of thousands
# of tiny codec calls per batch if made one row at a time.  The *_many
# encoders take EVERY row of a batch as one flat buffer plus row offsets
# and return one (data, offsets) pair; there is no Python loop over rows
# or elements, only over the <= 8 byte widths or <= ``order`` head slots.
# Per element they compute the varint/XOR byte width with integer
# compares, then every byte of every row lands in ``data`` through one
# index scatter per stream section (headers, payload), the payload bytes
# gathered straight out of the little-endian byte view of the values
# (``_place``/``_payload``).  (One np.concatenate over per-row pieces
# places the token stream ~15% faster, but only behind a Python loop that
# lists five pieces per row.)  The one-row encoders above are calls of
# these, so each codec has one implementation; tests/test_gorilla.py
# checks it against a per-value reference encoder written from the format
# description in the module docstring.  The tier read side has the same
# shape in reverse: decode_floats_xor_many.


def _scatter_fixed(data: np.ndarray, pos: np.ndarray, chunk: np.ndarray) -> None:
    """data[pos[i] + k] = chunk[i, k] for every fixed-width k (vectorized
    over rows; k is the small fixed width)."""
    for k in range(chunk.shape[1]):
        data[pos + k] = chunk[:, k]


def _place(data: np.ndarray, pieces: np.ndarray, dst: np.ndarray, lens: np.ndarray) -> None:
    """One index scatter of the row-ordered concatenation ``pieces``: row
    r's ``lens[r]`` elements go to ``data[dst[r]:]``."""
    idx = np.repeat(dst - (np.cumsum(lens) - lens), lens)
    idx += np.arange(pieces.size)
    data[idx] = pieces


def _payload(data: np.ndarray, vals: np.ndarray, last: np.ndarray, nbytes: np.ndarray,
             pay_cum: np.ndarray, row_shift: np.ndarray, row_pay: np.ndarray) -> None:
    """Write every element's big-endian payload into ``data`` with one
    gather and one scatter.  Element e's payload is the ``nbytes[e]``
    little-endian bytes ``last[e], last[e] - 1, ...`` of ``vals[e]``, and
    lands at ``pay_cum[e] + row_shift[r]`` for its row r (``row_pay[r]``
    payload bytes per row, rows in element order)."""
    q = np.arange(int(pay_cum[-1]), dtype=np.int64)
    src = np.arange(0, 8 * vals.size, 8, dtype=np.int64)
    src += last
    src += pay_cum[:-1]
    src = np.repeat(src, nbytes)
    src -= q
    dst = np.repeat(row_shift, row_pay)
    dst += q
    data[dst] = vals.view(np.uint8)[src]


def _prefix(magic: bytes, counts: np.ndarray) -> np.ndarray:
    """(n_rows, 8) bytes: the stream magic then the uint32 value count."""
    pre = np.empty((counts.size, 8), dtype=np.uint8)
    pre[:, :4] = np.frombuffer(magic, dtype=np.uint8)
    pre[:, 4:] = counts.astype("<u4")[:, None].view(np.uint8)
    return pre


def _row_payload_sizes(nbytes: np.ndarray, row_elems: np.ndarray):
    """``(pay_cum, elem_cum, row_pay)``: payload byte offsets per element,
    element offsets per row and payload bytes per row."""
    pay_cum = np.zeros(nbytes.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=pay_cum[1:])
    elem_cum = np.concatenate([[0], np.cumsum(row_elems)])
    return pay_cum, elem_cum, np.diff(pay_cum[elem_cum])


def encode_floats_xor_many(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`encode_floats_xor`: rows are
    ``flat[offsets[i]:offsets[i+1]]``; returns ``(data, out_offsets)``
    where ``bytes(data[out_offsets[i]:out_offsets[i+1]])`` is row i's
    stream."""
    x = np.ascontiguousarray(flat, dtype=np.float64).view(np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    has = counts > 0
    m_cnt = np.maximum(counts - 1, 0)  # xor elements per row

    # xor elements: every position but a row's first, XORed with its
    # predecessor
    keep = np.ones(x.size, dtype=bool)
    keep[offsets[:-1][has]] = False
    xor = np.empty(x.size, dtype=np.uint64)
    xor[:1] = 0
    np.bitwise_xor(x[1:], x[:-1], out=xor[1:])
    xe = xor[keep]
    # leading and trailing zero bytes by integer compares (7 each for a
    # zero xor, which stores no bytes and a zero header)
    lzb = np.zeros(xe.size, dtype=np.int64)
    tzb = np.zeros(xe.size, dtype=np.int64)
    for k in range(1, 8):
        lzb += xe < np.uint64(1 << (64 - 8 * k))
        tzb += (xe & np.uint64((1 << (8 * k)) - 1)) == 0
    zero = xe == 0
    lzb[zero] = 0
    nbytes = np.where(zero, 0, 8 - lzb - tzb)
    pay_cum, elem_cum, row_pay = _row_payload_sizes(nbytes, m_cnt)

    out_off = np.concatenate([[0], np.cumsum(8 + 8 * has + m_cnt + row_pay)])
    data = np.empty(int(out_off[-1]), dtype=np.uint8)
    pos = out_off[:-1]
    _scatter_fixed(data, pos, _prefix(_MAGIC_F, counts))
    _scatter_fixed(data, pos[has] + 8, x[offsets[:-1][has]][:, None].view(np.uint8))
    hdr_start = pos + 16
    _place(data, (lzb * 9 + nbytes).astype(np.uint8), hdr_start, m_cnt)
    _payload(data, xe, 7 - lzb, nbytes, pay_cum,
             hdr_start + m_cnt - pay_cum[elem_cum[:-1]], row_pay)
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
    k_row = np.minimum(counts, order)  # raw head values per row
    m_cnt = counts - k_row  # encoded elements per row

    # order-fold differences of the flat buffer: row i's elements are
    # d[offsets[i]:offsets[i] + m_cnt[i]] (their windows lie inside the
    # row); the last k_row positions of each row reach into the next one
    d = x
    for _ in range(order):
        d = np.diff(d)
    keep = np.ones(d.size, dtype=bool)
    for j in range(order):
        drop = offsets[1:][k_row > j] - 1 - j
        keep[drop[drop < d.size]] = False
    z = _zigzag(d[keep])
    # varint width via a threshold ladder: one z.max() scan bounds the
    # loop, then each extra byte of width is a single compare-and-add pass
    # (values are overwhelmingly 1-3 bytes after delta+zigzag)
    nbytes = (z > 0).astype(np.int64)
    if z.size:
        zmax = int(z.max())
        thr = 0xFF
        while zmax > thr:
            nbytes += z > np.uint64(thr)
            thr = (thr << 8) | 0xFF
    pay_cum, elem_cum, row_pay = _row_payload_sizes(nbytes, m_cnt)

    out_off = np.concatenate([[0], np.cumsum(9 + 8 * k_row + m_cnt + row_pay)])
    data = np.empty(int(out_off[-1]), dtype=np.uint8)
    pos = out_off[:-1]
    _scatter_fixed(data, pos, _prefix(_MAGIC_I, counts))
    data[pos + 8] = order
    for j in range(order):
        head = k_row > j
        _scatter_fixed(data, pos[head] + 9 + 8 * j,
                       x[offsets[:-1][head] + j][:, None].view(np.uint8))
    hdr_start = pos + 9 + 8 * k_row
    _place(data, nbytes.astype(np.uint8), hdr_start, m_cnt)
    _payload(data, z, nbytes - 1, nbytes, pay_cum,
             hdr_start + m_cnt - pay_cum[elem_cum[:-1]], row_pay)
    return data, out_off
