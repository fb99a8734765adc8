"""Vectorized MD5 over arrays of short byte strings.

The text operators (SimHash, MinHash shingles, rolling fingerprints) are
oracle-locked to MD5 — DuckDB's ``md5_number_lower()`` is the SQL twin —
so the hash itself cannot change.  What CAN change is how it's computed:
instead of one ``hashlib.md5`` call per word/shingle/window (Python-loop
bound at corpus scale), this module runs the MD5 compression function as
numpy uint32 kernels over ALL messages of a batch at once.  64 rounds of
~6 vector ops each, so a batch of 100k shingles costs ~400 numpy ops
instead of 100k interpreter round-trips.

Bit-parity with ``hashlib.md5`` is asserted property-style in
``tests/test_textops.py`` (random strings, all lengths crossing the
one/two/three-block padding boundaries).

Messages are described as (flat_buffer, offsets, lengths) views into one
contiguous uint8 buffer — the natural zero-copy layout when hashing word
windows of a document, since any k-word window of a space-joined text IS
a contiguous substring of its UTF-8 encoding (the 0x20 separator can
never occur inside a multi-byte UTF-8 sequence).
"""

from __future__ import annotations

import numpy as np

# --- MD5 round constants (RFC 1321) -----------------------------------
_K = np.floor(np.abs(np.sin(np.arange(1, 65, dtype=np.float64))) * 2.0**32).astype(
    np.uint64
).astype(np.uint32)
_S = np.array(
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4,
    dtype=np.uint8,
)
_G = np.array(
    [i for i in range(16)]
    + [(5 * i + 1) % 16 for i in range(16, 32)]
    + [(3 * i + 5) % 16 for i in range(32, 48)]
    + [(7 * i) % 16 for i in range(48, 64)],
    dtype=np.int64,
)

_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)


def _pad_blocks(flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray):
    """Gather + MD5-pad N messages into one (N, max_blocks*64) buffer."""
    n = len(lengths)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    nblocks = (lengths + 8) // 64 + 1
    max_blocks = int(nblocks.max()) if n else 1
    buf = np.zeros((n, max_blocks * 64), dtype=np.uint8)
    maxlen = int(lengths.max()) if n else 0
    if maxlen:
        cols = np.arange(maxlen, dtype=np.int64)
        mask = cols[None, :] < lengths[:, None]
        idx = offsets[:, None] + cols[None, :]
        buf[:, :maxlen][mask] = flat[idx[mask]]
    buf[np.arange(n), lengths] = 0x80
    # bit length into the trailing 8 bytes of each message's last block
    w = buf.view(np.uint64).reshape(n, max_blocks * 8)
    w[np.arange(n), nblocks * 8 - 1] = (lengths * 8).astype(np.uint64)
    return buf, nblocks, max_blocks


def _digest_words(flat, offsets, lengths):
    """Per-message (A, B, C, D) final state words, vectorized.

    Hot-loop shape: messages are sorted by block count (descending) so the
    active set for every block index is a PREFIX — all round operations run
    on zero-copy slices, never boolean/fancy indexing.  Message words are
    transposed once to (16*max_blocks, n) so each round's M[g] operand is a
    contiguous row, and every round op writes into one of six preallocated
    buffers (4 rotating registers + scratch) — no per-round allocation."""
    flat = np.ascontiguousarray(flat, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(lengths)
    nblocks = (lengths + 8) // 64 + 1
    order = np.argsort(-nblocks, kind="stable")
    buf, nblocks_s, max_blocks = _pad_blocks(flat, offsets[order], lengths[order])
    # per-block active-prefix sizes (messages sorted desc by block count)
    prefix = np.searchsorted(-nblocks_s, -np.arange(1, max_blocks + 1), side="right")
    Mt = np.ascontiguousarray(buf.view(np.uint32).reshape(n, max_blocks * 16).T)
    A = np.full(n, _INIT[0], dtype=np.uint32)
    B = np.full(n, _INIT[1], dtype=np.uint32)
    C = np.full(n, _INIT[2], dtype=np.uint32)
    D = np.full(n, _INIT[3], dtype=np.uint32)
    wA, wB, wC, wD, scr = (np.empty(n, dtype=np.uint32) for _ in range(5))
    for j in range(max_blocks):
        m = int(prefix[j])
        if m == 0:
            break
        va, vb, vc, vd, t = wA[:m], wB[:m], wC[:m], wD[:m], scr[:m]
        va[:] = A[:m]
        vb[:] = B[:m]
        vc[:] = C[:m]
        vd[:] = D[:m]
        base = j * 16
        for i in range(64):
            # boolean-identity forms of the four round functions (3 ops, no
            # NOT temp except round 4): F = d^(b&(c^d)), G = c^(d&(b^c)),
            # H = b^c^d, I = c^(b|~d)
            if i < 16:
                np.bitwise_xor(vc, vd, out=t)
                t &= vb
                t ^= vd
            elif i < 32:
                np.bitwise_xor(vb, vc, out=t)
                t &= vd
                t ^= vc
            elif i < 48:
                np.bitwise_xor(vb, vc, out=t)
                t ^= vd
            else:
                np.bitwise_not(vd, out=t)
                t |= vb
                t ^= vc
            t += va
            t += Mt[base + _G[i], :m]
            t += _K[i]
            s = int(_S[i])
            np.left_shift(t, s, out=va)  # va's old value is consumed; reuse
            t >>= np.uint32(32 - s)
            va |= t
            va += vb
            # register rotation: A<-d, B<-new value (in old a's buffer),
            # C<-b, D<-c; 64 rounds == 16 full cycles, so the loop exits
            # with each buffer back in its own role
            va, vb, vc, vd = vd, va, vb, vc
        A[:m] += va
        B[:m] += vb
        C[:m] += vc
        D[:m] += vd
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    return A[inv], B[inv], C[inv], D[inv]


# messages per compression pass: sized so the six round buffers (~6 x
# chunk x 4 B) and the message-word block stay cache-resident — measured
# 2x faster than both the unchunked pass and a hashlib.md5 Python loop
_CHUNK = 16384


def _digest_chunked(flat, offsets, lengths):
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    if n <= _CHUNK:
        return _digest_words(flat, offsets, lengths)
    flat = np.ascontiguousarray(flat, dtype=np.uint8)
    parts = [
        _digest_words(flat, offsets[s : s + _CHUNK], lengths[s : s + _CHUNK])
        for s in range(0, n, _CHUNK)
    ]
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(4))


def md5_lower64(flat, offsets, lengths) -> np.ndarray:
    """Low 64 bits of md5 (digest bytes 8..16, little-endian) — exactly
    DuckDB's md5_number_lower().  uint64 array, one value per message."""
    _, _, C, D = _digest_chunked(flat, offsets, lengths)
    return C.astype(np.uint64) | (D.astype(np.uint64) << np.uint64(32))


def md5_pair64(flat, offsets, lengths) -> tuple[np.ndarray, np.ndarray]:
    """(lower64, upper64) of the full 128-bit digest (both little-endian),
    matching DuckDB's md5_number_lower / md5_number_upper."""
    A, B, C, D = _digest_chunked(flat, offsets, lengths)
    lo = C.astype(np.uint64) | (D.astype(np.uint64) << np.uint64(32))
    hi = A.astype(np.uint64) | (B.astype(np.uint64) << np.uint64(32))
    return lo, hi


def pack_bytes(items: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate byte strings into the (flat, offsets, lengths) layout."""
    lengths = np.fromiter((len(b) for b in items), dtype=np.int64, count=len(items))
    offsets = np.zeros(len(items), dtype=np.int64)
    if len(items):
        np.cumsum(lengths[:-1], out=offsets[1:])
    flat = np.frombuffer(b"".join(items), dtype=np.uint8)
    return flat, offsets, lengths


def md5_lower64_list(items: list[bytes]) -> np.ndarray:
    return md5_lower64(*pack_bytes(items))
