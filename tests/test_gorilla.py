"""Codec round-trip invariants (FIXTURES.md §3.1): bitwise exact."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_pymfe_ray.functions import gorilla as g


@given(n=st.integers(0, 300), seed=st.integers(0, 1000), smooth=st.booleans())
@settings(max_examples=150, deadline=None)
def test_float_xor_roundtrip(n, seed, smooth):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    if smooth and n:
        v = np.cumsum(v)
    dec = g.decode_floats_xor(g.encode_floats_xor(v))
    assert dec.size == n
    assert np.array_equal(v.view(np.uint64), dec.view(np.uint64))


def test_float_xor_special_values():
    v = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300])
    dec = g.decode_floats_xor(g.encode_floats_xor(v))
    assert np.array_equal(v.view(np.uint64), dec.view(np.uint64))


@given(
    n=st.integers(0, 300),
    order=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_int_dod_roundtrip(n, order, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-(2**40), 2**40, size=n)
    assert np.array_equal(g.decode_ints_dod(g.encode_ints_dod(x, order=order)), x)


def test_token_roundtrip_with_sentinels():
    rng = np.random.default_rng(3)
    tok = rng.integers(0, 65536, size=5000).astype(np.int64)
    tok[100:120] = -1
    enc = g.encode_ints_dod(tok, order=1)
    assert np.array_equal(g.decode_ints_dod(enc), tok)
    assert len(enc) < tok.size * 4  # beats raw int32


def test_compression_on_regular_timestamps():
    ts = np.arange(0, 100000, 5)
    enc = g.encode_ints_dod(ts, order=2)
    assert len(enc) < ts.size * 1.2  # ~1 byte/point on constant stride
    assert np.array_equal(g.decode_ints_dod(enc), ts)


_U64 = 2**64 - 1


def _ref_floats_xor(values) -> bytes:
    """Per-value GXF1 encoder written from the module docstring: magic,
    uint32 count, the first value's 8 bytes, then one header byte
    ``9 * leading_zero_bytes + meaningful_bytes`` per XOR with the previous
    value, then the meaningful big-endian bytes of every XOR."""
    v = np.asarray(values, dtype=np.float64).view(np.uint64).tolist()
    out = bytearray(b"GXF1" + struct.pack("<I", len(v)))
    if v:
        out += struct.pack("<Q", v[0])
    heads, pay = bytearray(), bytearray()
    for a, b in zip(v, v[1:]):
        be = (a ^ b).to_bytes(8, "big")
        if not any(be):
            heads.append(0)
            continue
        lz = 8 - len(be.lstrip(b"\0"))
        n = len(be.strip(b"\0"))
        heads.append(9 * lz + n)
        pay += be[lz : lz + n]
    return bytes(out + heads + pay)


def _ref_ints_dod(values, order: int) -> bytes:
    """Per-value GDD1 encoder written from the module docstring: magic,
    uint32 count, uint8 order, the first ``order`` values raw (int64),
    then per ``order``-fold difference (int64 wrap-around) one header byte
    with the width of its zigzag value, then each zigzag value's
    significant bytes big-endian."""
    v = [int(t) for t in values]
    k = min(order, len(v))
    out = bytearray(b"GDD1" + struct.pack("<IB", len(v), order))
    out += struct.pack(f"<{k}q", *v[:k])
    d = v
    for _ in range(order):
        d = [b - a for a, b in zip(d, d[1:])]
    heads, pay = bytearray(), bytearray()
    for t in d:
        t = ((t + 2**63) & _U64) - 2**63
        z = ((t << 1) ^ (t >> 63)) & _U64
        w = (z.bit_length() + 7) // 8
        heads.append(w)
        pay += z.to_bytes(w, "big")
    return bytes(out + heads + pay)


def _flat(rows):
    return (np.concatenate(rows) if rows else np.empty(0),
            np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64))


def test_batched_encoders_bitwise_equal_per_row():
    """encode_*_many row slices equal the per-value reference encoders
    for every padding/width regime: empty rows, single values, >=2,000
    rows of length 0-3, runs of zero XORs, +-0.0/NaN/+-inf, wide varints
    and int64 deltas whose zigzag reaches 2^63 and above, rows shorter
    than ``order``.  The one-row encoders and the decoders agree too."""
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e300, 5e-324])
    frows = [rng.normal(size=k) for k in (0, 1, 2, 3, 27, 250)] + [
        np.full(9, -2.5), np.zeros(4), special, np.repeat(special, 3),
        np.r_[np.full(5, 1.5), np.full(4, -0.0), np.full(6, np.nan)]]
    frows += [rng.choice(special, size=int(rng.integers(0, 4))) if i % 3 == 0
              else rng.normal(size=int(rng.integers(0, 4))).round(1) for i in range(2100)]
    ff, fo = _flat(frows)
    fd, foo = g.encode_floats_xor_many(ff, fo)
    assert foo.size == len(frows) + 1 and foo[-1] == fd.size
    for i, r in enumerate(frows):
        got = bytes(fd[foo[i]:foo[i + 1]])
        assert got == _ref_floats_xor(r), ("float", i)
        assert got == g.encode_floats_xor(r), ("float", i)
        assert g.decode_floats_xor(got).tobytes() == np.asarray(r, np.float64).tobytes()

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    irows = [rng.integers(-5, 70000, k).astype(np.int64)
             for k in (0, 1, 2, 3, 500)] + [
        np.arange(40) * 7 + 3, rng.integers(0, 2**60, 30).astype(np.int64),
        np.array([0, hi, lo, hi, 0, lo, lo, 2**62, -2**62, 1]),
        np.array([lo, hi]), np.array([hi, lo, 0]), np.full(6, lo), np.array([hi])]
    irows += [rng.choice(np.array([0, 1, -1, 300, lo, hi]), size=int(rng.integers(0, 4)))
              for _ in range(2100)]
    iflat, io = _flat(irows)
    iflat = iflat.astype(np.int64)
    for order in (1, 2):
        idd, ioo = g.encode_ints_dod_many(iflat, io, order=order)
        assert ioo.size == len(irows) + 1 and ioo[-1] == idd.size
        for i, r in enumerate(irows):
            got = bytes(idd[ioo[i]:ioo[i + 1]])
            assert got == _ref_ints_dod(r, order), (order, i)
            assert got == g.encode_ints_dod(r, order=order), (order, i)
            assert np.array_equal(g.decode_ints_dod(got), r)
