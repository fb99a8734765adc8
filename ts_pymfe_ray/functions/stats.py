"""Core per-series statistical kernels (pure numpy, no scipy/statsmodels).

Semantics mirror the reference (cited file:line); since scipy/statsmodels
are not available in this environment, the math is reimplemented from the
published definitions.
"""

from __future__ import annotations

import numpy as np


def standardize_ts(ts: np.ndarray) -> np.ndarray:
    """Z-score with population std — sklearn StandardScaler semantics
    (reference: /root/reference/tspymfe/_utils.py:70-83)."""
    ts = np.asarray(ts, dtype=np.float64)
    sd = ts.std()  # ddof=0, matching StandardScaler
    if sd == 0 or not np.isfinite(sd):
        return np.zeros_like(ts)
    return (ts - ts.mean()) / sd


def acf(ts: np.ndarray, nlags: int | None = None, adjusted: bool = True) -> np.ndarray:
    """Autocorrelation function via FFT, statsmodels-compatible.

    statsmodels.tsa.stattools.acf(x, nlags, adjusted=True, fft=True):
    acov[k] = sum((x_i - mu)(x_{i+k} - mu)) / (n - k)  [adjusted]
              or / n [not adjusted]; acf = acov / acov[0].
    Returns lags 1..nlags (lag 0 dropped — reference drops it,
    /root/reference/tspymfe/autocorr.py:188-191).
    """
    x = np.asarray(ts, dtype=np.float64)
    n = x.size
    if nlags is None:
        nlags = n // 2
    nlags = int(min(nlags, n - 1))
    if n < 2 or nlags < 1:
        return np.empty(0)
    xd = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    fx = np.fft.rfft(xd, nfft)
    acov_raw = np.fft.irfft(fx * np.conj(fx), nfft)[: nlags + 1]
    if adjusted:
        acov = acov_raw / (n - np.arange(nlags + 1))
    else:
        acov = acov_raw / n
    if acov[0] == 0:
        return np.full(nlags, np.nan)
    return (acov / acov[0])[1:]


def acf_stack(X: np.ndarray, nlags: int, adjusted: bool = True) -> np.ndarray:
    """:func:`acf` applied to every ROW of the (R, n) stack with one
    batched FFT pass.  Matches the per-row path up to float reassociation
    (pocketfft's stacked transforms are not bitwise-stable vs single-row
    calls — use only where values are tolerance-compared, never on the
    bitwise preseed/parity paths).  Returns (R, nlags), lag 0 dropped;
    zero-variance rows are all-NaN like the scalar flavor."""
    X = np.asarray(X, dtype=np.float64)
    r, n = X.shape
    nlags = int(min(nlags, n - 1))
    if n < 2 or nlags < 1:
        return np.empty((r, 0))
    xd = X - X.mean(axis=1, keepdims=True)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    fx = np.fft.rfft(xd, nfft, axis=1)
    acov = np.fft.irfft(fx * np.conj(fx), nfft, axis=1)[:, : nlags + 1]
    if adjusted:
        acov = acov / (n - np.arange(nlags + 1))
    else:
        acov = acov / n
    with np.errstate(all="ignore"):
        out = acov / acov[:, :1]
    out[acov[:, 0] == 0] = np.nan
    return out[:, 1:]


def skewness(values: np.ndarray, method: int = 3, bias: bool = True) -> float:
    """e1071-compatible skewness (reference _summary.py:149-209)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        return np.nan
    mu = x.mean()
    m2 = ((x - mu) ** 2).mean()
    m3 = ((x - mu) ** 3).mean()
    if np.isnan(m2):  # a NaN in the input; m2 > 0 would read it as constant
        return np.nan
    with np.errstate(all="ignore"):
        g1 = m3 / m2**1.5 if m2 > 0 else 0.0
        sk = g1
        if not bias and n > 2 and m2 > 0:
            sk = np.sqrt(n * (n - 1.0)) / (n - 2.0) * g1
        if method == 2 and n != 2:
            sk *= (n * (n - 1.0)) ** 0.5 / (n - 2.0)
        elif method == 3:
            sk *= ((n - 1.0) / n) ** 1.5
    return float(sk)


def kurtosis(values: np.ndarray, method: int = 3, bias: bool = True) -> float:
    """e1071-compatible kurtosis (reference _summary.py:212-273)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        return np.nan
    mu = x.mean()
    m2 = ((x - mu) ** 2).mean()
    m4 = ((x - mu) ** 4).mean()
    if np.isnan(m2):  # a NaN in the input; m2 > 0 would read it as constant
        return np.nan
    with np.errstate(all="ignore"):
        g2 = m4 / m2**2 - 3.0 if m2 > 0 else -3.0
        kt = g2
        if not bias and n > 3 and m2 > 0:
            kt = ((n - 1.0) / ((n - 2.0) * (n - 3.0))) * ((n + 1.0) * g2 + 6.0)
        if method == 2 and n > 3:
            kt = (n + 1.0) * kt + 6.0
            kt *= (n - 1.0) / ((n - 2.0) * (n - 3.0))
        elif method == 3:
            kt = (kt + 3.0) * (1.0 - 1.0 / n) ** 2 - 3.0
    return float(kt)


def diff(ts: np.ndarray, order: int = 1) -> np.ndarray:
    return np.diff(np.asarray(ts, dtype=np.float64), n=order)


def seasonal_diff(ts: np.ndarray, period: int) -> np.ndarray:
    """ts[p:] - ts[:-p] (reference ft_*_sdiff, global_stats.py:253-279)."""
    x = np.asarray(ts, dtype=np.float64)
    if period >= x.size:
        return np.empty(0)
    return x[period:] - x[:-period]


def pacf_ols(ts: np.ndarray, nlags: int | None = None, adjusted: bool = True) -> np.ndarray:
    """Partial autocorrelation via per-lag OLS — statsmodels
    pacf(method="ols-adjusted") semantics (the reference default,
    autocorr.py:194-250): for each lag k regress x_t on
    [1, x_{t-1}, ..., x_{t-k}] over t = k..n-1 and take the k-th lag
    coefficient, scaled by n/(n-k) when adjusted.  Returns lags 1..nlags."""
    x0 = np.asarray(ts, dtype=np.float64)
    n = x0.size
    if nlags is None:
        nlags = 1 + n // 10
    nlags = int(min(nlags, max(0, n // 2 - 1)))
    if nlags < 1 or n < 4:
        return np.empty(0)
    # All nlags regressions from ONE Gram pass: the lag-k coefficient is
    # invariant to centering/scaling x (the intercept absorbs the shift,
    # the k-th coefficient is scale-free), and on the standardized series
    # the normal equations match the per-lag lstsq answer to ~1e-9 at a
    # ~30x flop reduction (one (n-K)x(K+1) GEMM + K small solves instead
    # of K SVD factorizations of growing embed matrices).
    x = x0 - x0.mean()
    sd = x.std()
    if sd > 0:
        x = x / sd
    K = nlags
    st = x.strides[0]
    # Z[t, j] = x[K + t - j] over the common window t=K..n-1, j=0..K
    Z = np.lib.stride_tricks.as_strided(x[K:], shape=(n - K, K + 1),
                                        strides=(st, -st))
    G = Z.T @ Z
    sums = Z.sum(axis=0)
    out = np.empty(K)
    vv = np.zeros(K + 1)
    for k in range(K, 0, -1):
        A = np.empty((k + 1, k + 1))
        A[0, 0] = n - k
        A[0, 1:] = sums[1 : k + 1]
        A[1:, 0] = sums[1 : k + 1]
        A[1:, 1:] = G[1 : k + 1, 1 : k + 1]
        b = np.empty(k + 1)
        b[0] = sums[0]
        b[1:] = G[0, 1 : k + 1]
        # Conditioning gate before trusting the normal-equations solve: a
        # near-singular-but-invertible Gram matrix (near-constant or
        # strongly collinear lag windows, e.g. an almost-pure trend)
        # returns a finite-but-wrong coefficient without raising.  The
        # Cholesky diagonal ratio squared is a cheap (O(k^3/6)) spectral
        # condition proxy for SPD matrices; past ~1e8 the solve's accuracy
        # can no longer honor the ~1e-9 lstsq-parity contract, so route to
        # the rcond-regularized lstsq the reference semantics use.  A false
        # trigger only costs the fallback's flops — both paths agree when
        # the system is well-posed.
        beta_k = np.nan
        try:
            dl = np.diagonal(np.linalg.cholesky(A))
            if dl.min() > 0 and (dl.max() / dl.min()) ** 2 < 1e8:
                beta_k = float(np.linalg.solve(A, b)[k])
        except np.linalg.LinAlgError:
            beta_k = np.nan
        if not np.isfinite(beta_k):
            # degenerate window: fall back to the rank-aware lstsq fit
            m = n - k
            X = np.empty((m, k + 1))
            X[:, 0] = 1.0
            for j in range(1, k + 1):
                X[:, j] = x[k - j : n - j]
            beta, *_ = np.linalg.lstsq(X, x[k:], rcond=None)
            beta_k = float(beta[k])
        out[k - 1] = beta_k * (n / (n - k)) if adjusted else beta_k
        if k > 1:
            # widen the window one row (t = k-1): rank-1 Gram update
            v = x[k - 1 :: -1][: K + 1]
            vv[: v.size] = v
            vv[v.size :] = 0.0
            G += np.outer(vv, vv)
            sums += vv
    return out


_EDGE_ARANGE: dict[int, np.ndarray] = {}


def hist_edges(x: np.ndarray, nbins: int) -> np.ndarray:
    """== np.histogram(x, nbins)[1] for finite x (uniform bins), without
    paying for the counting pass.

    Replicates np.linspace's arithmetic exactly (arange * step + start,
    then pin the endpoint; the step==0 denormal branch divides first) with
    a cached arange — linspace's ~25us of per-call machinery matters at
    hundreds of histogram kernels per batch."""
    lo = float(np.min(x))
    hi = float(np.max(x))
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    ar = _EDGE_ARANGE.get(nbins)
    if ar is None:
        ar = _EDGE_ARANGE[nbins] = np.arange(nbins + 1, dtype=np.float64)
    delta = hi - lo
    step = delta / nbins
    if step == 0:
        e = ar * delta
        e /= nbins
    else:
        e = ar * step
    e += lo
    e[-1] = hi
    return e


def quantiles_part(x: np.ndarray, qs: tuple[float, ...]) -> tuple[float, ...]:
    """== np.quantile(x, qs) bitwise for 1-D x (default 'linear' method),
    via one np.partition on the needed order stats instead of
    np.quantile's ~60us dispatch machinery.  Mirrors numpy's _lerp
    exactly (a + (b-a)*t, and b - (b-a)*(1-t) when t >= 0.5) and its
    NaN propagation (any NaN -> fall back to np.quantile)."""
    n = x.size
    vs = [q * (n - 1) for q in qs]
    kth = sorted({min(int(v) + d, n - 1) for v in vs for d in (0, 1)})
    if np.isnan(x).any():  # numpy propagates NaN; partition would hide it
        r = np.atleast_1d(np.quantile(x, qs))
        return tuple(float(t) for t in r)
    p = np.partition(x, kth)
    out = []
    for v in vs:
        i0 = int(v)
        i1 = min(i0 + 1, n - 1)
        t = v - i0
        a, b = p[i0], p[i1]
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return tuple(out)


# ------------------------------------------------------------ ragged batches
# A batch of R rows of different lengths is one flat float64 buffer plus
# R+1 int64 offsets starting at 0 (row i is flat[off[i]:off[i+1]]).  Each
# helper below is bitwise equal, row by row, to the per-row numpy call it
# names; the kernels' batch forms (registry.SeriesBatch) are built on them.


def row_ids(off: np.ndarray) -> np.ndarray:
    """Row index of every flat element."""
    return np.repeat(np.arange(off.size - 1), np.diff(off))


def row_pos(off: np.ndarray) -> np.ndarray:
    """Index of every flat element within its row."""
    return np.arange(off[-1]) - np.repeat(off[:-1], np.diff(off))


def row_mask(lens: np.ndarray, width: int | None = None) -> np.ndarray:
    """(R, width) bool: True on the cells of a right-padded stack that hold
    a row element; ``M[row_mask(lens)]`` is the flat buffer again."""
    if width is None:
        width = int(lens.max()) if lens.size else 0
    return np.arange(width) < lens[:, None]


def pad_rows(flat: np.ndarray, off: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """(R, max_len) stack of the rows, right-padded with ``fill``.  A prefix
    op along a row (cumsum) or an elementwise op reads no padding at a
    valid cell, so both stay bitwise equal per row."""
    lens = np.diff(off)
    mask = row_mask(lens)
    M = np.full(mask.shape, fill)
    M[mask] = flat
    return M


def keep_rows(flat: np.ndarray, off: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``row[keep_row]``: the kept elements and their offsets."""
    c = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=c[1:])
    return flat[keep], c[off]


def ragged_diff(flat: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``row[1:] - row[:-1]`` (np.diff) and its offsets."""
    d = flat[1:] - flat[:-1]
    inrow = row_pos(off)[1:] > 0
    lens = np.maximum(np.diff(off) - 1, 0)
    return d[inrow], np.concatenate([[0], np.cumsum(lens)])


def seg_sum(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-row ``row.sum()``, bitwise (an empty row sums to 0.0).

    numpy sums a 1-D array pairwise from a 0.0 seed.  A plain
    ``np.add.reduceat`` seeds each segment with its first element instead,
    and a padded ``axis=1`` sum changes the pairwise blocking; neither is
    bitwise equal.  So ONE ``reduceat`` runs over a copy that holds one
    leading 0.0 per row: each segment then sums exactly like the row."""
    R = off.size - 1
    if R == 0:
        return np.zeros(0)
    if R == 1:  # one row: numpy's own sum, no copy
        return np.array([flat[off[0]: off[1]].sum()])
    buf = np.insert(flat, off[:-1], 0.0)
    return np.add.reduceat(buf, off[:-1] + np.arange(R))


def mean_std_many(flat: np.ndarray, off: np.ndarray, ddof: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(np.mean(row), np.std(row, ddof=ddof))``, bitwise: numpy's
    own two-pass arithmetic (sum / n, then the summed squared deviations
    / max(n - ddof, 0)) with :func:`seg_sum` for both sums.  An empty
    row gives NaN for both; a row with n <= ddof gives a NaN sd."""
    lens = np.diff(off)
    mean = seg_sum(flat, off) / lens
    d = flat - np.repeat(mean, lens)
    np.multiply(d, d, out=d)
    var = seg_sum(d, off) / np.maximum(lens - ddof, 0)
    return mean, np.sqrt(var)


def sort_rows(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Every row sorted ascending in a +inf-padded (R, max_len) stack; its
    leading order statistics are the row's own (rows must be NaN-free)."""
    S = pad_rows(flat, off, np.inf)
    if S.shape[1] == 0:  # all rows empty: one padding column to index
        S = np.full((S.shape[0], 1), np.inf)
    return np.sort(S, axis=1)


def quantile_sorted(S: np.ndarray, lens: np.ndarray, q: float) -> np.ndarray:
    """``quantiles_part(row, (q,))`` of every non-empty row of a
    :func:`sort_rows` stack: the same index and ``_lerp`` arithmetic."""
    v = q * (lens - 1)
    i0 = v.astype(np.int64)
    i1 = np.minimum(i0 + 1, lens - 1)
    t = v - i0
    r = np.arange(lens.size)
    a, b = S[r, i0], S[r, i1]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def median_sorted(S: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``np.median(row)`` of every non-empty row of a :func:`sort_rows`
    stack: the middle value, or (a + b) / 2.0 of the two middles."""
    h = lens // 2
    r = np.arange(lens.size)
    hi = S[r, h]
    lo = S[r, np.maximum(h - 1, 0)]
    return np.where(lens % 2 == 1, hi, (lo + hi) / 2.0)


def _central_moments(flat: np.ndarray, off: np.ndarray, powers: tuple[int, ...]):
    """Per-row ``((x - x.mean()) ** p).mean()`` for each power, bitwise."""
    lens = np.diff(off)
    d = flat - np.repeat(seg_sum(flat, off) / lens, lens)
    return lens, [seg_sum(d**p, off) / lens for p in powers]


def per_value(v, f):
    """``f(v)`` of a Python int, or of every element of an int array with
    ``f`` run once per distinct value on Python ints.  The batch forms
    keep scalar transcendentals scalar this way: ``((n - 1.0) / n) ** 1.5``
    on Python floats is a libm call, while an array ``np.power`` is SIMD
    and can differ from it by an ulp."""
    if np.ndim(v) == 0:
        return f(v)
    u, inv = np.unique(v, return_inverse=True)
    return np.array([f(int(x)) for x in u], dtype=np.float64)[inv]


def skewness_many(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-row :func:`skewness` (method 3, bias=True): batched moments; the
    scalar powers stay scalar — ``m2 ** 1.5`` is the same numpy-scalar power
    per row, and the n-factor one libm call per distinct n."""
    lens, (m2, m3) = _central_moments(flat, off, (2, 3))
    p = np.array([m ** 1.5 for m in m2], dtype=np.float64)
    g1 = np.where(m2 > 0, m3 / p, 0.0)
    out = g1 * per_value(lens, lambda n: ((n - 1.0) / n) ** 1.5 if n else np.nan)
    out[(lens == 0) | np.isnan(m2)] = np.nan
    return out


def kurtosis_many(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-row :func:`kurtosis` (method 3, bias=True), as :func:`skewness_many`."""
    lens, (m2, m4) = _central_moments(flat, off, (2, 4))
    p = np.array([m ** 2 for m in m2], dtype=np.float64)
    g2 = np.where(m2 > 0, m4 / p - 3.0, -3.0)
    out = (g2 + 3.0) * per_value(lens, lambda n: (1.0 - 1.0 / n) ** 2 if n else np.nan) - 3.0
    out[(lens == 0) | np.isnan(m2)] = np.nan
    return out


def trim_mean_many(flat: np.ndarray, off: np.ndarray, proportiontocut: float) -> np.ndarray:
    """scipy.stats.trim_mean of every row (NaN-free rows; reference
    ft_t_mean, global_stats.py:848): sort, drop floor(p*n) values from
    each end, mean; NaN where nothing is left."""
    lens = np.diff(off)
    k = (lens * proportiontocut).astype(np.int64)
    m = lens - 2 * k
    S = sort_rows(flat, off)
    cols = np.arange(S.shape[1])
    keep = (cols >= k[:, None]) & (cols < (lens - k)[:, None])
    kept = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(np.maximum(m, 0), out=kept[1:])
    out = seg_sum(S[keep], kept) / m
    out[m <= 0] = np.nan
    return out


def hist_edges_many(lo: np.ndarray, hi: np.ndarray, nbins: int) -> np.ndarray:
    """Row-wise :func:`hist_edges` from each row's (min, max): (R, nbins+1)."""
    lo = lo.astype(np.float64)
    hi = hi.astype(np.float64)
    eq = lo == hi
    lo[eq] -= 0.5
    hi[eq] += 0.5
    ar = np.arange(nbins + 1, dtype=np.float64)
    delta = hi - lo
    step = delta / nbins
    E = ar * step[:, None]
    tiny = step == 0
    if tiny.any():
        e = ar * delta[tiny][:, None]
        e /= nbins
        E[tiny] = e
    E += lo[:, None]
    E[:, -1] = hi
    return E


def hist_counts_many(flat: np.ndarray, off: np.ndarray, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``np.histogram(row, nbins)`` of NON-EMPTY finite rows:
    (counts (R, nbins), edges (R, nbins+1)), bitwise — numpy's uniform-bin
    arithmetic (scaled index, then edge corrections) with each row's own
    edges."""
    R = off.size - 1
    starts = off[:-1]
    E = hist_edges_many(np.minimum.reduceat(flat, starts),
                        np.maximum.reduceat(flat, starts), nbins)
    rid = row_ids(off)
    norm = nbins / (E[:, -1] - E[:, 0])
    idx = ((flat - E[rid, 0]) * norm[rid]).astype(np.intp)
    idx[idx == nbins] -= 1
    Ef = E.ravel()
    base = rid * (nbins + 1)
    dec = flat < Ef[base + idx]
    idx[dec] -= 1
    inc = (flat >= Ef[base + idx + 1]) & (idx != nbins - 1)
    idx[inc] += 1
    counts = np.bincount(rid * nbins + idx, minlength=R * nbins).reshape(R, nbins)
    return counts, E


def hist_density_many(flat: np.ndarray, off: np.ndarray, nbins: int) -> np.ndarray:
    """Row-wise ``np.histogram(row, nbins, density=True)[0]`` of non-empty
    finite rows: (R, nbins)."""
    counts, E = hist_counts_many(flat, off, nbins)
    return counts / np.diff(E, axis=1) / counts.sum(axis=1, keepdims=True)
