"""Time-series decomposition: Friedman SuperSmoother + STL, pure numpy.

Mirrors /root/reference/tspymfe/_detrend.py:117-182: if the (estimated)
period is <= 1, decompose with Friedman's Super Smoother (seasonal component
all zeros); otherwise STL (Cleveland et al. 1990).  Both algorithms are
reimplemented from the published papers because supersmoother/statsmodels
are not importable in this environment:

- SuperSmoother: Friedman 1984, "A variable span smoother" (SLAC PUB-3477).
  Three running-linear smooths (spans 0.05 / 0.2 / 0.5), cross-validated
  span selection per point, midrange-smoothing of the span curve,
  interpolation between bracketing spans, final tweeter-span smooth.
- STL: Cleveland, Cleveland, McRae & Terpenning 1990 (J. Official
  Statistics 6).  Non-robust variant with statsmodels' defaults:
  seasonal=7, trend = next odd >= ceil(1.5 p / (1 - 1.5/seasonal)),
  low_pass = next odd > p, 2 inner iterations, 0 outer iterations.

Everything is O(n * span) with vectorized inner loops (running sums /
convolutions); x is always the equally-spaced index 0..n-1, which the
implementation exploits (symmetric-window loess degenerates to a fixed
convolution kernel in the interior).
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- running linear smoother


_X_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _x_prefixes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, cum(x), cum(x^2)) for x = 0..n-1 — constant per length, and the
    smoother is called ~8x per series with the same n, so cache them
    (bounded: one entry per distinct series length, lengths are capped)."""
    hit = _X_CACHE.get(n)
    if hit is None:
        x = np.arange(n, dtype=np.float64)
        cx = np.concatenate([[0.0], np.cumsum(x)])
        cxx = np.concatenate([[0.0], np.cumsum(x * x)])
        if len(_X_CACHE) > 4096:
            _X_CACHE.clear()
        hit = _X_CACHE[n] = (x, cx, cxx)
    return hit


def _running_linear(y: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Running local-linear smooth of y over x=0..n-1 with symmetric window
    [i-half, i+half] (truncated at the edges).

    Returns (fitted, cv_residual_abs): the smooth values and the absolute
    leave-one-out cross-validation residuals (Friedman 1984 eq. for the
    hat-diagonal of a local linear fit).
    """
    n = y.size
    x, cx, cxx = _x_prefixes(n)
    lo = np.maximum(0, np.arange(n) - half)
    hi = np.minimum(n, np.arange(n) + half + 1)

    # fused y-prefixes: one cumsum call over the stacked (2, n) matrix is
    # bitwise-identical to two separate cumsums (accumulate is per-row)
    cyy = np.zeros((2, n + 1))
    np.cumsum(np.stack([y, x * y]), axis=1, out=cyy[:, 1:])
    cy, cxy = cyy[0], cyy[1]

    m = (hi - lo).astype(np.float64)
    sy = cy[hi] - cy[lo]
    sx = cx[hi] - cx[lo]
    sxy = cxy[hi] - cxy[lo]
    sxx = cxx[hi] - cxx[lo]

    xbar = sx / m
    ybar = sy / m
    cov = sxy - sx * ybar
    var = sxx - sx * xbar
    with np.errstate(all="ignore"):
        slope = np.where(var > 1e-12, cov / var, 0.0)
        fit = ybar + slope * (x - xbar)
        # leverage of point i in its own window: h = 1/m + (x-xbar)^2 / var
        h = 1.0 / m + np.where(var > 1e-12, (x - xbar) ** 2 / var, 0.0)
    h = np.minimum(h, 0.999)
    cv = np.abs(y - fit) / (1.0 - h)
    return fit, cv


def _y_prefixes(Y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (cum(y), cum(x*y)) prefixes for a (R, n) stack — one fused
    cumsum, bitwise-identical to per-row cumsums (accumulate is per-row)."""
    R, n = Y.shape
    C = np.zeros((2 * R, n + 1))
    np.cumsum(np.concatenate([Y, x * Y]), axis=1, out=C[:, 1:])
    return C[:R], C[R:]


def _rl_fit(cy: np.ndarray, cxy: np.ndarray, half: int, x: np.ndarray,
            cx: np.ndarray, cxx: np.ndarray,
            Y: np.ndarray | None = None):
    """Running-linear fit for every row of prebuilt prefixes (same windowed
    arithmetic as :func:`_running_linear`, evaluated per row of a (R, n)
    stack).  When ``Y`` is given, also returns the LOO-CV residuals (only
    the 3 primary smooths need them — the cv/span/final smooths skip the
    leverage math entirely)."""
    n = x.size
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    m = (hi - lo).astype(np.float64)
    sy = cy[:, hi] - cy[:, lo]
    sx = cx[hi] - cx[lo]
    sxy = cxy[:, hi] - cxy[:, lo]
    sxx = cxx[hi] - cxx[lo]
    xbar = sx / m
    ybar = sy / m
    cov = sxy - sx * ybar
    var = sxx - sx * xbar
    with np.errstate(all="ignore"):
        slope = np.where(var > 1e-12, cov / var, 0.0)
        fit = ybar + slope * (x - xbar)
        if Y is None:
            return fit
        h = 1.0 / m + np.where(var > 1e-12, (x - xbar) ** 2 / var, 0.0)
    h = np.minimum(h, 0.999)
    cv = np.abs(Y - fit) / (1.0 - h)
    return fit, cv


class _RaggedPlan:
    """Y-independent half of a per-row-window running-linear fit.

    For a fixed (halfs, nlens) pair everything except the y-prefix gathers
    — window bounds, counts, x-moments, variance mask, leverage — is a
    function of x alone, and the 6 smoothing passes of a SuperSmoother
    share only 3 distinct half-vectors.  Caching these exactly as the
    straight-line code computes them changes no operation, so fits stay
    bitwise-identical to :func:`_rl_fit` per row."""

    __slots__ = ("lo_flat", "hi_flat", "m", "sx", "var", "mask", "xc", "om")

    def __init__(self, halfs: np.ndarray, nlens: np.ndarray, x: np.ndarray,
                 cx: np.ndarray, cxx: np.ndarray):
        nmax = x.size
        R = halfs.size
        idx = np.arange(nmax, dtype=np.int64)
        h64 = halfs.astype(np.int64)[:, None]
        lo = np.maximum(0, idx - h64)
        hi = np.minimum(nlens.astype(np.int64)[:, None], idx + h64 + 1)
        m = (hi - lo).astype(np.float64)
        sx = cx[hi] - cx[lo]
        sxx = cxx[hi] - cxx[lo]
        # flat gather indexes into the raveled (R, nmax+1) prefix matrix:
        # np.take on a flat view is ~3x faster than take_along_axis here
        rowoff = (np.arange(R, dtype=np.int64) * (nmax + 1))[:, None]
        self.lo_flat = (lo + rowoff).ravel()
        self.hi_flat = (hi + rowoff).ravel()
        with np.errstate(all="ignore"):
            xbar = sx / m
            var = sxx - sx * xbar
            self.mask = var > 1e-12
            self.xc = x - xbar
            h = 1.0 / m + np.where(self.mask, self.xc ** 2 / var, 0.0)
        h = np.minimum(h, 0.999)
        self.om = 1.0 - h
        self.m, self.sx, self.var = m, sx, var


def _rl_fit_ragged(cy: np.ndarray, cxy: np.ndarray, plan: _RaggedPlan,
                   Y: np.ndarray | None = None):
    """Running-linear fit with PER-ROW window size and length over a padded
    (R, nmax) stack.  For every valid cell (j < nlens[r]) the windowed
    prefix-sum arithmetic reads exactly the same prefix indices (<= nlens[r])
    with exactly the same operands as :func:`_rl_fit` on that row alone, so
    valid cells are bitwise-identical to the per-row path; padded cells
    (j >= nlens[r]) may hold inf/nan garbage but every later stage's windows
    stop at nlens[r], so garbage never leaks into valid cells (cumsum
    prefixes at index <= nlens[r] never touch padded elements)."""
    R, nmax = cy.shape[0], cy.shape[1] - 1
    cyf = np.ascontiguousarray(cy).reshape(-1)
    cxyf = np.ascontiguousarray(cxy).reshape(-1)
    sy = (np.take(cyf, plan.hi_flat) - np.take(cyf, plan.lo_flat)).reshape(R, nmax)
    sxy = (np.take(cxyf, plan.hi_flat) - np.take(cxyf, plan.lo_flat)).reshape(R, nmax)
    with np.errstate(all="ignore"):
        ybar = sy / plan.m
        cov = sxy - plan.sx * ybar
        slope = np.where(plan.mask, cov / plan.var, 0.0)
        fit = ybar + slope * plan.xc
        if Y is None:
            return fit
        cv = np.abs(Y - fit) / plan.om
    return fit, cv


def supersmoother_ragged(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Friedman Super Smoother for MIXED-length rows in one padded stack.

    Bitwise-identical per row to :func:`supersmoother` (parity gate in
    tests/test_kernels.py): x-prefixes for length n are a prefix of the
    nmax ones (exact integer cumsums), y-prefixes at index <= n never read
    padding, and every windowed/elementwise op on a valid cell sees the
    same operands as the per-row call.  This is what lets the feature
    stage batch the SuperSmoother for EVERY row of a batch, whatever the
    mix of lengths."""
    out: list[np.ndarray | None] = [None] * len(rows)
    big_i: list[int] = []
    big: list[np.ndarray] = []
    for i, y in enumerate(rows):
        y = np.asarray(y, dtype=np.float64)
        if y.size < 5:
            out[i] = np.full(y.size, y.mean()) if y.size else y.copy()
        else:
            big_i.append(i)
            big.append(y)
    if not big:
        return out
    R = len(big)
    nlens = np.array([y.size for y in big])
    nmax = int(nlens.max())
    spans = np.array([0.05, 0.2, 0.5])
    # int(round(s*n/2)): np.round and Python round share IEEE half-even
    halfs = np.maximum(2, np.round(spans[None, :] * nlens[:, None] / 2.0).astype(np.int64))

    x, cx, cxx = _x_prefixes(nmax)
    plans = [_RaggedPlan(halfs[:, k], nlens, x, cx, cxx) for k in range(3)]
    Y = np.zeros((R, nmax))
    for r, y in enumerate(big):
        Y[r, : y.size] = y
    cy, cxy = _y_prefixes(Y, x)
    fits = np.empty((3, R, nmax))
    cvs = np.empty((3, R, nmax))
    for k in range(3):
        fits[k], cvs[k] = _rl_fit_ragged(cy, cxy, plans[k], Y=Y)
    # smooth each |cv| curve with the midrange span; slicing the (3, R, n)
    # stack into three (R, n) fits is bitwise-identical to one tiled
    # (3R, n) fit (cumsum and every later op are per-row)
    cvs_s = np.empty((3, R, nmax))
    for k in range(3):
        ccy, ccxy = _y_prefixes(cvs[k], x)
        cvs_s[k] = _rl_fit_ragged(ccy, ccxy, plans[1])

    best = np.argmin(cvs_s, axis=0)
    span_opt = spans[best]
    scy, scxy = _y_prefixes(span_opt, x)
    span_smooth = _rl_fit_ragged(scy, scxy, plans[1])
    span_smooth = np.clip(span_smooth, spans[0], spans[-1])

    idx_hi = np.searchsorted(spans, span_smooth.ravel(), side="left").reshape(R, nmax)
    idx_hi = np.clip(idx_hi, 1, 2)
    s_lo, s_hi = spans[idx_hi - 1], spans[idx_hi]
    with np.errstate(all="ignore"):
        f = (span_smooth - s_lo) / (s_hi - s_lo)
        rws = np.arange(R)[:, None]
        cols = np.arange(nmax)[None, :]
        res = (1 - f) * fits[idx_hi - 1, rws, cols] + f * fits[idx_hi, rws, cols]
    rcy, rcxy = _y_prefixes(res, x)
    final = _rl_fit_ragged(rcy, rcxy, plans[0])
    for r, i in enumerate(big_i):
        out[i] = final[r, : nlens[r]].copy()
    return out


def supersmoother(y: np.ndarray) -> np.ndarray:
    """Friedman's Super Smoother trend estimate over x = 0..n-1."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n < 5:
        return np.full(n, y.mean()) if n else y.copy()

    spans = np.array([0.05, 0.2, 0.5])
    halfs = [max(2, int(round(s * n / 2.0))) for s in spans]
    mid_half = halfs[1]

    x, cx, cxx = _x_prefixes(n)
    Y = y[None, :]
    cy, cxy = _y_prefixes(Y, x)  # shared by all 3 primary smooths
    fits = np.empty((3, n))
    cvs = np.empty((3, n))
    for k, hf in enumerate(halfs):
        fits[k], cvs[k] = _rl_fit(cy, cxy, hf, x, cx, cxx, Y=Y)
    # smooth the |cv| curves with the midrange span — one batched pass
    ccy, ccxy = _y_prefixes(cvs, x)
    cvs = _rl_fit(ccy, ccxy, mid_half, x, cx, cxx)

    best = np.argmin(cvs, axis=0)
    span_opt = spans[best]
    # smooth the selected spans with the midrange span
    scy, scxy = _y_prefixes(span_opt[None, :], x)
    span_smooth = _rl_fit(scy, scxy, mid_half, x, cx, cxx)[0]
    span_smooth = np.clip(span_smooth, spans[0], spans[-1])

    # interpolate between the two bracketing primary smooths
    idx_hi = np.searchsorted(spans, span_smooth, side="left")
    idx_hi = np.clip(idx_hi, 1, 2)
    s_lo, s_hi = spans[idx_hi - 1], spans[idx_hi]
    f = (span_smooth - s_lo) / (s_hi - s_lo)
    rows = np.arange(n)
    res = (1 - f) * fits[idx_hi - 1, rows] + f * fits[idx_hi, rows]

    # final smooth with the tweeter span
    rcy, rcxy = _y_prefixes(res[None, :], x)
    return _rl_fit(rcy, rcxy, halfs[0], x, cx, cxx)[0]


# ---------------------------------------------------------------- loess (deg 1, equal spacing)


def _tricube(u: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - np.abs(u) ** 3, 0.0, None)
    return w**3


def _loess_fit_points(
    x: np.ndarray, y: np.ndarray, x0: np.ndarray, q: int
) -> np.ndarray:
    """Loess degree-1 fit of (x, y) evaluated at points x0 — used for
    window edges and cycle-subseries extrapolation.  Fully vectorized over
    evaluation points: one (len(x0), len(x)) weight matrix."""
    n = x.size
    x0 = np.asarray(x0, dtype=np.float64)
    q_eff = min(q, n)
    d = np.abs(x[None, :] - x0[:, None])  # (m, n)
    if q_eff < n:
        lam = np.partition(d, q_eff - 1, axis=1)[:, q_eff - 1]
    else:
        lam = d.max(axis=1) * max(1.0, q / n)
    lam = np.where(lam <= 0, 1.0, lam)
    w = _tricube(d / lam[:, None])
    sw = w.sum(axis=1)
    safe = sw > 0
    sw = np.where(safe, sw, 1.0)
    xbar = (w @ x) / sw
    ybar = (w @ y) / sw
    dx = x[None, :] - xbar[:, None]
    var = (w * dx * dx).sum(axis=1)
    cov = (w * dx * (y[None, :] - ybar[:, None])).sum(axis=1)
    with np.errstate(all="ignore"):
        slope = np.where(var > 1e-12, cov / var, 0.0)
    out = ybar + slope * (x0 - xbar)
    return np.where(safe, out, y.mean() if n else np.nan)


def _loess_matrix(x: np.ndarray, x0: np.ndarray, q: int) -> np.ndarray:
    """The (len(x0), len(x)) linear operator W with W @ y ==
    _loess_fit_points(x, y, x0, q) for every y (same weights/branches;
    since sum_j w_ij * dx_ij == 0 the ybar term drops out of cov and the
    degree-1 fit is y-linear: W = w/sw + ((x0-xbar)/var) * (w*dx)).
    Degenerate rows (sw == 0) fall back to the uniform mean row."""
    n = x.size
    x0 = np.asarray(x0, dtype=np.float64)
    q_eff = min(q, n)
    d = np.abs(x[None, :] - x0[:, None])
    if q_eff < n:
        lam = np.partition(d, q_eff - 1, axis=1)[:, q_eff - 1]
    else:
        lam = d.max(axis=1) * max(1.0, q / n)
    lam = np.where(lam <= 0, 1.0, lam)
    w = _tricube(d / lam[:, None])
    sw = w.sum(axis=1)
    safe = sw > 0
    sw = np.where(safe, sw, 1.0)
    xbar = (w @ x) / sw
    dx = x[None, :] - xbar[:, None]
    var = (w * dx * dx).sum(axis=1)
    with np.errstate(all="ignore"):
        coef = np.where(var > 1e-12, (x0 - xbar) / var, 0.0)
    W = w / sw[:, None] + coef[:, None] * (w * dx)
    if not safe.all():
        W[~safe] = 1.0 / n if n else np.nan
    return W


def _loess_equal_stack(Y: np.ndarray, q: int) -> np.ndarray:
    """loess_equal applied to every ROW of the (G, m) stack in a few
    vectorized ops: the interior is one shared convolution kernel, edge
    points and the short-series branch are one weight-matrix GEMM.  Values
    match the per-row path up to float reassociation (goldens compare at
    rtol 1e-7)."""
    G, m = Y.shape
    if m == 0:
        return Y.copy()
    q = max(2, int(q))
    x = np.arange(m, dtype=np.float64)
    if q >= m:
        return Y @ _loess_matrix(x, x, q).T
    h = (q - 1) // 2
    if h < 1:
        return Y.copy()
    offs = np.arange(-h, h + 1, dtype=np.float64)
    w = _tricube(offs / h)
    w = w / w.sum()
    smooth = np.zeros_like(Y)
    # 'same' convolution along axis 1 as 2h+1 shifted accumulations
    for t in range(2 * h + 1):
        k = t - h
        lo, hi = max(0, -k), m - max(0, k)
        smooth[:, lo:hi] += w[t] * Y[:, lo + k : hi + k]
    edge = np.concatenate([np.arange(h), np.arange(m - h, m)])
    We = _loess_matrix(x, x[edge].astype(np.float64), q)
    smooth[:, edge] = Y @ We.T
    return smooth


def loess_equal(y: np.ndarray, q: int, cache: dict | None = None) -> np.ndarray:
    """Loess (degree 1, tricube) over equally spaced x for ALL points.

    Interior points have symmetric windows, where the weighted linear fit
    reduces to a fixed-kernel weighted average (the slope term cancels) —
    one np.convolve call.  Edge points fall back to explicit local fits;
    the edge operator depends only on (n, q), so callers that smooth
    several same-shape series (STL's inner iterations) can pass a `cache`
    dict to build each W once — W @ y is y-linear, values identical."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n == 0:
        return y.copy()
    q = max(2, int(q))
    if q >= n:
        x = np.arange(n, dtype=np.float64)
        if cache is None:
            return _loess_fit_points(x, y, x, q)
        W = cache.get((n, q, "full"))
        if W is None:
            W = cache[(n, q, "full")] = _loess_matrix(x, x, q)
        return W @ y
    h = (q - 1) // 2
    if h < 1:
        return y.copy()
    offs = np.arange(-h, h + 1, dtype=np.float64)
    w = _tricube(offs / h) if h > 0 else np.ones(1)
    w = w / w.sum()
    smooth = np.convolve(y, w[::-1], mode="same")
    # edges: explicit asymmetric loess fits
    x = np.arange(n, dtype=np.float64)
    edge = np.concatenate([np.arange(h), np.arange(n - h, n)])
    if edge.size:
        if cache is None:
            smooth[edge.astype(int)] = _loess_fit_points(x, y, x[edge], q)
        else:
            We = cache.get((n, q, "edge"))
            if We is None:
                We = cache[(n, q, "edge")] = _loess_matrix(
                    x, x[edge].astype(np.float64), q)
            smooth[edge.astype(int)] = We @ y
    return smooth


# ---------------------------------------------------------------- STL


def _ma(y: np.ndarray, w: int) -> np.ndarray:
    """Simple moving average with window w, valid mode (len = n - w + 1)."""
    c = np.concatenate([[0.0], np.cumsum(y)])
    return (c[w:] - c[:-w]) / w


def stl_decompose(
    y: np.ndarray, period: int, seasonal: int = 7, inner_iter: int = 2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-robust STL; returns (trend, seasonal, resid)."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    p = int(period)
    if p < 2 or n < 2 * p:
        tr = supersmoother(y)
        return tr, np.zeros(n), y - tr

    s_len = seasonal if seasonal % 2 == 1 else seasonal + 1
    t_len = int(np.ceil(1.5 * p / (1.0 - 1.5 / s_len)))
    t_len += 1 - t_len % 2  # next odd
    l_len = p + 1 if p % 2 == 0 else p + 2  # smallest odd > p

    trend = np.zeros(n)
    season = np.zeros(n)
    _wcache: dict = {}  # per-call (n, q) -> edge/full loess operator
    # cycle subseries grouped by length: s < r have m1 points, the rest
    # m0 = m1 - 1, so the p per-subseries loess fits collapse into (at
    # most) two stacked fits — a shared convolution + two weight-matrix
    # GEMMs per group instead of ~2p tiny numpy calls per inner iter
    m1 = -(-n // p)
    r = n - (m1 - 1) * p if n % p else p  # s < r get m1 points
    m0 = m1 - 1
    groups = [(0, r, m1)] + ([(r, p, m0)] if r < p else [])
    ext_W = {
        m: _loess_matrix(
            np.arange(m, dtype=np.float64),
            np.array([-1.0, float(m)]),
            min(s_len, m),
        ).T
        for _, _, m in groups
    }
    for _ in range(inner_iter):
        detr = y - trend
        # cycle-subseries smoothing, extended one period each side
        C = np.empty(n + 2 * p)
        pad = np.empty(m1 * p)
        pad[:n] = detr
        M = pad.reshape(m1, p).T  # row s = detr[s::p] (+1 pad for s >= r)
        S = np.empty((p, m1))
        for lo, hi, m in groups:
            Y = np.ascontiguousarray(M[lo:hi, :m])
            S[lo:hi, :m] = _loess_equal_stack(Y, s_len)
            ext = Y @ ext_W[m]  # (group, 2): one step before / after
            ss = np.arange(lo, hi)
            C[ss] = ext[:, 0]
            C[p + m * p + ss] = ext[:, 1]
        C[p : p + n] = S.T.ravel()[:n]
        # low-pass: MA(p) x MA(p) x MA(3), then loess(l_len)
        L = _ma(_ma(_ma(C, p), p), 3)  # length n + 2p - 2(p-1) - 2 = n
        L = loess_equal(L, l_len, cache=_wcache)
        season = C[p : p + n] - L
        trend = loess_equal(y - season, t_len, cache=_wcache)
    resid = y - trend - season
    return trend, season, resid


def decompose(
    ts: np.ndarray, ts_period: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference decompose semantics (/root/reference/tspymfe/_detrend.py:117-182):
    period unknown -> SuperSmoother first, estimate period from its residuals;
    period <= 1 -> SuperSmoother components; else STL on the original series.
    """
    from ts_pymfe_ray.functions.period import ts_period_from_detrended

    y = np.asarray(ts, dtype=np.float64)
    ss_comps = None
    if ts_period is None:
        tr = supersmoother(y)
        ss_comps = (tr, np.zeros(y.size), y - tr)
        ts_period = ts_period_from_detrended(ss_comps[2])
    if ts_period <= 1:
        if ss_comps is None:
            tr = supersmoother(y)
            ss_comps = (tr, np.zeros(y.size), y - tr)
        return ss_comps
    return stl_decompose(y, ts_period)
