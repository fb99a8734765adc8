"""Global-statistics feature kernels (reference:
/root/reference/tspymfe/global_stats.py, class MFETSGlobalStats).

The nolds-backed features (hurst, dfa, corr_dim, lyapunov) are
reimplemented from the published algorithms (Hurst 1956 R/S analysis; Peng
et al. 1994 DFA; Grassberger-Procaccia 1983; Rosenstein et al. 1993) since
nolds is not importable here; parity is algorithmic, not bit-exact.
"""

from __future__ import annotations

import numpy as np

from ts_pymfe_ray.registry import FeatureKernel, SeriesCtx, register
from ts_pymfe_ray.functions import stats as _st
from ts_pymfe_ray.functions.embed import embed_ts


def _var(x: np.ndarray, ddof: int = 1) -> float:
    return float(np.var(x, ddof=ddof))


register(FeatureKernel(
    "trend_strenght", "global_stats",
    lambda c: min(1.0, max(0.0, 1.0 - _var(c.ts_residuals) / _var(c.ts_deseasonalized))),
    cost="medium",
    ref="global_stats.py:119-163 (name misspelling kept for parity)",
))

register(FeatureKernel(
    "season_strenght", "global_stats",
    lambda c: min(1.0, max(0.0, 1.0 - _var(c.ts_residuals) / _var(c.ts_detrended))),
    cost="medium",
    ref="global_stats.py:166-207",
))

register(FeatureKernel(
    "sd_residuals", "global_stats",
    lambda c: float(np.std(c.ts_residuals, ddof=1)),
    cost="medium", ref="global_stats.py:210",
))
register(FeatureKernel(
    "skewness_residuals", "global_stats",
    lambda c: _st.skewness(c.ts_residuals), cost="medium",
    ref="global_stats.py:280 (e1071 method 3)",
))
register(FeatureKernel(
    "kurtosis_residuals", "global_stats",
    lambda c: _st.kurtosis(c.ts_residuals), cost="medium",
    ref="global_stats.py:462",
))

register(FeatureKernel(
    "sd_diff", "global_stats",
    many=lambda b: _st.mean_std_many(*b.ts_diff, ddof=1)[1],
    ref="global_stats.py:229",
))
register(FeatureKernel(
    "skewness_diff", "global_stats",
    many=lambda b: _st.skewness_many(*b.ts_diff),
    ref="global_stats.py:334",
))
register(FeatureKernel(
    "kurtosis_diff", "global_stats",
    many=lambda b: _st.kurtosis_many(*b.ts_diff),
    ref="global_stats.py:518",
))

register(FeatureKernel(
    "sd_sdiff", "global_stats",
    lambda c: float(np.std(_st.seasonal_diff(c.ts, c.period), ddof=1)),
    cost="medium", ref="global_stats.py:253",
))
register(FeatureKernel(
    "skewness_sdiff", "global_stats",
    lambda c: _st.skewness(_st.seasonal_diff(c.ts, c.period)),
    cost="medium", ref="global_stats.py:399",
))
register(FeatureKernel(
    "kurtosis_sdiff", "global_stats",
    lambda c: _st.kurtosis(_st.seasonal_diff(c.ts, c.period)),
    cost="medium", ref="global_stats.py:579",
))


def calc_ioe_stats(ts_scaled: np.ndarray, func, step_size: float = 0.05,
                   max_it: int = 1024, differentiate: bool = False) -> np.ndarray:
    """Iterative outlier exclusion (reference _utils.py:248-350)."""
    ts_abs = np.abs(ts_scaled)
    max_abs = ts_abs.max() if ts_abs.size else 0.0
    min_abs = ts_abs.min() if ts_abs.size else 0.0
    step = step_size * np.std(ts_abs)
    if step <= 0:
        return np.empty(0)
    n_it = min(max_it, int(np.ceil(max_abs / step)))
    out = np.zeros(n_it)
    threshold = min_abs
    it = 0
    while it < n_it:
        threshold += step
        tsteps = np.flatnonzero(ts_abs >= threshold)
        if tsteps.size < 0.02 * ts_scaled.size or tsteps.size <= 1:
            break
        d = np.diff(tsteps, int(differentiate))
        out[it] = func(d)
        it += 1
    return out[:it] if it < n_it else out


def ioe_stats_fast(ts_scaled: np.ndarray, kind: str,
                   step_size: float = 0.05, max_it: int = 1024) -> np.ndarray:
    """:func:`calc_ioe_stats` for the two registry statistics without the
    per-threshold O(n) scans: survivors at every threshold are a SUFFIX of
    the |x|-value-sorted order, so survivor-index sums and extrema come
    from prefix/suffix aggregates computed once.  The threshold sequence
    keeps the generic loop's sequential `+= step` accumulation (bitwise
    thresholds -> identical survivor counts).  'tdelta_mean' (mean of
    index diffs == telescoping (last-first)/(m-1), exact integers) is
    BITWISE-identical to the generic path; 'std_adj' (ddof-1 std of
    survivor indices / sqrt(m)) uses the moment form on exact integer
    sums and matches within ~1e-12 — parity gate in tests/test_kernels.py."""
    ts_abs = np.abs(ts_scaled)
    n = ts_abs.size
    if n == 0:
        return np.empty(0)
    max_abs = ts_abs.max()
    min_abs = ts_abs.min()
    step = step_size * np.std(ts_abs)
    if step <= 0:
        return np.empty(0)
    n_it = min(max_it, int(np.ceil(max_abs / step)))
    order = np.argsort(ts_abs, kind="stable").astype(np.int64)
    sv = ts_abs[order]
    idxf = order.astype(np.float64)
    cum_i = np.concatenate([[0.0], np.cumsum(idxf)])          # exact ints
    cum_i2 = np.concatenate([[0.0], np.cumsum(idxf * idxf)])  # exact < 2^53
    sufmin = np.minimum.accumulate(order[::-1])[::-1]
    sufmax = np.maximum.accumulate(order[::-1])[::-1]
    total_i, total_i2 = cum_i[-1], cum_i2[-1]
    out = np.zeros(n_it)
    threshold = min_abs
    it = 0
    lim = 0.02 * n
    tdelta = kind == "tdelta_mean"
    while it < n_it:
        threshold += step
        r = int(np.searchsorted(sv, threshold, side="left"))  # removed
        m = n - r
        if m < lim or m <= 1:
            break
        if tdelta:
            out[it] = (sufmax[r] - sufmin[r]) / (m - 1)
        else:
            s1 = total_i - cum_i[r]
            s2 = total_i2 - cum_i2[r]
            meanv = s1 / m
            var = (s2 - m * meanv * meanv) / (m - 1)
            out[it] = np.sqrt(var if var > 0 else 0.0) / np.sqrt(m)
        it += 1
    return out[:it] if it < n_it else out


def _ioe_tdelta_mean(c: SeriesCtx, normalize: bool = True) -> np.ndarray:
    res = ioe_stats_fast(c.ts_scaled, "tdelta_mean")
    if normalize:
        res = 2 * res / c.ts.size - 1
    return res


register(FeatureKernel("ioe_tdelta_mean", "global_stats", _ioe_tdelta_mean,
                       returns_array=True, cost="medium",
                       ref="global_stats.py:44-116, _utils.py:248-350"))

def _t_mean_many(b) -> np.ndarray:
    if not b.finite:
        raise ValueError("batch sort needs NaN-free rows")
    return _st.trim_mean_many(b.flat, b.off, 0.02)


register(FeatureKernel(
    "t_mean", "global_stats",
    many=_t_mean_many,
    ref="global_stats.py:848",
))


def _spikiness(c: SeriesCtx, ddof: int = 1) -> np.ndarray:
    """Leave-one-out variances of residuals — O(n) identity instead of the
    reference's O(n^2) loop (global_stats.py:878-925): for each i,
    var_loo(i) over n-1 points with ddof from (n, s1, s2)."""
    r = c.ts_residuals
    n = r.size
    if n <= ddof + 1:
        return np.full(n, np.nan)
    s1, s2 = r.sum(), (r * r).sum()
    n1 = n - 1
    mean_i = (s1 - r) / n1
    var_i = (s2 - r * r - n1 * mean_i**2) / (n1 - ddof)
    return np.maximum(var_i, 0.0)


register(FeatureKernel("spikiness", "global_stats", _spikiness,
                       returns_array=True, cost="medium",
                       ref="global_stats.py:878-925 (O(n) jackknife identity)"))


def _hurst_rs(c: SeriesCtx) -> float:
    """R/S Hurst exponent (Hurst 1956; nolds.hurst_rs-style log-spaced
    chunk sizes + log-log fit).  Reference: global_stats.py:691."""
    x = c.ts
    n = x.size
    if n < 32:
        return np.nan
    nvals = np.unique(np.floor(np.exp(np.linspace(np.log(8), np.log(n // 2), 12))).astype(int))
    log_rs, log_n = [], []
    for w in nvals:
        k = n // w
        if k < 1:
            continue
        chunks = x[: k * w].reshape(k, w)
        m = chunks.mean(axis=1, keepdims=True)
        dev = np.cumsum(chunks - m, axis=1)
        R = dev.max(axis=1) - dev.min(axis=1)
        S = chunks.std(axis=1, ddof=1)
        ok = S > 0
        if not ok.any():
            continue
        rs = (R[ok] / S[ok]).mean()
        if rs > 0:
            log_rs.append(np.log(rs))
            log_n.append(np.log(w))
    if len(log_n) < 3:
        return np.nan
    return float(np.polyfit(log_n, log_rs, 1)[0])


register(FeatureKernel("exp_hurst", "global_stats", _hurst_rs, cost="medium",
                       ref="global_stats.py:691 (R/S analysis, numpy port)"))


def _dfa(c: SeriesCtx, pol_order: int = 1, overlap: bool = True) -> float:
    """Detrended fluctuation analysis (Peng et al. 1994).
    Reference: global_stats.py:723 (nolds.dfa defaults)."""
    x = c.ts
    n = x.size
    if n < 32:
        return np.nan
    walk = np.cumsum(x - x.mean())
    nvals = np.unique(np.floor(np.exp(np.linspace(np.log(4), np.log(max(5, n // 10)), 12))).astype(int))
    log_f, log_n = [], []
    t_full = np.arange(n)
    for w in nvals:
        if w < pol_order + 2:
            continue
        step = w // 2 if overlap else w
        starts = np.arange(0, n - w + 1, max(1, step))
        if starts.size < 2:
            continue
        # strided window view — no per-window copies; reductions read the
        # same float64 operands as the stacked copy
        st = walk.strides[0]
        seg = np.lib.stride_tricks.as_strided(
            walk[starts[0]:], shape=(starts.size, w),
            strides=(st * (starts[1] - starts[0]), st))
        t = np.arange(w, dtype=np.float64)
        # vectorized order-1 polyfit per segment
        tm = t.mean()
        den = ((t - tm) ** 2).sum()
        sm = seg.mean(axis=1)
        slope = ((seg - sm[:, None]) * (t - tm)).sum(axis=1) / den
        fit = sm[:, None] + slope[:, None] * (t - tm)
        f = np.sqrt(((seg - fit) ** 2).mean(axis=1)).mean()
        if f > 0:
            log_f.append(np.log(f))
            log_n.append(np.log(w))
    if len(log_n) < 3:
        return np.nan
    return float(np.polyfit(log_n, log_f, 1)[0])


register(FeatureKernel("dfa", "global_stats", _dfa, cost="medium",
                       ref="global_stats.py:723 (DFA, numpy port)"))


def _corr_dim(c: SeriesCtx, emb_dim: int = 1) -> float:
    """Grassberger-Procaccia correlation dimension.
    Reference: global_stats.py:770 (nolds.corr_dim, emb_dim=1).  O(m^2) —
    bounded by the analysis cap."""
    x = _st.standardize_ts(c.ts)
    m = x.size
    if m < 32:
        return np.nan
    emb = embed_ts(x, dim=emb_dim, lag=1) if emb_dim > 1 else x[:, None]
    d = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    iu = np.triu_indices(d.shape[0], k=1)
    dists = d[iu]
    sd = x.std()
    rvals = np.exp(np.linspace(np.log(0.1 * sd), np.log(0.5 * sd), 10))
    csums = np.array([(dists < r).mean() for r in rvals])
    ok = csums > 0
    if ok.sum() < 3:
        return np.nan
    return float(np.polyfit(np.log(rvals[ok]), np.log(csums[ok]), 1)[0])


register(FeatureKernel("corr_dim", "global_stats", _corr_dim, cost="heavy",
                       ref="global_stats.py:770 (Grassberger-Procaccia, numpy port)"))


def _lyap_r(c: SeriesCtx, embed_dim: int = 10, lag: int | None = None,
            trajectory_len: int = 20) -> float:
    """Largest Lyapunov exponent, Rosenstein et al. 1993.
    Reference: global_stats.py:644 (nolds.lyap_r).  O(m^2) — capped."""
    x = c.ts[-256:]  # O(m^2 d) pairwise distances — capped (documented)
    if lag is None:
        lag = 1
    if x.size < embed_dim * lag + trajectory_len + 2:
        return np.nan
    emb = embed_ts(x, dim=embed_dim, lag=lag)
    m = emb.shape[0]
    d = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    # exclude temporally close neighbors (min_tsep ~ mean period proxy)
    min_tsep = max(1, x.size // 20)
    idx = np.arange(m)
    mask = np.abs(idx[:, None] - idx[None, :]) <= min_tsep
    d[mask] = np.inf
    nn = np.argmin(d, axis=1)
    max_t = m - trajectory_len
    pairs = [(i, nn[i]) for i in range(max_t) if nn[i] < max_t]
    if len(pairs) < 4:
        return np.nan
    div = np.zeros(trajectory_len)
    counts = np.zeros(trajectory_len)
    pi = np.array([p[0] for p in pairs])
    pj = np.array([p[1] for p in pairs])
    for k in range(trajectory_len):
        dk = np.sqrt(((emb[pi + k] - emb[pj + k]) ** 2).sum(axis=1))
        ok = dk > 0
        div[k] = np.log(dk[ok]).mean() if ok.any() else np.nan
        counts[k] = ok.sum()
    t = np.arange(trajectory_len)
    ok = np.isfinite(div)
    if ok.sum() < 3:
        return np.nan
    return float(np.polyfit(t[ok], div[ok], 1)[0])


register(FeatureKernel("exp_max_lyap", "global_stats", _lyap_r, cost="heavy",
                       ref="global_stats.py:644 (Rosenstein algorithm, numpy port)"))


def _boxcox_llf(lmbda: float, x: np.ndarray,
                logx: np.ndarray | None = None,
                logx_sum: float | None = None) -> float:
    n = x.size
    if logx is None:
        logx = np.log(x)
    if logx_sum is None:
        logx_sum = logx.sum()
    if abs(lmbda) < 1e-12:
        y = logx
    else:
        y = (x**lmbda - 1.0) / lmbda
    v = y.var()
    if v <= 0:
        return -np.inf
    return float((lmbda - 1.0) * logx_sum - n / 2.0 * np.log(v))


def _opt_boxcox_coef(c: SeriesCtx) -> float:
    """MLE Box-Cox lambda via golden-section search (reference
    global_stats.py:810 uses scipy.stats.boxcox_normmax(method='mle') on
    ts - min + 1).  log(x) and its sum are constants of the search —
    hoisted once (bitwise-identical values in every evaluation)."""
    x = c.ts - c.ts.min() + 1.0
    logx = np.log(x)
    logx_sum = logx.sum()
    llf = lambda lm: _boxcox_llf(lm, x, logx, logx_sum)  # noqa: E731
    lo, hi = -5.0, 5.0
    gr = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = llf(c1), llf(c2)
    for _ in range(80):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = llf(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = llf(c1)
    return float((a + b) / 2)


register(FeatureKernel("opt_boxcox_coef", "global_stats", _opt_boxcox_coef,
                       cost="medium", ref="global_stats.py:810"))
