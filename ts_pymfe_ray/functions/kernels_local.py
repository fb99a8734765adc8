"""Local-statistics feature kernels (reference:
/root/reference/tspymfe/local_stats.py, class MFETSLocalStats) — the
rolling-window suite at the heart of the rollup engine.

The reference computes every moving_* via pandas ``rolling(w,
center=True).apply(...)`` — O(n*w) per stat, O(n*w^2) for the .apply ones.
Here each rolling statistic is an O(n) sliding-sketch computation (running
power sums / comoments via cumsum), exactly the same algebra the tier
rollup uses (SURVEY.md §7.0).  Centered windows with min_periods=window +
remove_nan=True reduce to the n-w+1 fully-valid windows, which is what the
sliding implementation produces directly.

All moving_* operate on the z-scored series; window size =
process_window_size(ts, 0.1) forced odd (reference _utils.py:36-67).
``*_shift`` variants are |diff(moving_stat)| (lag 1, order 1 defaults,
local_stats.py:176-253).
"""

from __future__ import annotations

import math

import numpy as np

from ts_pymfe_ray.registry import FeatureKernel, SeriesBatch, SeriesCtx, register
from ts_pymfe_ray.functions import stats as _st


def process_window_size(n: int, window_size: float = 0.1) -> int:
    """Reference _utils.py:36-67."""
    if 0 < window_size < 1:
        w = max(1, math.ceil(window_size * n))  # == int(np.ceil(...)), same double
    else:
        w = min(n, int(window_size))
    if w % 2 == 0:
        w -= 1
    return int(w)


def _power_prefixes(x: np.ndarray) -> np.ndarray:
    """(4, ..., n+1) prefix sums of x^1..x^4 in ONE stacked cumsum along
    the last axis — bitwise identical to four separate cumsums (accumulate
    is per-row), for one row or a right-padded (R, n) stack.  Powers use
    np.power (x**3/x**4 differ bitwise from repeated multiplication, and
    the committed goldens pin the np.power values)."""
    P = np.zeros((4,) + x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(np.stack([x, x * x, x**3, x**4]), axis=-1, out=P[..., 1:])
    return P


def _window_of(c: SeriesCtx) -> int:
    return process_window_size(c.ts.size, 0.1)


class _BatchWindows:
    """Every full sliding window of every row of a SeriesBatch, in ONE flat
    run (``off`` gives each row's windows; rows without a valid window —
    w < 2 — get none).  Each row is a right-padded row of an (R, n_max)
    stack, its prefix sums are the per-row cumsums (bitwise), and window
    k of a row reads exactly the prefix cells that ``c[w:] - c[:-w]``
    over the row alone reads."""

    def __init__(self, b: SeriesBatch):
        lens = b.lens
        wr = np.array([process_window_size(int(n), 0.1) for n in lens], dtype=np.int64)
        nw = np.where((wr >= 2) & (lens >= wr), lens - wr + 1, 0)
        self.off = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(nw, out=self.off[1:])
        wrow = _st.row_ids(self.off)
        k = _st.row_pos(self.off)
        wk = wr[wrow]
        self.w = wk.astype(np.float64)
        self.Z = b.pad(b.ts_scaled)
        width = self.Z.shape[1]
        self.lo = wrow * (width + 1) + k  # into (R, width+1) prefix stacks
        self.hi = self.lo + wk
        self.zlo = wrow * width + k  # into the (R, width) value stack
        self.zhi = self.zlo + wk - 1
        self._P = None
        self._sums: dict[int, np.ndarray] = {}

    def sums(self, power: int) -> np.ndarray:
        if power not in self._sums:
            if self._P is None:
                self._P = _power_prefixes(self.Z)
            c = self._P[power - 1].reshape(-1)
            self._sums[power] = c[self.hi] - c[self.lo]
        return self._sums[power]

    def pair_sums(self) -> np.ndarray:
        Z = self.Z
        cp = np.zeros((Z.shape[0], Z.shape[1] + 1))
        np.cumsum(Z[:, :-1] * Z[:, 1:], axis=1, out=cp[:, 1: Z.shape[1]])
        cp = cp.reshape(-1)
        return cp[self.hi - 1] - cp[self.lo]

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        z = self.Z.reshape(-1)
        return z[self.zlo], z[self.zhi]

    def log_sums(self) -> tuple[np.ndarray, np.ndarray]:
        Z = self.Z
        logs = np.where(Z > 0, np.log(np.maximum(Z, 1e-300)), np.nan)
        c = np.zeros((Z.shape[0], Z.shape[1] + 1))
        np.nancumsum(logs, axis=1, out=c[:, 1:])
        bad = np.zeros(c.shape)
        np.cumsum(~np.isfinite(logs), axis=1, out=bad[:, 1:])
        c, bad = c.reshape(-1), bad.reshape(-1)
        return c[self.hi] - c[self.lo], bad[self.hi] - bad[self.lo]


# The rolling statistics over the windows W of a batch; W.w holds each
# window's size.


def moving_mean(W) -> np.ndarray:
    return W.sums(1) / W.w


def moving_var(W, ddof: int = 1) -> np.ndarray:
    s1, s2 = W.sums(1), W.sums(2)
    v = (s2 - s1 * s1 / W.w) / (W.w - ddof)
    return np.maximum(v, 0.0)


def moving_skewness(W) -> np.ndarray:
    """e1071 method-3, bias=True per window (local_stats.py:671)."""
    w = W.w
    s1, s2, s3 = W.sums(1), W.sums(2), W.sums(3)
    mu = s1 / w
    m2 = s2 / w - mu**2
    m3 = s3 / w - 3 * mu * s2 / w + 2 * mu**3
    with np.errstate(all="ignore"):
        g1 = np.where(m2 > 0, m3 / np.power(np.maximum(m2, 0), 1.5), 0.0)
    return g1 * _st.per_value(w, lambda w: ((w - 1.0) / w) ** 1.5)


def moving_kurtosis(W) -> np.ndarray:
    w = W.w
    s1, s2, s3, s4 = (W.sums(k) for k in (1, 2, 3, 4))
    mu = s1 / w
    m2 = s2 / w - mu**2
    m4 = s4 / w - 4 * mu * s3 / w + 6 * mu**2 * s2 / w - 3 * mu**4
    with np.errstate(all="ignore"):
        g2 = np.where(m2 > 0, m4 / np.maximum(m2, 1e-300) ** 2 - 3.0, -3.0)
    return (g2 + 3.0) * _st.per_value(w, lambda w: (1.0 - 1.0 / w) ** 2) - 3.0


def moving_acf1(W, adjusted: bool = True) -> np.ndarray:
    """Rolling lag-1 ACF, statsmodels semantics per window
    (local_stats.py:1031: rolling apply of ft_acf(nlags=1, adjusted)):
    acf1 = (sum_pairs/(w-1)) / (var_pop) with var_pop = ss/w."""
    w = W.w
    s1, s2 = W.sums(1), W.sums(2)
    c1 = W.pair_sums()
    first, last = W.ends()
    mu = s1 / w
    num = c1 - mu * (2 * s1 - first - last) + (w - 1) * mu**2
    den = s2 - w * mu**2
    with np.errstate(all="ignore"):
        acf1 = num / den
        if adjusted:
            acf1 = acf1 * w / (w - 1.0)
    return acf1


def moving_gmean(W) -> np.ndarray:
    """scipy.stats.gmean per window: NaN whenever the window holds a
    non-positive value (log-domain), matching scipy on z-scored input."""
    sums, nbad = W.log_sums()
    out = np.exp(sums / W.w)
    out[nbad > 0] = np.nan
    return out


def _mk_moving(name: str, stat_fn, shift: bool):
    def many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
        W = b._get("mv_windows", lambda: _BatchWindows(b))
        vals = b._get(f"mv_{name}", lambda: stat_fn(W))
        v, off = _st.keep_rows(vals, W.off, np.isfinite(vals))
        if shift:
            d, off = _st.ragged_diff(v, off)
            return np.abs(d), off
        return v, off

    return many


# (registered name, rolling stat over a window source, reference line)
MOVING_BASE_STATS = (
    ("moving_avg", moving_mean, "local_stats.py:256"),
    ("moving_var", moving_var, "local_stats.py:388"),
    ("moving_sd", lambda W: np.sqrt(moving_var(W)), "local_stats.py:543"),
    ("moving_skewness", moving_skewness, "local_stats.py:671"),
    ("moving_kurtosis", moving_kurtosis, "local_stats.py:849"),
    ("moving_acf", moving_acf1, "local_stats.py:1031"),
    ("moving_gmean", moving_gmean, "local_stats.py:1162"),
)

for _name, _fn, _ref in MOVING_BASE_STATS:
    for _shift in (False, True):
        register(FeatureKernel(_name + ("_shift" if _shift else ""), "local_stats",
                               returns_array=True, many=_mk_moving(_name, _fn, _shift),
                               ref=_ref + (" shift variant" if _shift else " (O(n) sliding sketch)")))


def _moving_kldiv(c: SeriesCtx, remove_inf: bool = True) -> np.ndarray:
    """KL divergence of consecutive window density histograms
    (local_stats.py:1281).  Vectorized: per-window 10-bin histograms for
    ALL stride-1 windows in one bincount, then KL(next||cur) row-wise.
    Each window keeps its own equal-width bin range like np.histogram."""

    def _build():
        s = c.ts_scaled
        w = _window_of(c)
        if s.size <= w + 1:
            return np.full(1, np.nan)
        from numpy.lib.stride_tricks import sliding_window_view

        m = s.size - w  # windows 0..m-1 (reference computes m-1 divergences)
        wins = sliding_window_view(s, w)[:m]
        lo = wins.min(axis=1, keepdims=True)
        hi = wins.max(axis=1, keepdims=True)
        rng_ = np.where(hi > lo, hi - lo, 1.0)
        idx = ((wins - lo) * (10.0 / rng_)).astype(np.int64)
        np.minimum(idx, 9, out=idx)
        rows = np.arange(m)[:, None]
        counts = np.bincount((rows * 10 + idx).ravel(), minlength=m * 10).reshape(m, 10)
        p = counts / w  # per-window distribution (normalization cancels)
        cur, nxt = p[:-1], p[1:]
        with np.errstate(all="ignore"):
            terms = np.where(nxt > 0, nxt * np.log(nxt / cur), 0.0)
            out = terms.sum(axis=1)
            out[np.logical_and(nxt > 0, cur == 0).any(axis=1)] = np.inf
        # reference quirk kept: result array is length n-w with a trailing
        # 0.0 that the loop never fills (local_stats.py:1341-1353)
        return np.concatenate([out, [0.0]])

    out = c._get("moving_kldiv", _build)
    if remove_inf:
        out = out[np.isfinite(out)]
    return out


register(FeatureKernel("moving_kldiv", "local_stats", _moving_kldiv,
                       returns_array=True, cost="medium",
                       ref="local_stats.py:1281"))


def _moving_kldiv_shift(c: SeriesCtx) -> np.ndarray:
    vals = _moving_kldiv(c, remove_inf=True)
    return np.abs(np.diff(vals[~np.isnan(vals)]))


register(FeatureKernel("moving_kldiv_shift", "local_stats", _moving_kldiv_shift,
                       returns_array=True, cost="medium",
                       ref="local_stats.py:1364"))


def lilliefors_statistic(x: np.ndarray) -> float:
    """Lilliefors KS statistic vs normal with estimated params
    (statsmodels lilliefors, statistic only; stat_tests.py:425)."""
    from ts_pymfe_ray.functions.special import norm_cdf_vec

    n = x.size
    if n < 4:
        return np.nan
    mu, sd = x.mean(), x.std(ddof=1)
    if sd == 0:
        return np.nan
    z = np.sort((x - mu) / sd)
    cdf = norm_cdf_vec(z)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(cdf - ecdf_lo), np.max(ecdf_hi - cdf)))


def _moving_lilliefors(c: SeriesCtx) -> np.ndarray:
    s = c.ts_scaled
    w = _window_of(c)
    if s.size < w or w < 4:
        return np.full(1, np.nan)
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(s, w)
    return np.array([lilliefors_statistic(win) for win in wins])


register(FeatureKernel("moving_lilliefors", "local_stats", _moving_lilliefors,
                       returns_array=True, cost="heavy",
                       ref="local_stats.py:1451"))


def _moving_approx_ent(c: SeriesCtx) -> np.ndarray:
    from ts_pymfe_ray.functions.kernels_info import approx_entropy

    s = c.ts_scaled
    w = _window_of(c)
    if s.size < w or w < 8:
        return np.full(1, np.nan)
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(s, w)
    # reference evaluates every stride-1 window (O(n * w^2)); the engine
    # strides so at most 64 windows are evaluated — the mean/sd summary
    # over a uniform subsample converges to the same value (documented
    # cost bound for the single most expensive reference feature)
    stride = max(1, wins.shape[0] // 64)
    return np.array([approx_entropy(_st.standardize_ts(win)) for win in wins[::stride]])


register(FeatureKernel("moving_approx_ent", "local_stats", _moving_approx_ent,
                       returns_array=True, cost="heavy",
                       ref="local_stats.py:1528"))


# ------------------------------------------------------------------ tiles


def _tile_moments(s1, s2, mn, mx, cnt) -> dict[str, np.ndarray]:
    mean = s1 / cnt
    with np.errstate(all="ignore"):
        var = (s2 - cnt * mean**2) / (cnt - 1)
    return {"mean": mean, "var": np.maximum(var, 0.0), "min": mn, "max": mx}


def _tile_stats_many(b: SeriesBatch, num_tiles: int = 16) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-tile mean/var/min/max of the z-scores of every row with at
    least 2 * num_tiles points (other rows get no tiles), as (V, num_tiles)
    arrays, plus per-row offsets into their raveled form.  Tile boundaries
    follow np.array_split (reference _utils.py:11-33: the first n % k tiles
    get one extra element).  ONE reduceat per statistic runs over the flat
    z-scores with each row's tile starts and its end, so every tile reduces
    exactly the elements (and in the same order) a reduceat over the row
    alone does; the row-end segments are dropped."""

    def _build():
        ok = num_tiles <= 0.5 * b.lens
        rows = np.flatnonzero(ok)
        toff = np.zeros(b.lens.size + 1, dtype=np.int64)
        np.cumsum(ok * num_tiles, out=toff[1:])
        base, extra = np.divmod(b.lens[rows], num_tiles)
        sizes = base[:, None] + (np.arange(num_tiles) < extra[:, None])
        bounds = np.zeros((rows.size, num_tiles + 1), dtype=np.int64)
        np.cumsum(sizes, axis=1, out=bounds[:, 1:])
        bounds += b.off[rows][:, None]
        idx = bounds.ravel()
        s = np.append(b.ts_scaled, 0.0)  # a row may end at the buffer's end

        def red(op, x):
            if not idx.size:
                return np.empty((0, num_tiles))
            return op.reduceat(x, idx).reshape(-1, num_tiles + 1)[:, :num_tiles]

        t = _tile_moments(red(np.add, s), red(np.add, s * s), red(np.minimum, s),
                          red(np.maximum, s), sizes.astype(np.float64))
        return t, toff

    return b._get(f"tiles{num_tiles}", _build)


# (name, per-tile feature of the tile stats, reference line)
_TILE_FEATURES = (
    ("lumpiness", lambda t: t["var"], "local_stats.py:1624"),
    ("stability", lambda t: t["mean"], "local_stats.py:1684"),
    ("local_extrema", lambda t: np.where(np.abs(t["min"]) <= t["max"], t["max"], t["min"]),
     "local_stats.py:1736"),
    ("local_range", lambda t: t["max"] - t["min"], "local_stats.py:1791"),
)


def _mk_tile(feat):
    def many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
        t, toff = _tile_stats_many(b)
        return feat(t).ravel(), toff

    return many


for _name, _feat, _ref in _TILE_FEATURES:
    register(FeatureKernel(_name, "local_stats", returns_array=True, many=_mk_tile(_feat), ref=_ref))
