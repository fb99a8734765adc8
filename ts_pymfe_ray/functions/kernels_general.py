"""General-group feature kernels (reference: /root/reference/tspymfe/general.py,
class MFETSGeneral).  Pure numpy, O(n) or O(n log n) per row; sequential
recursions (walker, moving_threshold) are vectorized where a closed form
exists and otherwise bounded by the analysis cap."""

from __future__ import annotations

import numpy as np

from ts_pymfe_ray.registry import FeatureKernel, SeriesBatch, SeriesCtx, register
from ts_pymfe_ray.functions import stats as _st


def _find_crit_pt(arr: np.ndarray, type_: str) -> np.ndarray:
    """Critical points (reference _utils.py:170-213)."""
    if arr.size <= 2:
        raise ValueError("array too small")
    d1 = np.diff(arr)
    turning = d1[1:] * d1[:-1] < 0
    if type_ == "plateau":
        d2 = np.diff(d1)
        res = np.logical_and(np.isclose(d2, 0), np.isclose(d1[:-1], 0))
        return np.hstack((False, res, False))
    if type_ == "non-plateau":
        return np.hstack((False, turning, False))
    if type_ == "any":
        d2 = np.diff(d1)
        plat = np.hstack((False, np.logical_and(np.isclose(d2, 0), np.isclose(d1[:-1], 0)), False))
        return np.logical_or(np.hstack((False, turning, False)), plat)
    d2 = np.diff(d1)
    interest = d2 < 0 if type_ == "max" else d2 > 0
    return np.hstack((False, np.logical_and(turning, interest), False))


def _discretize(ts: np.ndarray, num_bins: int = 10, strategy: str = "equal-width") -> np.ndarray:
    """Reference _utils.py:418-463."""
    if strategy == "equal-width":
        from ts_pymfe_ray.functions.stats import hist_edges

        bins = hist_edges(ts, num_bins)[:-1]  # == np.histogram edges, no counting pass
    else:
        bins = np.quantile(ts, np.linspace(0, 1, num_bins + 1)[:-1])
    return np.digitize(ts, bins).astype(int)


def _walker(ts_scaled: np.ndarray, step_size: float = 0.1) -> np.ndarray:
    """Exponential-filter particle w[i] = w[i-1] + s*(ts[i-1]-w[i-1])
    (reference general.py:299-333) — vectorized closed form in chunks to
    avoid (1-s)^-i overflow."""
    n = ts_scaled.size
    w = np.empty(n, dtype=np.float64)
    s = step_size
    a = 1.0 - s
    prev = 0.0
    chunk = 256
    for st in range(0, n, chunk):
        en = min(n, st + chunk)
        m = en - st
        # w[st+j] = a^j * prev_pos + s * sum_{k<j} a^(j-1-k) * ts[st+k-1+...]
        # driven by inputs u[j] = ts[st + j - 1] (u[0] uses ts[st-1] or start)
        u = ts_scaled[st - 1 : en - 1] if st > 0 else np.concatenate([[0.0], ts_scaled[: m - 1]])
        if st == 0:
            u[0] = 0.0  # w[0] = start_point = 0
        pow_a = a ** np.arange(m, dtype=np.float64)
        # y[j] = w[st+j]/a^j ; y[j] = y[j-1] + (s/a^j) u[j] ... with y[-1]=prev
        if st == 0:
            # w[0] = 0 exactly; recursion starts at j=1
            contrib = np.concatenate([[0.0], s * u[1:] / pow_a[1:]])
            y = np.cumsum(contrib)
            w[st:en] = y * pow_a
        else:
            contrib = s * u / pow_a  # j = 0..m-1 uses a^-(j) scaled by a
            # w[st+j] = a^(j+1)*prev + s*sum_{k<=j} a^(j-k) u[k]
            y = np.cumsum(u / pow_a)
            w[st:en] = pow_a * a * prev + s * pow_a * y
        prev = w[en - 1]
    return w


# --------------------------------------------------------------------- kernels


register(FeatureKernel(
    "length", "general",
    lambda c: float(c.ts_all.size),
    many=lambda b: np.array([float(c.ts_all.size) for c in b.ctxs]),
    ref="general.py:336 (ft_length = ts.size; full series, not capped)",
))

register(FeatureKernel(
    "diff", "general",
    lambda c: c.ts_diff,
    returns_array=True,
    many=lambda b: b.ts_diff,
    ref="general.py:358 (ft_diff, order=1)",
))

register(FeatureKernel(
    "period", "general",
    lambda c: float(c.period),
    ref="general.py:377 -> _period.py:14-45",
))

def _turning_points_many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``turning_points``: 1.0 where the two in-row steps
    around a point have opposite signs, 0.0 at both row ends; rows of <= 2
    points (where the per-row call raises) are empty."""
    x, off = b.flat, b.off
    rid, pos = _st.row_ids(off), _st.row_pos(off)
    n = b.lens[rid]
    j = np.flatnonzero((pos >= 1) & (pos <= n - 2))
    t = np.zeros(x.size)
    t[j] = (x[j + 1] - x[j]) * (x[j] - x[j - 1]) < 0
    return _st.keep_rows(t, off, n > 2)


register(FeatureKernel(
    "turning_points", "general",
    lambda c: _find_crit_pt(c.ts, "non-plateau").astype(float),
    returns_array=True, many=_turning_points_many,
    ref="general.py:398, _utils.py:170-213",
))

register(FeatureKernel(
    "turning_points_trend", "general",
    lambda c: _find_crit_pt(c.ts_trend, "non-plateau").astype(float),
    returns_array=True, cost="medium",
    ref="general.py:431",
))


def _step_changes(ts: np.ndarray, ddof: int = 1) -> np.ndarray:
    """O(n) rewrite of the reference's O(n^2) prefix loop
    (general.py:461-506): prefix std via running (n, sum, sumsq)."""
    n = ts.size
    cs = np.cumsum(ts)
    cs2 = np.cumsum(ts * ts)
    cnt = np.arange(1, n + 1, dtype=np.float64)
    cmeans = cs / cnt
    mean_abs_div = np.abs(ts[1:] - cmeans[:-1])
    # prefix std of ts[:i] for i = 1+ddof .. n-1 (ddof degrees of freedom)
    i = np.arange(1 + ddof, n)
    pn = i.astype(np.float64)
    var = (cs2[i - 1] - pn * cmeans[i - 1] ** 2) / (pn - ddof)
    var = np.maximum(var, 0.0)
    return (mean_abs_div[i - 1] > 2.0 * np.sqrt(var)).astype(float)


def _step_changes_many(b: SeriesBatch, ddof: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_step_changes` of every row at once: the same prefix-sum
    arithmetic along the rows of a right-padded stack (cumsums are per
    row), keeping each row's cells i = 1+ddof .. n-1."""
    X = b.pad(b.flat)
    width = X.shape[1]
    cs = np.cumsum(X, axis=1)
    cs2 = np.cumsum(X * X, axis=1)
    cnt = np.arange(1, width + 1, dtype=np.float64)
    cmeans = cs / cnt
    mean_abs_div = np.abs(X[:, 1:] - cmeans[:, :-1])
    i = np.arange(1 + ddof, width)
    pn = i.astype(np.float64)
    var = (cs2[:, i - 1] - pn * cmeans[:, i - 1] ** 2) / (pn - ddof)
    var = np.maximum(var, 0.0)
    res = (mean_abs_div[:, i - 1] > 2.0 * np.sqrt(var)).astype(float)
    m = np.maximum(b.lens - 1 - ddof, 0)
    off = np.zeros(m.size + 1, dtype=np.int64)
    np.cumsum(m, out=off[1:])
    return res[_st.row_mask(m, res.shape[1])], off


register(FeatureKernel(
    "step_changes", "general",
    lambda c: _step_changes(c.ts),
    returns_array=True, many=_step_changes_many,
    ref="general.py:461 (O(n) rewrite of the O(n^2) prefix-std loop)",
))

register(FeatureKernel(
    "step_changes_trend", "general",
    lambda c: _step_changes(c.ts_trend),
    returns_array=True, cost="medium",
    ref="general.py:508",
))


def _frac_cp(c: SeriesCtx) -> float:
    s = c.ts_scaled
    thr = _st.median_part(s)  # == np.median, bitwise
    higher = s <= thr
    return float(np.logical_xor(higher[1:], higher[:-1]).sum() / (s.size - 1))


def _in_row_pairs(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of each in-row pair (j, j+1) of a flat buffer, and which pairs
    are in-row: (rows, mask over the flat pairs)."""
    inrow = _st.row_pos(off)[1:] > 0
    return _st.row_ids(off)[1:][inrow], inrow


def _frac_cp_many(b: SeriesBatch) -> np.ndarray:
    if not b.finite:
        raise ValueError("batch median needs NaN-free rows")
    s, lens = b.ts_scaled, b.lens
    thr = _st.median_sorted(_st.sort_rows(s, b.off), lens)
    higher = s <= np.repeat(thr, lens)
    rows, inrow = _in_row_pairs(b.off)
    flips = np.bincount(rows[(higher[1:] != higher[:-1])[inrow]], minlength=lens.size)
    return flips / (lens - 1)


register(FeatureKernel("frac_cp", "general", _frac_cp, many=_frac_cp_many,
                       ref="general.py:702-768"))


def _bin_mean_many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
    mean = _st.seg_sum(b.flat, b.off) / b.lens  # == row.mean(), bitwise
    return (b.flat >= np.repeat(mean, b.lens)).astype(float), b.off


register(FeatureKernel(
    "bin_mean", "general",
    lambda c: (c.ts >= c.ts.mean()).astype(float),
    returns_array=True, many=_bin_mean_many,
    ref="general.py:769",
))


def _fs_len(c: SeriesCtx) -> np.ndarray:
    ts_disc = _discretize(c.ts, 10)
    # run lengths; reference drops the final run (general.py:797-854 loop)
    change = np.flatnonzero(ts_disc[1:] != ts_disc[:-1])
    if change.size == 0:
        return np.empty(0)
    lens = np.diff(np.concatenate([[-1], change])).astype(float)
    return lens


def _fs_len_many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``fs_len``: each row's 10-bin equal-width codes
    (``np.digitize`` on increasing bins == the count of bins <= x) and the
    lengths of all its runs but the last.  Empty rows (where the per-row
    call raises) are empty."""
    if not b.finite:
        raise ValueError("batch histogram needs finite rows")
    x, off, lens = b.flat, b.off, b.lens
    ne = np.flatnonzero(lens > 0)
    E = _st.hist_edges_many(np.minimum.reduceat(x, off[ne]), np.maximum.reduceat(x, off[ne]), 10) \
        if ne.size else np.empty((0, 11))
    erow = np.cumsum(lens > 0)[_st.row_ids(off)] - 1  # row of each element among ne
    code = np.zeros(x.size, dtype=np.int64)
    for j in range(10):
        code += E[erow, j] <= x
    _, inrow = _in_row_pairs(off)
    change = np.flatnonzero(inrow & (code[1:] != code[:-1]))
    crow = _st.row_ids(off)[change]
    pos = _st.row_pos(off)[change]
    prev = np.empty_like(pos)
    prev[1:] = pos[:-1]
    first = np.ones(change.size, dtype=bool)
    first[1:] = crow[1:] != crow[:-1]
    prev[first] = -1
    coff = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(crow, minlength=lens.size), out=coff[1:])
    return (pos - prev).astype(float), coff


register(FeatureKernel("fs_len", "general", _fs_len, returns_array=True, many=_fs_len_many,
                       ref="general.py:797 (vectorized run-length encode)"))


def _season_mode_ind(season: np.ndarray, period: int, indfunc) -> float:
    num = season.size // period
    if num < 1:
        return np.nan
    mat = season[: num * period].reshape(num, period)
    inds = indfunc(mat, axis=1)
    # scipy.stats.mode: smallest most-frequent value
    vals, counts = np.unique(inds, return_counts=True)
    return float(vals[np.argmax(counts)] + 1)


def _peak_frac(c: SeriesCtx) -> float:
    p = c.period
    if p <= 1:
        return np.nan
    return _season_mode_ind(c.ts_season, p, np.argmax) / p


def _trough_frac(c: SeriesCtx) -> float:
    p = c.period
    if p <= 1:
        return np.nan
    return _season_mode_ind(c.ts_season, p, np.argmin) / p


register(FeatureKernel("peak_frac", "general", _peak_frac, cost="medium",
                       ref="general.py:855, helper 274-296"))
register(FeatureKernel("trough_frac", "general", _trough_frac, cost="medium",
                       ref="general.py:925"))


def _walker_path(c: SeriesCtx) -> np.ndarray:
    w = _walker(c.ts_scaled)
    return np.abs(w - c.ts_scaled)


def _walker_cross_frac(c: SeriesCtx) -> float:
    s = c.ts_scaled
    w = _walker(s)
    cross = (w[1:] - s[1:]) * (w[:-1] - s[:-1]) < 0
    return float(cross.sum() / (s.size - 1))


def _walker_many(b: SeriesBatch, step_size: float = 0.1) -> np.ndarray:
    """:func:`_walker` of every row, as the flat residuals walker - z.
    The same chunked closed form runs on the right-padded z stack: within
    a chunk every op is elementwise or a per-row cumsum, and each row
    carries its own last walker value into the next chunk, so every valid
    cell equals the per-row walker bitwise."""

    def _build():
        z = b.ts_scaled
        Z = b.pad(z)
        R, width = Z.shape
        W = np.empty((R, width))
        s = step_size
        a = 1.0 - s
        chunk = 256
        rows = np.arange(R)
        prev = None
        for st in range(0, width, chunk):
            en = min(width, st + chunk)
            m = en - st
            pow_a = a ** np.arange(m, dtype=np.float64)
            if st == 0:
                contrib = np.zeros((R, m))
                contrib[:, 1:] = s * Z[:, : m - 1] / pow_a[1:]
                W[:, :m] = np.cumsum(contrib, axis=1) * pow_a
            else:
                y = np.cumsum(Z[:, st - 1: en - 1] / pow_a, axis=1)
                W[:, st:en] = pow_a * a * prev[:, None] + s * pow_a * y
            prev = W[rows, np.clip(np.minimum(b.lens, en) - 1, 0, None)]
        return W[_st.row_mask(b.lens, width)] - z

    return b._get("walker_resid", _build)


def _walker_cross_frac_many(b: SeriesBatch) -> np.ndarray:
    e = _walker_many(b)
    rows, inrow = _in_row_pairs(b.off)
    cross = np.bincount(rows[(e[1:] * e[:-1] < 0)[inrow]], minlength=b.lens.size)
    return cross / (b.lens - 1)


register(FeatureKernel("walker_path", "general", _walker_path, returns_array=True,
                       many=lambda b: (np.abs(_walker_many(b)), b.off),
                       ref="general.py:995, _ts_walker:299-333 (vectorized exp filter)"))
register(FeatureKernel("walker_cross_frac", "general", _walker_cross_frac,
                       many=_walker_cross_frac_many,
                       ref="general.py:1069"))


def _moving_threshold(c: SeriesCtx, rate_absorption: float = 0.1, rate_decay: float = 0.1) -> np.ndarray:
    """Sequential absorb/decay threshold (general.py:1151-1241); genuinely
    state-dependent branching -> bounded Python scan (analysis cap)."""
    s = np.abs(c.ts_scaled)
    ra, rd = 1.0 + rate_absorption, 1.0 - rate_decay
    thr = np.empty(1 + s.size)
    thr[0] = 1.0
    t = 1.0
    for i, v in enumerate(s):
        t = ra * v if v > t else rd * t
        thr[i + 1] = t
    return thr[1:] - s


register(FeatureKernel("moving_threshold", "general", _moving_threshold,
                       returns_array=True, cost="medium",
                       ref="general.py:1151-1241"))


def _embed_in_shell(c: SeriesCtx, radii=(0.0, 1.0), dim: int = 2) -> float:
    from ts_pymfe_ray.functions.embed import embed_ts

    lag = int(_emb_lag(c))  # reference default lag=None -> auto via emb_lag
    emb = embed_ts(c.ts_scaled, dim=dim, lag=lag)
    norms = np.linalg.norm(emb, axis=1)
    r_in, r_out = radii
    return float(np.mean((norms >= r_in) & (norms <= r_out)))


register(FeatureKernel("embed_in_shell", "general", _embed_in_shell, cost="medium",
                       ref="general.py:1244"))


def _stick_angles(c: SeriesCtx) -> np.ndarray:
    s = c.ts_scaled
    norm = s.size - 1

    def ang(inds):
        if inds.size < 2:
            return np.empty(0)
        tangent = np.diff(s[inds]) / np.diff(inds)
        return np.arctan(norm * tangent)

    nonneg = s >= 0
    return np.hstack([ang(np.flatnonzero(nonneg)), ang(np.flatnonzero(~nonneg))])


def _stick_angles_many(b: SeriesBatch) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``stick_angles``: the elements are regrouped by (row,
    sign group) — non-negative first, as the per-row hstack — keeping
    their order, and each angle comes from two consecutive members of one
    group."""
    s, off = b.ts_scaled, b.off
    rid, pos = _st.row_ids(off), _st.row_pos(off)
    key = 2 * rid + ~(s >= 0)
    order = np.argsort(key, kind="stable")
    so, po, ko = s[order], pos[order], key[order]
    same = ko[1:] == ko[:-1]
    tangent = (so[1:] - so[:-1])[same] / (po[1:] - po[:-1])[same]
    prow = ko[1:][same] // 2
    norm = b.lens[prow] - 1
    aoff = np.zeros(b.lens.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(prow, minlength=b.lens.size), out=aoff[1:])
    return np.arctan(norm * tangent), aoff


register(FeatureKernel("stick_angles", "general", _stick_angles, returns_array=True,
                       many=_stick_angles_many,
                       ref="general.py:1478"))


def _emb_lag(c: SeriesCtx, max_nlags: int | None = None) -> float:
    """Embedding lag = first non-significant detrended-ACF lag, default
    threshold 1.96/sqrt(n); fallback 1 (reference general.py:1528,
    _embed.py:346-455)."""
    acfs = c.detrended_acfs
    thr = 1.96 / np.sqrt(c.ts.size)
    below = np.flatnonzero(np.abs(acfs) <= thr)
    if below.size == 0:
        return 1.0
    return float(below[0] + 1)


register(FeatureKernel("emb_lag", "general", _emb_lag, cost="medium",
                       ref="general.py:1528, _embed.py:346-455"))


# ---------------------------------------------------- embedding-dimension pack

_CAO_CAP = 256  # O(m^2 d) NN searches; reference warns about cost too


def _cao_curves(c: SeriesCtx, dims: int = 16):
    """Cao's E1/E2 curves (reference _embed.py:229-343), cached per row."""

    def _build():
        from ts_pymfe_ray.functions.embed import cheb_nn_curves
        from ts_pymfe_ray.functions.kernels_autocorr import embed_lag

        s = c.ts_scaled[-_CAO_CAP:]
        lag = embed_lag(c)
        ed = np.full(dims, np.nan)
        ed_star = np.full(dims, np.nan)
        for ind, _nn, dist_cur, nxt_diff in cheb_nn_curves(s, lag, dims):
            dist_next = np.maximum(dist_cur, nxt_diff)
            with np.errstate(all="ignore"):
                ed[ind] = np.mean(dist_next / dist_cur)
            ed_star[ind] = np.mean(nxt_diff)
        with np.errstate(all="ignore"):
            return ed[1:] / ed[:-1], ed_star[1:] / ed_star[:-1]

    return c._get("cao_curves", _build)


register(FeatureKernel(
    "cao_e1", "general", lambda c: _cao_curves(c)[0],
    returns_array=True, cost="heavy",
    ref="general.py:1755, _embed.py:229-343 (input capped at 256)",
))
register(FeatureKernel(
    "cao_e2", "general", lambda c: _cao_curves(c)[1],
    returns_array=True, cost="heavy",
    ref="general.py:1859",
))


def _emb_dim_cao(c: SeriesCtx, tol_threshold: float = 0.05) -> float:
    e1, e2 = _cao_curves(c)
    if np.all(np.abs(e2 - 1) < tol_threshold):
        return 1.0
    diff = np.abs(np.diff(e1))
    below = np.flatnonzero(diff <= tol_threshold)
    return float(below[0] + 1) if below.size else 1.0


register(FeatureKernel("emb_dim_cao", "general", _emb_dim_cao, cost="heavy",
                       ref="general.py:1615"))


def _fnn_prop(c: SeriesCtx, dims: int = 16, rtol_: float = 10, atol_: float = 2) -> np.ndarray:
    from ts_pymfe_ray.functions.embed import cheb_nn_curves
    from ts_pymfe_ray.functions.kernels_autocorr import embed_lag

    s = c.ts_scaled[-_CAO_CAP:]
    lag = embed_lag(c)
    out = np.full(dims, np.nan)
    for ind, _nn, dist_cur, nxt_diff in cheb_nn_curves(s, lag, dims):
        dist_next = np.maximum(dist_cur, nxt_diff)
        crit1 = nxt_diff > rtol_ * dist_cur
        crit2 = dist_next > atol_ * 1.0
        out[ind] = np.mean(np.logical_or(crit1, crit2))
    return out


register(FeatureKernel("fnn_prop", "general", _fnn_prop, returns_array=True,
                       cost="heavy", ref="general.py:1963, _embed.py:93-226"))


def _pred(c: SeriesCtx, embed_dim: int = 2, std_range: float = 3,
          num_spacing: int = 4, ddof: int = 1) -> np.ndarray:
    """Delay-vector-variance predictability (general.py:546-699); O(m^2)
    — input capped."""
    from ts_pymfe_ray.functions.embed import embed_ts
    from ts_pymfe_ray.functions.kernels_autocorr import embed_lag

    s = c.ts_scaled[-_CAO_CAP:]
    lag = embed_lag(c)
    emb = embed_ts(s, dim=embed_dim, lag=lag)
    d2 = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    iu = np.triu_indices(d2.shape[0], k=1)
    pd = d2[iu]
    dist_mean, dist_std = pd.mean(), pd.std(ddof=ddof)
    np.fill_diagonal(d2, np.inf)
    var_sets = np.zeros(num_spacing)
    for i in range(num_spacing):
        thr = max(0.0, dist_mean + std_range * dist_std * (i * 2 / (num_spacing - 1) - 1))
        neighbors = d2 <= thr
        for row in neighbors:
            if row.sum() > ddof:
                var_sets[i] += np.var(emb[row, :], ddof=ddof)
    return var_sets / num_spacing


register(FeatureKernel("pred", "general", _pred, returns_array=True,
                       cost="heavy", ref="general.py:546-699"))


def _force_potential(c: SeriesCtx, potential: str = "sine") -> np.ndarray:
    """Leapfrog particle in sine/double-well potential (general.py:1387-1475)."""
    s = c.ts_scaled
    if potential == "sine":
        alpha, fric, dt = 1.0, 1.0, 0.1
        f_force = lambda x: np.sin(x / alpha) / alpha
    else:
        alpha, fric, dt = 2.0, 0.1, 0.1
        f_force = lambda x: alpha**2 * x - x**3
    pos = np.zeros(s.size)
    vel = np.zeros(s.size)
    for t_prev in range(s.size - 1):
        aux = f_force(pos[t_prev]) + s[t_prev] - fric * vel[t_prev]
        pos[t_prev + 1] = pos[t_prev] + dt * vel[t_prev] + dt**2 * aux
        vel[t_prev + 1] = vel[t_prev] + dt * aux
        if np.isinf(pos[t_prev + 1]):
            raise ValueError("potential trajectory diverged")
    return pos


register(FeatureKernel("force_potential", "general", _force_potential,
                       returns_array=True, cost="medium",
                       ref="general.py:1387-1475"))
