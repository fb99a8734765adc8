"""Information-theory feature kernels (reference:
/root/reference/tspymfe/info_theory.py, class MFETSInfoTheory)."""

from __future__ import annotations

import numpy as np

from ts_pymfe_ray.registry import FeatureKernel, SeriesBatch, SeriesCtx, register
from ts_pymfe_ray.functions import stats as _st
from ts_pymfe_ray.functions.kernels_general import _discretize, _find_crit_pt


def shannon_entropy(pk: np.ndarray, base: float = 2.0) -> float:
    """scipy.stats.entropy semantics: normalize pk, ignore zeros."""
    pk = np.asarray(pk, dtype=np.float64)
    s = pk.sum()
    if s <= 0:
        return np.nan
    p = pk / s
    p = p[p > 0]
    return float(-(p * np.log(p)).sum() / np.log(base))


def shannon_entropy_rows(pk: np.ndarray, base: float = 2.0) -> np.ndarray:
    """:func:`shannon_entropy` of every row of an (R, k) stack, bitwise:
    the row sums and the ragged sums over each row's positive terms are
    :func:`stats.seg_sum` (numpy's own 1-D summation order)."""
    R, k = pk.shape
    off = np.arange(0, R * k + 1, k, dtype=np.int64)
    s = _st.seg_sum(pk.ravel(), off)
    p = (pk / s[:, None]).ravel()
    pos, poff = _st.keep_rows(p, off, p > 0)
    h = -_st.seg_sum(pos * np.log(pos), poff) / np.log(base)
    h[s <= 0] = np.nan
    return h


def _hist10_entropy_rows(flat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Normalized 10-bin histogram entropy (base 2, over log2(10)) of every
    row of a ragged batch (finite values); NaN for an empty row."""
    lens = np.diff(off)
    ne = lens > 0
    out = np.full(lens.size, np.nan)
    if ne.any():
        ne_off = np.concatenate([[0], np.cumsum(lens[ne])])
        out[ne] = shannon_entropy_rows(_st.hist_density_many(flat, ne_off, 10)) / np.log2(10)
    return out


def _bin_idx(v: np.ndarray, num_bins: int) -> np.ndarray:
    lo, hi = v.min(), v.max()
    if hi <= lo:
        return np.zeros(v.size, dtype=np.int64)
    idx = ((v - lo) * (num_bins / (hi - lo))).astype(np.int64)
    return np.minimum(idx, num_bins - 1)


def calc_ami(ts: np.ndarray, lag: int, num_bins: int = 64, return_dist: bool = False) -> float:
    """Auto-mutual information H(X)+H(Y)-H(X,Y) from equal-width histograms
    (reference _calc_ami, info_theory.py:148-218).  Joint counts via
    bincount on combined bin indices — ~20x faster than np.histogram2d;
    entropy is invariant to the density normalization the reference
    applies, so counts suffice."""
    x, y = ts[:-lag], ts[lag:]
    bx, by = _bin_idx(x, num_bins), _bin_idx(y, num_bins)
    cx = np.bincount(bx, minlength=num_bins)
    cy = np.bincount(by, minlength=num_bins)
    cxy = np.bincount(bx * num_bins + by, minlength=num_bins * num_bins)
    hx, hy, hxy = shannon_entropy(cx), shannon_entropy(cy), shannon_entropy(cxy)
    ami = hx + hy - hxy
    if return_dist:
        ami = 1.0 - ami / hxy
    return ami


def calc_ami_lags(c: SeriesCtx, num_bins: int = 64) -> np.ndarray:
    """Detrended AMI over lags 1..first-nonpos-ACF (reference
    precompute_detrended_ami / ft_ami_detrended defaults)."""
    from ts_pymfe_ray.functions.kernels_autocorr import _first_below

    L = _first_below(c, 0.0, False)
    L = 1 if not np.isfinite(L) else int(L)
    detr = c.ts_detrended_ss
    return np.array([calc_ami(detr, lag, num_bins) for lag in range(1, L + 1)])


def _hist10_entropy_many(b: SeriesBatch) -> np.ndarray:
    if not b.finite:
        raise ValueError("batch histogram needs finite rows")
    return b._get("hist10_ent", lambda: _hist10_entropy_rows(b.flat, b.off))


register(FeatureKernel(
    "hist_entropy", "info_theory", many=_hist10_entropy_many,
    ref="info_theory.py:221 (normalized base-2 entropy of 10-bin density histogram)",
))


def _hist_ent_out_diff_many(b: SeriesBatch, pcut: float = 0.05) -> np.ndarray:
    """The 10-bin entropy of each row minus that of its inliers between
    the ``pcut`` and ``1 - pcut`` quantiles (taken from +inf-padded sorted
    rows); NaN where no inlier is left."""
    e_all = _hist10_entropy_many(b)
    x, off, lens = b.flat, b.off, b.lens
    S = _st.sort_rows(x, off)
    lo = np.repeat(_st.quantile_sorted(S, lens, pcut), lens)
    hi = np.repeat(_st.quantile_sorted(S, lens, 1 - pcut), lens)
    inl, ioff = _st.keep_rows(x, off, (x >= lo) & (x <= hi))
    return e_all - _hist10_entropy_rows(inl, ioff)


register(FeatureKernel("hist_ent_out_diff", "info_theory", many=_hist_ent_out_diff_many,
                       ref="info_theory.py:258"))

register(FeatureKernel(
    "ami_detrended", "info_theory",
    lambda c: c.detrended_ami,
    returns_array=True, cost="medium",
    ref="info_theory.py:409",
))


def _ami_raw(c: SeriesCtx) -> np.ndarray:
    from ts_pymfe_ray.functions.kernels_autocorr import _first_below

    L = _first_below(c, 0.0, False)
    L = 1 if not np.isfinite(L) else int(L)
    return np.array([calc_ami(c.ts, lag) for lag in range(1, L + 1)])


register(FeatureKernel("ami", "info_theory", _ami_raw, returns_array=True,
                       cost="medium", ref="info_theory.py:319 (ts_detrended=ts)"))


def _ami_first_critpt(c: SeriesCtx) -> float:
    ami = c.detrended_ami
    if ami.size < 64:  # default max_nlags=min(64, n//2) when not precomputed
        from ts_pymfe_ray.functions.kernels_autocorr import _first_below  # noqa

    pts = np.flatnonzero(_find_crit_pt(ami, "min")) if ami.size > 2 else np.array([])
    return float(pts[0] + 1) if pts.size else np.nan


register(FeatureKernel("ami_first_critpt", "info_theory", _ami_first_critpt,
                       cost="medium", ref="info_theory.py:534"))


def _ami_curvature(c: SeriesCtx, noise_range=(0, 3), noise_inc_num: int = 10) -> float:
    from ts_pymfe_ray.functions.kernels_autocorr import embed_lag

    s = c.ts_scaled
    lag = embed_lag(c)
    noise = c.rng.standard_normal(s.size)
    stds = np.linspace(noise_range[0], noise_range[1], noise_inc_num)
    ami = np.array([calc_ami(s + sd * noise, lag, num_bins=32) for sd in stds])
    # OLS slope (sklearn LinearRegression coef_)
    xm, ym = stds.mean(), ami.mean()
    return float(((stds - xm) * (ami - ym)).sum() / ((stds - xm) ** 2).sum())


register(FeatureKernel("ami_curvature", "info_theory", _ami_curvature,
                       cost="medium",
                       ref="info_theory.py:625-761 (doc_id-seeded noise, not global RNG)"))


def _cheb_dists_two_dims(s: np.ndarray, dim: int, lag: int):
    """Pairwise Chebyshev distance matrices of the dim- and (dim+1)-delay
    embeddings, built incrementally: max over coordinates is order-free,
    so D_{dim+1} = max(D_dim[:m', :m'], |new-column diffs|) — bitwise
    equal to the (m, m, d) broadcast at a fraction of the traffic."""
    x = np.asarray(s, dtype=np.float64)
    n = x.size
    m = n - (dim - 1) * lag
    c0 = x[:m]
    D = np.abs(c0[:, None] - c0[None, :])
    for k in range(1, dim):
        ck = x[k * lag : k * lag + m]
        np.maximum(D, np.abs(ck[:, None] - ck[None, :]), out=D)
    m2 = m - lag
    cn = x[dim * lag : dim * lag + m2]
    D2 = np.maximum(D[:m2, :m2], np.abs(cn[:, None] - cn[None, :]))
    return D, D2


def approx_entropy(ts_scaled: np.ndarray, embed_dim: int = 2, embed_lag_: int = 1,
                   threshold: float = 0.2, cap: int = 256) -> float:
    """ApEn (reference info_theory.py:764-837); chebyshev metric, O(m^2)
    — input capped, distance matrices shared between the two dims."""
    s = ts_scaled[-cap:] if ts_scaled.size > cap else ts_scaled
    D, D2 = _cheb_dists_two_dims(s, embed_dim, embed_lag_)

    def phi(d: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            return float(np.mean(np.log(np.mean(d < threshold, axis=1))))

    return phi(D) - phi(D2)


def sample_entropy(ts_scaled: np.ndarray, embed_dim: int = 2, embed_lag_: int = 1,
                   threshold: float = 0.2, cap: int = 256) -> float:
    """SampEn (reference info_theory.py:840-914): log ratio of pair counts
    below threshold at dims m, m+1 (pdist: i<j pairs, self excluded)."""
    s = ts_scaled[-cap:] if ts_scaled.size > cap else ts_scaled
    D, D2 = _cheb_dists_two_dims(s, embed_dim, embed_lag_)

    def log_pairs(d: np.ndarray) -> float:
        iu = np.triu_indices(d.shape[0], k=1)
        cnt = int((d[iu] < threshold).sum())
        with np.errstate(divide="ignore"):
            return float(np.log(cnt))

    return log_pairs(D) - log_pairs(D2)


register(FeatureKernel(
    "approx_entropy", "info_theory",
    lambda c: approx_entropy(c.ts_scaled),
    cost="heavy", ref="info_theory.py:764-837",
))
register(FeatureKernel(
    "sample_entropy", "info_theory",
    lambda c: sample_entropy(c.ts_scaled),
    cost="heavy", ref="info_theory.py:840-914",
))
register(FeatureKernel(
    "control_entropy", "info_theory",
    lambda c: sample_entropy(_st.standardize_ts(np.diff(c.ts))),
    cost="heavy",
    ref="info_theory.py:917 (SampEn of diff(ts), re-standardized)",
))


def _surprise(c: SeriesCtx, num_bins: int = 10, memory_size: float = 0.1,
              num_it: int = 128, method: str = "distribution",
              diff_order: int = 1, epsilon: float = 1e-8) -> np.ndarray:
    """-log P(value | recent memory) at sampled reference points
    (reference info_theory.py:991-1166), doc_id-seeded sampling.

    Faithful to the reference tail: operates on diff(ts, diff_order),
    discretizes EQUIPROBABLE, zeroes probs below epsilon to 1.0 (so an
    unseen value contributes surprise 0 — reference quirk kept), and the
    probs array keeps its num_it length even when fewer reference indices
    exist (trailing zeros -> 1.0 -> 0 surprise)."""
    ts = c.ts
    mem = int(np.ceil(ts.size * memory_size)) if 0 < memory_size < 1 else int(memory_size)
    ts_diff = np.diff(ts, n=diff_order)
    ts_bin = _discretize(ts_diff, num_bins, strategy="equiprobable")
    max_ind = ts_diff.size
    if max_ind - mem > num_it:
        ref_inds = mem + c.rng.choice(max_ind - mem, size=num_it, replace=False)
    else:
        ref_inds = np.arange(mem, max_ind)
    probs = np.zeros(num_it)
    for k, ri in enumerate(ref_inds):
        window = ts_bin[ri - mem : ri]
        if method == "distribution":
            probs[k] = np.mean(window == ts_bin[ri])
        else:  # 1-transition
            prev = window[-1]
            mask = window[:-1] == prev
            probs[k] = np.mean(window[1:][mask] == ts_bin[ri]) if mask.any() else 0.0
    probs[probs < epsilon] = 1.0
    return -np.log(probs)


register(FeatureKernel("surprise", "info_theory", _surprise, returns_array=True,
                       cost="medium", ref="info_theory.py:991-1166"))


def _lz_complexity(c: SeriesCtx, num_bins: int = 10, normalize: bool = True) -> float:
    # bin indices are 0..num_bins (< 256), so the byte string preserves
    # substring identity exactly while hashing ~10x cheaper than tuples
    ts_bin = _discretize(c.ts, num_bins).astype(np.uint8).tobytes()
    n = len(ts_bin)
    # LZ78 phrase parse as a trie walk (one dict lookup per symbol).
    # Equivalent to the reference's growing-substring set scan
    # (info_theory.py:1169-1232): every phrase is a previously seen
    # phrase plus one symbol, so the set's members are exactly the trie's
    # nodes and "window in set" == "walk stays on the trie"
    # (randomized-equivalence-tested in test_kernels.py).
    root: dict = {}
    node = root
    lz = 0
    for b in ts_bin:
        child = node.get(b)
        if child is None:
            node[b] = {}
            lz += 1
            node = root
        else:
            node = child
    if normalize:
        lz *= np.log(n) / (n * np.log(num_bins))
    return float(lz)


register(FeatureKernel("lz_complexity", "info_theory", _lz_complexity,
                       ref="info_theory.py:1169-1232"))
