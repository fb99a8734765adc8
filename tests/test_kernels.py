"""Kernel conformance: reference semantics (tspymfe cannot run in this
environment — scipy/statsmodels/sklearn absent — so conformance is against
hand-derived closed forms and the documented reference definitions, cited
per test)."""

import numpy as np
import pytest

import ts_pymfe_ray.features  # populate registry
from ts_pymfe_ray.functions import stats as _st
from ts_pymfe_ray.functions.gapfill import gap_fill
from ts_pymfe_ray.registry import REGISTRY, SeriesCtx, kernels_of, evaluate_row


@pytest.fixture(scope="module")
def seasonal_ctx():
    rng = np.random.default_rng(7)
    t = np.arange(700)
    y = 3 * np.sin(2 * np.pi * t / 24) + 0.01 * t + rng.normal(0, 0.5, 700)
    return SeriesCtx(y, "doc-web-00000001")


def test_acf_matches_direct_estimator():
    # statsmodels acf(adjusted=True): acov[k]=sum/(n-k); acf=acov/acov[0]
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    a = _st.acf(x, nlags=5)
    mu = x.mean()
    n = x.size
    acov0 = ((x - mu) ** 2).sum() / n
    for k in range(1, 6):
        acovk = ((x[:-k] - mu) * (x[k:] - mu)).sum() / (n - k)
        assert np.isclose(a[k - 1], acovk / acov0), k


def test_pacf_ar1():
    rng = np.random.default_rng(1)
    n = 5000
    x = np.zeros(n)
    e = rng.normal(size=n)
    for i in range(1, n):
        x[i] = 0.6 * x[i - 1] + e[i]
    p = _st.pacf_ols(x, nlags=5)
    assert abs(p[0] - 0.6) < 0.05
    assert np.all(np.abs(p[1:]) < 0.06)


def test_skew_kurt_e1071_method3():
    # _summary.py:149-273: method-3 = bias-True scipy value * correction
    rng = np.random.default_rng(2)
    x = rng.gamma(2.0, size=500)
    n = x.size
    mu = x.mean()
    m2 = ((x - mu) ** 2).mean()
    m3 = ((x - mu) ** 3).mean()
    m4 = ((x - mu) ** 4).mean()
    assert np.isclose(_st.skewness(x), (m3 / m2**1.5) * ((n - 1) / n) ** 1.5)
    assert np.isclose(_st.kurtosis(x), (m4 / m2**2) * (1 - 1 / n) ** 2 - 3)


def test_trim_mean():
    x = np.arange(100.0)
    # floor(0.02*100)=2 cut each side -> mean of 2..97
    assert np.isclose(_st.trim_mean(x, 0.02), np.arange(2, 98).mean())


def test_trend_season_strength_bounds(seasonal_ctx):
    ts_val = REGISTRY["trend_strenght"].fn(seasonal_ctx)
    ss_val = REGISTRY["season_strenght"].fn(seasonal_ctx)
    assert 0.0 <= ts_val <= 1.0 and 0.0 <= ss_val <= 1.0
    # strongly seasonal + trending series
    assert ts_val > 0.8 and ss_val > 0.8


def test_length_uses_full_series():
    x = np.arange(2000.0)
    ctx = SeriesCtx(x, "d")  # cap=512 applies to analysis, not length
    assert REGISTRY["length"].fn(ctx) == 2000.0


def test_step_changes_matches_reference_loop():
    # direct port of the reference's O(n^2) loop (general.py:461-506)
    rng = np.random.default_rng(5)
    ts = rng.normal(size=150)
    ts[70:] += 8
    cmeans = np.cumsum(ts) / np.arange(1, ts.size + 1)
    div = np.abs(ts[1:] - cmeans[:-1])
    expect = np.array(
        [int(div[i - 1] > 2 * np.std(ts[:i], ddof=1)) for i in np.arange(2, ts.size)],
        dtype=float,
    )
    from ts_pymfe_ray.functions.kernels_general import _step_changes

    np.testing.assert_allclose(_step_changes(ts), expect)


def test_spikiness_matches_loo_loop():
    rng = np.random.default_rng(6)
    r = rng.normal(size=80)
    expect = np.array([np.var(np.delete(r, i), ddof=1) for i in range(r.size)])
    ctx = SeriesCtx(r, "d")
    ctx._cache["components"] = (np.zeros(80), np.zeros(80), r)
    from ts_pymfe_ray.functions.kernels_global import _spikiness

    np.testing.assert_allclose(_spikiness(ctx), expect, rtol=1e-9)


def test_walker_matches_sequential_loop():
    rng = np.random.default_rng(8)
    s = rng.normal(size=700)
    from ts_pymfe_ray.functions.kernels_general import _walker

    w = _walker(s, 0.1)
    expect = np.zeros(s.size)
    for i in range(1, s.size):
        expect[i] = expect[i - 1] + 0.1 * (s[i - 1] - expect[i - 1])
    np.testing.assert_allclose(w, expect, rtol=1e-8, atol=1e-10)


def test_gap_fill_policies():
    t = np.array([-1, -1, 4, -1, -1, -1, 8, 5, -1], dtype=np.int32)
    g = gap_fill(t)
    np.testing.assert_allclose(g, [4, 4, 4, 5, 6, 7, 8, 5, 5])
    assert gap_fill(np.array([-1, -1], dtype=np.int32)).tolist() == [0.0, 0.0]
    assert gap_fill(np.array([3, 7], dtype=np.int32)).dtype == np.float64


def test_gap_fill_flat_bitwise_equal_per_row():
    """gap_fill_flat over a flat buffer equals per-row gap_fill bitwise:
    gaps at row starts and ends, a row ending in a gap right before one
    starting with a gap, an all-gap row, empty, 1- and 2-token rows, a
    gap-free row, values at both int32 extremes, a dirty output buffer
    and offsets that start inside the buffer."""
    from ts_pymfe_ray.functions.gapfill import gap_fill_flat

    rng = np.random.default_rng(13)
    rows = [
        [-1, -1, 5, 9, 12], [3, 4, 8, -1, -1, -1], [-1, -1, 7, -1, 2],
        [-1] * 70, [], [17], [-1], [-1, 40000], [6, -1], [9, 9, 9],
        [2**31 - 1, -1, -1, -2**31 + 1, -1], list(range(300)),
    ]
    rows += [list(np.where(rng.random(n) < 0.3, -1, rng.integers(0, 65536, n)))
             for n in rng.integers(0, 50, 200)]
    toks = [np.array(r, dtype=np.int32) for r in rows]
    flat = np.concatenate([np.full(3, 99, np.int32), *toks, np.full(2, -1, np.int32)])
    off = 3 + np.concatenate([[0], np.cumsum([t.size for t in toks])])
    out = np.full(flat.size, 1e300)
    got = gap_fill_flat(flat, off, out)
    assert got.tobytes() == np.concatenate([gap_fill(t) for t in toks]).tobytes()
    assert np.shares_memory(got, out)
    assert gap_fill_flat(flat, off[:1], out).size == 0


def test_all_registered_kernels_run_clean(seasonal_ctx):
    ks = kernels_of()
    out = evaluate_row(seasonal_ctx.ts_all, "doc-web-00000001", ks)
    # NaNs that are CORRECT reference semantics on this series:
    # - gmean of z-scored windows (negatives -> NaN, like scipy.stats.gmean)
    # - avg_cycle_period when the AR(2) fit has no complex roots
    allowed = {
        "moving_gmean.mean", "moving_gmean.sd",
        "moving_gmean_shift.mean", "moving_gmean_shift.sd",
        "avg_cycle_period",
    }
    bad = [k for k, v in out.items() if not np.isfinite(v) and k not in allowed]
    assert bad == [], f"kernels returned NaN on a benign series: {bad}"
    assert len(out) >= 230  # 149 kernels -> wide summarized schema


def test_nan_on_error_policy():
    # degenerate constant series must not raise — NaN per feature instead
    out = evaluate_row(np.full(50, 3.0), "doc-x", kernels_of())
    assert len(out) > 0
    assert all(isinstance(v, float) for v in out.values())


def test_ljung_box_pvalues():
    from ts_pymfe_ray.functions.kernels_autocorr import ljung_box_pvals

    rng = np.random.default_rng(11)
    white = rng.normal(size=1000)
    p = ljung_box_pvals(white, 8)
    assert p.size == 8 and np.all((p >= 0) & (p <= 1))
    assert p.mean() > 0.1  # white noise: no autocorrelation
    ar = np.zeros(1000)
    e = rng.normal(size=1000)
    for i in range(1, 1000):
        ar[i] = 0.8 * ar[i - 1] + e[i]
    p_ar = ljung_box_pvals(ar, 8)
    assert np.all(p_ar < 1e-6)  # strong autocorrelation rejected


def test_golden_feature_values_stable():
    """Regression net across refactors/rounds: cheap+medium kernel values on
    six deterministic synthetic rows must match the recorded goldens.
    Regenerate tests/golden_features.json deliberately when semantics
    change (document why in the commit)."""
    import json
    import os

    from ts_pymfe_ray.functions.gapfill import gap_fill
    from ts_pymfe_ray.synth import make_row_tokens

    path = os.path.join(os.path.dirname(__file__), "golden_features.json")
    with open(path) as f:
        golden = json.load(f)
    ks = kernels_of(max_cost="medium")
    for doc_id, expect in golden.items():
        x = gap_fill(make_row_tokens(doc_id))
        out = evaluate_row(x, doc_id, ks)
        for name, gval in expect.items():
            v = out[name]
            if gval is None:
                assert not np.isfinite(v), f"{doc_id}/{name}: expected NaN got {v}"
            else:
                assert np.isclose(v, gval, rtol=1e-7, atol=1e-9), (
                    f"{doc_id}/{name}: {v} != golden {gval}"
                )


def test_conformance_map_covers_full_registry():
    """The conformance tool maps EVERY registry kernel to its reference
    twin with a tolerance class, and the engine side of the map runs
    cleanly in-container (the reference side needs scipy and SKIPs here)."""
    import os
    import subprocess
    import sys

    res = subprocess.run(
        [sys.executable, "tools/conformance_vs_reference.py", "--engine-only", "2"],
        capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "mapped kernels: 149" in res.stdout
    assert "0 failures" in res.stdout


def test_golden_heavy_feature_values_stable():
    """Regression net for the 41 heavy-only kernels (optimizer-backed
    landmarking/model fits, simulated-null stat tests, GP kernels) — the
    group with no reference cross-check in this container.  Values on two
    deterministic synthetic rows must match the recorded goldens
    (tests/golden_heavy.json); regenerate deliberately when semantics
    change."""
    import json
    import os

    from ts_pymfe_ray.functions.gapfill import gap_fill
    from ts_pymfe_ray.synth import make_row_tokens

    path = os.path.join(os.path.dirname(__file__), "golden_heavy.json")
    with open(path) as f:
        golden = json.load(f)
    all_k = kernels_of(max_cost="heavy")
    med = {k.name for k in kernels_of(max_cost="medium")}
    heavy = [k for k in all_k if k.name not in med]
    for doc_id, expect in golden.items():
        x = gap_fill(make_row_tokens(doc_id))
        out = evaluate_row(x[:512], doc_id, heavy)
        for name, gval in expect.items():
            v = out[name]
            if gval is None:
                assert not np.isfinite(v), f"{doc_id}/{name}: expected NaN got {v}"
            else:
                assert np.isclose(v, gval, rtol=1e-7, atol=1e-9), (
                    f"{doc_id}/{name}: {v} != golden {gval}"
                )


def test_quantiles_and_edges_bitwise_vs_numpy():
    """quantiles_part / hist_edges replicate np.quantile / np.histogram
    edges bitwise (partition + numpy's exact _lerp and linspace
    arithmetic) — the feature goldens and oracle hashes pin the numpy
    values, so the fast paths must never drift an ulp."""
    from ts_pymfe_ray.functions.stats import hist_edges, quantile2, quantiles_part

    rng = np.random.default_rng(11)
    for trial in range(400):
        n = int(rng.integers(1, 600))
        kind = trial % 6
        x = rng.normal(0, 10.0 ** float(rng.integers(-8, 9)), size=n)
        if kind == 1:
            x = np.round(x, 1)  # heavy ties
        elif kind == 2:
            x = np.full(n, float(rng.normal()))  # constant
        elif kind == 3:
            x = np.sort(x)
        elif kind == 4:
            x = x * 1e-300  # denormal-range spacing
        elif kind == 5:
            x = rng.integers(-5, 5, size=n).astype(np.float64)
        qs = (0.0, 0.05, 0.25, 0.5, 0.8, 0.95, 1.0)
        ref = np.quantile(x, qs)
        got = quantiles_part(x, qs)
        assert all(r == g for r, g in zip(ref, got)), (n, kind)
        lo, hi = quantile2(x, 0.05, 0.95)
        r2 = np.quantile(x, (0.05, 0.95))
        assert lo == r2[0] and hi == r2[1]
        for nb in (7, 10):
            assert np.array_equal(np.histogram(x, nb)[1], hist_edges(x, nb))
    # NaN propagation matches numpy
    xn = np.array([1.0, np.nan, 3.0])
    assert np.isnan(quantiles_part(xn, (0.5,))[0]) == np.isnan(np.quantile(xn, 0.5))

    # median_part == np.median bitwise (odd/even/tied/constant)
    from ts_pymfe_ray.functions.stats import median_part

    for trial in range(200):
        n = int(rng.integers(1, 100))
        x = np.round(rng.normal(0, 5, size=n), rng.integers(0, 3))
        assert median_part(x) == np.median(x), (n, trial)


def test_lz78_trie_equals_substring_scan():
    """The LZ76/78 trie walk in lz_complexity counts exactly the phrases
    the reference's growing-substring set scan counts
    (info_theory.py:1169-1232) — randomized over alphabet sizes and
    lengths including degenerate constant strings."""
    from ts_pymfe_ray.functions.kernels_info import _lz_complexity
    from ts_pymfe_ray.registry import SeriesCtx

    def scan_count(ts_bin: bytes) -> int:
        ind_start, ind_end, subs = 0, 1, set()
        while ind_end <= len(ts_bin):
            sub = ts_bin[ind_start:ind_end]
            if sub not in subs:
                subs.add(sub)
                ind_start = ind_end
            ind_end += 1
        return len(subs)

    from ts_pymfe_ray.functions.kernels_general import _discretize

    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(5, 600))
        ts = rng.normal(size=n) if trial % 3 else np.repeat(rng.normal(), n)
        c = SeriesCtx(ts)
        got = _lz_complexity(c, normalize=False)
        want = scan_count(_discretize(c.ts, 10).astype(np.uint8).tobytes())
        assert got == float(want), (trial, n, got, want)


def test_stacked_precompute_bitwise_parity():
    """The batch precomputes preseed_stacked seeds into every SeriesCtx
    (z-scores, first differences, the ragged SuperSmoother trend) are
    bitwise-identical to the lazy per-row computation — batching must
    never change a single ulp (the goldens pin the lazy values)."""
    from ts_pymfe_ray.functions import decompose as dec
    from ts_pymfe_ray.registry import SeriesCtx, kernels_of
    from ts_pymfe_ray.stages.features import preseed_stacked

    rng = np.random.default_rng(17)
    # ragged (mixed-length padded stack with per-row window sizes) ==
    # per-row SuperSmoother, bitwise, plus the n<5 mean-fill edge
    rows = [rng.normal(0, 3, size=n) for n in
            (0, 1, 2, 3, 4, 5, 6, 17, 64, 100, 101, 233, 511, 512, 512, 37)]
    rows[13] = np.full(512, 2.5)  # constant row (var<=1e-12 branch)
    for o, y in zip(dec.supersmoother_ragged(rows), rows):
        assert np.array_equal(o, dec.supersmoother(y))

    ctxs = [SeriesCtx(y, doc_id=f"s{i}") for i, y in enumerate(rows)]
    preseed_stacked(ctxs, kernels_of(max_cost="cheap"))
    for c, y in zip(ctxs, rows):
        lazy = SeriesCtx(y, doc_id=c.doc_id)
        for key in ("ts_scaled", "ts_diff", "ssmoother_trend", "ts_detrended_ss"):
            got, want = getattr(c, key), getattr(lazy, key)
            assert got.shape == want.shape and np.array_equal(
                got.view(np.int64), want.view(np.int64)), (y.size, key)


def test_resample_vectorized_paths_match_per_row():
    """resample_std's axis-reduction and _resample_acf_stat's vectorized
    crit-point scan must equal their per-row twins bitwise on the same
    windows (np.std axis== per-row np.std; elementwise comparisons make
    first-hit indices identical)."""
    import numpy as np

    from ts_pymfe_ray.functions.kernels_general import _find_crit_pt
    from ts_pymfe_ray.functions import stats as _st

    rng = np.random.default_rng(11)
    W = rng.standard_normal((64, 51)) * 37 + 5
    assert np.array_equal(
        np.std(W, axis=1, ddof=1),
        np.array([np.std(w, ddof=1) for w in W]),
    )
    A = _st.acf_stack(W, nlags=25)
    L = A.shape[1]
    d1 = np.diff(A, axis=1)
    crit = np.zeros((64, L), dtype=bool)
    crit[:, 1:-1] = (d1[:, 1:] * d1[:, :-1] < 0) & (np.diff(d1, axis=1) > 0)
    for k in range(64):
        pts = np.flatnonzero(_find_crit_pt(A[k], "min"))
        got = np.flatnonzero(crit[k])
        assert np.array_equal(pts, got)
        nonpos = np.flatnonzero(A[k] <= 0)
        mask = A[k] <= 0
        first = np.argmax(mask) if mask.any() else None
        assert (first is None) == (nonpos.size == 0)
        if first is not None:
            assert first == nonpos[0]


def test_ioe_fast_matches_generic_loop():
    """ioe_stats_fast vs the generic calc_ioe_stats scan: tdelta-mean must
    be bitwise (integer telescoping), the std flavor within 1e-10."""
    import numpy as np

    from ts_pymfe_ray.functions.kernels_global import (
        calc_ioe_stats, ioe_stats_fast,
    )

    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(30, 600))
        s = rng.standard_normal(n) * rng.uniform(0.5, 20)
        if trial % 5 == 0:
            s[rng.integers(0, n, 5)] *= 50  # heavy outliers
        a = calc_ioe_stats(s, np.mean, differentiate=True)
        b = ioe_stats_fast(s, "tdelta_mean")
        assert np.array_equal(a, b), trial
        a2 = calc_ioe_stats(s, lambda x: np.std(x, ddof=1) / np.sqrt(x.size))
        b2 = ioe_stats_fast(s, "std_adj")
        assert a2.shape == b2.shape, trial
        assert np.allclose(a2, b2, rtol=0, atol=1e-10, equal_nan=True), trial


def test_cheb_nn_incremental_matches_broadcast():
    """cheb_nn_curves (incremental max distance matrix) must equal the
    per-dim (m, m, d) broadcast nn_inds_dists path bitwise — Chebyshev is
    a max over coordinates, so the incremental update is exact."""
    import numpy as np

    from ts_pymfe_ray.functions.embed import (
        cheb_nn_curves, embed_ts, nn_inds_dists,
    )

    rng = np.random.default_rng(31)
    for n, lag in ((64, 1), (120, 3), (40, 7), (256, 2)):
        s = rng.standard_normal(n)
        s[rng.integers(0, n, 3)] = s[0]  # force some exact-duplicate points
        got = {ind: (nn, dc, nd) for ind, nn, dc, nd in cheb_nn_curves(s, lag, 16)}
        for ind, dim in enumerate(range(1, 17)):
            try:
                emb_next = embed_ts(s, dim=dim + 1, lag=lag)
            except ValueError:
                assert ind not in got
                continue
            nn, dist_cur = nn_inds_dists(emb_next[:, 1:])
            nxt = np.abs(emb_next[:, 0] - emb_next[nn, 0])
            g_nn, g_dc, g_nd = got[ind]
            assert np.array_equal(nn, g_nn), (n, lag, dim)
            assert np.array_equal(dist_cur, g_dc), (n, lag, dim)
            assert np.array_equal(nxt, g_nd), (n, lag, dim)
