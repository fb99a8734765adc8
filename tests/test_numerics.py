"""Deeper numeric conformance for reimplemented kernels (no scipy etc.
available — checks are against independent manual computations)."""

import numpy as np
import pytest

from ts_pymfe_ray.functions.kernels_freq import periodogram
from ts_pymfe_ray.functions.kernels_randomize import iaaft
from ts_pymfe_ray.functions import models as m
from ts_pymfe_ray.functions import cv as _cv
from ts_pymfe_ray.functions.special import (
    betainc, chi2_sf, gammainc_lower, norm_cdf, norm_cdf_vec,
)


def test_periodogram_parseval_and_peak():
    """One-sided 'spectrum' scaling: sum of PS ~= variance of windowed
    signal scaled by window power; peak lands at the driving frequency."""
    n = 512
    t = np.arange(n)
    f0 = 32 / n  # exactly on a DFT bin
    x = np.sin(2 * np.pi * f0 * t)
    freqs, ps = periodogram(x, window="hamming")
    assert freqs[np.argmax(ps)] == pytest.approx(f0)
    # the peak of a pure sinusoid in 'spectrum' scaling approximates A^2/4*2
    assert ps.max() == pytest.approx(0.5, rel=0.05)


def test_periodogram_dc_not_doubled():
    x = np.ones(64)  # pure DC
    _, ps = periodogram(x)
    # DC is not doubled under one-sided scaling
    assert ps[0] == pytest.approx(1.0, rel=1e-9)
    # the periodic Hamming window leaks DC into bin 1 by exactly
    # 2 * (0.23 / 0.54)^2 (its -0.46*cos term); everything else is zero
    assert ps[1] == pytest.approx(2 * (0.23 / 0.54) ** 2, rel=1e-9)
    assert np.all(ps[2:] < 1e-20)


def test_iaaft_preserves_distribution_and_spectrum():
    rng = np.random.Generator(np.random.PCG64(5))
    x = np.cumsum(rng.normal(size=256))
    sur = iaaft(x, rng)
    # exact amplitude distribution (rank shuffle of original values)
    np.testing.assert_allclose(np.sort(sur), np.sort(x))
    # approximate amplitude spectrum
    a0 = np.abs(np.fft.rfft(x))
    a1 = np.abs(np.fft.rfft(sur))
    rel = np.linalg.norm(a0 - a1) / np.linalg.norm(a0)
    assert rel < 0.15


def test_arima_ar_fast_path_equals_ols():
    rng = np.random.Generator(np.random.PCG64(9))
    n = 400
    x = np.zeros(n)
    e = rng.normal(size=n)
    for i in range(1, n):
        x[i] = 1.0 + 0.55 * x[i - 1] + e[i]
    mod = m.TSArima((1, 0, 0), const=True)
    mod.fit_series(x)
    c, phi = mod.params
    assert phi == pytest.approx(0.55, abs=0.08)
    assert c / (1 - phi) == pytest.approx(x.mean(), rel=0.15)
    # forecast converges toward the process mean
    fc = mod.forecast(200)
    assert fc[-1] == pytest.approx(c / (1 - phi), rel=0.05)


def test_holt_tracks_linear_trend():
    y = 0.5 * np.arange(120.0) + 3.0
    h = m.TSHolt()
    h.fit_series(y)
    fc = h.forecast(5)
    expect = 0.5 * (np.arange(120, 125)) + 3.0
    np.testing.assert_allclose(fc, expect, rtol=0.05)


def test_holt_winters_additive_recovers_season():
    rng = np.random.Generator(np.random.PCG64(2))
    t = np.arange(240)
    y = 10 + 0.05 * t + 3 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 0.2, 240)
    hw = m.TSHoltWinters(period=12, seasonal="add")
    hw.fit_series(y)
    fc = hw.forecast(12)
    expect = 10 + 0.05 * (np.arange(240, 252)) + 3 * np.sin(2 * np.pi * np.arange(240, 252) / 12)
    assert np.corrcoef(fc, expect)[0, 1] > 0.95


def test_time_series_splits_match_sklearn_semantics():
    # sklearn TimeSeriesSplit(n_splits=5) on n=100: test size 16,
    # first train = 100 - 5*16 = 20
    splits = list(_cv.time_series_splits(100, 5))
    assert len(splits) == 5
    tr0, te0 = splits[0]
    assert tr0.size == 20 and te0.size == 16
    tr4, te4 = splits[-1]
    assert te4[-1] == 99 and tr4.size == 84
    # folds are contiguous and expanding
    for (tr_a, te_a), (tr_b, te_b) in zip(splits, splits[1:]):
        assert tr_b.size == tr_a.size + te_a.size
        assert te_b[0] == te_a[-1] + 1


def test_special_functions_known_values():
    # chi2 with 2 dof: sf(x) = exp(-x/2)
    for x in (0.5, 1.0, 3.0, 10.0):
        assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2), rel=1e-9)
    # gamma P(1, x) = 1 - e^-x
    assert gammainc_lower(1.0, 2.0) == pytest.approx(1 - np.exp(-2.0), rel=1e-10)
    # normal cdf symmetry + known point
    assert norm_cdf(0.0) == pytest.approx(0.5)
    assert norm_cdf(1.959963985) == pytest.approx(0.975, abs=1e-6)
    # vectorized CDF vs exact erfc within its documented 1.5e-7
    z = np.linspace(-5, 5, 101)
    exact = np.array([norm_cdf(v) for v in z])
    np.testing.assert_allclose(norm_cdf_vec(z), exact, atol=2e-7)
    # beta regularized at symmetric point
    assert betainc(2.0, 2.0, 0.5) == pytest.approx(0.5, rel=1e-10)


def test_gp_fits_smooth_function():
    from ts_pymfe_ray.functions.gp import GPModel

    x = np.linspace(0, 1, 80)
    y = np.sin(2 * np.pi * x)
    gp = GPModel(x, y)
    pred = gp.predict(x)
    assert np.max(np.abs(pred - y)) < 0.05


def test_round_ha_matches_duckdb_round():
    """round_ha is the driver-hash primitive: it must equal DuckDB's
    half-away-from-zero ROUND bitwise on arbitrary doubles (np.round is
    half-even and diverges on boundary values)."""
    import duckdb
    from hypothesis import given, settings, strategies as st

    from ts_pymfe_ray.functions.rounding import round_ha

    con = duckdb.connect()

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e9, max_value=1e9),
            # adversarial: values ON the 6dp half boundary
            st.integers(min_value=-10**13, max_value=10**13).map(
                lambda k: k / 2e6),
        ),
        st.sampled_from([6, 2, 0, -2]),
    )
    def check(v, nd):
        got = round_ha(v, nd)
        # bind as a real DOUBLE (the parquet data path): SQL float literals
        # parse through DECIMAL and can constant-fold to a different double
        want = con.execute(f"SELECT ROUND(?, {nd})", [float(v)]).fetchone()[0]
        assert got == want or (np.isnan(got) and want is None), (v, nd, got, want)

    check()
