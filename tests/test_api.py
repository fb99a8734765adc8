"""Facade API + summary registry + conformance corpus tests."""

import csv

import numpy as np
import pytest

from ts_pymfe_ray.api import TSMFE, VALID_GROUPS
from ts_pymfe_ray.functions.summary import SUMMARY_METHODS, apply_summary

CORPUS = "/root/reference/data/comp-engine-export-sample.20200503.csv"


def load_corpus_series(ind: int, max_obs: int = 512) -> np.ndarray:
    """The reference's own loader semantics (test_a.py:27-38): one row,
    comma-joined datapoints, keep the last 512 observations."""
    with open(CORPUS) as f:
        reader = csv.reader(f)
        next(reader)
        for i, row in enumerate(reader):
            if i == ind:
                vals = np.asarray(row[-1].split(","), dtype=np.float64)
                return vals[-max_obs:]
    raise IndexError(ind)


def test_summary_registry_complete():
    expected = {
        "mean", "nanmean", "sd", "nansd", "var", "nanvar", "count",
        "nancount", "histogram", "nanhistogram", "iq_range", "naniq_range",
        "kurtosis", "nankurtosis", "max", "nanmax", "median", "nanmedian",
        "min", "nanmin", "quantiles", "nanquantiles", "range", "nanrange",
        "skewness", "nanskewness", "sum", "nansum", "powersum", "pnorm",
        "nanpowersum", "nanpnorm",
    }
    assert set(SUMMARY_METHODS) == expected  # _summary.py:450-485 (32)


def test_summary_values():
    v = np.array([1.0, 2.0, 3.0, np.nan])
    assert apply_summary("nanmean", v)["nanmean"] == 2.0
    assert np.isnan(apply_summary("mean", v)["mean"]) or apply_summary("mean", v)["mean"] != 2.0
    q = apply_summary("nanquantiles", v)
    assert q["nanquantiles.0"] == 1.0 and q["nanquantiles.4"] == 3.0
    h = apply_summary("nanhistogram", np.arange(100.0))
    assert abs(sum(h.values()) - 1.0) < 1e-12  # normalized frequencies
    assert apply_summary("pnorm", np.array([3.0, 4.0]))["pnorm"] == 5.0
    assert apply_summary("powersum", np.array([3.0, 4.0]))["powersum"] == 25.0


def test_tsmfe_facade_basic():
    rng = np.random.default_rng(0)
    ts = 3 * np.sin(2 * np.pi * np.arange(300) / 12) + rng.normal(0, 0.3, 300)
    model = TSMFE(groups=("general", "global_stats"), max_cost="medium")
    names, vals = model.fit(ts).extract()
    assert names == sorted(names)  # name-sorted like reference tsmfe.py:941-947
    assert len(names) == len(vals) > 30
    d = dict(zip(names, vals))
    assert d["length"] == 300.0
    assert 0 <= d["trend_strenght"] <= 1


def test_tsmfe_unfitted_raises():
    with pytest.raises(ValueError):
        TSMFE(groups=("general",)).extract()
    with pytest.raises(ValueError):
        TSMFE(groups=("nope",))
    # unknown summary, measure_time mode or cost tier fail at construction
    with pytest.raises(ValueError):
        TSMFE(groups=("general",), summary=("mean", "nope"))
    with pytest.raises(ValueError):
        TSMFE(groups=("general",), measure_time="sometimes")
    with pytest.raises(ValueError):
        TSMFE(groups=("general",), max_cost="free")
    for mode in ("avg", "avg_summ", "total", "total_summ"):
        TSMFE(groups=("general",), measure_time=mode, max_cost="cheap")


def test_tsmfe_measure_time_and_custom_summary():
    ts = np.random.default_rng(1).normal(size=200)
    m = TSMFE(groups=("general",), summary=("mean", "sd", "quantiles"),
              measure_time="total", max_cost="cheap")
    names, vals, times = m.fit(ts).extract()
    assert len(times) == len(vals)
    assert any(n.endswith("quantiles.2") for n in names)


def test_tsmfe_deterministic_across_calls():
    ts = np.random.default_rng(2).normal(size=256).cumsum()
    m1 = TSMFE(groups=("randomize",), random_state=7, max_cost="medium")
    m2 = TSMFE(groups=("randomize",), random_state=7, max_cost="medium")
    n1, v1 = m1.fit(ts).extract()
    n2, v2 = m2.fit(ts).extract()
    assert n1 == n2
    np.testing.assert_allclose(v1, v2, equal_nan=True)


def test_extract_with_confidence_shapes():
    ts = np.random.default_rng(3).normal(size=128)
    m = TSMFE(groups=("general",), max_cost="cheap", random_state=1)
    names, vals, intervals = m.fit(ts).extract_with_confidence(sample_num=8)
    assert intervals.shape == (len(names), 2)
    ok = np.isfinite(intervals).all(axis=1)
    assert (intervals[ok, 0] <= intervals[ok, 1] + 1e-12).all()


@pytest.mark.parametrize("ind", [0, 5, 12, 19])
def test_conformance_corpus_runs_clean(ind):
    """FIXTURES.md §2: the reference's own 20 comp-engine series.  tspymfe
    itself cannot run here (scipy/statsmodels absent), so the conformance
    claim is: every kernel produces a finite or reference-sanctioned-NaN
    value on the reference's own inputs, and core invariants hold."""
    ts = load_corpus_series(ind)
    assert ts.size == 512
    model = TSMFE(max_cost="medium")
    names, vals = model.fit(ts).extract()
    d = dict(zip(names, vals))
    assert d["length"] == 512.0
    assert 0 <= d["trend_strenght"] <= 1
    assert 0 <= d["season_strenght"] <= 1
    assert 1 <= d["period"] <= 256
    # non-NaN coverage: grand majority of features compute
    finite = np.isfinite(list(d.values())).mean()
    assert finite > 0.85, f"only {finite:.0%} finite on corpus series {ind}"
    # z-scored stats invariants on corpus data
    assert abs(d["moving_avg.mean"]) < 1.0  # mean of z-scored rolling means


def test_user_extension_surface():
    """SURVEY.md §2.13: registering a FeatureKernel is the engine's
    equivalent of adding an ft_ classmethod — it must flow through the
    facade and the map_batches stage with no other wiring."""
    import numpy as np

    from ts_pymfe_ray.registry import REGISTRY, FeatureKernel, register

    name = "zz_custom_abs_mean"
    try:
        register(FeatureKernel(
            name, "general",
            lambda c: float(np.abs(c.ts).mean()),
            ref="user extension example",
        ))
        ts = np.array([-2.0, 2.0, -2.0, 2.0] * 50)
        m = TSMFE(groups=("general",), max_cost="cheap")
        names, vals = m.fit(ts).extract()
        d = dict(zip(names, vals))
        assert d[name] == 2.0
    finally:
        REGISTRY.pop(name, None)


def test_rescale_and_parse_by_group():
    ts = np.random.default_rng(4).normal(5.0, 2.0, size=200)
    m = TSMFE(groups=("global_stats",), max_cost="cheap", enable_parallel=True)
    names, vals = m.fit(ts, rescale="min-max").extract()
    d = dict(zip(names, vals))
    # min-max scaled: trimmed mean within [0, 1] (t_mean is global_stats)
    assert 0.0 <= d["t_mean"] <= 1.0
    with pytest.raises(ValueError):
        m.fit(ts, rescale="nope")
    groups = TSMFE.parse_by_group()
    assert set(groups) == set(VALID_GROUPS)
    assert sum(len(v) for v in groups.values()) == 149


def test_postprocessor_hook():
    from ts_pymfe_ray.registry import POSTPROCESSORS, register_postprocessor

    def add_ratio(out, ctx):
        if "sd_diff" in out and "t_mean" in out and out["t_mean"]:
            out["zz_post_ratio"] = out["sd_diff"] / out["t_mean"]

    register_postprocessor(add_ratio)
    try:
        from ts_pymfe_ray.registry import evaluate_row, kernels_of

        ts = np.abs(np.random.default_rng(6).normal(5, 1, 200))
        out = evaluate_row(ts, "d", kernels_of(groups=("global_stats",), max_cost="cheap"))
        assert "zz_post_ratio" in out
        assert out["zz_post_ratio"] == pytest.approx(out["sd_diff"] / out["t_mean"])
    finally:
        POSTPROCESSORS.remove(add_ratio)
