"""Reference-compatible single-series facade.

A user of FelSiq/ts-pymfe drives it as::

    model = tspymfe.tsmfe.TSMFE(groups=..., summary=("mean","sd"))
    model.fit(ts)
    names, vals = model.extract()

This module provides the same surface (reference tsmfe.py:44-980) on top of
the engine's static kernel registry — useful for switching existing code
and for conformance tests.  Distribution-scale work goes through the Ray
pipelines (ts_pymfe_ray.pipelines); this facade is per-series and local.

Differences from the reference, by design:
- no reflection: the plan comes from the static registry (SURVEY.md §2.1)
- per-call determinism: stochastic kernels derive their RNG from the
  series content + random_state, never the global numpy seed
  (reference hazard, tsmfe.py:272-274)
- ``extract`` returns name-sorted (names, values[, times]) like the
  reference (tsmfe.py:941-947); errors yield NaN per feature.
"""

from __future__ import annotations

import time as _time
import typing as t

import numpy as np

import ts_pymfe_ray.features  # noqa: F401 — populate the registry
from ts_pymfe_ray.functions.summary import SUMMARY_METHODS, apply_summary
from ts_pymfe_ray.registry import DEFAULT_ANALYSIS_CAP, SeriesCtx, kernels_of

VALID_GROUPS = (
    "general",
    "global_stats",
    "local_stats",
    "autocorr",
    "freq_domain",
    "info_theory",
    "stat_tests",
    "model_based",
    "landmarking",
    "randomize",
)

# reference tsmfe.py:128-165
MEASURE_TIME_MODES = ("avg", "avg_summ", "total", "total_summ")


class TSMFE:
    """Single-series meta-feature extractor, reference-compatible surface."""

    def __init__(
        self,
        groups: t.Union[str, t.Sequence[str]] = "all",
        summary: t.Sequence[str] = ("mean", "sd"),
        measure_time: t.Optional[str] = None,
        random_state: t.Optional[int] = None,
        max_cost: str = "heavy",
        analysis_cap: int = DEFAULT_ANALYSIS_CAP,
        enable_parallel: bool = False,
    ):
        # enable_parallel: accepted for reference-signature compatibility;
        # the reference documents it as unimplemented (tsmfe.py:834-837) and
        # in this engine parallelism lives in the Ray pipelines, not here.
        if isinstance(groups, str):
            groups = VALID_GROUPS if groups == "all" else (groups,)
        unknown = set(groups) - set(VALID_GROUPS)
        if unknown:
            raise ValueError(f"unknown groups: {sorted(unknown)}")
        unknown = set(summary) - set(SUMMARY_METHODS)
        if unknown:
            raise ValueError(f"unknown summary functions: {sorted(unknown)}")
        if measure_time not in (None,) + MEASURE_TIME_MODES:
            raise ValueError(f"unknown measure_time {measure_time!r}; "
                             f"valid: {MEASURE_TIME_MODES}")
        if max_cost not in ("cheap", "medium", "heavy"):
            raise ValueError(f"unknown max_cost {max_cost!r}")
        self.groups = tuple(groups)
        self.summary = tuple(summary)
        self.measure_time = measure_time
        self.random_state = random_state
        self.max_cost = max_cost
        self.analysis_cap = analysis_cap
        self._kernels = kernels_of(self.groups, max_cost=max_cost)
        self._ctx: SeriesCtx | None = None

    def fit(self, ts: np.ndarray, rescale: t.Optional[str] = None) -> "TSMFE":
        """``rescale``: None | "standard" | "min-max" | "robust" — applied to
        the series before extraction (reference _internal.py:156-162,
        1569-1609)."""
        ts = np.asarray(ts, dtype=np.float64).ravel()
        if ts.size == 0:
            raise ValueError("empty time-series")
        if rescale is not None:
            if rescale == "standard":
                sd = ts.std()
                ts = (ts - ts.mean()) / (sd if sd > 0 else 1.0)
            elif rescale == "min-max":
                rng_ = ts.max() - ts.min()
                ts = (ts - ts.min()) / (rng_ if rng_ > 0 else 1.0)
            elif rescale == "robust":
                med = np.median(ts)
                iqr = np.quantile(ts, 0.75) - np.quantile(ts, 0.25)
                ts = (ts - med) / (iqr if iqr > 0 else 1.0)
            else:
                raise ValueError(f"unknown rescale {rescale!r}")
        seed_tag = f"tsmfe:{self.random_state}:{ts.size}"
        self._ctx = SeriesCtx(ts, doc_id=seed_tag, cap=self.analysis_cap)
        return self

    def extract(self) -> tuple:
        if self._ctx is None:
            raise ValueError("fit the model before extracting (reference parity)")
        names: list[str] = []
        vals: list[float] = []
        times: list[float] = []
        # measure_time modes (reference tsmfe.py:128-165): "total" = wall
        # time of the extraction method; "*_summ" adds summarization time;
        # "avg*" divides by the number of output values the feature yields.
        mode = self.measure_time or "total"
        for k in self._kernels:
            t0 = _time.perf_counter()
            try:
                with np.errstate(all="ignore"):
                    out = k.fn(self._ctx)
            except Exception:
                out = np.nan
            dt_extract = _time.perf_counter() - t0
            if k.returns_array:
                arr = out if isinstance(out, np.ndarray) else np.asarray([np.nan])
                t1 = _time.perf_counter()
                summed: list[tuple[str, float]] = []
                for s in self.summary:
                    for suffix, v in apply_summary(s, arr).items():
                        summed.append((f"{k.name}.{suffix}", v))
                dt_summ = _time.perf_counter() - t1
                dt = dt_extract + (dt_summ if mode.endswith("_summ") else 0.0)
                if mode.startswith("avg"):
                    dt /= max(1, len(summed))
                for name, v in summed:
                    names.append(name)
                    vals.append(v)
                    times.append(dt)
            else:
                try:
                    v = float(out)
                except (TypeError, ValueError):
                    v = np.nan
                names.append(k.name)
                vals.append(v)
                times.append(dt_extract)
        order = np.argsort(names)
        names = [names[i] for i in order]
        vals = [vals[i] for i in order]
        times = [times[i] for i in order]
        if self.measure_time:
            return names, vals, times
        return names, vals

    def extract_with_confidence(
        self,
        sample_num: int = 128,
        confidence: float = 0.95,
    ) -> tuple:
        """Bootstrap CIs (reference tsmfe.py:982-1248): resample the series
        with replacement sample_num times, re-extract, per-feature
        quantile intervals."""
        if self._ctx is None:
            raise ValueError("fit the model before extracting")
        ts = self._ctx.ts_all
        rng = np.random.Generator(np.random.PCG64(0 if self.random_state is None else self.random_state))
        base_names, base_vals = self.extract()[:2]
        mat = np.full((len(base_names), sample_num), np.nan)
        for i in range(sample_num):
            resampled = ts[rng.integers(ts.size, size=ts.size)]
            sub = TSMFE(groups=self.groups, summary=self.summary,
                        random_state=(self.random_state or 0) + i,
                        max_cost=self.max_cost, analysis_cap=self.analysis_cap)
            sub.fit(resampled)
            _, vals = sub.extract()[:2]
            mat[:, i] = vals
        lo = (1.0 - confidence) / 2.0
        with np.errstate(all="ignore"):
            intervals = np.nanquantile(mat, (lo, 1.0 - lo), axis=1).T
        return base_names, base_vals, intervals

    # ---- introspection (reference tsmfe.py:1250-1529) -------------------
    @classmethod
    def valid_groups(cls) -> tuple:
        return VALID_GROUPS

    @classmethod
    def valid_summary(cls) -> tuple:
        """All 32 summary reducer names (reference tsmfe.py:1264)."""
        return tuple(sorted(SUMMARY_METHODS))

    @classmethod
    def valid_metafeatures(cls, groups: t.Sequence[str] | None = None) -> tuple:
        return tuple(k.name for k in kernels_of(groups))

    @classmethod
    def parse_by_group(
        cls, groups: t.Sequence[str] | None = None
    ) -> dict[str, tuple[str, ...]]:
        """{group: (feature names...)} (reference tsmfe.py:1250-1529)."""
        out: dict[str, list[str]] = {}
        for k in kernels_of(groups):
            out.setdefault(k.group, []).append(k.name)
        return {g: tuple(v) for g, v in out.items()}

    @classmethod
    def metafeature_description(cls) -> list[tuple[str, str, str]]:
        """(name, group, reference citation) rows."""
        return [(k.name, k.group, k.ref) for k in kernels_of(None)]
