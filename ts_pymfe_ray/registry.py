"""Static feature-kernel registry + lazy per-series and per-batch contexts.

The reference discovers features by reflecting over ``ft_``-prefixed
classmethods and wires shared intermediates through a mutable precompute
dict (/root/reference/tspymfe/_internal.py:305-455, 1158-1331).  The engine
replaces both with static structures chosen at plan time:

- :class:`SeriesCtx` — one per row; every shared intermediate (scaled
  series, period, STL/SuperSmoother components, detrended ACF, ...) is a
  lazily computed, cached property, so each intermediate is computed at
  most once per row no matter how many features need it.
- :data:`REGISTRY` — ``{feature_name: FeatureKernel}``; a kernel has ONE
  body.  A per-row kernel is a pure function ``fn(ctx) -> float |
  np.ndarray``.  Array-valued kernels are reduced by summary functions
  into fixed columns ``name.summary`` exactly like the reference
  (tsmfe.py:525-549); defaults ("mean", "sd").
- Batch kernels: a kernel registers ``many(batch)`` over a
  :class:`SeriesBatch` (every row of a feature batch in one flat buffer
  plus row offsets) INSTEAD of ``fn``.  It returns an (R,) array for a
  scalar kernel or ``(flat, offsets)`` for an array kernel.  Its ``fn`` is
  derived: ``many`` over the one-row batch of that ctx (cached on the ctx,
  so the row's batch precomputes are shared across kernels), so a single
  series is a batch of one row and each kernel has one implementation.
  :func:`evaluate_batch` runs each kernel once per batch: its ``many``
  when it has one, else ``fn`` row by row; a ``many`` that raises falls
  back to ``fn`` (its one-row call) for that batch, so NaN-on-error stays
  per row.  tests/test_batch_kernels.py checks every ``many`` against an
  independent per-row reference, bitwise.
- Summaries: ``mean`` and ``sd`` of an array kernel are ``v.mean()`` and
  ``v.std(ddof=1)`` over its finite values (reference _summary.py:276-447,
  SURVEY.md §2.2), computed by :func:`summarize_many` with fixed-order
  numpy sums — no BLAS call, so no value depends on the host's BLAS core.
  :func:`summarize_array` is its one-row call.
- NaN-on-error: any exception inside a kernel yields NaN for that feature
  only (reference policy, _internal.py:204-213, 594-614).

User extension surface: ``register(FeatureKernel(...))`` — the declared
equivalent of adding an ``ft_`` method to a reference class.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

import numpy as np

from ts_pymfe_ray.functions import decompose as _dec
from ts_pymfe_ray.functions import stats as _st
from ts_pymfe_ray.functions.period import ts_period_from_detrended

# Analysis window cap: per-series (non-rollup) kernels run on the most
# recent min(n, CAP) observations, mirroring the reference tests' own
# truncate-to-last-512 behavior (/root/reference/test_a.py:27, test_b.py:10)
# and bounding worst-case per-row cost for super-linear kernels — the
# hot-key story for the feature (not rollup) path.
DEFAULT_ANALYSIS_CAP = 512


class SeriesCtx:
    """Lazy, cached per-row intermediates (the precompute cache, static)."""

    def __init__(self, ts: np.ndarray, doc_id: str = "", cap: int = DEFAULT_ANALYSIS_CAP):
        full = np.asarray(ts, dtype=np.float64)
        self.ts_all = full
        self.ts = full[-cap:] if cap and full.size > cap else full
        self.doc_id = doc_id
        self._cache: dict[str, t.Any] = {}

    def _get(self, key: str, fn: t.Callable[[], t.Any]) -> t.Any:
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # --- shared intermediates -------------------------------------------
    @property
    def ts_scaled(self) -> np.ndarray:
        return self._get("ts_scaled", lambda: _st.standardize_ts(self.ts))

    @property
    def ssmoother_trend(self) -> np.ndarray:
        return self._get("ss_trend", lambda: _dec.supersmoother(self.ts))

    @property
    def ts_detrended_ss(self) -> np.ndarray:
        """SuperSmoother-detrended series (used by period + detrended ACF,
        reference autocorr.py:128-191 'detrend=True' path)."""
        return self._get("ts_detrended_ss", lambda: self.ts - self.ssmoother_trend)

    @property
    def ts_diff(self) -> np.ndarray:
        """First difference of the capped series — shared (read-only by
        convention) by the diff / sd_diff / skewness_diff / kurtosis_diff
        kernels, which all recompute the identical np.diff otherwise."""
        return self._get("ts_diff", lambda: np.diff(self.ts))

    @property
    def period(self) -> int:
        return self._get("period", lambda: ts_period_from_detrended(self.ts_detrended_ss))

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(trend, season, resid) — reference _detrend.py:117-182 semantics."""

        def _build():
            if self.period <= 1:
                tr = self.ssmoother_trend
                return tr, np.zeros(self.ts.size), self.ts - tr
            return _dec.stl_decompose(self.ts, self.period)

        return self._get("components", _build)

    @property
    def ts_trend(self) -> np.ndarray:
        return self.components[0]

    @property
    def ts_season(self) -> np.ndarray:
        return self.components[1]

    @property
    def ts_residuals(self) -> np.ndarray:
        return self.components[2]

    @property
    def ts_detrended(self) -> np.ndarray:
        return self._get("ts_detrended", lambda: self.ts - self.ts_trend)

    @property
    def ts_deseasonalized(self) -> np.ndarray:
        return self._get("ts_deseasonalized", lambda: self.ts - self.ts_season)

    @property
    def detrended_acfs(self) -> np.ndarray:
        """ACF (lags 1..n//2, adjusted, FFT) of the SS-detrended series
        (reference precompute_detrended_acf, autocorr.py:23-62)."""
        return self._get(
            "detrended_acfs", lambda: _st.acf(self.ts_detrended_ss, nlags=self.ts.size // 2)
        )

    @property
    def detrended_ami(self) -> np.ndarray:
        from ts_pymfe_ray.functions.kernels_info import calc_ami_lags

        return self._get("detrended_ami", lambda: calc_ami_lags(self))

    @property
    def rng(self) -> np.random.Generator:
        """Per-row deterministic RNG (cluster-reproducible — never the
        global numpy seed the reference uses, tsmfe.py:272-274)."""

        def _mk():
            from ts_pymfe_ray.synth import stable_hash64

            return np.random.Generator(np.random.PCG64(stable_hash64("ctx:" + self.doc_id)))

        return self._get("rng", _mk)


class SeriesBatch:
    """Every row of one feature batch, for the kernels' batch forms.

    The rows' capped, gap-filled series (each ``SeriesCtx.ts``) sit in ONE
    flat float64 buffer ``flat`` with int64 row offsets ``off``: row i is
    ``flat[off[i]:off[i+1]]``.  Shared batch precomputes are lazy and
    cached like :class:`SeriesCtx`'s (kernels cache their own through
    ``_get``), and each is bitwise equal, row by row, to its per-row twin."""

    def __init__(self, ctxs: list[SeriesCtx]):
        self.ctxs = ctxs
        self.lens = np.fromiter((c.ts.size for c in ctxs), dtype=np.int64, count=len(ctxs))
        self.off = np.zeros(self.lens.size + 1, dtype=np.int64)
        np.cumsum(self.lens, out=self.off[1:])
        self.flat = np.concatenate([c.ts for c in ctxs]) if ctxs else np.empty(0)
        self._cache: dict[str, t.Any] = {}

    def _get(self, key: str, fn: t.Callable[[], t.Any]) -> t.Any:
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def finite(self) -> bool:
        """Every value finite — the sort-based batch forms need NaN-free
        rows and raise (falling back per row) otherwise."""
        return self._get("finite", lambda: bool(np.isfinite(self.flat).all()))

    @property
    def ts_scaled(self) -> np.ndarray:
        """Flat z-scores: :func:`stats.standardize_ts` of every row."""

        def _build():
            with np.errstate(all="ignore"):
                mean, sd = _st.mean_std_many(self.flat, self.off, ddof=0)
                sd_e = np.repeat(sd, self.lens)
                z = (self.flat - np.repeat(mean, self.lens)) / sd_e
            z[(sd_e == 0) | ~np.isfinite(sd_e)] = 0.0
            return z

        return self._get("ts_scaled", _build)

    @property
    def ts_diff(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, offsets) of every row's first difference."""
        return self._get("ts_diff", lambda: _st.ragged_diff(self.flat, self.off))

    def pad(self, flat: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(R, max_len) right-padded stack of a buffer laid out like ``flat``."""
        return _st.pad_rows(flat, self.off, fill)

    def seed_ctxs(self, trend: bool) -> None:
        """Seed every row's SeriesCtx cache with its slice of the batch
        precomputes — the z-scores, first differences and (``trend``) the
        SuperSmoother trend from ONE ragged stack, which is bitwise equal
        per row to :func:`decompose.supersmoother`."""
        z = self.ts_scaled
        d, doff = self.ts_diff
        trends = _dec.supersmoother_ragged([c.ts for c in self.ctxs]) if trend else None
        for i, c in enumerate(self.ctxs):
            cache = c._cache
            cache["ts_scaled"] = z[self.off[i]: self.off[i + 1]]
            cache["ts_diff"] = d[doff[i]: doff[i + 1]]
            if trends is not None:
                cache["ss_trend"] = trends[i]
                cache["ts_detrended_ss"] = c.ts - trends[i]


@dataclasses.dataclass(frozen=True)
class FeatureKernel:
    """One feature kernel with exactly one body: a per-row ``fn`` or a
    batch form ``many``; given ``many``, ``fn`` is its one-row call."""

    name: str  # reference-compatible feature name (e.g. "trend_strenght")
    group: str  # reference group class (general, global_stats, ...)
    fn: t.Optional[t.Callable[[SeriesCtx], t.Union[float, np.ndarray]]] = None
    returns_array: bool = False  # arrays get summarized into name.summary cols
    cost: str = "cheap"  # cheap | medium | heavy — drives stage placement
    ref: str = ""  # file:line citation into /root/reference
    # batch form over a SeriesBatch: (R,) values for a scalar kernel,
    # (flat, offsets) for an array kernel
    many: t.Optional[t.Callable[[SeriesBatch], t.Any]] = None

    def __post_init__(self):
        if (self.fn is None) == (self.many is None):
            raise ValueError(f"kernel {self.name!r} takes exactly one body: fn or many")
        if self.many is not None:
            object.__setattr__(self, "fn", functools.partial(_one_row, self.many, self.returns_array))


def _one_row(many: t.Callable[[SeriesBatch], t.Any], returns_array: bool,
             ctx: SeriesCtx) -> t.Union[float, np.ndarray]:
    """``many`` over the one-row batch of ``ctx`` (built once per ctx):
    row 0's value, or its slice of the flat values of an array kernel."""
    res = many(ctx._get("one_row_batch", lambda: SeriesBatch([ctx])))
    if returns_array:
        flat, off = res
        return flat[off[0]: off[1]]
    return res[0]


REGISTRY: dict[str, FeatureKernel] = {}

# postprocess hooks (reference scans postprocess_* methods,
# _internal.py:1711-1805 — a no-op in practice; the engine keeps the
# extension point as an explicit registry)
POSTPROCESSORS: list[t.Callable[[dict, "SeriesCtx"], None]] = []


def register(k: FeatureKernel) -> FeatureKernel:
    REGISTRY[k.name] = k
    return k


def register_postprocessor(fn: t.Callable[[dict, "SeriesCtx"], None]) -> t.Callable:
    """Register a hook run after per-row extraction; it may mutate the
    result dict in place (the engine's postprocess_* equivalent)."""
    POSTPROCESSORS.append(fn)
    return fn


def kernels_of(groups: t.Iterable[str] | None = None, max_cost: str = "heavy") -> list[FeatureKernel]:
    order = {"cheap": 0, "medium": 1, "heavy": 2}
    lim = order[max_cost]
    sel = [
        k
        for k in REGISTRY.values()
        if (groups is None or k.group in groups) and order[k.cost] <= lim
    ]
    return sorted(sel, key=lambda k: k.name)


# --- summaries applied to array-valued kernels (reference default
# ("mean", "sd"), tsmfe.py:48) ------------------------------------------
def summarize_many(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(mean, sd)`` of a ragged batch of kernel values: ``v.mean()``
    and ``v.std(ddof=1)`` over each row's FINITE values, bitwise (NaN when
    no finite value is left; sd NaN below two).  Both sums are numpy's
    fixed-order pairwise sums (:func:`stats.seg_sum`), never a BLAS dot,
    whose summation order depends on the host's BLAS core."""
    v = np.asarray(flat, dtype=np.float64)
    off = np.asarray(offsets, dtype=np.int64)
    ok = np.isfinite(v)
    if not ok.all():
        v, off = _st.keep_rows(v, off, ok)
    with np.errstate(all="ignore"):
        return _st.mean_std_many(v, off, ddof=1)


def summarize_array(vals: np.ndarray) -> dict[str, float]:
    """:func:`summarize_many` of one row."""
    v = np.asarray(vals, dtype=np.float64).ravel()
    mean, sd = summarize_many(v, np.array([0, v.size], dtype=np.int64))
    return {"mean": float(mean[0]), "sd": float(sd[0])}


def feature_columns(kernels: list[FeatureKernel]) -> list[str]:
    """Fixed output schema: scalar kernels -> one column; array kernels ->
    name.mean / name.sd (name-sorted, like reference tsmfe.py:941-947)."""
    cols: list[str] = []
    for k in kernels:
        if k.returns_array:
            cols.extend([f"{k.name}.mean", f"{k.name}.sd"])
        else:
            cols.append(k.name)
    return sorted(cols)


def evaluate_row(ts: np.ndarray, doc_id: str, kernels: list[FeatureKernel], cap: int = DEFAULT_ANALYSIS_CAP, ctx: "SeriesCtx | None" = None) -> dict[str, float]:
    """Run every kernel's ``fn`` on one series (a batch kernel's is its
    one-row call); exceptions -> NaN (reference _internal.py:204-213).
    The single-series path that FeatureStage is tested against.  ``ctx``
    passes a pre-seeded SeriesCtx; ``ts`` is ignored when given."""
    if ctx is None:
        ctx = SeriesCtx(ts, doc_id=doc_id, cap=cap)
    out: dict[str, float] = {}
    # ONE errstate scope for the whole row: entering/exiting a numpy
    # errstate per kernel costs ~5us x 37 kernels; the outer scope covers
    # exactly what the per-kernel managers covered
    with np.errstate(all="ignore"):
        out = _eval_kernels(ctx, kernels)
    for post in POSTPROCESSORS:
        try:
            post(out, ctx)
        except Exception:
            pass  # hooks must never fail a row (reference error policy)
    return out


def _eval_kernels(ctx: "SeriesCtx", kernels: list[FeatureKernel]) -> dict[str, float]:
    out: dict[str, float] = {}
    for k in kernels:
        try:
            val = k.fn(ctx)
        except Exception:
            val = np.nan
        if k.returns_array:
            if isinstance(val, np.ndarray):
                summ = summarize_array(val)
            else:
                summ = {"mean": np.nan, "sd": np.nan}
            for s, sv in summ.items():
                out[f"{k.name}.{s}"] = sv
        else:
            try:
                out[k.name] = float(val)
            except (TypeError, ValueError):
                out[k.name] = np.nan
    return out


def evaluate_batch(ctxs: list[SeriesCtx], kernels: list[FeatureKernel],
                   batch: SeriesBatch | None = None) -> dict[str, np.ndarray]:
    """Every kernel over every row of a batch -> ``{column: (R,) values}``,
    bitwise equal to :func:`evaluate_row` row by row.

    Each kernel runs once: its batch form ``many`` when it has one, else
    its per-row ``fn`` over the rows; a ``many`` that raises falls back to
    ``fn``, its one-row call, row by row.  Array kernels are summarized by ONE
    :func:`summarize_many` call.  POSTPROCESSORS still see one row's dict
    and ctx at a time; what they write to an existing column is kept."""
    b = batch if batch is not None else SeriesBatch(ctxs)
    out: dict[str, np.ndarray] = {}
    with np.errstate(all="ignore"):
        for k in kernels:
            res = None
            if k.many is not None:
                try:
                    res = k.many(b)
                except Exception:
                    res = None
            if k.returns_array:
                flat, off = res if res is not None else _rows_array(k, ctxs)
                out[f"{k.name}.mean"], out[f"{k.name}.sd"] = summarize_many(flat, off)
            else:
                out[k.name] = (np.asarray(res, dtype=np.float64) if res is not None
                               else _rows_scalar(k, ctxs))
    if POSTPROCESSORS:
        for i, ctx in enumerate(ctxs):
            row = {c: float(v[i]) for c, v in out.items()}
            for post in POSTPROCESSORS:
                try:
                    post(row, ctx)
                except Exception:
                    pass  # hooks must never fail a row (reference error policy)
            for c, v in row.items():
                if c in out:
                    out[c][i] = v
    return out


_EMPTY = np.empty(0)


def _rows_scalar(k: FeatureKernel, ctxs: list[SeriesCtx]) -> np.ndarray:
    out = np.empty(len(ctxs))
    for i, c in enumerate(ctxs):
        try:
            val = k.fn(c)
        except Exception:
            val = np.nan
        try:
            out[i] = float(val)
        except (TypeError, ValueError):
            out[i] = np.nan
    return out


def _rows_array(k: FeatureKernel, ctxs: list[SeriesCtx]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``fn`` of an array kernel as (flat, offsets); a row whose
    ``fn`` raised or returned a non-array is empty (summaries NaN)."""
    parts = []
    for c in ctxs:
        try:
            val = k.fn(c)
        except Exception:
            val = None
        parts.append(np.asarray(val, dtype=np.float64).ravel()
                     if isinstance(val, np.ndarray) else _EMPTY)
    off = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([p.size for p in parts], out=off[1:])
    return (np.concatenate(parts) if parts else _EMPTY), off
