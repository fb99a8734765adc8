"""The batch feature path: every kernel's batch form (and its one-row
call) equals an independent per-row reference kept here, ``FeatureStage``
equals per-row ``evaluate_row``, and the array summaries are numpy's
mean/std bitwise, whatever BLAS core the host picks."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pyarrow as pa
import pytest

import ts_pymfe_ray.features  # noqa: F401  (populates the registry)
from ts_pymfe_ray.functions import stats as _st
from ts_pymfe_ray.functions.gapfill import gap_fill
from ts_pymfe_ray.functions.kernels_general import _discretize, _find_crit_pt
from ts_pymfe_ray.functions.kernels_info import shannon_entropy
from ts_pymfe_ray.functions.kernels_local import (
    _TILE_FEATURES,
    MOVING_BASE_STATS,
    _power_prefixes,
    _tile_moments,
    process_window_size,
)
from ts_pymfe_ray.registry import (
    DEFAULT_ANALYSIS_CAP,
    FeatureKernel,
    SeriesBatch,
    SeriesCtx,
    evaluate_batch,
    evaluate_row,
    kernels_of,
    summarize_array,
    summarize_many,
)
from ts_pymfe_ray.stages.features import FeatureStage

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------ per-row references
# Each batch kernel's per-row body, kept as the independent reference its
# batch form ``many`` must equal bitwise.  A reference that raises or
# returns no finite value stands for an empty row in the batch form.


class _RowWindows:
    """The n-w+1 full sliding windows of ONE row: window sums from the
    row's power prefixes ``P`` (the window source of the moving stats)."""

    def __init__(self, s: np.ndarray, w: int, P: np.ndarray):
        self.s, self.w, self.P = s, w, P

    def sums(self, power: int) -> np.ndarray:
        c = self.P[power - 1]
        return c[self.w:] - c[: -self.w]

    def pair_sums(self) -> np.ndarray:
        """Sum of the w-1 in-window lag-1 products s[i] * s[i+1]."""
        s, w = self.s, self.w
        prod = s[:-1] * s[1:]
        cp = np.zeros(prod.size + 1)
        np.cumsum(prod, out=cp[1:])
        return cp[w - 1:] - cp[: -(w - 1)]

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each window's first and last value."""
        return self.s[: self.s.size - self.w + 1], self.s[self.w - 1:]

    def log_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(sum of the finite logs, count of the non-positive values) per
        window."""
        w = self.w
        logs = np.where(self.s > 0, np.log(np.maximum(self.s, 1e-300)), np.nan)
        c = np.zeros(logs.size + 1)
        np.nancumsum(logs, out=c[1:])
        bad = np.zeros(logs.size + 1)
        np.cumsum(~np.isfinite(logs), out=bad[1:])
        return c[w:] - c[:-w], bad[w:] - bad[:-w]


def _moving_ref(stat_fn, shift: bool):
    def fn(c: SeriesCtx) -> np.ndarray:
        w = process_window_size(c.ts.size, 0.1)
        if w < 2 or c.ts.size < w:
            return np.full(1, np.nan)
        z = c.ts_scaled
        vals = stat_fn(_RowWindows(z, w, _power_prefixes(z)))
        v = vals[np.isfinite(vals)]
        return np.abs(v[1:] - v[:-1]) if shift else v

    return fn


def _tile_stats(c: SeriesCtx, num_tiles: int = 16) -> dict[str, np.ndarray]:
    """Per-tile mean/var/min/max in one reduceat pass; tiles follow
    np.array_split (the first n % k tiles get one extra element)."""
    s = c.ts_scaled
    n = s.size
    if num_tiles > 0.5 * n:
        raise ValueError("num_tiles larger than half the series size")
    base, extra = divmod(n, num_tiles)
    sizes = np.full(num_tiles, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return _tile_moments(np.add.reduceat(s, starts), np.add.reduceat(s * s, starts),
                         np.minimum.reduceat(s, starts), np.maximum.reduceat(s, starts),
                         sizes.astype(np.float64))


def _step_changes(ts: np.ndarray, ddof: int = 1) -> np.ndarray:
    """O(n) prefix-std form of the reference's O(n^2) loop."""
    n = ts.size
    cs = np.cumsum(ts)
    cs2 = np.cumsum(ts * ts)
    cnt = np.arange(1, n + 1, dtype=np.float64)
    cmeans = cs / cnt
    mean_abs_div = np.abs(ts[1:] - cmeans[:-1])
    i = np.arange(1 + ddof, n)
    pn = i.astype(np.float64)
    var = (cs2[i - 1] - pn * cmeans[i - 1] ** 2) / (pn - ddof)
    var = np.maximum(var, 0.0)
    return (mean_abs_div[i - 1] > 2.0 * np.sqrt(var)).astype(float)


def _frac_cp(c: SeriesCtx) -> float:
    s = c.ts_scaled
    higher = s <= np.median(s)
    return float(np.logical_xor(higher[1:], higher[:-1]).sum() / (s.size - 1))


def _fs_len(c: SeriesCtx) -> np.ndarray:
    ts_disc = _discretize(c.ts, 10)
    change = np.flatnonzero(ts_disc[1:] != ts_disc[:-1])
    if change.size == 0:
        return np.empty(0)
    return np.diff(np.concatenate([[-1], change])).astype(float)


def _walker(ts_scaled: np.ndarray, step_size: float = 0.1) -> np.ndarray:
    """w[i] = w[i-1] + s*(ts[i-1]-w[i-1]), w[0] = 0, as a closed form in
    chunks of 256 (to avoid (1-s)^-i overflow)."""
    n = ts_scaled.size
    w = np.empty(n, dtype=np.float64)
    s = step_size
    a = 1.0 - s
    prev = 0.0
    chunk = 256
    for st in range(0, n, chunk):
        en = min(n, st + chunk)
        m = en - st
        u = ts_scaled[st - 1: en - 1] if st > 0 else np.concatenate([[0.0], ts_scaled[: m - 1]])
        if st == 0:
            u[0] = 0.0
        pow_a = a ** np.arange(m, dtype=np.float64)
        if st == 0:
            contrib = np.concatenate([[0.0], s * u[1:] / pow_a[1:]])
            w[st:en] = np.cumsum(contrib) * pow_a
        else:
            y = np.cumsum(u / pow_a)
            w[st:en] = pow_a * a * prev + s * pow_a * y
        prev = w[en - 1]
    return w


def _walker_cross_frac(c: SeriesCtx) -> float:
    s = c.ts_scaled
    w = _walker(s)
    cross = (w[1:] - s[1:]) * (w[:-1] - s[:-1]) < 0
    return float(cross.sum() / (s.size - 1))


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


def _trim_mean(x: np.ndarray, proportiontocut: float = 0.02) -> float:
    """scipy.stats.trim_mean: sort, drop floor(p*n) from each end, mean."""
    x = np.sort(x)
    n = x.size
    k = int(n * proportiontocut)
    return float(x[k: n - k].mean()) if n - 2 * k > 0 else np.nan


def _hist10_entropy(x: np.ndarray) -> float:
    if x.size == 0:
        raise ValueError("empty histogram")
    return shannon_entropy(np.histogram(x, 10, density=True)[0]) / np.log2(10)


def _hist_ent_out_diff(c: SeriesCtx, pcut: float = 0.05) -> float:
    lo, hi = np.quantile(c.ts, (pcut, 1 - pcut))
    return _hist10_entropy(c.ts) - _hist10_entropy(c.ts[(c.ts >= lo) & (c.ts <= hi)])


ROW_REFS = {
    **{name + ("_shift" if shift else ""): _moving_ref(stat, shift)
       for name, stat, _ in MOVING_BASE_STATS for shift in (False, True)},
    **{name: (lambda feat: lambda c: feat(_tile_stats(c)))(feat)
       for name, feat, _ in _TILE_FEATURES},
    "length": lambda c: float(c.ts_all.size),
    "diff": lambda c: np.diff(c.ts),
    "turning_points": lambda c: _find_crit_pt(c.ts, "non-plateau").astype(float),
    "step_changes": lambda c: _step_changes(c.ts),
    "frac_cp": _frac_cp,
    "bin_mean": lambda c: (c.ts >= c.ts.mean()).astype(float),
    "fs_len": _fs_len,
    "walker_path": lambda c: np.abs(_walker(c.ts_scaled) - c.ts_scaled),
    "walker_cross_frac": _walker_cross_frac,
    "stick_angles": _stick_angles,
    "sd_diff": lambda c: float(np.std(np.diff(c.ts), ddof=1)),
    "skewness_diff": lambda c: _st.skewness(np.diff(c.ts)),
    "kurtosis_diff": lambda c: _st.kurtosis(np.diff(c.ts)),
    "t_mean": lambda c: _trim_mean(c.ts, 0.02),
    "hist_entropy": lambda c: _hist10_entropy(c.ts),
    "hist_ent_out_diff": _hist_ent_out_diff,
}


def _same(a, b) -> bool:
    """Bitwise equality of float arrays (any NaN equals any NaN)."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        return False
    return bool(np.all((np.isnan(a) & np.isnan(b)) | (a.view(np.int64) == b.view(np.int64))))


def _edge_tokens(rng) -> list[np.ndarray]:
    """Rows of length 0-5, 31 and 32 (the 16-tile threshold), a constant
    row, an all-gap row, rows past the 512 analysis cap, gaps at both ends
    of a row, a random walk and a few random rows."""
    rows = [rng.integers(0, 50000, size=n).astype(np.int32) for n in (0, 1, 2, 3, 4, 5, 31, 32)]
    rows.append(np.full(300, 77, dtype=np.int32))
    rows.append(np.full(40, -1, dtype=np.int32))
    rows += [rng.integers(0, 50000, size=n).astype(np.int32) for n in (513, 1200)]
    t = rng.integers(0, 50000, size=200).astype(np.int32)
    t[:3] = -1
    t[-4:] = -1
    rows.append(t)
    walk = (np.cumsum(rng.integers(-3, 4, size=700)) + 1000).astype(np.int32)
    walk[rng.random(700) < 0.05] = -1
    rows.append(walk)
    rows += [rng.integers(0, 50000, size=int(n)).astype(np.int32)
             for n in rng.integers(6, 600, size=4)]
    return rows


def _random_tokens(rng, n_rows: int) -> list[np.ndarray]:
    edge = (0, 1, 2, 3, 4, 5, 20, 21, 31, 32, 33, 64, 257, 511, 512, 513, 900)
    rows = []
    for _ in range(n_rows):
        n = int(rng.choice(edge)) if rng.random() < 0.4 else int(rng.integers(0, 700))
        kind = rng.integers(0, 5)
        if kind == 0:  # random walk: long runs, repeated values
            t = np.cumsum(rng.integers(-2, 3, size=n)) + 500
        elif kind == 1 and n:  # constant
            t = np.full(n, int(rng.integers(0, 100)))
        else:
            t = rng.integers(0, 50000, size=n)
        t = t.astype(np.int32)
        if kind >= 3:
            t[rng.random(n) < 0.1] = -1
        rows.append(t)
    return rows


def _table(toks: list[np.ndarray], prefix: str) -> pa.Table:
    return pa.table({
        "doc_id": [f"{prefix}{i}" for i in range(len(toks))],
        "tokens": pa.array(list(toks), pa.list_(pa.int32())),
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": ["web"] * len(toks),
    })


def test_summarize_array_is_numpy_mean_and_std():
    """summarize_array(v) == (np.mean, np.std(ddof=1)) of v's finite
    values, bitwise, including NaN/inf masking and n in {0, 1, 2};
    summarize_many of a ragged batch == summarize_array row by row."""
    rng = np.random.default_rng(3)
    cases = [np.empty(0), np.array([2.5]), np.array([1.0, 4.0]), np.array([np.nan]),
             np.array([np.inf, 1.0]), np.array([np.nan, 3.0, -np.inf, 5.0]),
             np.array([np.nan, np.inf, -np.inf]), np.array([-0.0, 0.0]), np.full(9, 1e300)]
    for n in rng.integers(0, 3000, size=200):
        v = rng.normal(rng.normal() * 1e3, 10 ** rng.uniform(-3, 3), size=int(n))
        if n and rng.random() < 0.3:
            v[rng.integers(0, n, size=3)] = rng.choice([np.nan, np.inf, -np.inf], size=3)
        cases.append(v)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for v in cases:
            f = v[np.isfinite(v)]
            got = summarize_array(v)
            assert _same(got["mean"], np.mean(f)), (v.size, got, np.mean(f))
            assert _same(got["sd"], np.std(f, ddof=1)), (v.size, got, np.std(f, ddof=1))
    off = np.concatenate([[0], np.cumsum([v.size for v in cases])])
    mean, sd = summarize_many(np.concatenate(cases), off)
    for i, v in enumerate(cases):
        one = summarize_array(v)
        assert _same(mean[i], one["mean"]) and _same(sd[i], one["sd"]), i


def test_one_body_per_kernel():
    """A kernel takes exactly one body, and the reference table above
    covers exactly the kernels whose body is a batch form."""
    many = lambda b: b.lens.astype(float)  # noqa: E731
    with pytest.raises(ValueError):
        FeatureKernel("zz_two", "general", lambda c: 0.0, many=many)
    with pytest.raises(ValueError):
        FeatureKernel("zz_none", "general")
    k = FeatureKernel("zz_len", "general", many=many)
    assert k.fn(SeriesCtx(np.arange(7.0))) == 7.0
    assert {k.name for k in kernels_of(max_cost="heavy") if k.many is not None} == set(ROW_REFS)


def test_batch_forms_equal_per_row_fns():
    """Every ``many`` equals its per-row reference on every row of 300
    random ragged batches: the same finite values in the same order (what
    the summaries read), or the same scalar bits.  A row whose reference
    raises or returns no finite value is empty in the batch form.  The
    kernel's ``fn``, its one-row call, equals the batch row too."""
    kernels = [k for k in kernels_of(max_cost="heavy") if k.many is not None]
    cheap = {k.name for k in kernels_of(max_cost="cheap") if k.many is None}
    assert cheap == {"acf", "period", "lz_complexity"}
    assert len(kernels) >= 34
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for trial in range(300):
            toks = _random_tokens(rng, int(rng.integers(1, 9)))
            ctxs = [SeriesCtx(gap_fill(t), doc_id=f"r{i}") for i, t in enumerate(toks)]
            b = SeriesBatch(ctxs)
            for k in kernels:
                res = k.many(b)
                for i, c in enumerate(ctxs):
                    try:
                        want = ROW_REFS[k.name](SeriesCtx(c.ts_all, doc_id=c.doc_id))
                    except Exception:
                        want = None
                    one = k.fn(SeriesCtx(c.ts_all, doc_id=c.doc_id))
                    if k.returns_array:
                        flat, off = res
                        got = flat[off[i]: off[i + 1]]
                        want = (np.asarray(want, dtype=np.float64).ravel()
                                if isinstance(want, np.ndarray) else np.empty(0))
                        ok = _same(got[np.isfinite(got)], want[np.isfinite(want)])
                        ok = ok and _same(one, got)
                    else:
                        ok = _same(res[i], np.nan if want is None else float(want))
                        ok = ok and _same(one, res[i])
                    assert ok, (trial, k.name, i, c.ts.size)


@pytest.mark.parametrize("max_cost", ["cheap", "medium"])
def test_feature_stage_equals_evaluate_row(max_cost):
    """The batch FeatureStage == per-row evaluate_row in every column,
    bitwise, NaN positions included, on a batch of edge-case rows."""
    toks = _edge_tokens(np.random.default_rng(23))
    out = FeatureStage(max_cost=max_cost)(_table(toks, "e"))
    ks = kernels_of(max_cost=max_cost)
    for i, t in enumerate(toks):
        want = evaluate_row(gap_fill(t), f"e{i}", ks, cap=DEFAULT_ANALYSIS_CAP)
        assert len(want) == len(out.column_names) - 4
        for c, v in want.items():
            assert _same(out.column(c).to_numpy()[i], v), (max_cost, i, t.size, c)


def test_batch_form_errors_fall_back_per_row():
    """A batch form that raises hands its kernel to the per-row fn, its
    one-row call, for the batch: rows holding a NaN make the sort-based
    forms raise, and every column still equals evaluate_row (NaN-on-error
    stays per row)."""
    rng = np.random.default_rng(5)
    series = [rng.normal(size=n) for n in (40, 3, 90)]
    series[2][7] = np.nan
    ks = kernels_of(max_cost="cheap")
    ctxs = [SeriesCtx(s, doc_id=f"n{i}") for i, s in enumerate(series)]
    got = evaluate_batch(ctxs, ks)
    for i, s in enumerate(series):
        for c, v in evaluate_row(s, f"n{i}", ks).items():
            assert _same(got[c][i], v), (i, c)

    def one_row_only(b):
        if len(b.ctxs) > 1:
            raise RuntimeError("no batch form for more than one row")
        return b.lens.astype(float)

    k = FeatureKernel("zz_len", "general", many=one_row_only)
    assert _same(evaluate_batch(ctxs, [k])["zz_len"], [40.0, 3.0, 90.0])


_PORTABLE = """
import hashlib, sys
sys.path.insert(0, {root!r})
import numpy as np, pyarrow as pa
from ts_pymfe_ray.stages.features import FeatureStage
rng = np.random.default_rng(11)
toks = []
for n in rng.integers(0, 700, size=96):
    t = rng.integers(0, 50000, size=int(n)).astype(np.int32)
    t[rng.random(int(n)) < 0.05] = -1
    toks.append(t)
out = FeatureStage(max_cost="cheap")(pa.table({{
    "doc_id": [f"p{{i}}" for i in range(len(toks))],
    "tokens": pa.array(toks, pa.list_(pa.int32())),
    "n_tok": pa.array([t.size for t in toks], pa.int32()),
    "source": ["web"] * len(toks)}}))
h = hashlib.sha256()
for c in out.column_names[4:]:
    h.update(out.column(c).to_numpy().tobytes())
print(h.hexdigest())
"""


def test_feature_stage_bitwise_across_blas_cores():
    """The cheap-pack FeatureStage frame is bitwise the same under the
    generic and the Haswell OpenBLAS cores: no feature value may depend on
    which BLAS kernel the host selects."""
    digests = {}
    for core in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        res = subprocess.run([sys.executable, "-c", _PORTABLE.format(root=ROOT)], env=env,
                             capture_output=True, text=True, timeout=600, cwd=ROOT)
        assert res.returncode == 0, res.stderr[-2000:]
        digests[core] = res.stdout.strip().splitlines()[-1]
    assert digests["Prescott"] == digests["Haswell"], digests
