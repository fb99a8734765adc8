"""The batch feature path: every kernel's batch form equals its per-row
``fn``, ``FeatureStage`` equals per-row ``evaluate_row``, and the array
summaries are numpy's mean/std bitwise, whatever BLAS core the host picks."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pyarrow as pa
import pytest

import ts_pymfe_ray.features  # noqa: F401  (populates the registry)
from ts_pymfe_ray.functions.gapfill import gap_fill
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


def test_batch_forms_equal_per_row_fns():
    """Every ``many`` equals its ``fn`` on every row of 300 random ragged
    batches: the same finite values in the same order (what the summaries
    read), or the same scalar bits.  A row whose ``fn`` raises or returns
    no finite value is empty in the batch form."""
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
                        want = k.fn(SeriesCtx(c.ts_all, doc_id=c.doc_id))
                    except Exception:
                        want = None
                    if k.returns_array:
                        flat, off = res
                        got = flat[off[i]: off[i + 1]]
                        want = (np.asarray(want, dtype=np.float64).ravel()
                                if isinstance(want, np.ndarray) else np.empty(0))
                        ok = _same(got[np.isfinite(got)], want[np.isfinite(want)])
                    else:
                        ok = _same(res[i], np.nan if want is None else float(want))
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
    """A batch form that raises hands its kernel to the per-row fn for
    the batch: rows holding a NaN make the sort-based forms raise, and
    every column still equals evaluate_row (NaN-on-error stays per row)."""
    rng = np.random.default_rng(5)
    series = [rng.normal(size=n) for n in (40, 3, 90)]
    series[2][7] = np.nan
    ks = kernels_of(max_cost="cheap")
    ctxs = [SeriesCtx(s, doc_id=f"n{i}") for i, s in enumerate(series)]
    got = evaluate_batch(ctxs, ks)
    for i, s in enumerate(series):
        for c, v in evaluate_row(s, f"n{i}", ks).items():
            assert _same(got[c][i], v), (i, c)

    def boom(b):
        raise RuntimeError("no batch form today")

    k = FeatureKernel("zz_len", "general", lambda c: float(c.ts.size), many=boom)
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
