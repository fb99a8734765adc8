"""Mergeable moment/comoment sketches — the algebra behind the tier ladder.

A *sketch* summarizes a contiguous window of a series with the power sums
``(n, s1..s4)``, the adjacent-pair comoment ``c1 = sum(x_i * x_{i+1})`` over
pairs fully inside the window, the extrema, and the boundary values
``first``/``last``.  Two sketches of ADJACENT windows merge exactly:

    c1(A+B) = c1(A) + c1(B) + last(A) * first(B)

so raw-tier sketches roll up to 10x / 100x tiers (and hot-key split chunks
roll back up to whole-series values) with zero approximation.  From a sketch
we derive mean / var / sd / skew / kurtosis (e1071 method-3 semantics,
reference: /root/reference/tspymfe/_summary.py:149-273) and the window-local
lag-1 autocorrelation (the per-window ACF of the north star; reference ACF
semantics: /root/reference/tspymfe/autocorr.py:128-191).

All computation is vectorized numpy over many windows at once; there are no
per-row Python loops in the hot path.
"""

from __future__ import annotations

import numpy as np

# Column layout of a sketch matrix (one row per window).
FIELDS = ("n", "s1", "s2", "s3", "s4", "c1", "vmin", "vmax", "first", "last")
N_FIELDS = len(FIELDS)
_I = {f: i for i, f in enumerate(FIELDS)}


def compute_window_sketches(x: np.ndarray, bucket: int,
                            out: np.ndarray | None = None,
                            scratch: np.ndarray | None = None) -> np.ndarray:
    """Sketch every non-overlapping ``bucket``-sized window of ``x``.

    The final window may be ragged (shorter than ``bucket``).  Returns a
    ``(num_windows, N_FIELDS)`` float64 matrix.  Vectorized via
    ``np.add.reduceat`` — O(n) with no Python loop.

    ``out`` writes into a preallocated (num_windows, N_FIELDS) view (the
    batch-wide sketch matrix); ``scratch`` is a (>=2, >=n) float64 buffer
    for the power/product temporaries.  Both are bitwise-neutral — hot
    loops use them to stay in cache-resident memory instead of paying
    this container's pathological fresh-allocation first-touch cost.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return out if out is not None else np.empty((0, N_FIELDS), dtype=np.float64)
    starts = np.arange(0, n, bucket)
    ends = np.minimum(starts + bucket, n)
    return compute_window_sketches_at(x, starts, ends, out=out, scratch=scratch)


def compute_window_sketches_at(x: np.ndarray, starts: np.ndarray,
                               ends: np.ndarray,
                               out: np.ndarray | None = None,
                               scratch: np.ndarray | None = None,
                               barriers: np.ndarray | None = None) -> np.ndarray:
    """Sketch explicit contiguous windows of a flat array in ONE pass.

    Windows must TILE ``x``: ``ends[k] == starts[k+1]`` and ``ends[-1] ==
    len(x)`` (the ``np.add.reduceat`` segment rule).  This is the
    batch-global engine behind :func:`compute_window_sketches` — a whole
    map_batches batch of rows, gap-filled into one flat buffer, sketches in
    ~10 reduceat kernels instead of one Python call per row.

    ``barriers`` are pair indices ``j`` where ``(x[j], x[j+1])`` crosses a
    series/row boundary: those products are zeroed BEFORE the comoment
    reduceat, which makes the multi-row flat result bitwise identical to
    per-row calls (each row's final window sums the same ``+0.0`` pad the
    per-row path appends, and the subtraction of a zeroed cross term is
    exact).  Parity gate: tests/test_sketch.py::test_global_at_bitwise_parity.
    """
    n = x.size
    num_w = starts.size
    if out is None:
        out = np.empty((num_w, N_FIELDS), dtype=np.float64)
    if num_w == 0:
        return out
    if scratch is not None and scratch.shape[1] >= n:
        xp, prod = scratch[0, :n], scratch[1, :n]
    else:
        xp, prod = np.empty(n, dtype=np.float64), np.empty(n, dtype=np.float64)

    counts = (ends - starts).astype(np.float64)
    out[:, _I["n"]] = counts
    out[:, _I["s1"]] = np.add.reduceat(x, starts)
    np.multiply(x, x, out=xp)                              # x^2
    out[:, _I["s2"]] = np.add.reduceat(xp, starts)
    np.multiply(xp, xp, out=prod)                          # x^4
    out[:, _I["s4"]] = np.add.reduceat(prod, starts)
    np.multiply(xp, x, out=xp)                             # x^3
    out[:, _I["s3"]] = np.add.reduceat(xp, starts)

    if n > 1:
        # prod[i] = x_i * x_{i+1}; pad one zero so every window start indexes
        # validly and the last segment covers exactly its in-window pairs.
        np.multiply(x[:-1], x[1:], out=prod[:-1])
        prod[-1] = 0.0
        if barriers is not None and barriers.size:
            prod[barriers] = 0.0
        c1 = np.add.reduceat(prod, starts)
        # segment [starts[k], starts[k+1]) includes the cross-boundary pair
        # at index ends[k]-1 for every non-final window; subtract it.  (At a
        # row barrier that pair was zeroed above, so the subtraction is a
        # bitwise no-op matching the per-row pad-with-zero path.)
        if num_w > 1:
            c1[:-1] -= prod[ends[:-1] - 1]
        out[:, _I["c1"]] = c1
    else:
        out[:, _I["c1"]] = 0.0

    out[:, _I["vmin"]] = np.minimum.reduceat(x, starts)
    out[:, _I["vmax"]] = np.maximum.reduceat(x, starts)
    out[:, _I["first"]] = x[starts]
    out[:, _I["last"]] = x[ends - 1]
    return out


def merge_adjacent(sketches: np.ndarray, group: int,
                   out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Merge consecutive runs of ``group`` adjacent sketches into one each.

    ``sketches`` is ``(num_windows, N_FIELDS)`` in series order.  Exact: the
    result equals :func:`compute_window_sketches` run at the coarser bucket.
    ``out`` (a (ceil(m/group), N_FIELDS) view) and ``scratch`` (>= m floats,
    for the boundary cross terms) are bitwise-neutral buffer-reuse knobs,
    same contract as :func:`compute_window_sketches`.
    """
    m = sketches.shape[0]
    if m == 0:
        return sketches.copy() if out is None else out
    starts = np.arange(0, m, group)
    ends = np.minimum(starts + group, m)
    return merge_adjacent_at(sketches, starts, ends, out=out, scratch=scratch)


def merge_adjacent_at(sketches: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray,
                      out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None,
                      barriers: np.ndarray | None = None) -> np.ndarray:
    """Merge explicit contiguous runs of adjacent sketches in ONE pass.

    Same tiling contract and ``barriers`` semantics as
    :func:`compute_window_sketches_at`, over sketch rows instead of raw
    values: barrier index ``j`` means windows ``j`` and ``j+1`` belong to
    different series, so their boundary cross term is zeroed and a
    multi-row flat merge is bitwise identical to per-row merges.
    """
    m = sketches.shape[0]
    num_w = starts.size
    if out is None:
        out = np.empty((num_w, N_FIELDS), dtype=np.float64)
    if num_w == 0:
        return out
    for f in ("n", "s1", "s2", "s3", "s4"):
        out[:, _I[f]] = np.add.reduceat(sketches[:, _I[f]], starts)
    # comoment: sum of parts + boundary cross terms last(w) * first(w+1)
    c1 = np.add.reduceat(sketches[:, _I["c1"]], starts)
    if m > 1:
        # cross[i] joins window i and i+1; interior joins of merged run k are
        # indices [starts[k], ends[k]-2].  Pad one zero (same trick as in
        # compute_window_sketches) so reduceat segments line up exactly.
        cross = (scratch[:m] if scratch is not None and scratch.size >= m
                 else np.empty(m, dtype=np.float64))
        np.multiply(sketches[:-1, _I["last"]], sketches[1:, _I["first"]], out=cross[:-1])
        cross[-1] = 0.0
        if barriers is not None and barriers.size:
            cross[barriers] = 0.0
        csum = np.add.reduceat(cross, starts)
        if num_w > 1:
            csum[:-1] -= cross[ends[:-1] - 1]
        c1 = c1 + csum
    out[:, _I["c1"]] = c1
    out[:, _I["vmin"]] = np.minimum.reduceat(sketches[:, _I["vmin"]], starts)
    out[:, _I["vmax"]] = np.maximum.reduceat(sketches[:, _I["vmax"]], starts)
    out[:, _I["first"]] = sketches[starts, _I["first"]]
    out[:, _I["last"]] = sketches[ends - 1, _I["last"]]
    return out


def derive_features(sk: np.ndarray) -> dict[str, np.ndarray]:
    """Derive per-window statistics from a ``(m, N_FIELDS)`` sketch matrix.

    Semantics match the reference summary reducers:
    - ``var``/``sd``: ddof=1 (reference default, _summary.py:276-447 via
      tsmfe.py:808-810)
    - ``skewness``/``kurtosis``: e1071 method-3, bias=True
      (_summary.py:149-273): skew3 = m3/m2^1.5 * ((n-1)/n)^1.5,
      kurt3 = (m4/m2^2) * (1-1/n)^2 - 3
    - ``acf1``: window-local lag-1 autocorrelation
      sum((x_i-mu)(x_{i+1}-mu)) / sum((x_i-mu)^2)
    Division-by-zero / undersized windows yield NaN (reference
    NaN-on-error policy, _internal.py:204-213).
    """
    sk = np.atleast_2d(sk)
    with np.errstate(all="ignore"):
        n = sk[:, _I["n"]]
        s1, s2, s3, s4 = (sk[:, _I[f]] for f in ("s1", "s2", "s3", "s4"))
        c1 = sk[:, _I["c1"]]
        first, last = sk[:, _I["first"]], sk[:, _I["last"]]
        mean = s1 / n
        m2 = s2 / n - mean**2
        m2 = np.maximum(m2, 0.0)
        var_samp = np.where(n > 1, (s2 - n * mean**2) / np.maximum(n - 1, 1), np.nan)
        var_samp = np.where(var_samp < 0, 0.0, var_samp)
        sd = np.sqrt(var_samp)
        m3 = s3 / n - 3 * mean * s2 / n + 2 * mean**3
        m4 = s4 / n - 4 * mean * s3 / n + 6 * mean**2 * s2 / n - 3 * mean**4
        skew = np.where(m2 > 0, m3 / np.power(m2, 1.5), np.nan)
        skew3 = skew * np.power(np.maximum(n - 1.0, 0) / n, 1.5)
        kurt = np.where(m2 > 0, m4 / (m2 * m2) - 3.0, np.nan)
        kurt3 = (kurt + 3.0) * (1.0 - 1.0 / n) ** 2 - 3.0
        # lag-1 autocovariance numerator over in-window pairs
        num = c1 - mean * (2.0 * s1 - first - last) + (n - 1.0) * mean**2
        den = s2 - n * mean**2
        acf1 = np.where((n > 2) & (den > 0), num / den, np.nan)
    return {
        "count": n,
        "mean": mean,
        "var": var_samp,
        "sd": sd,
        "skewness": skew3,
        "kurtosis": kurt3,
        "acf1": acf1,
        "vmin": sk[:, _I["vmin"]],
        "vmax": sk[:, _I["vmax"]],
        "vrange": sk[:, _I["vmax"]] - sk[:, _I["vmin"]],
    }


def seq_window_sums(x: np.ndarray, bucket: int) -> np.ndarray:
    """Per-window sums accumulated strictly left-to-right.

    numpy's reduceat/sum use pairwise summation; DuckDB's SUM is a scalar
    sequential loop.  On decimal-quantized data the true window mean sits
    exactly on the 6dp half-boundary (s1/bucket is a dyadic division that
    preserves the decimal grid), so a 1-ulp association difference flips
    the driver's rounded hash.  The oracle-twin queries overwrite the s1
    sketch column with these sums; the production ladder keeps pairwise
    (numerically better, and tier aggregates divide by non-dyadic counts
    so they are off-grid and order-robust).

    Implementation: zero-pad to a full (num_windows, bucket) matrix and
    cumsum along axis 1 (np.add.accumulate is sequential); adding 0.0 is
    exact, so ragged final windows are unaffected.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.empty(0, dtype=np.float64)
    nw = -(-x.size // bucket)
    pad = np.zeros(nw * bucket, dtype=np.float64)
    pad[: x.size] = x
    return np.cumsum(pad.reshape(nw, bucket), axis=1)[:, -1]


def pooled_acf1(n, s1, s2, c1, sum_first, sum_last, m):
    """Pooled lag-1 autocorrelation of MANY series-windows merged into one
    population (cross-series continuous aggregate).

    Only in-series adjacent pairs count (``c1`` never crosses series
    boundaries), but the mean/variance are pooled:

        acf1 = sum_pairs (x_i - mu)(x_{i+1} - mu) / sum (x - mu)^2

    Expanding with the power sums: each window w contributes
    ``c1_w - mu*(2*s1_w - first_w - last_w) + (n_w - 1)*mu^2`` to the
    numerator, so the merged population needs only the SUMS of first/last
    boundary values and ``m`` (number of merged windows; total pairs =
    n - m).  All inputs are vectorized arrays; NaN where there are no
    pairs or zero variance.
    """
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(all="ignore"):
        mean = np.asarray(s1) / n
        num = (np.asarray(c1) - mean * (2.0 * np.asarray(s1) - np.asarray(sum_first)
                                        - np.asarray(sum_last))
               + (n - np.asarray(m)) * mean**2)
        den = np.asarray(s2) - n * mean**2
        return np.where((n - np.asarray(m) > 0) & (den > 0), num / den, np.nan)
