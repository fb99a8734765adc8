"""Gap-fill: LOCF + linear interpolation over sentinel-marked missing points.

The reference library has NO missing-data path (its ``check_data`` only
rejects empty input, /root/reference/tspymfe/_internal.py:1334-1364); the
north rule mandates engine-side gap-fill applied per series before window
aggregation.  Convention (FIXTURES.md §1): missing points are stored as the
sentinel token ``-1`` in the int32 ``tokens`` array.

Policy:
- interior gaps  -> linear interpolation between surrounding valid points
- trailing gaps  -> LOCF (last observation carried forward)
- leading gaps   -> NOCB (next observation carried backward; LOCF has
  nothing to carry)
- all-missing row -> all zeros (degenerate; flagged by the caller)

``np.interp`` implements exactly this contract (flat extrapolation at both
ends) in one vectorized call.
"""

from __future__ import annotations

import numpy as np

SENTINEL = -1


def gap_fill(tokens: np.ndarray, sentinel: int = SENTINEL) -> np.ndarray:
    """Return a float64 copy of ``tokens`` with sentinel gaps filled (a
    one-row call of :func:`gap_fill_flat`)."""
    x = np.asarray(tokens)
    return gap_fill_flat(x, np.array([0, x.size]), np.empty(x.size), sentinel)


def gap_fill_flat(flat: np.ndarray, offsets: np.ndarray, out: np.ndarray,
                  sentinel: int = SENTINEL) -> np.ndarray:
    """Gap-fill every row of a flat token buffer at once: row i is
    ``flat[offsets[i]:offsets[i+1]]`` and fills
    ``out[offsets[i] - offsets[0]:offsets[i+1] - offsets[0]]`` (float64).

    The whole buffer is cast once; only the positions of rows that hold a
    sentinel reach ONE ``np.interp`` call.  Each such row's valid points
    are bracketed by two anchors just outside the row (a quarter step
    before its first position and after its last) carrying its first and
    last valid value, so no interpolation crosses a row boundary and the
    flat-slope anchors give NOCB/LOCF at the row ends.  Interior points
    interpolate between the same two valid neighbours with the same index
    differences as ``np.interp`` over the row alone (exact in float64), so
    every value is bitwise that row's fill; an all-gap row reads 0."""
    rel = (offsets - offsets[0]).astype(np.int64)
    x = flat[offsets[0] : offsets[-1]]
    out = out[: x.size]
    np.copyto(out, x)
    gap = x == sentinel
    gap_pos = np.flatnonzero(gap)
    if not gap_pos.size:
        return out
    lens = np.diff(rel)
    gap_row = np.searchsorted(rel[1:], gap_pos, side="right")
    n_gap = np.bincount(gap_row, minlength=lens.size)
    out[gap_pos] = 0.0  # all-gap rows keep it
    sel = (n_gap > 0) & (n_gap < lens)  # rows with a gap and a valid point
    rows = np.flatnonzero(sel)
    if not rows.size:
        return out
    valid = np.flatnonzero(np.repeat(sel, lens) & ~gap)
    lo = np.searchsorted(valid, rel[rows])
    hi = np.searchsorted(valid, rel[rows + 1])
    fp = out[valid]
    # one (lead, trail) anchor pair per row, in row order: np.insert is
    # stable, so a trail and the next row's lead at one index keep order
    at = np.column_stack([lo, hi]).ravel()
    xp = np.insert(valid.astype(np.float64), at,
                   np.column_stack([rel[rows] - 0.25, rel[rows + 1] - 0.75]).ravel())
    fp = np.insert(fp, at, np.column_stack([fp[lo], fp[hi - 1]]).ravel())
    q = gap_pos[sel[gap_row]]
    out[q] = np.interp(q, xp, fp)
    return out
