"""Delay embedding helpers (reference: /root/reference/tspymfe/_embed.py).

Vectorized: the embedding matrix is built with stride tricks instead of the
reference's per-row loop (_embed.py:69-72)."""

from __future__ import annotations

import numpy as np


def embed_ts(ts: np.ndarray, dim: int, lag: int = 1) -> np.ndarray:
    """Delay-embed with include_val=True semantics (_embed.py:26-74):
    row i = [x_{i+(dim-1)lag}, ..., x_{i+lag}, x_i]; shape
    (n - (dim-1)*lag, dim)."""
    x = np.asarray(ts, dtype=np.float64)
    d = dim - 1
    if dim <= 0 or lag <= 0 or d * lag >= x.size:
        raise ValueError("invalid embedding parameters")
    m = x.size - d * lag
    shifts = lag * (d - 1 - np.arange(-1, d))  # [d*lag, (d-1)*lag, ..., 0]
    cols = [x[s : s + m] for s in shifts]
    return np.column_stack(cols)


def cheb_nn_curves(s: np.ndarray, lag: int, dims: int):
    """Per-dim Chebyshev nearest neighbors over delay embeddings with an
    INCREMENTAL distance matrix: the dim-embedding's coordinates are the
    (dim-1)-embedding's plus one new column, and Chebyshev distance is a
    max over coordinates (order-free), so
    D_dim = max(D_{dim-1}[:m, :m], |new-column diffs|) — identical values
    to rebuilding the (m, m, d) broadcast per dim, as the reference's nn()
    does (_embed.py:77-90), at O(m^2) per dim instead of O(m^2 d); parity
    gate in tests.

    Yields (ind, nn_inds, dist_cur, nxt_diff) for each ind where the
    (dim+1)-embedding exists — exactly the quantities the Cao / FNN
    kernels consume (dist_cur over emb_next[:, 1:], nxt_diff against
    emb_next[:, 0])."""
    x = np.asarray(s, dtype=np.float64)
    n = x.size
    D = None
    for ind, dim in enumerate(range(1, dims + 1)):
        m_next = n - dim * lag  # rows of the (dim+1)-embedding
        if lag <= 0 or m_next < 1:
            continue  # embed_ts(dim + 1) would raise — skip like the callers
        m_dim = n - (dim - 1) * lag
        c_dim = x[(dim - 1) * lag : (dim - 1) * lag + m_dim]
        newd = np.abs(c_dim[:, None] - c_dim[None, :])
        D = newd if D is None else np.maximum(D[:m_dim, :m_dim], newd)
        dist = D[:m_next, :m_next].copy()
        dist[np.isclose(dist, 0.0)] = np.inf
        nn = np.argmin(dist, axis=1)
        dist_cur = dist[np.arange(m_next), nn]
        c_next = x[dim * lag : dim * lag + m_next]  # emb_next[:, 0]
        nxt_diff = np.abs(c_next - c_next[nn])
        yield ind, nn, dist_cur, nxt_diff
