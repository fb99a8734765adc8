"""Segment kernels of the span-partial engine (pipelines/queries.py) against
per-group pandas references, without a Ray session (the driver-merge
parity tests at the end run one).

Each kernel runs the way ``_map_sorted_groups`` runs it — on blocks
sorted by ``_sorted_groups`` — with the input cut into several blocks at
group boundaries plus one empty block, so the test also pins that a
kernel's output does not depend on which groups share its block and that
an empty block returns the full typed schema.  The references are the
per-group bodies the kernels replaced, one pandas call per group."""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ts_pymfe_ray.functions import sketch as sk
from ts_pymfe_ray.functions.rounding import round_ha
from ts_pymfe_ray.pipelines import queries as q

H = 3600 * 1_000_000
D = 24 * H
M = 60 * 1_000_000
NONE = np.int64(2**62)
GAP_US = 30 * M
WIN_US = 72 * H
TYPES = np.array(["click", "purchase", "view", "error", "signup"])


def _events(span_hours: int) -> pa.Table:
    """Tagged events covering the edge cases: a single-event user, two
    events sharing a ts_us, a hot user over 30 day-spans (sessions that
    cross midnight, gaps of exactly 30 minutes), a span holding a single
    event, and a user whose values are all missing under gap-fill's
    ``event_id % 10 == 0`` rule."""
    rng = np.random.default_rng(11)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    users, ts = [], []

    def add(u, offsets):
        users.extend([u] * len(offsets))
        ts.extend(t0 + np.asarray(offsets, dtype=np.int64))

    add(1, [5 * H])                                          # a single event
    add(2, [D + 2 * H, D + 2 * H + M, D + 2 * H + M,         # a shared ts
            D + 2 * H + 40 * M, D + 3 * H])
    gaps = rng.choice([0, 7 * M, 29 * M, 30 * M, 31 * M, 2 * H, 9 * H],
                      size=900, p=[.05, .35, .2, .1, .1, .15, .05])
    add(3, np.cumsum(gaps))                                  # hot: ~30 spans
    add(4, [0, H, 2 * H, 2 * D + 5 * H, 3 * D, 3 * D + M])   # single-event span
    ids = rng.permutation(len(users)) + 1                    # ~10% missing
    ids[5] = 10**7 + 30  # user 2 ends on a missing value
    users += [5, 5, 5]                                       # all missing
    ts.extend(t0 + np.array([4 * D, 4 * D + H, 6 * D], dtype=np.int64))
    ids = np.concatenate([ids, [10**7, 10**7 + 10, 10**7 + 20]])
    ts = np.array(ts, dtype=np.int64)
    return pa.table({
        "user_id": pa.array(users, pa.int64()),
        "event_id": pa.array(ids, pa.int64()),
        "event_type": pa.array(TYPES[rng.integers(0, TYPES.size, size=ts.size)]),
        "value": pa.array(np.round(rng.normal(50, 20, size=ts.size), 2)),
        "ts_us": pa.array(ts),
        "span_id": pa.array(ts // (span_hours * H)),
    })


@pytest.fixture(scope="module", params=[24, 1], ids=["span24h", "span1h"])
def ev(request):
    return _events(request.param)


def _run(table: pa.Table, keys, fn, order=()) -> pd.DataFrame:
    """``fn`` over ``table`` as ``_map_sorted_groups`` runs it: on the whole
    table as one block, and on the sorted table cut into three blocks at
    group starts plus an empty block; both must give the same rows."""
    block, starts = q._sorted_groups(table, list(keys), order)
    whole = fn(block, starts)
    cuts = [0, *starts[[starts.size // 3, 2 * starts.size // 3]], block.num_rows]
    outs = [fn(*q._sorted_groups(block.slice(a, b - a), list(keys), order))
            for a, b in zip(cuts[:-1], cuts[1:])]
    empty = fn(*q._sorted_groups(block.slice(0, 0), list(keys), order))
    assert empty.num_rows == 0 and empty.schema == whole.schema
    assert whole.num_rows > 0
    _same(pa.concat_tables([empty, *outs]).to_pandas(), whole.to_pandas())
    return whole.to_pandas()


def _per_group(df: pd.DataFrame, keys, ref, order=()) -> pd.DataFrame:
    return pd.concat([ref(g.sort_values(list(order)) if order else g)
                      for _, g in df.groupby(list(keys), sort=True)],
                     ignore_index=True)


def _same(got: pd.DataFrame, exp: pd.DataFrame):
    assert list(got.columns) == list(exp.columns)
    cols = list(exp.columns)
    pd.testing.assert_frame_equal(got.sort_values(cols).reset_index(drop=True),
                                  exp.sort_values(cols).reset_index(drop=True),
                                  check_exact=True)


def _check(table, keys, kernel, ref, order=()):
    """Kernel output == per-group reference (for an arrow or pandas
    input); returns the reference."""
    if isinstance(table, pd.DataFrame):
        table = pa.Table.from_pandas(table, preserve_index=False)
    exp = _per_group(table.to_pandas(), keys, ref, order)
    _same(_run(table, keys, kernel, order), exp)
    return exp


SPAN = (["user_id", "span_id"], ("ts_us", "event_id"))
TYPE_SPAN = (["event_type", "span_id"], ("ts_us", "event_id"))


# ------------------------------------------------------------ references


def ref_acf1_span(df):
    v = df["value"].to_numpy(dtype=np.float64)
    x, y = v[:-1], v[1:]
    return pd.DataFrame({
        "event_type": [df["event_type"].iloc[0]],
        "span_id": [np.int64(df["span_id"].iloc[0])],
        "cnt": [np.int64(v.size)], "npairs": [np.int64(x.size)],
        "sx": [float(x.sum())], "sy": [float(y.sum())],
        "sxy": [float((x * y).sum())],
        "sx2": [float((x * x).sum())], "sy2": [float((y * y).sum())],
        "first_v": [float(v[0])], "last_v": [float(v[-1])],
    })


def ref_acf1_merge(df):
    bx = df["last_v"].to_numpy()[:-1]
    by = df["first_v"].to_numpy()[1:]
    n_events = int(df["cnt"].sum())
    if n_events < 3:
        r = np.nan
    else:
        m = float(int(df["npairs"].sum()) + bx.size)
        sx = float(df["sx"].sum() + bx.sum())
        sy = float(df["sy"].sum() + by.sum())
        sxy = float(df["sxy"].sum() + (bx * by).sum())
        sx2 = float(df["sx2"].sum() + (bx * bx).sum())
        sy2 = float(df["sy2"].sum() + (by * by).sum())
        den = (m * sx2 - sx * sx) * (m * sy2 - sy * sy)
        r = float((m * sxy - sx * sy) / np.sqrt(den)) if den > 0 else np.nan
    return pd.DataFrame({"event_type": [df["event_type"].iloc[0]],
                         "acf1": [round_ha(r)], "n": [np.int64(n_events)]})


def ref_gap_span(df):
    t = df["ts_us"].to_numpy()
    gaps = np.diff(t)
    return pd.DataFrame({
        "event_type": [df["event_type"].iloc[0]],
        "span_id": [np.int64(df["span_id"].iloc[0])],
        "n": [np.int64(gaps.size)], "s1": [np.int64(gaps.sum())],
        "gmin": [np.int64(gaps.min()) if gaps.size else NONE],
        "gmax": [np.int64(gaps.max()) if gaps.size else np.int64(-1)],
        "first_ts": [np.int64(t[0])], "last_ts": [np.int64(t[-1])],
    })


def ref_gap_merge(df):
    bg = df["first_ts"].to_numpy()[1:] - df["last_ts"].to_numpy()[:-1]
    n = int(df["n"].sum()) + bg.size
    s1 = int(df["s1"].sum()) + int(bg.sum())
    return pd.DataFrame({
        "event_type": [df["event_type"].iloc[0]],
        "n_gaps": [np.int64(n)],
        "mean_gap_us": [round_ha(float(s1) / n) if n else np.nan],
        "min_gap_us": [np.concatenate([df["gmin"].to_numpy(), bg]).min()],
        "max_gap_us": [np.concatenate([df["gmax"].to_numpy(), bg]).max()],
    })


def ref_funnel_span(df):
    et, ts = df["event_type"].to_numpy(), df["ts_us"].to_numpy()
    clicks, purch = ts[et == "click"], ts[et == "purchase"]
    fc = clicks[0] if clicks.size else NONE
    fp = purch[0] if purch.size else NONE
    after = purch[purch >= fc]
    return pd.DataFrame({
        "user_id": [np.int64(df["user_id"].iloc[0])],
        "span_id": [np.int64(df["span_id"].iloc[0])],
        "first_click": [np.int64(fc)], "first_purchase": [np.int64(fp)],
        "first_purchase_after": [np.int64(after[0] if after.size else NONE)],
    })


def ref_funnel_user(df):
    fc_all = df["first_click"].to_numpy()
    has = fc_all < NONE
    if not has.any():
        return pd.DataFrame({"cohort_day": np.empty(0, np.int64),
                             "conv": np.empty(0, np.int64)})
    k = int(np.flatnonzero(has)[0])
    fc = fc_all[k]
    candidates = [df["first_purchase_after"].to_numpy()[k]]
    later = df["first_purchase"].to_numpy()[k + 1:]
    if later.size:
        candidates.append(later.min())
    fp = int(min(candidates))
    return pd.DataFrame({"cohort_day": [np.int64(fc // D)],
                         "conv": [np.int64(fp < NONE and fp - fc <= WIN_US)]})


def ref_session_span(df):
    ts = df["ts_us"].to_numpy()
    brk = np.concatenate([[True], np.diff(ts) > GAP_US])
    sid = np.cumsum(brk) - 1
    n_s = int(sid[-1]) + 1
    counts = np.bincount(sid)
    bounds = np.concatenate([np.flatnonzero(brk), [ts.size]])
    s_first, s_last = ts[bounds[:-1]], ts[bounds[1:] - 1]
    spans = s_last - s_first
    interior = slice(1, n_s - 1)
    return pd.DataFrame({
        "user_id": [np.int64(df["user_id"].iloc[0])],
        "span_id": [np.int64(df["span_id"].iloc[0])],
        "n_events": [np.int64(ts.size)],
        "f_cnt": [np.int64(counts[0])], "f_first": [s_first[0]], "f_last": [s_last[0]],
        "l_cnt": [np.int64(counts[-1])], "l_first": [s_first[-1]], "l_last": [s_last[-1]],
        "single": [n_s == 1], "int_n": [np.int64(max(0, n_s - 2))],
        "int_span_sum": [np.int64(spans[interior].sum() if n_s > 2 else 0)],
        "int_max": [np.int64(counts[interior].max() if n_s > 2 else 0)],
    })


def ref_session_user(df):
    n_sess = max_cnt = span_sum = 0
    open_cnt = open_first = open_last = None

    def finalize():
        nonlocal n_sess, max_cnt, span_sum
        n_sess += 1
        max_cnt = max(max_cnt, open_cnt)
        span_sum += open_last - open_first

    for row in df.itertuples(index=False):
        if open_cnt is not None and row.f_first - open_last <= GAP_US:
            open_cnt += row.f_cnt
            open_last = row.f_last
        else:
            if open_cnt is not None:
                finalize()
            open_cnt, open_first, open_last = row.f_cnt, row.f_first, row.f_last
        if not row.single:
            finalize()
            n_sess += int(row.int_n)
            span_sum += int(row.int_span_sum)
            max_cnt = max(max_cnt, int(row.int_max))
            open_cnt, open_first, open_last = row.l_cnt, row.l_first, row.l_last
    finalize()
    n_events = int(df["n_events"].sum())
    return pd.DataFrame({
        "user_id": [np.int64(df["user_id"].iloc[0])],
        "n_events": [np.int64(n_events)], "n_sessions": [np.int64(n_sess)],
        "max_session_events": [np.int64(max_cnt)],
        "avg_events_per_session": [round_ha(n_events / n_sess)],
        "avg_session_sec": [round_ha(int(span_sum) / n_sess / 1_000_000.0)],
    })


def ref_asof_span(df):
    ts, ids = df["ts_us"].to_numpy(), df["event_id"].to_numpy()
    et = df["event_type"].to_numpy()
    is_p = et == "purchase"
    last_p = np.maximum.accumulate(np.where(is_p, np.arange(ts.size), -1))
    before = np.concatenate([[-1], last_p[:-1]])
    click = np.flatnonzero(et == "click")
    m = before[click]
    has = m >= 0
    uid, span = np.int64(df["user_id"].iloc[0]), np.int64(df["span_id"].iloc[0])
    res = pd.DataFrame({
        "user_id": np.full(click.size, uid), "span_id": np.full(click.size, span),
        "kind": np.where(has, 0, 1).astype(np.int64),
        "event_id": ids[click].astype(np.int64), "ts_us": ts[click],
        "purchase_event_id": np.where(has, ids[np.maximum(m, 0)], -1).astype(np.int64),
        "lag_us": np.where(has, ts[click] - ts[np.maximum(m, 0)], -1).astype(np.int64),
    })
    if is_p.any():
        j = int(np.flatnonzero(is_p)[-1])
        res = pd.concat([res, pd.DataFrame({
            "user_id": [uid], "span_id": [span], "kind": [np.int64(2)],
            "event_id": [np.int64(ids[j])], "ts_us": [np.int64(ts[j])],
            "purchase_event_id": [np.int64(-1)], "lag_us": [np.int64(-1)],
        })], ignore_index=True)
    return res


def ref_asof_user(df):
    last_id, last_ts, pend_id, pend_ts = -1, -1, -1, -1
    cur_span = None
    ev, pid, lag = [], [], []
    for row in df.itertuples(index=False):
        if cur_span != row.span_id:
            if pend_id != -1:
                last_id, last_ts, pend_id = pend_id, pend_ts, -1
            cur_span = row.span_id
        if row.kind == 1:
            ev.append(row.event_id)
            pid.append(last_id)
            lag.append(row.ts_us - last_ts if last_id != -1 else -1)
        else:
            pend_id, pend_ts = row.event_id, row.ts_us
    return pd.DataFrame({"event_id": np.array(ev, dtype=np.int64),
                         "purchase_event_id": np.array(pid, dtype=np.int64),
                         "lag_us": np.array(lag, dtype=np.int64)})


def ref_cohort_user(df):
    days = np.unique(df["day"].to_numpy())
    return pd.DataFrame({"cohort": np.full(days.size, days[0], dtype=np.int64),
                         "offset": (days - days[0]).astype(np.int64)})


def ref_offsets(df):
    c = df["c"].to_numpy(dtype=np.int64)
    nz = len(df)
    return pd.DataFrame({
        "user_id": df["user_id"].to_numpy(dtype=np.int64),
        "event_id": np.full(nz, -1, dtype=np.int64), "value": np.zeros(nz),
        "ts_us": np.zeros(nz, dtype=np.int64),
        "span_id": df["span_id"].to_numpy(dtype=np.int64),
        "kind": np.ones(nz, dtype=np.int64),
        "off": np.concatenate([[0], np.cumsum(c)[:-1]]).astype(np.int64),
    })


def ref_window_span(bucket):
    def per_span(df):
        offset = int(df.loc[df["kind"] == 1, "off"].iloc[0])
        uid = np.int64(df["user_id"].iloc[0])
        v = np.ascontiguousarray(df.loc[df["kind"] == 0, "value"].to_numpy(),
                                 dtype=np.float64)
        n = v.size
        first_w, last_we = -(-offset // bucket), (offset + n) // bucket
        head_end = tail_start = n
        out = []
        if last_we > first_w:
            head_end, tail_start = first_w * bucket - offset, last_we * bucket - offset
            xs = v[head_end:tail_start]
            m = sk.compute_window_sketches(xs, bucket)
            nw = m.shape[0]
            rows = {"user_id": np.full(nw, uid, dtype=np.int64),
                    "window_id": np.arange(first_w, last_we, dtype=np.int64),
                    "kind": np.zeros(nw, dtype=np.int64),
                    "rank": np.zeros(nw, dtype=np.int64), "value": np.zeros(nw)}
            for i, c in enumerate(sk.FIELDS):
                rows[c] = m[:, i]
            rows["s1_seq"] = sk.seq_window_sums(xs, bucket)
            out.append(pd.DataFrame(rows))
        b_local = np.concatenate([np.arange(0, head_end), np.arange(tail_start, n)])
        ranks = offset + b_local
        rows = {"user_id": np.full(b_local.size, uid, dtype=np.int64),
                "window_id": (ranks // bucket).astype(np.int64),
                "kind": np.ones(b_local.size, dtype=np.int64),
                "rank": ranks.astype(np.int64), "value": v[b_local]}
        for c in q._SKETCH_COLS:
            rows[c] = np.zeros(b_local.size)
        out.append(pd.DataFrame(rows))
        return pd.concat(out, ignore_index=True)

    return per_span


def ref_sketch_window(bucket):
    def one(df):
        v = np.ascontiguousarray(df["value"].to_numpy(), dtype=np.float64)
        m = sk.compute_window_sketches(v, bucket)[0]
        rows = {"user_id": [np.int64(df["user_id"].iloc[0])],
                "window_id": [np.int64(df["window_id"].iloc[0])]}
        for i, c in enumerate(sk.FIELDS):
            rows[c] = [float(m[i])]
        rows["s1_seq"] = [float(sk.seq_window_sums(v, bucket)[0])]
        return pd.DataFrame(rows)

    return one


def ref_gapfill_span(df, bucket=16):
    offset = int(df.loc[df["kind"] == 1, "off"].iloc[0])
    ev = df[df["kind"] == 0]
    n = len(ev)
    uid = np.int64(df["user_id"].iloc[0])
    v = np.ascontiguousarray(ev["value"].to_numpy(), dtype=np.float64)
    missing = (ev["event_id"].to_numpy() % 10) == 0
    ranks = offset + np.arange(n, dtype=np.int64)
    out = []

    def rows(kind, r, val, r2=None, v2=None):
        nz = np.asarray(r).size
        out.append(pd.DataFrame({
            "user_id": np.full(nz, uid, dtype=np.int64),
            "kind": np.full(nz, kind, dtype=np.int64),
            "slot": (np.asarray(r, dtype=np.int64) // bucket if kind == 0
                     else np.full(nz, -1, dtype=np.int64)),
            "rank": np.asarray(r, dtype=np.int64),
            "value": np.asarray(val, dtype=np.float64),
            "rank2": np.zeros(nz, np.int64) if r2 is None else np.asarray(r2, np.int64),
            "value2": np.zeros(nz) if v2 is None else np.asarray(v2, np.float64),
        }))

    valid = ~missing
    if not valid.any():
        rows(1, ranks, v)
        return pd.concat(out, ignore_index=True)
    vloc = np.flatnonzero(valid)
    fv, lv = vloc[0], vloc[-1]
    rows(0, ranks[valid], v[valid])
    interior = missing & (np.arange(n) > fv) & (np.arange(n) < lv)
    if interior.any():
        pos = np.flatnonzero(interior)
        pi = vloc[np.searchsorted(vloc, pos, side="right") - 1]
        ni = vloc[np.searchsorted(vloc, pos, side="left")]
        gp, gpi, gni = (ranks[i].astype(np.float64) for i in (pos, pi, ni))
        rows(0, ranks[pos], v[pi] + (v[ni] - v[pi]) * (gp - gpi) / (gni - gpi))
    edge = missing & ~interior
    if edge.any():
        pos = np.flatnonzero(edge)
        rows(1, ranks[pos], v[pos])
    rows(2, [ranks[fv]], [v[fv]], [ranks[lv]], [v[lv]])
    return pd.concat(out, ignore_index=True)


def ref_gapfill_resolve(df):
    ca = df[df["kind"] == 2]
    un = df[df["kind"] == 1] if len(ca) else df.iloc[:0]
    first_r, first_v = ca["rank"].to_numpy(), ca["value"].to_numpy()
    last_r, last_v = ca["rank2"].to_numpy(), ca["value2"].to_numpy()
    o1, o2 = np.argsort(first_r), np.argsort(last_r)
    first_r, first_v, last_r, last_v = first_r[o1], first_v[o1], last_r[o2], last_v[o2]
    p = un["rank"].to_numpy(dtype=np.int64)
    ip = np.searchsorted(last_r, p, side="left") - 1
    iq = np.searchsorted(first_r, p, side="right")
    gpi = last_r[np.clip(ip, 0, last_r.size - 1)].astype(np.float64)
    gni = first_r[np.clip(iq, 0, first_r.size - 1)].astype(np.float64)
    pv = last_v[np.clip(ip, 0, last_r.size - 1)]
    nv = first_v[np.clip(iq, 0, first_r.size - 1)]
    with np.errstate(invalid="ignore", divide="ignore"):
        interp = pv + (nv - pv) * (p.astype(np.float64) - gpi) / (gni - gpi)
    filled = np.where(ip < 0, nv, np.where(iq >= first_r.size, pv, interp))
    return pd.DataFrame({"user_id": un["user_id"].to_numpy(dtype=np.int64),
                         "rank": p, "value": filled.astype(np.float64)})


def ref_coarse_merge(factor):
    s1 = sk.FIELDS.index("s1")

    def one(df):
        fine = df[list(sk.FIELDS)].to_numpy(dtype=np.float64)
        s1_seq = df["s1_seq"].to_numpy(dtype=np.float64)
        fine[:, s1] = s1_seq
        merged = sk.merge_adjacent(fine, factor)
        merged[0, s1] = sk.seq_window_sums(s1_seq, factor)[0]
        f = sk.derive_features(merged)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], dtype=np.int64),
            "window_id": np.array([df["coarse_id"].iloc[0]], dtype=np.int64),
            "value_count": f["count"].astype(np.int64),
            "value_mean": round_ha(f["mean"] / 100.0),
            "value_var": round_ha(f["var"] / 10000.0),
        })

    return one


BAND = 60 * 1_000_000


def ref_band_join(band_us):
    """The range join's former per-(user_id, bucket) ``map_groups`` body."""
    def resolve(df):
        err = df[df["kind"] == 1]
        e_ts = err["ts_us"].to_numpy(dtype=np.int64)
        e_id = err["event_id"].to_numpy(dtype=np.int64)
        click_ts = np.sort(df.loc[df["kind"] == 0, "ts_us"].to_numpy(dtype=np.int64))
        if click_ts.size == 0:
            n_in = np.zeros(e_ts.size, dtype=np.int64)
            nearest = np.full(e_ts.size, -1, dtype=np.int64)
        else:
            lo = np.searchsorted(click_ts, e_ts - band_us, side="left")
            hi = np.searchsorted(click_ts, e_ts + band_us, side="right")
            n_in = (hi - lo).astype(np.int64)
            pos = np.searchsorted(click_ts, e_ts, side="left")
            prev_d = np.where(pos > lo, e_ts - click_ts[np.maximum(pos - 1, 0)], NONE)
            next_d = np.where(pos < hi,
                              click_ts[np.minimum(pos, click_ts.size - 1)] - e_ts, NONE)
            nearest = np.where(n_in > 0, np.minimum(prev_d, next_d),
                               np.int64(-1)).astype(np.int64)
        return pd.DataFrame({"event_id": e_id, "n_clicks_in_band": n_in,
                             "nearest_click_lag_us": nearest})

    return resolve


# ----------------------------------------------------------------- tests


def test_acf1_kernels(ev):
    t = ev.select(["event_type", "event_id", "value", "ts_us", "span_id"])
    parts = _check(t, TYPE_SPAN[0], q._acf1_span, ref_acf1_span, TYPE_SPAN[1])
    _check(parts, ["event_type"],
           q._acf1_merge, ref_acf1_merge, ("span_id",))


def test_interarrival_kernels(ev):
    t = ev.select(["event_type", "event_id", "ts_us", "span_id"])
    parts = _check(t, TYPE_SPAN[0], q._interarrival_span, ref_gap_span, TYPE_SPAN[1])
    assert (parts["n"] == 0).any()  # a single-event (type, span) slice
    _check(parts, ["event_type"],
           q._interarrival_merge, ref_gap_merge, ("span_id",))


def test_funnel_kernels(ev):
    t = ev.select(["user_id", "event_id", "event_type", "ts_us", "span_id"])
    parts = _check(t, SPAN[0], q._funnel_span, ref_funnel_span, SPAN[1])
    _check(parts, ["user_id"],
           functools.partial(q._funnel_user, win_us=WIN_US), ref_funnel_user,
           ("span_id",))


def test_session_kernels(ev):
    t = ev.select(["user_id", "event_id", "ts_us", "span_id"])
    parts = _check(t, SPAN[0], functools.partial(q._session_span, gap_us=GAP_US),
                   ref_session_span, SPAN[1])
    hot = parts[parts["user_id"] == 3]
    assert len(hot) >= 25 and parts["single"].any() and not parts["single"].all()
    _check(parts, ["user_id"],
           functools.partial(q._session_user, gap_us=GAP_US), ref_session_user,
           ("span_id",))


def test_asof_kernels(ev):
    t = ev.select(["user_id", "event_id", "event_type", "ts_us", "span_id"])
    parts = _check(t, SPAN[0], q._asof_span, ref_asof_span, SPAN[1])
    carry = parts[parts["kind"] > 0]
    assert (carry["kind"] == 1).any() and (carry["kind"] == 2).any()
    fixed = _check(carry, ["user_id"], q._asof_user, ref_asof_user, ("span_id", "kind"))
    # the driver merge takes every span row: the resolved clicks pass
    # through, and the unresolved ones resolve as over the carry alone
    resolved = parts[parts["kind"] == 0][list(fixed.columns)]
    _same(_run(pa.Table.from_pandas(parts, preserve_index=False), ["user_id"],
               q._asof_user, ("span_id", "kind")),
          pd.concat([resolved, fixed], ignore_index=True))


def _batch_halves(ev, key):
    """Per-batch distinct-``key`` partials of two batches (a key seen by
    both batches appears twice, as the per-batch combiners ship it)."""
    df = ev.to_pandas()
    mid = len(df) // 2
    return pd.concat([h.groupby(["user_id", key]).size().reset_index(name="c")
                      for h in (df.iloc[:mid], df.iloc[mid:])], ignore_index=True)


def test_cohort_kernel(ev):
    days = _batch_halves(ev, "span_id").rename(columns={"span_id": "day"})
    assert days.duplicated(["user_id", "day"]).any()
    _check(days[["user_id", "day"]], ["user_id"], q._cohort_user, ref_cohort_user,
           ("day",))


def _offsets(ev):
    counts = _batch_halves(ev, "span_id")
    t = pa.Table.from_pandas(counts, preserve_index=False)
    merged = counts.groupby(["user_id", "span_id"])["c"].sum().reset_index()
    exp = _per_group(merged, ["user_id"], ref_offsets, ("span_id",))
    _same(_run(t, ["user_id"], q._span_offsets, ("span_id",)), exp)
    return exp


def _joined(ev, cents=False):
    """Events unioned with their offset rows, as _join_span_offsets does."""
    df = ev.select(["user_id", "event_id", "value", "ts_us", "span_id"]).to_pandas()
    if cents:
        df["value"] = np.round(df["value"].to_numpy() * 100)
    df["kind"] = 0
    df["off"] = 0
    return pa.Table.from_pandas(pd.concat([df, _offsets(ev)], ignore_index=True),
                                preserve_index=False)


def test_offsets_kernel(ev):
    _offsets(ev)


@pytest.mark.parametrize("cents", [True, False], ids=["cents", "raw"])
@pytest.mark.parametrize("bucket", [16, 3])
def test_window_kernels(ev, bucket, cents):
    joined = _joined(ev, cents=cents)
    parts = _check(joined, SPAN[0], functools.partial(q._window_span, bucket=bucket),
                   ref_window_span(bucket), SPAN[1])
    boundary = parts[parts["kind"] == 1][["user_id", "window_id", "rank", "value"]]
    assert len(boundary) and ((parts["kind"] == 0).any() or bucket == 16)
    sketches = _check(boundary, ["user_id", "window_id"],
                      functools.partial(q._sketch_windows, bucket=bucket),
                      ref_sketch_window(bucket), ("rank",))
    full = pd.concat([parts[parts["kind"] == 0][["user_id", "window_id", *q._SKETCH_COLS]],
                      sketches], ignore_index=True)
    # every span row through the one (user_id, window_id) kernel == the
    # in-span sketch rows plus the edge windows sketched apart
    _same(_run(pa.Table.from_pandas(parts, preserve_index=False), ["user_id", "window_id"],
               functools.partial(q._window_sketches, bucket=bucket), ("kind", "rank")),
          full)
    # 10x merge over every window's sketch row
    full["coarse_id"] = full["window_id"] // 10
    assert full.groupby(["user_id", "coarse_id"]).size().max() == 10
    _check(full, ["user_id", "coarse_id"],
           functools.partial(q._coarse_merge, factor=10), ref_coarse_merge(10),
           ("window_id",))


def test_gapfill_kernels(ev):
    parts = _check(_joined(ev), SPAN[0], functools.partial(q._gapfill_span, bucket=16),
                   ref_gapfill_span, SPAN[1])
    assert set(parts["kind"]) == {0, 1, 2}
    carry = parts[parts["kind"] > 0]
    fixed = _check(carry, ["user_id"], q._gapfill_resolve, ref_gapfill_resolve,
                   ("rank",))
    assert 5 not in set(fixed["user_id"])  # the all-missing user stays unfilled
    rows = pd.concat([parts[parts["kind"] == 0][["user_id", "rank", "value"]], fixed],
                     ignore_index=True)
    # every span row routed by (user_id, slot): the resolved rows pass
    # through, each user's carry rows resolve as one group
    _same(_run(pa.Table.from_pandas(parts, preserve_index=False), ["user_id", "slot"],
               q._gapfill_resolve, ("rank",)), rows)
    rows["window_id"] = rows["rank"] // 16
    _check(rows, ["user_id", "window_id"],
           functools.partial(q._sketch_windows, bucket=16), ref_sketch_window(16),
           ("rank",))


def _band_events() -> pa.Table:
    """Raw events for the range join: a hot user with 100x the events of
    the others, dense enough that a band holds many clicks (some sharing a
    ts); a user with errors and no clicks; a user with clicks and no
    errors; and an error on a bucket boundary with clicks exactly one band
    before and after it, and one microsecond further out."""
    rng = np.random.default_rng(5)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype("int64")
    rows = []  # (user_id, ts offset, event_type)
    hot = np.cumsum(rng.choice([0, 1_000_000, 7_000_000, 20_000_000], size=3000))
    rows += [(1, t, e) for t, e in zip(hot, rng.choice(["click", "error", "view"], 3000))]
    for u in (6, 7, 8):  # ordinary users, 30 events each
        ts = np.sort(rng.integers(0, 2 * H, 30))
        rows += [(u, t, e) for t, e in zip(ts, rng.choice(["click", "error", "view"], 30))]
    rows += [(2, 5 * BAND + 7, "error"), (2, 5 * BAND + 9, "error"), (2, 9 * BAND, "view")]
    rows += [(3, 2 * BAND, "click"), (3, 2 * BAND + 1, "click"), (3, 8 * BAND, "click")]
    edge = 10 * BAND
    rows += [(4, edge, "error"), (4, edge - BAND, "click"), (4, edge + BAND, "click"),
             (4, edge - BAND - 1, "click"), (4, edge + BAND + 1, "click"),
             (5, edge + BAND - 1, "error"), (5, edge + 2 * BAND - 1, "click")]
    uid, off, et = zip(*rows)
    return pa.table({
        "user_id": pa.array(uid, pa.int64()),
        "ts": pa.array((t0 + np.array(off, dtype=np.int64)).view("datetime64[us]")),
        "event_id": pa.array(rng.permutation(len(rows)) + 1, pa.int64()),
        "event_type": pa.array(et, pa.string()),
    })


def test_band_join_kernel():
    """The range join's segment kernel equals the per-group pandas body it
    replaced, bit for bit, and both band edges are inclusive."""
    events = _band_events()
    emitted = q._band_rows(events, BAND)
    got = _check(emitted, ["user_id", "bucket"], functools.partial(q._band_join, band_us=BAND),
                 ref_band_join(BAND), ("kind", "ts_us"))
    df = emitted.to_pandas()
    groups = df.groupby(["user_id", "bucket"])["kind"].agg(["min", "max"])
    assert ((groups["min"] == 1) & (groups["max"] == 1)).any()  # errors, no clicks
    assert ((groups["min"] == 0) & (groups["max"] == 0)).any()  # clicks, no errors
    hot = df[df["user_id"] == 1].groupby("bucket").size()
    assert hot.max() > 20 and len(hot) > 100
    raw = events.to_pandas()
    res = got.set_index("event_id")

    def errors(user):
        ids = raw.loc[(raw["user_id"] == user) & (raw["event_type"] == "error"), "event_id"]
        return [tuple(res.loc[i]) for i in ids]

    assert errors(4) == [(2, BAND)] and errors(5) == [(1, BAND)]
    assert errors(2) == [(0, -1), (0, -1)]


def test_event_family_has_no_map_groups():
    """No function of queries.py calls ``.map_groups(`` or
    ``.materialize(``: every per-group step of the ``q_events_*`` entries
    is a segment kernel on ``_map_sorted_groups`` or ``_merge_on_driver``,
    reached through the module helpers below."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(q))
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def calls_map_groups(name):
        return any(isinstance(n, ast.Attribute) and n.attr == "map_groups"
                   for n in ast.walk(funcs[name]))

    todo = [n for n in funcs if n.startswith("q_events_")]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n.id for n in ast.walk(funcs[name])
                     if isinstance(n, ast.Name) and n.id in funcs]
    assert {"_map_sorted_groups", "_merge_on_driver", "_span_partials",
            "_join_span_offsets", "_positional_window_sketches", "_window_sketches",
            "_sketch_windows", "_band_join"} <= seen
    assert sorted(n for n in funcs if calls_map_groups(n)) == []
    # nor does any line of the module materialize a Dataset: an event
    # entry is one Ray execution
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "materialize"] == []


def _blocks_dataset(table: pa.Table):
    """``table`` sorted by span as a Ray Dataset of three blocks, each
    holding rows of every busy key, plus an empty one."""
    import ray.data

    t = table.sort_by("span_id")
    cut = [0, t.num_rows // 3, 2 * t.num_rows // 3, t.num_rows]
    return ray.data.from_arrow([t.slice(0, 0), *(t.slice(a, b - a)
                                                 for a, b in zip(cut[:-1], cut[1:]))])


_DRIVER_MERGES = {
    "acf1": (TYPE_SPAN, q._acf1_span, ["event_type"], q._acf1_merge, ("span_id",)),
    "interarrival": (TYPE_SPAN, q._interarrival_span, ["event_type"],
                     q._interarrival_merge, ("span_id",)),
    "asof": (SPAN, q._asof_span, ["user_id"], q._asof_user, ("span_id", "kind")),
}


@pytest.mark.parametrize("name", list(_DRIVER_MERGES))
def test_driver_merges_equal_the_sorted_group_map(ray_session, ev, name):
    """A driver merge (_merge_on_driver) gives the rows the same kernel gives
    on _map_sorted_groups over a Dataset of several blocks, bit for bit."""
    (span_keys, span_order), per_span, keys, merge, order = _DRIVER_MERGES[name]
    parts = per_span(*q._sorted_groups(ev, span_keys, span_order))
    ds = _blocks_dataset(parts)
    assert ds.num_blocks() == 4
    got = q._merge_on_driver(ds, keys, merge, order).to_pandas()
    assert len(got)
    _same(got, q._map_sorted_groups(ds, keys, merge, order).to_pandas())
