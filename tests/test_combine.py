"""The one grouped partial aggregate and partial top-k
(``pipelines/combine.py``) against the pandas combiners they replaced, and
the guard that no function of the package keeps a hand-rolled pandas
groupby merge.  No Ray, except the one shuffle test: the steps run on
plain Arrow batches."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ts_pymfe_ray.pipelines import combine as cb

KEYS = ["k"]
AGGS = {"n": ("v", "size"), "nv": ("v", "count"), "s": ("v", "sum"),
        "mn": ("v", "min"), "mx": ("v", "max"), "si": ("i", "sum"), "mni": ("i", "min")}
_MERGE = {"size": "sum", "count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _sum(s: pd.Series):
    # SQL/Arrow semantics: an all-missing group sums to null, not 0
    return s.sum(min_count=1)


def pandas_combine(batches, keys=KEYS, aggs=AGGS) -> pd.DataFrame:
    """The reference: per batch ``to_pandas().groupby().agg()``, then a
    second pandas groupby over the concatenated partials."""
    def agg(df, spec):
        named = {o: (c, _sum if op == "sum" else op) for o, (c, op) in spec.items()}
        return df.groupby(keys, observed=True).agg(**named).reset_index()

    parts = pd.concat([agg(b.to_pandas(), aggs) for b in batches], ignore_index=True)
    merged = agg(parts, {o: (o, _MERGE[op]) for o, (_, op) in aggs.items()})
    return merged.sort_values(keys).reset_index(drop=True)


def arrow_combine(batches, keys=KEYS, aggs=AGGS, prep=None) -> pd.DataFrame:
    parts = [cb.partials(b, keys, aggs, prep) for b in batches]
    return cb.merge(parts, keys, aggs).to_pandas()


def _batch(k, v, i, key_type=pa.string()):
    return pa.table({"k": pa.array(k, key_type), "v": pa.array(v, pa.float64()),
                     "i": pa.array(i, pa.int64())})


_BIG = 2**62
_CASES = {
    # NaN and NULL are both missing; "c" has no value at all
    "nan_and_null": [_batch(["a", "a", "b", "c"], [1.5, np.nan, None, np.nan], [1, 2, 3, 4]),
                     _batch(["b", "c", "a"], [2.25, None, -0.5], [5, 6, 7])],
    "empty_and_one_row": [_batch([], [], []), _batch(["a"], [0.125], [9]),
                          _batch(["a", "b"], [1.0, 3.5], [1, 2]), _batch(["b"], [None], [3])],
    "dictionary_keys": [
        _batch(["x", "y", "x"], [1.0, 2.0, 4.0], [1, 2, 3]).set_column(
            0, "k", pc.dictionary_encode(pa.array(["x", "y", "x"]))),
        _batch(["y", "z"], [8.0, 16.0], [4, 5]),
        _batch(["z"], [0.5], [6]).set_column(0, "k", pc.dictionary_encode(pa.array(["z"]))),
    ],
    # sums far past 2^53: exact only as int64
    "int64_near_2_62": [_batch(["a", "a", "b"], [1.0, 2.0, 3.0], [_BIG - 1, -_BIG + 3, _BIG - 7]),
                        _batch(["a", "b", "b"], [1.0, 2.0, 3.0], [_BIG - 5, 11, -_BIG])],
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_combine_matches_pandas_two_stage(case):
    got = arrow_combine(_CASES[case])
    exp = pandas_combine(_CASES[case])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
    assert got["si"].dtype == np.int64 and got["n"].dtype == np.int64


def test_combine_prep_builds_columns_per_batch():
    """``prep`` runs on each raw batch before the partial aggregate."""
    batches = _CASES["nan_and_null"]

    def prep(b):
        return b.append_column("k2", pc.utf8_upper(b.column("k")))

    got = arrow_combine(batches, ["k2"], {"n": ("v", "size"), "s": ("v", "sum")}, prep)
    exp = pd.DataFrame({"k2": ["A", "B", "C"], "n": [3, 2, 2], "s": [1.0, 2.25, np.nan]})
    pd.testing.assert_frame_equal(got, exp, check_exact=True)


def test_null_key_is_a_group_as_in_sql():
    """pandas' groupby drops a NULL-key row; SQL GROUP BY keeps a NULL
    group, and so does the combiner."""
    import duckdb

    batches = [_batch(["a", None, "b"], [1.0, 2.5, 4.0], [1, 2, 3]),
               _batch([None, "a"], [None, 0.25], [4, 5])]
    got = arrow_combine(batches)
    con = duckdb.connect()
    con.register("t", pa.concat_tables(batches))
    exp = con.execute("""
        SELECT k, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, MIN(v) AS mn,
               MAX(v) AS mx, CAST(SUM(i) AS BIGINT) AS si, MIN(i) AS mni
        FROM t GROUP BY k ORDER BY k NULLS LAST""").fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
    assert got["k"].isna().sum() == 1
    assert len(pandas_combine(batches)) == len(got) - 1


def test_combine_of_no_rows_is_empty():
    """Zero-row partials merge into a zero-row table of their types."""
    empty = cb.partials(_batch([], [], []), KEYS, AGGS)
    got = cb.merge([empty, pa.table({})], KEYS, AGGS)
    assert got.num_rows == 0 and got.column_names == KEYS + list(AGGS)
    full = cb.merge([cb.partials(b, KEYS, AGGS) for b in _CASES["nan_and_null"]], KEYS, AGGS)
    assert got.schema == full.schema
    parts = [cb.partials(b, KEYS, AGGS) for b in _CASES["nan_and_null"]]
    assert cb.merge([empty, *parts, empty], KEYS, AGGS).equals(full)
    assert cb.merge([], KEYS, AGGS).column_names == KEYS + list(AGGS)


# a generic partial table as ``cb.partials`` emits it: the keys, then
# v0..v4 = a float sum, an int sum, a float min, a float max, a row count
GKEYS = ["k", "j"]
GAGGS = {"s": ("x", "sum"), "si": ("i", "sum"), "mn": ("x", "min"), "mx": ("x", "max"),
         "n": ("x", "size")}


def _random_partials(rng, n_tables: int, rows: int) -> list:
    """Hand-made partial tables over a few (string, int) keys, NULL among
    both; float values spread over nine decades, so that float sums of the
    same terms in another order give other bits, with NaN and NULL values."""
    out = []
    for _ in range(n_tables):
        n = int(rng.integers(0, rows + 1))
        x = rng.normal(size=(3, n)) * 10.0 ** rng.integers(0, 9, (3, n))
        x[rng.random((3, n)) < 0.05] = np.nan
        null = rng.random((5, n)) < 0.05
        out.append(pa.table({
            "k": pa.array(rng.choice(["books", "code", "web"], n), mask=null[0]),
            "j": pa.array(rng.integers(0, 3, n), mask=null[1]),
            "v0": pa.array(x[0], mask=null[2]),
            "v1": pa.array(rng.integers(-2**40, 2**40, n), mask=null[3]),
            "v2": pa.array(x[1], mask=null[4]),
            "v3": pa.array(x[2]),
            "v4": pa.array(rng.integers(1, 5, n)),
        }))
    return out


def _bits(t: pa.Table) -> list:
    """Every cell of ``t``, floats as bit patterns (a NaN equals a NaN),
    column names aside."""
    out = []
    for c in t.columns:
        if pa.types.is_floating(c.type):
            bits = pc.fill_null(c, 0.0).to_numpy().view(np.uint64)
            out.append((c.type, c.is_null().to_pylist(), bits.tolist()))
        else:
            out.append((c.type, c.to_pylist()))
    return out


def test_merge_is_invariant_to_partial_order():
    """The driver merge gives the same bits whatever order the partial
    tables arrive in and however their rows are spread over tables:
    random permutations, empty partials, a single partial, and one key
    (one row) per partial."""
    rng = np.random.default_rng(7)
    tables = _random_partials(rng, 12, 30)
    ref = cb.merge(tables, GKEYS, GAGGS)
    assert ref.num_rows and ref.column_names == GKEYS + list(GAGGS)
    # key order, NULL last
    keys = [(k is None, k or "", j is None, j or 0) for k, j in
            zip(ref.column("k").to_pylist(), ref.column("j").to_pylist())]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert ref.column("k").null_count and ref.column("j").null_count
    assert np.isnan(ref.column("s").to_numpy(zero_copy_only=False)).any()

    whole = pa.concat_tables(tables)
    empty = whole.schema.empty_table()
    for _ in range(20):
        order = rng.permutation(len(tables))
        assert _bits(cb.merge([tables[i] for i in order], GKEYS, GAGGS)) == _bits(ref)
        rows = whole.take(pa.array(rng.permutation(whole.num_rows)))
        cuts = np.sort(rng.integers(0, rows.num_rows + 1, 5))
        regrouped = [rows.slice(a, b - a) for a, b in zip([0, *cuts], [*cuts, rows.num_rows])]
        assert _bits(cb.merge([empty, *regrouped, empty], GKEYS, GAGGS)) == _bits(ref)
        # one row, hence one key, per partial
        one_each = [rows.slice(i, 1) for i in range(rows.num_rows)]
        assert _bits(cb.merge(one_each, GKEYS, GAGGS)) == _bits(ref)
    assert _bits(cb.merge([rows], GKEYS, GAGGS)) == _bits(ref)
    assert cb.merge([], GKEYS, GAGGS).num_rows == 0
    assert cb.merge([empty, empty], GKEYS, GAGGS).num_rows == 0
    one = next(t for t in tables if t.num_rows).slice(0, 1)
    assert _bits(cb.merge([one], GKEYS, GAGGS)) == _bits(one)


def test_merge_matches_fsum():
    """Each merged float sum is within a few roundings of the exactly
    rounded sum of its terms (``math.fsum``): |err| <= 2 * k * eps *
    sum(|x|) for k terms; a NaN term makes it NaN and a NULL is skipped.
    Int sums, counts, min and max (NaN skipped) are exact."""
    import math

    rng = np.random.default_rng(11)
    whole = pa.concat_tables(_random_partials(rng, 8, 40))
    merged = cb.merge([whole], GKEYS, GAGGS).to_pylist()
    rows = whole.to_pylist()
    eps = np.finfo(np.float64).eps
    for m in merged:
        grp = [r for r in rows if (r["k"], r["j"]) == (m["k"], m["j"])]
        x = [r["v0"] for r in grp if r["v0"] is not None]
        if any(math.isnan(v) for v in x):
            assert math.isnan(m["s"]), m
        elif not x:
            assert m["s"] is None, m
        else:
            bound = 2 * len(x) * eps * math.fsum(abs(v) for v in x)
            assert abs(m["s"] - math.fsum(x)) <= bound, m
        ints = [r["v1"] for r in grp if r["v1"] is not None]
        assert m["si"] == (sum(ints) if ints else None)
        assert m["n"] == sum(r["v4"] for r in grp)
        for name, col, f, none in (("mn", "v2", min, math.inf), ("mx", "v3", max, -math.inf)):
            vals = [r[col] for r in grp if r[col] is not None]
            finite = [v for v in vals if not math.isnan(v)]
            # Arrow's min/max skip NaN; only NaN reads +inf/-inf, only NULL null
            assert m[name] == (f(finite) if finite else none if vals else None), m
    assert len(merged) == len({(r["k"], r["j"]) for r in rows})


def test_combine_is_invariant_to_block_order(ray_session):
    """``combine`` over the same blocks in other orders, so with partials
    arriving in other orders, gives bitwise the same table."""
    import ray

    rng = np.random.default_rng(3)
    blocks = [pa.table({"k": pa.array(rng.choice(["a", "b"], 50)),
                        "x": rng.normal(size=50) * 10.0 ** rng.integers(0, 9, 50)})
              for _ in range(24)]
    ds = ray.data.from_arrow(blocks)
    aggs = {"s": ("x", "sum"), "mn": ("x", "min"), "n": ("x", "size")}
    ref = _bits(cb.combine(ds, ["k"], aggs))
    for seed in (1, 2, 3):
        assert _bits(cb.combine(ds.randomize_block_order(seed=seed), ["k"], aggs)) == ref, seed


class _Batches:
    """The two Dataset calls :func:`cb.topk` makes, over in-memory batches
    (no Ray)."""

    def __init__(self, batches):
        self.batches = batches

    def map_batches(self, fn, batch_format):
        return _Batches([fn(b) for b in self.batches])

    def iter_batches(self, batch_size, batch_format):
        return iter(self.batches)


def pandas_topk(batches, order, k, by=()) -> pd.DataFrame:
    """The reference: the whole input sorted (stable, NaN last), then the
    first k rows of each ``by`` group."""
    df = pd.concat([b.to_pandas() for b in batches], ignore_index=True)
    df = df.sort_values([*by, *(c for c, _ in order)], kind="stable",
                        ascending=[True] * len(by) + [d == "ascending" for _, d in order])
    return (df.groupby(list(by)).head(k) if by else df.head(k)).reset_index(drop=True)


def _topk_batch(g, x, i):
    return pa.table({"g": pa.array(g, pa.string()), "x": pa.array(x, pa.float64()),
                     "i": pa.array(i, pa.int64())})


_ORDER = [("x", "descending"), ("i", "ascending")]
_TOPK_CASES = {
    # "x" ties at the k=2 boundary: the (x, i) order decides
    "ties_at_k": [_topk_batch(["a", "a", "b"], [3.0, 2.0, 1.0], [5, 1, 2]),
                  _topk_batch(["a", "b", "b"], [2.0, 1.0, 1.0], [0, 0, 9])],
    # NaN sorts last in a descending order too
    "nan_last": [_topk_batch(["a", "a", "b"], [np.nan, 1.0, np.nan], [1, 2, 3]),
                 _topk_batch(["b", "a", "b"], [0.5, np.nan, -1.0], [4, 5, 6])],
    "empty_batch": [_topk_batch([], [], []), _topk_batch(["b", "a"], [1.0, 2.0], [1, 2]),
                    _topk_batch([], [], [])],
    "k_above_rows": [_topk_batch(["a"], [1.0], [1]), _topk_batch(["b", "a"], [2.0, 3.0], [2, 3])],
}


@pytest.mark.parametrize("by", [(), ("g",)])
@pytest.mark.parametrize("case", sorted(_TOPK_CASES))
def test_topk_matches_pandas_sort_head(case, by):
    batches = _TOPK_CASES[case]
    for k in (1, 2, 10):
        got = cb.topk(_Batches(batches), _ORDER, k, by).to_pandas()
        pd.testing.assert_frame_equal(got, pandas_topk(batches, _ORDER, k, by),
                                      check_exact=True)


def test_topk_random_tie_heavy_frames():
    """200 random frames, string group keys and a two-column order with
    many ties, split into batches; ``i`` is unique, so every tie breaks."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        t = _topk_batch(rng.choice(["a", "b", "c"], n).tolist(),
                        rng.integers(0, 3, n).astype(float), rng.permutation(n))
        cuts = np.sort(rng.integers(0, n + 1, 3))
        batches = [t.slice(lo, hi - lo) for lo, hi in zip([0, *cuts], [*cuts, n])]
        k, by = int(rng.integers(1, 6)), [(), ("g",)][int(rng.integers(2))]
        got = cb.topk(_Batches(batches), _ORDER, k, by).to_pandas()
        pd.testing.assert_frame_equal(got, pandas_topk(batches, _ORDER, k, by),
                                      check_exact=True)


def test_topk_prep_and_group_rank():
    """``prep`` builds the ranked columns per batch; ``group_rank`` numbers
    each group's rows from 0."""
    batches = [_topk_batch(["a", "b", "a"], [1.0, 2.0, 3.0], [1, 2, 3])]

    def prep(b):
        return b.set_column(1, "x", pc.negate(b.column("x")))

    got = cb.topk(_Batches(batches), _ORDER, 5, ["g"], prep)
    assert got.column("x").to_pylist() == [-1.0, -3.0, -2.0]
    assert cb.group_rank(got, ["g"]).tolist() == [0, 1, 0]
    assert cb.group_rank(got, []).tolist() == [0, 1, 2]
    # a NULL key equals a NULL key, as in a GROUP BY
    nulls = pa.table({"g": pa.array([None, None, "a", "a", None], pa.string())})
    assert cb.group_rank(nulls, ["g"]).tolist() == [0, 1, 0, 1, 0]
    assert cb.topk(_Batches([]), _ORDER, 3).num_rows == 0


def test_shuffle_combine_equals_combine(ray_session):
    """The Ray shuffle merge gives :func:`cb.combine`'s rows, names and
    dtypes on the same batches."""
    import ray

    for case in ("nan_and_null", "empty_and_one_row", "int64_near_2_62"):
        ds = ray.data.from_arrow(_CASES[case])
        got = cb.shuffle_combine(ds, KEYS, AGGS).to_pandas()
        got = got.sort_values(KEYS).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, cb.combine(ds, KEYS, AGGS).to_pandas(),
                                      check_exact=True)


# Functions that still hold ``.to_pandas()`` and ``.groupby(``, and why.
_ALLOWED = {
    # other operators: a shuffle join, a sketch merge, map_groups
    "queries:q_revenue_by_nation": "the union+groupby equi-join (join.py)",
    "queries:q_events_distinct_users_kmv": "KMV sketch merge, not an aggregate",
    "bootstrap:bootstrap_features": "map_groups quantiles per doc",
    "textops:q_dedup_minhash": "map_groups candidate pairs per LSH band",
    "textops:q_dedup_simhash": "map_groups verify per simhash segment",
    "textops:q_dedup_ngram_jaccard": "map_groups self-merge per shingle bucket",
    "textops:q_embeddings_neardup": "map_groups candidate pairs per bucket",
    "textops:q_dedup_clusters_lp": "map_groups hash-to-min rounds",
}


def _functions(path):
    """``(name, node)`` of every module function and class method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def test_ported_combiners_keep_no_pandas_groupby():
    """No function of the package or ``__ray_entry__.py`` (nested functions
    included) calls both ``.to_pandas()`` and ``.groupby(`` — the shape of
    a hand-rolled partial aggregate or top-k merge — unless the allowlist
    names it and says why; every allowlist entry still has the shape."""
    root = pathlib.Path(cb.__file__).parents[2]
    paths = [*sorted((root / "ts_pymfe_ray").rglob("*.py")), root / "__ray_entry__.py"]
    found = set()
    for path in paths:
        for name, node in _functions(path):
            calls = {n.func.attr for n in ast.walk(node)
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
            if {"to_pandas", "groupby"} <= calls:
                found.add(f"{path.stem}:{name}")
    assert sorted(found - set(_ALLOWED)) == []
    assert sorted(set(_ALLOWED) - found) == []
    assert all(_ALLOWED.values())


# The reads of pipelines/queries.py that bypass ``queries._read``, and why.
_READ_PARQUET_ALLOWED = {
    # pushdown-filtered lookups of a few rows, not scans
    "q_embeddings_knn": "the query vector, filtered at the read",
    "q_embeddings_knn_multi": "the query vectors, filtered at the read",
    "_load_centroids": "the k seed vectors, filtered at the read",
}


def _read_parquet_calls(node) -> int:
    return sum(isinstance(n, ast.Call) and "read_parquet" in (
        getattr(n.func, "attr", None), getattr(n.func, "id", None)) for n in ast.walk(node))


def test_query_reads_go_through_read():
    """Every table scan of ``pipelines/queries.py`` goes through
    ``queries._read`` (one read task per row group, no SplitBlocks): no
    code there calls ``read_parquet(`` outside a function the allowlist
    names, and every allowlist entry still does."""
    path = pathlib.Path(cb.__file__).parent / "queries.py"
    funcs = list(_functions(path))
    found = {name for name, node in funcs if _read_parquet_calls(node)}
    assert _read_parquet_calls(ast.parse(path.read_text())) == sum(
        _read_parquet_calls(node) for _, node in funcs)
    assert sorted(found - set(_READ_PARQUET_ALLOWED)) == []
    assert sorted(set(_READ_PARQUET_ALLOWED) - found) == []
