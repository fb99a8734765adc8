"""The one grouped partial aggregate (``pipelines/combine.py``) against the
two-stage pandas combiner it replaced, and the guard that no query ported
onto it keeps a per-batch pandas groupby.  No Ray: the two steps run on
plain Arrow batches."""

import ast
import inspect

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
    got = cb.merge([cb.partials(_batch([], [], []), KEYS, AGGS)], KEYS, AGGS)
    assert got.num_rows == 0 and got.column_names == KEYS + list(AGGS)
    assert cb.merge([], KEYS, AGGS).column_names == KEYS + list(AGGS)


def _ported():
    from ts_pymfe_ray.pipelines import queries, textops, tier_analytics
    from ts_pymfe_ray.stages import multimodal

    return {
        queries: ["grouped_stats", "q_lineitem_pricing", "q_orders_by_mktsegment",
                  "q_documents_token_count", "q_customers_per_region",
                  "q_events_retention_cohorts", "q_events_funnel", "q_events_value_var",
                  "q_events_props_extract", "q_documents_length_buckets",
                  "q_documents_split_assign", "q_documents_mix_uniform"],
        textops: ["q_text_quality", "q_text_quality_full", "q_bpe_token_count",
                  "q_quality_filter", "q_lang_id", "q_doc_repetition"],
        tier_analytics: ["tier_diagnostics"],
        multimodal: ["q_multimodal_frames", "q_multimodal_resize",
                     "q_multimodal_decode", "q_multimodal_byte_entropy"],
    }


def _attr_calls(node) -> set[str]:
    return {n.func.attr for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}


def test_ported_combiners_keep_no_pandas_groupby():
    """None of the 23 ported functions, nor a module function or class
    they hand to ``map_batches`` or to ``combine`` as ``prep``, calls
    ``.to_pandas()`` and then ``.groupby(``; each one reaches ``combine``."""
    ported = _ported()
    assert sum(map(len, ported.values())) == 23
    for mod, names in ported.items():
        tree = ast.parse(inspect.getsource(mod))
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        checked = set(names)
        for name in names:
            for call in ast.walk(defs[name]):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "attr", getattr(call.func, "id", None))
                        in ("map_batches", "combine")):
                    checked |= {a.id for a in [*call.args, *(k.value for k in call.keywords)]
                                if isinstance(a, ast.Name) and a.id in defs}
        bad = sorted(n for n in checked if {"to_pandas", "groupby"} <= _attr_calls(defs[n]))
        assert bad == [], f"{mod.__name__}: {bad}"

        def reaches_combine(name, seen=()):
            called = {n.func.id for n in ast.walk(defs[name])
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            return "combine" in called or any(
                reaches_combine(c, (*seen, name)) for c in called
                if c in defs and c not in seen and isinstance(defs[c], ast.FunctionDef))

        assert [n for n in names if not reaches_combine(n)] == [], mod.__name__
