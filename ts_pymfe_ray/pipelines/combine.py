"""The one grouped partial aggregate every combiner-style query runs on.

Two steps, both Arrow hash aggregates:

1. per batch, ``prep(batch)`` builds the key and value columns and one
   ``group_by(keys).aggregate(...)`` reduces the batch to one row per
   group (rows, non-missing count, sum, min, max);
2. on the driver, one more ``group_by`` over the concatenated partial rows
   merges them: counts and sums add, min of mins, max of maxes.

Only the partial rows (bounded by groups x batches) leave the tasks.  A
float NaN counts as missing, like a NULL (the pandas and SQL aggregate
semantics every call site relies on); a NULL key is a group of its own,
as in SQL ``GROUP BY``.  Float sums accumulate in row order within a
batch, then in partial order on the driver, as DuckDB's ``SUM`` does.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# partial aggregate -> the aggregate that merges the partials
_MERGE = {"size": "sum", "count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _aggregate(table: pa.Table, keys: list[str], ops: list[str]) -> pa.Table:
    """``table`` grouped by ``keys``, its column ``v{i}`` reduced by
    ``ops[i]`` into a column of the same name (``size`` counts rows)."""
    g = table.group_by(keys, use_threads=False).aggregate(
        [(f"v{i}", "count", pc.CountOptions("all")) if op == "size" else (f"v{i}", op)
         for i, op in enumerate(ops)])
    cols = [f"v{i}_{'count' if op == 'size' else op}" for i, op in enumerate(ops)]
    return g.select(keys + cols).rename_columns(keys + [f"v{i}" for i in range(len(ops))])


def nan_to_null(x):
    """A float column with every NaN read as NULL; other columns as-is."""
    if pa.types.is_floating(x.type):
        return pc.if_else(pc.is_nan(x), pa.scalar(None, x.type), x)
    return x


def partials(batch: pa.Table, keys: list[str], aggs: dict[str, tuple[str, str]],
             prep=None) -> pa.Table:
    """Step 1: one batch reduced to one partial row per group."""
    t = prep(batch) if prep is not None else batch
    cols = {}
    for k in keys:
        x = t.column(k)
        cols[k] = x.cast(x.type.value_type) if pa.types.is_dictionary(x.type) else x
    for i, (c, _) in enumerate(aggs.values()):
        cols[f"v{i}"] = nan_to_null(t.column(c))
    return _aggregate(pa.table(cols), keys, [op for _, op in aggs.values()])


def merge(tables: list[pa.Table], keys: list[str],
          aggs: dict[str, tuple[str, str]]) -> pa.Table:
    """Step 2: the partial tables merged into one row per group, sorted by
    ``keys``, with one column per ``aggs`` entry.  No partial row at all
    gives an empty table of null-typed columns."""
    names = keys + list(aggs)
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({n: pa.array([], pa.null()) for n in names})
    g = _aggregate(pa.concat_tables(tables, promote_options="permissive"), keys,
                   [_MERGE[op] for _, op in aggs.values()])
    return g.rename_columns(names).sort_by([(k, "ascending") for k in keys])


def combine(ds, keys: list[str], aggs: dict[str, tuple[str, str]],
            prep=None) -> pa.Table:
    """Grouped aggregates of a Ray Dataset in one pass: :func:`partials`
    inside ``map_batches``, :func:`merge` on the driver.

    ``aggs`` maps each output column to ``(column, op)``: ``size`` counts
    rows, ``count`` counts non-missing values, ``sum``/``min``/``max``
    skip missing values (an all-missing group reads null).  ``prep``
    builds the key and value columns from a raw batch."""
    def partial(batch: pa.Table) -> pa.Table:
        return partials(batch, keys, aggs, prep)

    # whole blocks, one execution (to_arrow_refs runs the plan again to
    # fetch the schema)
    blocks = ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow")
    return merge(list(blocks), keys, aggs)
