"""The one grouped partial aggregate and the one partial top-k that every
combiner-style query runs on.

:func:`combine` takes two steps, both Arrow hash aggregates:

1. per batch, ``prep(batch)`` builds the key and value columns and one
   ``group_by(keys).aggregate(...)`` reduces the batch to one row per
   group (rows, non-missing count, sum, min, max);
2. on the driver, the concatenated partial rows are sorted by the keys
   and then by every value, and one more ``group_by`` merges them: counts
   and sums add, min of mins, max of maxes.

Only the partial rows (bounded by groups x batches) leave the tasks.  A
float NaN counts as missing, like a NULL (the pandas and SQL aggregate
semantics every call site relies on); a NULL key is a group of its own,
as in SQL ``GROUP BY``.  Float sums accumulate left to right, as DuckDB's
``SUM`` does (pandas' ``groupby().sum()`` is compensated instead): in row
order within a batch, then in sorted partial order on the driver, so the
merged bits follow from the set of partial rows alone, not from the
order the tasks finish in.

:func:`shuffle_combine` is the same step 1 with step 2 as one Ray
shuffle ``groupby``, for key domains too large for the driver (users,
words, content hashes).  :func:`topk` keeps the first k rows of each
group under an Arrow sort, once per batch and once more on the driver
over the partial survivors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

# partial aggregate -> the aggregate that merges the partials
_MERGE = {"size": "sum", "count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _decoded(t: pa.Table, names) -> pa.Table:
    """``t`` with its dictionary-encoded ``names`` columns decoded."""
    for c in names:
        x = t.column(c)
        if pa.types.is_dictionary(x.type):
            t = t.set_column(t.schema.get_field_index(c), c, x.cast(x.type.value_type))
    return t


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
    t = _decoded(prep(batch) if prep is not None else batch, keys)
    cols = {k: t.column(k) for k in keys}
    for i, (c, _) in enumerate(aggs.values()):
        cols[f"v{i}"] = nan_to_null(t.column(c))
    return _aggregate(pa.table(cols), keys, [op for _, op in aggs.values()])


def merge(tables: list[pa.Table], keys: list[str],
          aggs: dict[str, tuple[str, str]]) -> pa.Table:
    """Step 2: the partial tables merged into one row per group, sorted by
    ``keys``, with one column per ``aggs`` entry; the same bits for any
    order of the tables and any spread of their rows over tables.  With no
    partial row, the first zero-row table gives the empty result its
    types; a table without columns (Ray's empty block) is skipped, and
    without any other table the columns are null-typed."""
    names = keys + list(aggs)
    tables = [t for t in tables if t.num_columns]
    tables = [t for t in tables if t.num_rows] or tables[:1]
    if not tables:
        return pa.table({n: pa.array([], pa.null()) for n in names})
    t = pa.concat_tables(tables, promote_options="permissive")
    t = t.sort_by([(c, "ascending") for c in t.column_names])
    g = _aggregate(t, keys, [_MERGE[op] for _, op in aggs.values()])
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

    return merge(fetch_blocks(ds.map_batches(partial, batch_format="pyarrow")), keys, aggs)


def fetch_blocks(ds) -> list[pa.Table]:
    """Every block of ``ds`` on the driver, in one execution and one
    ``ray.get``.  Ray's DeveloperAPI block iterator keeps the zero-row
    blocks and their types (iter_batches skips them), and to_arrow_refs
    would run the plan again to fetch the schema."""
    return ray.get([ref for b in ds.iter_internal_ref_bundles() for ref in b.block_refs])


def fetch_table(ds, schema: pa.Schema) -> pa.Table:
    """Every row of ``ds`` on the driver (:func:`fetch_blocks`) as one
    table of ``schema``: a block without columns (Ray's empty block) is
    skipped, and no rows give the typed zero-row table, as in
    :func:`merge`."""
    blocks = [b for b in fetch_blocks(ds) if b.num_columns]
    t = pa.concat_tables([schema.empty_table(), *blocks], promote_options="permissive")
    return t.select(schema.names).cast(schema)


def shuffle_combine(ds, keys: list[str], aggs: dict[str, tuple[str, str]],
                    prep=None):
    """:func:`combine` for unbounded key domains: :func:`partials` inside
    ``map_batches``, then one Ray shuffle ``groupby(keys)`` merges the
    partial rows (``Sum`` for size/count/sum, ``Min``, ``Max``).  Returns
    the Dataset of one row per group, columns ``keys`` plus the ``aggs``
    names, in no particular order."""
    from ray.data.aggregate import Max, Min, Sum

    ray_agg = {"sum": Sum, "min": Min, "max": Max}

    def partial(batch: pa.Table) -> pa.Table:
        return partials(batch, keys, aggs, prep)

    return ds.map_batches(partial, batch_format="pyarrow").groupby(keys).aggregate(
        *[ray_agg[_MERGE[op]](f"v{i}", alias_name=name)
          for i, (name, (_, op)) in enumerate(aggs.items())])


def group_rank(t: pa.Table, by) -> np.ndarray:
    """Each row's 0-based position within its run of equal ``by`` values
    (``t`` sorted by ``by``; a NULL equals a NULL, as in a group key)."""
    n = t.num_rows
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for c in by:
            a, b = t.column(c).slice(1), t.column(c).slice(0, n - 1)
            new[1:] |= pc.coalesce(pc.not_equal(a, b),
                                   pc.xor(pc.is_null(a), pc.is_null(b))).to_numpy()
    starts = np.flatnonzero(new)
    return np.arange(n) - starts[np.cumsum(new) - 1]


def _head(t: pa.Table, order, k: int, by) -> pa.Table:
    """``t`` sorted by ``by`` then ``order``, first ``k`` rows per group."""
    t = _decoded(t, [*by, *(c for c, _ in order)])
    t = t.sort_by([(c, "ascending") for c in by] + list(order))
    return t.filter(group_rank(t, by) < k)


def topk(ds, order, k: int, by=(), prep=None) -> pa.Table:
    """The first ``k`` rows of each ``by`` group of a Ray Dataset under the
    ``order`` sort keys (``[(column, "ascending" | "descending"), ...]``),
    sorted by ``by`` then ``order``.

    Each batch (``prep`` builds its columns) keeps its own first k rows per
    group inside ``map_batches``; the driver sorts the concatenated
    survivors once more.  Arrow's sort is stable and puts NaN, then NULL,
    last in either direction; pandas' ``sort_values`` puts NaN last too, so
    this is ``sort_values([*by, *order]).groupby(by).head(k)`` of the whole
    Dataset whenever ``order`` breaks every tie.  No rows at all give an
    empty table without columns."""
    by = list(by)

    def partial(batch: pa.Table) -> pa.Table:
        return _head(prep(batch) if prep is not None else batch, order, k, by)

    blocks = list(ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"))
    if not blocks:
        return pa.table({})
    return _head(pa.concat_tables(blocks, promote_options="permissive"), order, k, by)
