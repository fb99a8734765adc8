"""Parquet source: column-pruned reads at one task per row group, and
file-shard listing.  It serves the sequences table and every table scan
of ``pipelines/queries.py`` (through ``queries._read``), so no read's
block count follows the cluster's CPU count."""

from __future__ import annotations

import functools
import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

import ts_pymfe_ray._compat  # noqa: F401  (fsspec http probe shim)

SEQ_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]


def list_parquet_files(input_dir: str) -> list[str]:
    files = sorted(glob.glob(os.path.join(input_dir, "**", "*.parquet"), recursive=True))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_dir}")
    return files


def shard_files(files: list[str], num_shards: int) -> list[list[str]]:
    num_shards = min(num_shards, len(files))
    return [files[i::num_shards] for i in range(num_shards)]


class ParquetRowGroupDatasource(Datasource):
    """Parquet files read as one task per row group, or per range of at
    most ``rows_per_task`` rows of one.  The row group is a file's own
    unit of parallel reading, so the task count follows the files (a few
    large files still give many tasks), not the cluster's CPU count, and
    no task needs its output split.  A range task decodes its whole row
    group and keeps its range: worth it only where a row costs far more
    than its decode."""

    def __init__(self, files: list[str], columns: list[str], include_paths: bool,
                 rows_per_task: int | None = None):
        self._read_args = (columns, include_paths)
        self.ranges = []  # (file, row group, first row, rows, bytes)
        for f in files:
            md = pq.read_metadata(f)
            for i in range(md.num_row_groups):
                n, size = md.row_group(i).num_rows, md.row_group(i).total_byte_size
                step = rows_per_task or max(n, 1)
                self.ranges += [(f, i, a, min(step, n - a), size * min(step, n - a) // max(n, 1))
                                for a in range(0, max(n, 1), step)]

    def estimate_inmemory_data_size(self) -> int:
        return sum(r[4] for r in self.ranges)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [ReadTask(functools.partial(_read_range, *r[:4], *self._read_args),
                         BlockMetadata(num_rows=r[3], size_bytes=r[4], input_files=[r[0]],
                                       exec_stats=None))
                for r in self.ranges]


def _read_range(path: str, index: int, first: int, rows: int, columns: list[str],
                include_paths: bool) -> list[pa.Table]:
    t = pq.ParquetFile(path).read_row_group(index, columns=columns).slice(first, rows)
    if include_paths:
        t = t.append_column("path", pa.array([path] * t.num_rows, pa.string()))
    return [t]


def read_row_groups(files: list[str], columns: list[str] = SEQ_COLUMNS,
                    include_paths: bool = False,
                    rows_per_task: int | None = None) -> ray.data.Dataset:
    """:class:`ParquetRowGroupDatasource` over ``files`` as a Dataset.
    ``include_paths`` adds a ``path`` column naming each row's source
    file (a sharded job takes a row's shard from it)."""
    source = ParquetRowGroupDatasource(files, columns, include_paths, rows_per_task)
    return ray.data.read_datasource(source, override_num_blocks=max(len(source.ranges), 1))


def read_sequences(paths: str | list[str],
                   columns: list[str] | None = None) -> ray.data.Dataset:
    """Column-pruned read (SURVEY.md 'prune at the read') of a directory
    (every Parquet file under it) or a list of files, one read task per
    row group (:func:`read_row_groups`): the block layout follows the
    files, not the cluster's CPU count, so every map over the read fuses
    into the read task (no ``SplitBlocks``) and a per-block float sum
    gives the same bits on any cluster size."""
    files = list_parquet_files(paths) if isinstance(paths, str) else paths
    return read_row_groups(files, columns or SEQ_COLUMNS)
