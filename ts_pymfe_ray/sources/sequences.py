"""Sequences-table source: pruned parquet reads + file-shard listing."""

from __future__ import annotations

import glob
import os

import ray.data

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


def _default_num_blocks(paths: str | list[str]) -> int:
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    nfiles = len(paths) if isinstance(paths, list) else 1
    return max(nfiles, 3 * ncpu)


def read_sequences(
    paths: str | list[str],
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Column-pruned read (SURVEY.md 'prune at the read'): only the columns
    a stage needs leave storage.

    ``num_blocks``: explicit block-count override.  A shard with few large
    files would otherwise produce few blocks and starve the map stages (one
    map task per block); defaulting to ~3x the CPU count keeps every core
    fed.  At cluster scale shards have thousands of row groups and the
    override is unnecessary — pass None to let Ray Data decide.
    """
    if num_blocks is None:
        num_blocks = _default_num_blocks(paths)
    return ray.data.read_parquet(
        paths, columns=columns or SEQ_COLUMNS, override_num_blocks=num_blocks
    )


def read_sequences_with_paths(files: list[str]) -> ray.data.Dataset:
    """:func:`read_sequences` of ``files`` plus a ``path`` column naming
    each row's source file — a sharded job takes a row's shard from it."""
    return ray.data.read_parquet(
        files, columns=SEQ_COLUMNS, include_paths=True,
        override_num_blocks=_default_num_blocks(files),
    )
