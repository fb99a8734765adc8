"""Shard manifest: exact checkpoint/resume + per-partition lineage/metrics.

Unit of work = an input-file shard (``files[i::num_shards]`` of the source
parquet listing), written under ``out_dir/shard=<id>/``; only after every
row of the shard is written is a manifest line appended (atomic append of
one JSON line).  A job runs all its shards in one streaming execution
and commits each as it completes (``pipelines/flagship._run_sharded``).  On
resume, committed shards are skipped and stale partial output directories
of uncommitted shards are removed first — re-running a partially-failed job
reproduces byte-identical manifests (FIXTURES.md §3 invariant 4).

Each manifest line is also the lineage + metrics record the north rule
mandates: input files, row/window/token counts, wall-clock ms, and a
lineage hash (stable hash of the sorted input file list + engine config).
"""

from __future__ import annotations

import json
import os
import time

from ts_pymfe_ray.synth import stable_hash64

MANIFEST_NAME = "manifest.jsonl"


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST_NAME)


def load_committed(out_dir: str, check_data: bool = True) -> dict[int, dict]:
    """Committed shards (last manifest line per shard wins).

    ``check_data``: a commit line whose shard output directory no longer
    exists is treated as UNCOMMITTED — the manifest is a claim about
    durable data, and resume must recompute a shard whose data was lost
    after commit rather than silently skip it."""
    path = manifest_path(out_dir)
    committed: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("type", "shard") != "shard":
                    continue  # retention / audit records are not commits
                committed[rec["shard_id"]] = rec
    if check_data:
        committed = {
            sid: rec
            for sid, rec in committed.items()
            if os.path.isdir(shard_dir(out_dir, sid))
        }
    return committed


def shard_dir(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, f"shard={shard_id}")


def clean_uncommitted(out_dir: str, num_shards: int) -> list[int]:
    """Remove partial output dirs for shards not in the manifest; returns
    the removed shard ids."""
    import shutil

    committed = load_committed(out_dir)
    removed = []
    for sid in range(num_shards):
        d = shard_dir(out_dir, sid)
        if sid not in committed and os.path.isdir(d):
            shutil.rmtree(d)
            removed.append(sid)
    return removed


def lineage_hash(input_files: list[str], config: dict) -> str:
    key = json.dumps({"files": sorted(input_files), "config": config}, sort_keys=True)
    return f"{stable_hash64(key):016x}"


def commit_shard(
    out_dir: str,
    shard_id: int,
    input_files: list[str],
    config: dict,
    rows: int,
    tokens: int,
    wall_ms: float,
    extra: dict | None = None,
) -> dict:
    rec = {
        "shard_id": shard_id,
        "input_files": sorted(input_files),
        "lineage_hash": lineage_hash(input_files, config),
        "rows": rows,
        "tokens": tokens,
        "wall_ms": round(wall_ms, 3),
        "commit_unix": round(time.time(), 3),
    }
    if extra:
        rec.update(extra)
    os.makedirs(out_dir, exist_ok=True)
    with open(manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    return rec


def manifest_fingerprint(out_dir: str) -> str:
    """Order-insensitive fingerprint of the manifest's durable fields
    (commit timestamps excluded) — equal across a straight run and a
    kill+resume run."""
    committed = load_committed(out_dir)
    stable = [
        {k: v for k, v in rec.items() if k not in ("commit_unix", "wall_ms")}
        for _, rec in sorted(committed.items())
    ]
    return f"{stable_hash64(json.dumps(stable, sort_keys=True)):016x}"


class AttemptLock:
    """Advisory single-writer lock for an output directory.

    Two drivers resuming the same out_dir concurrently would race
    clean_uncommitted against each other's in-flight writes.  The lock is
    an O_EXCL-created file holding the owner pid + host; a lock whose pid
    is dead (same host) is stale and stolen.  This is the single-node
    guard; on a multi-node deployment use the scheduler's job-level
    mutual exclusion (SCALE.md §5 fencing) — the lock still protects
    against accidental double-submits from one head node.
    """

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, ".attempt_lock")
        self.acquired = False

    def acquire(self) -> "AttemptLock":
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                with os.fdopen(fd, "w") as f:
                    f.write(json.dumps({"pid": os.getpid()}))
                self.acquired = True
                return self
            except FileExistsError:
                try:
                    with open(self.path) as f:
                        owner = json.load(f)
                    os.kill(int(owner["pid"]), 0)  # raises if dead
                except (OSError, ValueError, KeyError, json.JSONDecodeError):
                    # stale (owner dead or lock corrupt): steal and retry
                    try:
                        os.unlink(self.path)
                    except FileNotFoundError:
                        pass
                    continue
                raise RuntimeError(
                    f"output dir is locked by a live run (pid {owner['pid']}); "
                    "refusing to double-write"
                )
        raise RuntimeError("could not acquire attempt lock")

    def release(self) -> None:
        if self.acquired:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self.acquired = False

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()
