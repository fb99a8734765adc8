"""Retention policy over the tier ladder.

The raw -> 10x -> 100x ladder IS the retention schedule: raw carries exact
tokens, coarser tiers carry 10x/100x-downsampled window aggregates.  Aging
out a tier is a DIRECTORY-level operation because tier rows are
hive-partitioned inside each shard (``shard=K/tier=raw/...``) — at 10^12
sequences a retention pass deletes paths, it never rewrites data.

Every applied policy appends a ``type: "retention"`` record to the same
manifest (audit trail alongside the shard lineage records); shard commit
records are untouched, so resume still sees shards as done and will not
resurrect pruned tiers.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from ts_pymfe_ray.state import manifest as mf


def apply_retention(out_dir: str, drop_tiers: tuple[str, ...]) -> dict:
    """Age out whole tiers (e.g. drop raw once 10x is old enough).

    Returns {tier: dirs_removed}.  Appends an audit record to the manifest;
    committed shard records are preserved so a resumed job does not
    recompute (and thereby resurrect) the pruned tier.
    """
    removed: dict[str, int] = {t: 0 for t in drop_tiers}
    for entry in sorted(os.listdir(out_dir)):
        shard = os.path.join(out_dir, entry)
        if not (entry.startswith("shard=") and os.path.isdir(shard)):
            continue
        for t in drop_tiers:
            tdir = os.path.join(shard, f"tier={t}")
            if os.path.isdir(tdir):
                shutil.rmtree(tdir)
                removed[t] += 1
    rec = {
        "type": "retention",
        "dropped_tiers": sorted(drop_tiers),
        "dirs_removed": removed,
        "commit_unix": round(time.time(), 3),
    }
    with open(mf.manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    return removed
