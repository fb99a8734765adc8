"""Storage/compression evidence: raw token bytes vs tier-store bytes.

Usage: python tools/storage_report.py <sequences_dir> <tiers_dir>
"""

import json
import os
import sys

# this checkout first, so the script grades the code next to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow.dataset as pads


def dir_bytes(d):
    total = 0
    for root, _, files in os.walk(d):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f.endswith(".parquet"))
    return total


def main():
    seq_dir, tiers_dir = sys.argv[1], sys.argv[2]
    seq = pads.dataset(seq_dir, format="parquet", ignore_prefixes=[".", "_", "manifest"])
    toks = 0
    for b in seq.to_batches(columns=["n_tok"]):
        toks += int(b.column(0).to_numpy().sum())
    raw_token_bytes = toks * 4  # int32
    seq_parquet = dir_bytes(seq_dir)

    tiers = pads.dataset(tiers_dir, format="parquet", partitioning="hive",
                         ignore_prefixes=[".", "_", "manifest"])
    per_tier = {}
    blob_bytes = {"win_streams": 0, "tokens_dod": 0, "win_id_dod": 0}
    for b in tiers.to_batches(columns=["tier", "win_streams", "tokens_dod", "win_id_dod"]):
        t = b.column(0).to_pylist()
        for name, col in (("win_streams", 1), ("tokens_dod", 2), ("win_id_dod", 3)):
            vals = b.column(col).to_pylist()
            for ti, v in zip(t, vals):
                if v is not None:
                    blob_bytes[name] += len(v)
                    per_tier.setdefault(ti, 0)
    out = {
        "raw_token_bytes_int32": raw_token_bytes,
        "sequences_parquet_bytes": seq_parquet,
        "tier_store_parquet_bytes": dir_bytes(tiers_dir),
        "decoded_blob_bytes": blob_bytes,
        "tokens_dod_vs_raw_ratio": round(raw_token_bytes / max(1, blob_bytes["tokens_dod"]), 3),
        "tier_store_vs_raw_ratio": round(raw_token_bytes / max(1, dir_bytes(tiers_dir)), 3),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
