"""Storage/compression evidence: raw token bytes vs tier-store bytes, in
total and per tier (encoded blob bytes and Parquet bytes per input token).

Usage: python tools/storage_report.py <sequences_dir> <tiers_dir>
"""

import json
import os
import sys

# this checkout first, so the script grades the code next to it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ts_pymfe_ray.stages.rollup import TIERS

BLOBS = ("win_streams", "tokens_dod", "win_id_dod")


def dir_bytes(d, tier=None):
    """Parquet bytes under ``d``, or under its ``tier=<tier>`` partitions."""
    total = 0
    for root, _, files in os.walk(d):
        if tier is None or os.path.basename(root) == f"tier={tier}":
            total += sum(os.path.getsize(os.path.join(root, f))
                         for f in files if f.endswith(".parquet"))
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
    lengths = [pa.table({"tier": b.column("tier"),
                         **{c: pc.binary_length(b.column(c)) for c in BLOBS}})
               for b in tiers.to_batches(columns=["tier", *BLOBS])]
    sums = (pa.concat_tables(lengths).group_by("tier")
            .aggregate([(c, "sum") for c in BLOBS]).to_pylist())
    per_tier = {}
    for row in sorted(sums, key=lambda r: TIERS.index(r["tier"])):
        blobs = {c: row[f"{c}_sum"] or 0 for c in BLOBS}
        parquet = dir_bytes(tiers_dir, row["tier"])
        per_tier[row["tier"]] = {
            "blob_bytes": blobs,
            "blob_bytes_per_token": round(sum(blobs.values()) / max(1, toks), 6),
            "parquet_bytes": parquet,
            "parquet_bytes_per_token": round(parquet / max(1, toks), 6),
        }
    blob_bytes = {c: sum(t["blob_bytes"][c] for t in per_tier.values()) for c in BLOBS}
    out = {
        "raw_token_bytes_int32": raw_token_bytes,
        "sequences_parquet_bytes": seq_parquet,
        "tier_store_parquet_bytes": dir_bytes(tiers_dir),
        "input_tokens": toks,
        "decoded_blob_bytes": blob_bytes,
        "per_tier": per_tier,
        "tokens_dod_vs_raw_ratio": round(raw_token_bytes / max(1, blob_bytes["tokens_dod"]), 3),
        "tier_store_vs_raw_ratio": round(raw_token_bytes / max(1, dir_bytes(tiers_dir)), 3),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
