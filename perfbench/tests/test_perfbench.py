"""Tests of the benchmark itself: generators, gate and span accounting.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
None of them starts Ray.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from perfbench import gen
from perfbench.env import ROOT, load_tool
from perfbench.layers import ray_op_stats
from perfbench.spans import Tracer
from perfbench.workloads import Workload, check_event_entry, check_raw_roundtrip, event_oracles


def test_sequences_deterministic_per_seed_and_distinct_across_seeds():
    a, b = gen.sequences_table(3, 60), gen.sequences_table(3, 60)
    assert a.equals(b)
    assert not a.equals(gen.sequences_table(4, 60))
    assert a.column_names == ["doc_id", "tokens", "n_tok", "source"]
    n_tok = a.column("n_tok").to_numpy()
    assert n_tok.min() >= 64 and n_tok.max() < 65536
    assert set(a.column("source").to_pylist()) <= set(gen.SOURCES)


def test_events_deterministic_per_seed_with_hot_user():
    a, b = gen.events_table(5, 2000), gen.events_table(5, 2000)
    assert a.equals(b)
    assert not a.equals(gen.events_table(6, 2000))
    df = a.to_pandas()
    assert df["ts"].is_monotonic_increasing
    assert sorted(df["event_type"].unique()) == list(gen.EVENT_TYPES)
    assert np.array_equal(np.round(df["value"], 2), df["value"])
    assert 0.25 < df["user_id"].value_counts().iloc[0] / len(df) < 0.40


def _write_tiers(table: pa.Table, out: str) -> None:
    """The rollup's hive layout (shard=0/tier=<t>/), written without Ray
    and uncompressed so that stored blobs appear verbatim in the file."""
    from ts_pymfe_ray.stages.rollup import RollupStage, split_long_rows

    tiers = RollupStage()(split_long_rows(table))
    for t in ("raw", "10x", "100x"):
        d = os.path.join(out, "shard=0", f"tier={t}")
        os.makedirs(d)
        rows = tiers.filter(pc.equal(tiers.column("tier"), t)).drop_columns(["tier"])
        pq.write_table(rows, os.path.join(d, "part-0.parquet"), compression="none")


def test_roundtrip_gate_flags_one_flipped_byte(tmp_path):
    table = gen.sequences_table(11, 40)
    out = str(tmp_path / "tiers")
    _write_tiers(table, out)
    assert check_raw_roundtrip(out, table) == []

    path = os.path.join(out, "shard=0", "tier=raw", "part-0.parquet")
    blob = pq.read_table(path).column("tokens_dod")[7].as_py()
    data = bytearray(open(path, "rb").read())
    at = data.find(blob) + len(blob) // 2
    assert at > len(blob) // 2
    data[at] ^= 0xFF
    with open(path, "wb") as f:
        f.write(data)
    assert check_raw_roundtrip(out, table) != []


def test_event_gate_flags_one_altered_event_value(tmp_path):
    import duckdb

    compare = load_tool("check_oracle").compare
    oracles = event_oracles()
    path = str(tmp_path / "events.parquet")
    events = gen.events_table(7, 300)
    pq.write_table(events, path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{path}')")
    engine_df = con.execute(oracles["events_window_rollup"]).fetchdf()
    assert check_event_entry("events_window_rollup", engine_df, con, oracles, compare) is None

    values = events.column("value").to_numpy().copy()
    values[123] += 1.0
    pq.write_table(events.set_column(4, "value", pa.array(values)), path)
    assert check_event_entry("events_window_rollup", engine_df, con, oracles, compare)
    con.close()


def test_self_times_sum_to_no_more_than_parent():
    tr = Tracer()
    with tr.span("a", "root") as root:
        time.sleep(0.01)
        with tr.span("b", "child"):
            time.sleep(0.01)
            with tr.span("c", "grandchild"):
                time.sleep(0.01)
        with tr.span("b", "child2"):
            time.sleep(0.01)
    st = tr.self_times()
    assert all(v >= 0 for v in st.values())
    dur = {s["id"]: s["end"] - s["start"] for s in tr.spans}
    for s in tr.spans:
        kids = [c["id"] for c in tr.spans if c["parent"] == s["id"]]
        assert st[s["id"]] + sum(dur[k] for k in kids) <= dur[s["id"]] + 1e-9
    assert sum(st.values()) <= dur[root["id"]] + 1e-9
    assert tr.layer_self_times()["b"] == pytest.approx(st[1] + st[3])


def test_self_time_counts_overlapping_children_once():
    tr = Tracer()
    tr.spans = [
        {"id": 0, "parent": None, "layer": "p", "pass": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "layer": "c", "pass": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "layer": "c", "pass": 0, "start": 4.0, "end": 6.0},
        {"id": 3, "parent": 0, "layer": "c", "pass": 0, "start": 9.0, "end": 12.0},
    ]
    assert tr.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_dumped_trace_has_self_times(tmp_path):
    tr = Tracer()
    with tr.span("a", "root"):
        with tr.span("b", "child"):
            pass
    path = str(tmp_path / "t.json")
    tr.dump(path)
    spans = json.load(open(path))["spans"]
    assert [s["name"] for s in spans] == ["a:root", "b:child"]
    assert spans[1]["parent"] == 0 and spans[0]["self_s"] >= 0


def test_ray_op_stats_parses_totals():
    text = (
        "Operator 1 ReadParquet->SplitBlocks(2): 2 tasks executed, 4 blocks produced in 0.06s\n"
        "* Remote wall time: 725.13us min, 21.67ms max, 9.31ms mean, 37.26ms total\n"
        "* UDF time: 0us min, 0us max, 0.0us mean, 0us total\n"
        "* Output num rows per block: 250 min, 250 max, 250 mean, 1000 total\n"
        "* Output size bytes per block: 1291970 min, 2011924 max, 1597098 mean, 6388394 total\n"
        "\n"
        "Operator 2 MapBatches(f)->Write: 2 tasks executed, 2 blocks produced in 0.34s\n"
        "* Remote wall time: 132.71ms min, 192.85ms max, 162.78ms mean, 1.5s total\n"
        "* UDF time: 116.48ms min, 164.23ms max, 140.36ms mean, 280.71ms total\n"
    )
    ops = ray_op_stats(text)
    assert ops["ReadParquet-SplitBlocks"]["wall_s"] == pytest.approx(0.03726)
    assert ops["ReadParquet-SplitBlocks"]["rows_out"] == 1000
    assert ops["ReadParquet-SplitBlocks"]["bytes_out"] == 6388394
    assert ops["MapBatches_f-Write"]["wall_s"] == pytest.approx(1.5)
    assert ops["MapBatches_f-Write"]["udf_s"] == pytest.approx(0.28071)


def test_checks_name_passes_by_their_number(tmp_path):
    class W(Workload):
        name = "w"
        OPS = ("op",)

    wl = W(1, str(tmp_path))
    # pass 1 raised, so it has no result
    wl.results = [(0, [("op", 0.1, "a")]), (2, [("op", 0.1, "b")]), (3, [("op", 0.1, "a")])]
    assert wl._stable("op") == [(2, "op", "output differs from pass 0")]


def test_num_cpus_follows_nproc(monkeypatch):
    from perfbench.env import num_cpus

    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_THREAD_LIMIT", raising=False)
    n = len(os.sched_getaffinity(0))
    assert num_cpus() == n
    monkeypatch.setenv("OMP_NUM_THREADS", "1,2")
    assert num_cpus() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "x")
    monkeypatch.setenv("OMP_THREAD_LIMIT", str(n + 3))
    assert num_cpus() == n


def test_benchmark_json_matches_reported_metrics():
    from perfbench.run import END_TO_END, per_layer_units
    from perfbench.workloads import WORKLOADS

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sequences", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
