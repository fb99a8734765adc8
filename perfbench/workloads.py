"""The two workloads: seeded inputs, one timed pass, a traced pass and the
correctness gate.

A pass is a list of operations, each a call into the package's public API
timed on its own.  ``run_pass(k)`` returns ``[(op_name, seconds, result)]``
and is kept in ``results`` as ``(k, ops)``.  The gate (``after_pass`` after
each pass, ``check`` after the timed region) returns one
``(pass, op, reason)`` per wrong operation, so that it counts in the error
rate and names what failed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

from perfbench import gen
from perfbench import layers
from perfbench.env import load_tool

# the ten event-analytics entries of __ray_entry__.queries(), by name
EVENT_ENTRIES = (
    "events_window_rollup",
    "events_user_window_moments",
    "events_acf1",
    "events_gapfill_rollup",
    "events_interarrival",
    "events_sessionize_carry",
    "events_asof_carry",
    "events_funnel",
    "events_retention_cohorts",
    "events_wau",
)
_IGNORE = [".", "_", "manifest"]


def frame_digest(df: pd.DataFrame) -> str:
    """Order-insensitive hash of a frame in ``tools/check_oracle.py``'s
    canonical form (floats rounded to 6 places)."""
    df = load_tool("check_oracle").canon(df)
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return hashlib.blake2b(h.tobytes(), digest_size=8).hexdigest()


def tier_bytes(out_dir: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files if f.endswith(".parquet"))
    return total


def check_raw_roundtrip(tier_dir: str, table: pa.Table) -> list[str]:
    """Every input row's tokens must decode bitwise from its raw tier row."""
    from ts_pymfe_ray.stages.rollup import decode_tier_row

    try:
        raw = pads.dataset(tier_dir, format="parquet", partitioning="hive",
                           ignore_prefixes=_IGNORE)
        rows = raw.to_table(
            filter=pads.field("tier") == "raw",
            columns=["doc_id", "chunk_id", "n_windows", "win_streams",
                     "win_id_dod", "tokens_dod"]).to_pylist()
        tokens = table.column("tokens").combine_chunks()
        off, flat = tokens.offsets.to_numpy(), tokens.values.to_numpy()
        index = {d: i for i, d in enumerate(table.column("doc_id").to_pylist())}
        if len(rows) != len(index):
            return [f"raw tier has {len(rows)} rows for {len(index)} inputs"]
        bad = []
        for r in rows:
            i = index.get(r["doc_id"])
            if i is None or not np.array_equal(decode_tier_row(r)["tokens"],
                                               flat[off[i]: off[i + 1]]):
                bad.append(r["doc_id"])
    except Exception as ex:  # an unreadable tier file fails the gate
        return [f"raw tier unreadable: {type(ex).__name__}: {ex}"]
    return [f"{len(bad)} raw rows do not round-trip (first {bad[0]})"] if bad else []


def check_event_entry(name: str, engine_df: pd.DataFrame, con, oracles: dict,
                      compare) -> str | None:
    """Compare one entry's output with its DuckDB twin; None when equal."""
    try:
        verdict = compare(name, engine_df, con.execute(oracles[name]).fetchdf())
    except Exception as ex:
        return f"oracle error {type(ex).__name__}: {ex}"
    return None if verdict == "OK" else verdict


class Workload:
    name = ""
    OPS: tuple[str, ...] = ()

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = os.path.join(work, self.name)
        self.results: list[tuple[int, list[tuple[str, float, object]]]] = []
        # rows and tokens one pass processes (throughput denominators)
        self.rows = 0
        self.tokens: int | None = None

    def setup(self) -> None:
        """Inputs and state the passes need, from scratch: a second call
        repeats the whole set-up in a fresh directory."""
        raise NotImplementedError

    def after_setup(self) -> list[tuple[int, str, str]]:
        """Failures in the state set-up left behind (outside its time)."""
        return []

    def run_pass(self, k: int) -> list[tuple[str, float, object]]:
        raise NotImplementedError

    def traced_pass(self, tracer) -> dict[str, float]:
        raise NotImplementedError

    def after_pass(self, k: int) -> list[tuple[int, str, str]]:
        """Failures in the state pass ``k`` left behind (outside its time)."""
        return []

    def check(self) -> list[tuple[int, str, str]]:
        raise NotImplementedError

    def extra_metrics(self) -> dict[str, float]:
        return {}

    def _fresh_dir(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def _outputs(self, op: str) -> list[tuple[int, object]]:
        """(pass, result of ``op``) for every pass that ended."""
        return [(k, next(r for n, _, r in p if n == op)) for k, p in self.results]

    def _stable(self, op: str) -> list[tuple[int, str, str]]:
        """Failures for passes whose ``op`` result differs from the first."""
        (k0, v0), *rest = self._outputs(op)
        return [(k, op, f"output differs from pass {k0}") for k, v in rest if v != v0]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _table_digest(out_dir: str) -> tuple[int, str]:
    df = pads.dataset(out_dir, format="parquet", ignore_prefixes=_IGNORE).to_table().to_pandas()
    return len(df), frame_digest(df)


class Sequences(Workload):
    """Every sequence-table layer in one pass: the write path (a cold
    ``run_rollup`` into a fresh output dir), the feature jobs (the cheap
    registry pack over a subset, sketch features over the whole table),
    then the read side over tiers built in set-up (lose one shard and
    resume, ``tier_diagnostics`` of the 10x tier, ``rollup_by_source``)."""

    name = "sequences"
    OPS = ("run_rollup", "run_features", "run_fast_features",
           "resume", "tier_diagnostics", "rollup_by_source")
    N_SEQ = 4000
    N_SUB = 500
    SHARDS = 4

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.seq = os.path.join(self.work, "seq")
        self.sub = os.path.join(self.work, "sub")
        self.tiers = os.path.join(self.work, "tiers")

    def setup(self) -> None:
        from ts_pymfe_ray.pipelines import flagship

        self._fresh_dir()
        self.table = gen.sequences_table(self.seed, self.N_SEQ)
        gen.write_sequences(self.table, self.seq, 8)
        gen.write_sequences(self.table.slice(0, self.N_SUB), self.sub, 4)
        self.cold = flagship.run_rollup(self.seq, self.tiers, num_shards=self.SHARDS)["fingerprint"]
        # run_rollup reads every sequence, the feature jobs the subset and
        # the whole table, the read side every sequence again
        self.rows = 3 * self.N_SEQ + self.N_SUB
        n_tok = self.table.column("n_tok").to_numpy()
        self.tokens = int(3 * n_tok.sum() + n_tok[: self.N_SUB].sum())

    def after_setup(self):
        from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics

        self.in_bytes = tier_bytes(self.seq)
        self.out_bytes = 0
        # what every resumed tier set must reproduce, taken before any shard is lost
        self.cold_diag = frame_digest(tier_diagnostics(self.tiers, tier="10x"))
        return [(0, "resume", f"cold tiers: {m}")
                for m in check_raw_roundtrip(self.tiers, self.table)]

    def run_pass(self, k):
        from ts_pymfe_ray.pipelines import flagship
        from ts_pymfe_ray.pipelines.tier_analytics import tier_diagnostics
        from ts_pymfe_ray.stages.fast_features import run_fast_features
        from ts_pymfe_ray.state import manifest as mf

        out = os.path.join(self.work, f"fresh{k % 2}")
        feat, fast = os.path.join(self.work, "feat"), os.path.join(self.work, "fast")
        for d in (out, feat, fast):
            shutil.rmtree(d, ignore_errors=True)
        dt_w, res = _timed(flagship.run_rollup, self.seq, out, num_shards=self.SHARDS)
        self.last_out = out
        dt_f, _ = _timed(flagship.run_features, self.sub, feat, max_cost="cheap",
                         num_shards=self.SHARDS)
        dt_ff, _ = _timed(run_fast_features, self.seq, fast)

        shutil.rmtree(mf.shard_dir(self.tiers, k % self.SHARDS))
        dt_r, resumed = _timed(flagship.run_rollup, self.seq, self.tiers, num_shards=self.SHARDS)
        dt_d, diag = _timed(tier_diagnostics, self.tiers, tier="10x")
        dt_s, src = _timed(
            lambda: flagship.rollup_by_source(self.seq, tiers=("100x",)).to_pandas())
        return [("run_rollup", dt_w, res["fingerprint"]),
                ("run_features", dt_f, _table_digest(feat)),
                ("run_fast_features", dt_ff, _table_digest(fast)),
                ("resume", dt_r, resumed["fingerprint"]),
                ("tier_diagnostics", dt_d, frame_digest(diag)),
                ("rollup_by_source", dt_s, (len(src), frame_digest(src)))]

    def traced_pass(self, tracer):
        out = {}
        for detail in (
                layers.traced_rollup(tracer, self.seq, os.path.join(self.work, "traced"),
                                     self.SHARDS, expect=self.cold),
                layers.traced_features(tracer, self.sub, self.seq, self.work),
                layers.traced_tier_reads(tracer, self.seq, self.tiers, self.SHARDS)):
            for name, val in detail.items():  # a Ray operator in two plans is summed
                out[name] = out.get(name, 0.0) + val
        return out

    def after_pass(self, k):
        return [(k, "resume", m) for m in check_raw_roundtrip(self.tiers, self.table)]

    def check(self):
        # a cold rollup of the same input, wherever it writes, has the
        # fingerprint of the tiers built in set-up
        fails = [(k, op, f"fingerprint {r} != cold {self.cold}")
                 for op in ("run_rollup", "resume")
                 for k, r in self._outputs(op) if r != self.cold]
        fails += [(self.results[-1][0], "run_rollup", m)
                  for m in check_raw_roundtrip(self.last_out, self.table)]
        self.out_bytes = tier_bytes(self.last_out)

        fails += self._stable("run_features") + self._stable("run_fast_features")
        for op, n_in in (("run_features", self.N_SUB), ("run_fast_features", self.N_SEQ)):
            fails += [(k, op, f"{rows} output rows for {n_in} inputs")
                      for k, (rows, _) in self._outputs(op) if rows != n_in]

        fails += [(k, "tier_diagnostics", "output differs from the cold tiers'")
                  for k, r in self._outputs("tier_diagnostics") if r != self.cold_diag]
        # rollup_by_source reads the sequences, not the tiers
        fails += self._stable("rollup_by_source")
        fails += [(k, "rollup_by_source", "empty output")
                  for k, r in self._outputs("rollup_by_source") if r[0] == 0]
        return fails

    def extra_metrics(self):
        return {
            "out_bytes_per_in_byte": self.out_bytes / self.in_bytes,
            "resume_s": float(np.median([t for _, p in self.results
                                         for op, t, _ in p if op == "resume"])),
        }


class Events(Workload):
    """The ten span-partial / map_groups event entries, by registry name."""

    name = "events"
    OPS = EVENT_ENTRIES
    N_EVENTS = 500

    def setup(self) -> None:
        import pyarrow.parquet as pq

        import __ray_entry__

        self._fresh_dir()
        self.dir = os.path.join(self.work, "sf")
        os.makedirs(self.dir)
        pq.write_table(gen.events_table(self.seed, self.N_EVENTS),
                       os.path.join(self.dir, "events.parquet"))
        registry = __ray_entry__.queries()
        self.entries = {n: registry[n] for n in EVENT_ENTRIES}
        self.oracle_tool = load_tool("check_oracle")
        self.rows = self.N_EVENTS

    def run_pass(self, k):
        to_df = self.oracle_tool.to_df
        return [(n, *_timed(lambda f=fn: to_df(f(self.dir)))) for n, fn in self.entries.items()]

    def traced_pass(self, tracer):
        return layers.traced_events(tracer, self.entries, self.dir, self.oracle_tool.to_df)

    def check(self):
        import duckdb

        compare = self.oracle_tool.compare
        oracles = event_oracles()
        con = duckdb.connect()
        try:
            con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                        f"'{os.path.join(self.dir, 'events.parquet')}')")
            return [(k, n, why) for k, p in self.results for n, _, df in p
                    if (why := check_event_entry(n, df, con, oracles, compare))]
        finally:
            con.close()


def event_oracles() -> dict[str, str]:
    """The events entries' SQL twins from ``__ray_entry__.oracle_sql()``.

    ``oracle_sql`` first materializes the package's cached sequences
    table for its ``seq_*`` twins; the events twins do not read it, so that
    step is skipped here to keep every write inside the checkout."""
    import __ray_entry__
    from ts_pymfe_ray import synth

    real = synth.ensure_sequences
    synth.ensure_sequences = lambda *a, **k: None
    try:
        sql = __ray_entry__.oracle_sql()
    finally:
        synth.ensure_sequences = real
    return {n: sql[n] for n in EVENT_ENTRIES}


WORKLOADS = {w.name: w for w in (Sequences, Events)}
