"""Layered benchmark of record for ts_pymfe_ray.

    python3 perfbench/run.py --workload sequences --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, starts a local Ray
session sized to what ``nproc`` prints, sets the workload up three times,
runs timed passes for ``--seconds``, checks every output, and prints a
readable report followed by one JSON line (the last line of stdout):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
runs one traced pass and the kernel-level sweep and reports the per-layer
metrics, writing every span to ``.perfbench_run/trace-<workload>-<seed>.json``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

T_PROC = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import env  # noqa: E402

# the whole run must end within 180 s; passes stop at UNTRACED_END,
# the traced pass and sweep at TRACED_END, the gate at GATE_END
UNTRACED_END = 100.0
TRACED_END = 150.0
GATE_END = 165.0
PASS_TIMEOUT = 60.0
# setup_s is the Ray start plus the median of this many workload set-ups
SETUP_REPS = 3

END_TO_END = {  # name -> unit (the last JSON line with --trace 0)
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported in the readable report and the result file; they do not apply
# to every workload or can be 0, so they stay out of the JSON line
REPORT_ONLY = {
    "tokens_per_s": "1/s",
    "resume_s": "s",
    "out_bytes_per_in_byte": "B/B",
    "error_rate": "ratio",
    "ops": "count",
}
SWEEP = {  # kernel-level sweep (layers.sweep)
    "read.s": "s", "read.rows": "count", "read.bytes": "B",
    "split.chunks": "count",
    "gapfill.s": "s", "gapfill.filled_tokens": "count",
    "sketch.s": "s", "sketch.windows": "count", "sketch.merge_s": "s",
    "gorilla.encode_mb_s": "MB/s", "gorilla.decode_mb_s": "MB/s",
    "gorilla.bytes_out_per_in": "B/B",
    "rollup_stage.s": "s", "rollup_stage.us_per_token": "us",
    "rollup_stage.tier_rows": "count",
    "feature_stage.ms_per_row": "ms", "registry.nan_fraction": "ratio",
    "fast_features.us_per_row": "us",
    "manifest.commit_s": "s", "manifest.load_s": "s", "manifest.fingerprint_s": "s",
}
CALIB = {"calib.stream_gbps": "GB/s", "calib.touch_gbps": "GB/s", "calib.steal_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every metric in the last JSON line with --trace 1."""
    from perfbench.layers import SPAN_LAYERS

    return {**SWEEP, **CALIB, "trace.overhead_s": "s", "trace.traced_wall_s": "s",
            **{f"self_s.{layer}": "s" for layer in SPAN_LAYERS}}


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for rel in ("ts_pymfe_ray/__init__.py", "__ray_entry__.py",
                "tools/membw.py", "tools/check_oracle.py"):
        if not os.path.isfile(os.path.join(env.ROOT, rel)):
            return f"{rel} not found under {env.ROOT}"
    return None


def run_passes(wl, seconds: float, fails: list) -> int:
    """Timed passes until ``seconds`` have passed; returns passes tried.
    A pass that raises or times out fails all of its operations;
    ``wl.after_pass`` checks the state a pass leaves behind, outside the
    pass's own time."""
    t0, k, last = time.perf_counter(), 0, 0.0
    while True:
        left = T_PROC + UNTRACED_END - time.perf_counter()
        if k and (time.perf_counter() - t0 >= seconds or 1.5 * last > left):
            return k
        ts = time.perf_counter()
        try:
            with env.time_limit(min(PASS_TIMEOUT, left)):
                wl.results.append((k, wl.run_pass(k)))
                fails.extend(wl.after_pass(k))
        except env.PassTimeout as ex:
            fails.extend((k, op, str(ex)) for op in wl.OPS)
            return k + 1
        except Exception as ex:  # a failed pass is counted, not fatal
            fails.extend((k, op, f"{type(ex).__name__}: {ex}") for op in wl.OPS)
        last = time.perf_counter() - ts
        k += 1


def traced(wl, seed: int, wall_s: float) -> tuple[dict, dict]:
    """One traced pass plus the kernel sweep -> (per-layer metrics for the
    JSON line, everything for the trace file)."""
    from perfbench import layers
    from perfbench.spans import Tracer

    tracer = Tracer()
    tracer.pass_id = 1
    with env.time_limit(T_PROC + TRACED_END - time.perf_counter()):
        with tracer.span("perfbench", f"{wl.name}_pass") as root:
            detail = wl.traced_pass(tracer)
        tracer.pass_id = 2
        with tracer.span("perfbench", "sweep"):
            sweep = layers.sweep(tracer, seed, wl.work)
    traced_wall = root["end"] - root["start"]
    self_s = tracer.layer_self_times(pass_id=1)
    metrics = {
        **sweep,
        "trace.overhead_s": traced_wall - wall_s,
        "trace.traced_wall_s": traced_wall,
        **{f"self_s.{layer}": self_s.get(layer, 0.0) for layer in layers.SPAN_LAYERS},
    }
    path = os.path.join(env.WORK, f"trace-{wl.name}-{seed}.json")
    tracer.dump(path, {"workload": wl.name, "seed": seed,
                       "metrics": {**metrics, **detail},
                       "layer_self_s": tracer.layer_self_times()})
    return metrics, {**detail, "trace_file": os.path.relpath(path, env.ROOT)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"perfbench: cannot run here: {problem}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(env.WORK, exist_ok=True)

    calib = env.calibrate()  # before Ray starts, so its fork is clean
    ncpu = env.num_cpus()
    t_ray = time.perf_counter()
    env.start_ray(ncpu)
    ray_s = time.perf_counter() - t_ray
    wl = WORKLOADS[args.workload](args.seed, env.WORK)
    fails: list[tuple[int, str, str]] = []
    try:
        setups = []
        for _ in range(SETUP_REPS):  # each from scratch; the last one stays
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = ray_s + statistics.median(setups)
        fails.extend(wl.after_setup())
        steal0 = env.cpu_ticks()
        with env.RssSampler() as rss:
            passes = run_passes(wl, args.seconds, fails)
        steal1 = env.cpu_ticks()
        calib["calib.steal_frac"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
        attempted = passes * len(wl.OPS)
        walls = [sum(t for _, t, _ in p) for _, p in wl.results]
        wall_s = statistics.median(walls) if walls else None
        layer_metrics, detail = {}, {}
        if args.trace and wall_s is not None:
            attempted += 1
            try:
                layer_metrics, detail = traced(wl, args.seed, wall_s)
            except Exception as ex:  # counted as a failed operation
                fails.append((passes, "traced_pass", f"{type(ex).__name__}: {ex}"))
        if wl.results:
            try:
                with env.time_limit(T_PROC + GATE_END - time.perf_counter()):
                    fails.extend(wl.check())
            except Exception as ex:  # a gate that cannot finish fails the last pass
                last_k = wl.results[-1][0]
                fails.extend((last_k, op, f"gate {type(ex).__name__}: {ex}") for op in wl.OPS)
        extra = wl.extra_metrics() if wl.results else {}
    finally:
        with env.time_limit(10.0):
            env.stop_ray()

    failed = len({(k, op) for k, op, _ in fails})
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rows_per_s": wl.rows / wall_s if wall_s else None,
        "peak_rss_mb": rss.peak / 2**20,
    }
    report = {
        **e2e,
        "tokens_per_s": wl.tokens / wall_s if wl.tokens and wall_s else None,
        "resume_s": extra.get("resume_s"),
        "out_bytes_per_in_byte": extra.get("out_bytes_per_in_byte"),
        "error_rate": failed / attempted,
        "ops": attempted,
    }
    units = {**END_TO_END, **REPORT_ONLY}
    print(f"perfbench workload={wl.name} seed={args.seed} cpus={ncpu} passes={passes} "
          f"ops_per_pass={len(wl.OPS)} rows_per_pass={wl.rows}")
    for name, val in report.items():
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"  {name:24s} {shown:>14s} {units[name]}")
    for name, val in calib.items():
        print(f"  {name:24s} {val:14.6g} {CALIB[name]}")
    for k, op, why in fails:
        print(f"  FAILED pass {k} {op}: {why}")
    for name, val in {**layer_metrics, **detail}.items():
        print(f"  {name} {val:.6g}" if isinstance(val, float) else f"  {name} {val}")
    with open(os.path.join(env.WORK, f"result-{wl.name}-{args.seed}.json"), "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "passes": passes, "walls": walls,
                   "ray_start_s": ray_s, "setups_s": setups,
                   "run_s": time.perf_counter() - T_PROC,
                   "op_s": {k: {op: t for op, t, _ in p} for k, p in wl.results},
                   "metrics": report, "calib": calib, "failures": fails,
                   "per_layer": layer_metrics, "detail": detail}, f, indent=1)

    if args.trace:
        units = per_layer_units()
        metrics = {**layer_metrics, **calib}
    else:
        units, metrics = END_TO_END, e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
