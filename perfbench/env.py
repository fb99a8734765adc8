"""Process-level helpers: CPU count, Ray session, RSS sampling, pass
timeouts and the memory-bandwidth calibration."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import logging
import os
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# everything a run writes lives here (ignored by git)
WORK = os.path.join(ROOT, ".perfbench_run")
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~65 bytes of
# session and socket names to its temp dir
_RAY_TMP_MAX = 40
RSS_INTERVAL_S = 0.2


def num_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on (affinity,
    not the machine total), capped by ``OMP_NUM_THREADS`` and
    ``OMP_THREAD_LIMIT`` when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            # nproc reads the first entry of a comma-separated list
            cap = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if cap > 0:
            n = min(n, cap)
    return n


@functools.cache
def load_tool(name: str):
    """Import ``tools/<name>.py`` of the checkout without leaving any
    path it inserts on ``sys.path``."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_tool_{name}", os.path.join(ROOT, "tools", f"{name}.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path[:] = saved


def calibrate() -> dict[str, float]:
    """``tools/membw.py`` stream and touch GB/s at one worker."""
    membw = load_tool("membw")
    return {
        "calib.stream_gbps": membw.measure(membw._stream, 1),
        "calib.touch_gbps": membw.measure(membw._touch, 1),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; the share of
    steal between two readings is how much of the machine the hypervisor
    gave to other guests."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def start_ray(ncpu: int) -> None:
    """Local Ray session sized to ``ncpu`` whose workers can import the
    checkout's packages from any cwd, then one trivial execution so the
    worker pool is up before anything is timed."""
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = os.path.join(WORK, "r")
    kwargs = {}
    if len(tmp) <= _RAY_TMP_MAX:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    else:
        print(f"perfbench: checkout path too long for Ray sockets; Ray uses its "
              f"default temp dir instead of {tmp}", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        **kwargs,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data

    # enough blocks that every CPU's worker process is spawned
    ray.data.range(4000 * ncpu, override_num_blocks=4 * ncpu).map_batches(
        lambda b: b).materialize()


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def tree_rss_bytes() -> int:
    """Summed VmRSS of this process and all its descendants (Ray's daemons
    and its worker processes), read from /proc."""
    kids = _children()
    todo, total = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


class RssSampler:
    """Background thread keeping the peak of :func:`tree_rss_bytes`,
    sampled every ``RSS_INTERVAL_S``."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss_bytes())
            if self._stop.wait(RSS_INTERVAL_S):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class PassTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`PassTimeout` in the main thread after ``seconds``."""

    def _raise(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:.0f}s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
