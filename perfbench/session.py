"""The Ray session the benchmark drives, and /proc accounting of it.

The session size is fixed here, never read from the host: 6 logical
CPUs, a 2-actor OCR pool, 8 reassembly partitions and a 512 MiB object
store. In earlier probes at 6 logical CPUs with 2 actors the OCR jobs
held their medians within 5% across sessions, while 4 CPUs stalled the
``doc_id`` exchange and 8 CPUs with a 6-actor pool made the job
bimodal. About one job in twenty still waits seconds in the hash
exchange; that is a known defect of the pipeline, left visible in the
per-op walls of the detail record and in ``stage.exchange.wait_s``, not
tuned away.
"""

from __future__ import annotations

import os
import shutil
import signal
import threading
import time

NUM_CPUS = 6
OCR_ACTORS = 2
REASSEMBLE_PARTITIONS = 8
OBJECT_STORE_BYTES = 512 << 20

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def process_start_time() -> float:
    """Wall-clock (epoch) start of this process, from /proc."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
    return btime + start_ticks / _CLK_TCK


def _stat_fields(pid: int) -> list[str] | None:
    """/proc/<pid>/stat fields after the command name (field n of
    proc(5) is index n - 3), or None when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(root: int) -> list[int]:
    """`root` and every live process below it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


class ProcessTree:
    """CPU and RSS of this process and everything below it (the
    benchmark process, raylet, GCS, workers), read from /proc.

    A sampler thread sweeps the tree while the timed window runs. A
    process that ends between sweeps keeps the CPU it had at its last
    sweep, so workers that exit mid-window still count.
    """

    PERIOD_S = 0.2

    def __init__(self):
        self.root = os.getpid()
        self.peak_rss_mb = 0.0
        self._cpu_ticks: dict[tuple[int, str], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sweep(self) -> None:
        rss_pages = 0
        seen = {}
        for pid in descendants(self.root):
            fields = _stat_fields(pid)
            if fields is None:
                continue
            seen[(pid, fields[19])] = int(fields[11]) + int(fields[12])
            rss_pages += int(fields[21])
        with self._lock:
            self._cpu_ticks.update(seen)
            self.peak_rss_mb = max(self.peak_rss_mb, rss_pages * _PAGE / 2**20)

    def cpu_s(self) -> float:
        """CPU seconds the tree has used, swept now."""
        self.sweep()
        with self._lock:
            return sum(self._cpu_ticks.values()) / _CLK_TCK

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.sweep()

    def __enter__(self) -> "ProcessTree":
        self.peak_rss_mb = 0.0
        self.sweep()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sweep()


class Session:
    """Starts and stops Ray for one checkout.

    Workers import ``ocrs_ray`` from the checkout: PYTHONPATH and the
    working directory are set before ``ray.init``, because workers take
    their import path from this process at init time. Ray's temp dir lives
    in the checkout but is named through ``/proc/<pid>/cwd`` so its
    socket paths stay under the 107-byte Unix-socket limit however deep
    the checkout sits. Worker output is not forwarded to this process, so
    nothing can land after the result line.
    """

    def __init__(self, root: str, build_dir: str):
        self.root = root
        self.build_dir = build_dir
        self.ray_dir = os.path.join(build_dir, "r")
        self.tmp_dir = os.path.join(build_dir, "tmp")

    def start(self) -> None:
        import logging

        os.chdir(self.root)
        os.makedirs(self.ray_dir, exist_ok=True)
        os.makedirs(self.tmp_dir, exist_ok=True)
        path = os.environ.get("PYTHONPATH", "")
        if self.root not in path.split(os.pathsep):
            os.environ["PYTHONPATH"] = self.root + (os.pathsep + path if path else "")
        os.environ["TMPDIR"] = self.tmp_dir
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        rel = os.path.relpath(self.ray_dir, self.root)
        import ray

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=f"/proc/{os.getpid()}/cwd/{rel}",
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    #: seconds Ray's processes get to end after shutdown before SIGKILL.
    GRACE_S = 5.0

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started has
        ended, killing those still alive after GRACE_S, then drop its
        session logs. Processes are tracked from before the shutdown:
        workers orphaned by it leave this process's tree but must still
        end."""
        import ray

        me = os.getpid()
        tracked: dict[int, str] = {}

        def track() -> None:
            for pid in descendants(me):
                fields = _stat_fields(pid)
                if pid != me and fields is not None:
                    tracked.setdefault(pid, fields[19])

        def alive() -> list[int]:
            out = []
            for pid, start in tracked.items():
                fields = _stat_fields(pid)
                if fields is not None and fields[19] == start and fields[0] != "Z":
                    out.append(pid)
            return out

        track()
        if ray.is_initialized():
            ray.shutdown()
        track()
        deadline = time.monotonic() + self.GRACE_S
        killed = False
        while alive():
            if time.monotonic() > deadline:
                if killed:
                    break
                for pid in alive():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                killed = True
                deadline = time.monotonic() + self.GRACE_S
            time.sleep(0.05)
        shutil.rmtree(self.ray_dir, ignore_errors=True)
