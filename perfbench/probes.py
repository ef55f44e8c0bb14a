"""Host certificate and resource probes read from ``/proc``."""

from __future__ import annotations

import os
import shutil
import subprocess
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may contain spaces; fields resume after ')'
    return raw[raw.rindex(")") + 2:].split()


def _session_stats(root: int) -> dict[tuple[int, str], float]:
    """(pid, start time) → user+system CPU-seconds, for ``root`` and
    every process descended from it."""
    children: dict[int, list[int]] = {}
    stats: dict[int, list[str]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(name)
            if fields is not None:
                stats[int(name)] = fields
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        fields = stats.get(pid)
        if fields is not None:
            out[(pid, fields[19])] = (int(fields[11]) + int(fields[12])) / _TICK
        todo.extend(children.get(pid, ()))
    return out


class SessionCpu:
    """CPU-seconds used by this process and every process descended
    from it while the block runs.  A local Ray session (GCS, raylet,
    workers, actors) descends from the driver that started it.

    Actor processes exit when their pool is torn down and their CPU
    time never reaches a parent we can read, so a background thread
    samples every process's counter; a process that exits loses at
    most one ``interval`` of CPU.  The highest reading per process is
    kept: while a process is being reaped its ``stat`` can report the
    main thread's time alone, which is lower than before."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.seconds = 0.0
        self._root = os.getpid()
        self._stop = threading.Event()

    def _sample(self) -> None:
        for key, cpu in _session_stats(self._root).items():
            self._last[key] = max(cpu, self._last.get(key, 0.0))

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "SessionCpu":
        self._start = _session_stats(self._root)
        self._last = dict(self._start)
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        self.seconds = sum(cpu - self._start.get(key, 0.0)
                           for key, cpu in self._last.items())


def session_pids() -> list[int]:
    """Every live process descended from this one."""
    me = os.getpid()
    return [pid for pid, _ in _session_stats(me) if pid != me]


def reset_peak_rss() -> bool:
    """Reset this process's peak RSS (VmHWM); False where the kernel
    refuses, and the peak then spans the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def mem_copy_gbps(mb: int = 64, reps: int = 5) -> float:
    """Single-thread memory-copy bandwidth, median of ``reps``."""
    import numpy as np

    src = np.ones(mb * 1024 * 1024 // 8, dtype=np.float64)
    dst = np.empty_like(src)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(src.nbytes / (time.perf_counter() - t0) / 1e9)
    return sorted(rates)[reps // 2]


def host_certificate(ray_num_cpus: int) -> dict:
    nproc = None
    if shutil.which("nproc"):
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
        nproc = int(out.stdout.strip()) if out.returncode == 0 else None
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "ray_num_cpus": ray_num_cpus,
        "loadavg": list(os.getloadavg()),
        "mem_copy_gbps": round(mem_copy_gbps(), 3),
    }
