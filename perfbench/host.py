"""Host facts and process bookkeeping read from ``/proc``.

Everything here is measured from outside the program: CPU busy/steal
shares from ``/proc/stat``, proportional resident memory (Pss) of the
benchmark process plus every process it spawned (Ray's GCS, raylet and
workers), and the clean-up that stops whatever of those is still alive
when the benchmark ends.
"""

from __future__ import annotations

import os
import signal
import threading
import time


def host_cpus() -> int:
    """CPUs this process may run on. Neither ``nproc`` nor
    ``os.cpu_count()`` is that: the former honours ``OMP_NUM_THREADS``,
    the latter ignores the affinity mask."""
    return len(os.sched_getaffinity(0))


def cpu_times() -> tuple[int, int, int]:
    """(total, idle+iowait, steal) jiffies from the aggregate cpu line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    fields += [0] * (8 - len(fields))
    idle = fields[3] + fields[4]
    steal = fields[7]
    return sum(fields[:8]), idle, steal


def cpu_shares(before, after) -> dict:
    """Busy and steal percentages of host CPU time between two samples."""
    total = max(1, after[0] - before[0])
    idle = after[1] - before[1]
    steal = after[2] - before[2]
    return {
        "busy_pct": 100.0 * (total - idle - steal) / total,
        "steal_pct": 100.0 * steal / total,
    }


def _start_time(pid: int) -> int | None:
    """Start time in jiffies (field 22 of /proc/<pid>/stat) of a running
    process, the identity that survives pid reuse; None once it has
    exited, zombies included."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in ("Z", "X") else int(fields[19])


def descendants(root: int) -> dict[int, int]:
    """{pid: start_time} of every live process below ``root``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out: dict[int, int] = {}
    stack = [root]
    while stack:
        for pid in children.get(stack.pop(), []):
            start = _start_time(pid)
            if start is not None:
                out[pid] = start
                stack.append(pid)
    return out


def pss_mb(pids) -> float:
    """Sum of proportional set sizes in MiB. Pss splits shared pages (the
    object store's shared memory, mapped by every worker) between the
    processes mapping them, so the sum counts each page once."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


class ProcessWatch:
    """Background sampler of the memory of this process tree.

    ``peak()`` returns the highest sampled sum since the last ``reset()``.
    Every descendant ever seen is remembered, so ``stop_all`` can also
    reach workers that were re-parented after their raylet exited."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.seen: dict[int, int] = {}
        self._peak = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "ProcessWatch":
        self._thread.start()
        return self

    def sample(self) -> float:
        tree = descendants(os.getpid())
        mb = pss_mb([os.getpid(), *tree])
        with self._lock:
            self.seen.update(tree)
            self._peak = max(self._peak, mb)
        return mb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def reset(self) -> None:
        with self._lock:
            self._peak = 0.0

    def peak(self) -> float:
        self.sample()
        with self._lock:
            return self._peak

    def close(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    def remember_tree(self) -> None:
        tree = descendants(os.getpid())
        with self._lock:
            self.seen.update(tree)


def stop_all(known: dict[int, int], grace_s: float = 5.0,
             wait_s: float = 20.0) -> list[int]:
    """Stop every process in ``known`` that is still alive (same pid and
    start time): SIGTERM, then SIGKILL after ``grace_s``; wait until each
    has ended. Returns the pids that had to be signalled."""
    def alive():
        return [p for p, st in known.items() if _start_time(p) == st]

    signalled = alive()
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, wait_s)):
        pending = alive()
        if not pending:
            break
        for pid in pending:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline:
            for pid in alive():
                try:  # reap our own children; others are reaped by init
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            if not alive():
                break
            time.sleep(0.05)
    return signalled
