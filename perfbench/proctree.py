"""Resource accounting over this process and all of its descendants.

Reads ``/proc`` directly (no third-party process library).  CPU time
comes from ``/proc/<pid>/stat`` (utime + stime, which already includes
every thread of the process, live or exited); context switches come
from each live thread's ``/proc/<pid>/task/<tid>/status``; peak RSS is
``VmHWM`` per process; threads is ``Threads`` per process.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _stat_fields(path: str) -> List[str]:
    text = _read(path)
    # comm (field 2) may hold spaces; everything after the last ')' is
    # space-separated starting at field 3 (state).
    return text[text.rindex(")") + 2:].split()


def _status(path: str) -> Dict[str, str]:
    out = {}
    for line in _read(path).splitlines():
        key, _, value = line.partition(":")
        out[key] = value.strip()
    return out


def descendants(root: int = 0) -> List[int]:
    """PIDs of every live descendant of *root* (default: this process)."""
    root = root or os.getpid()
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(f"/proc/{name}/stat")[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of *pid* so far."""
    fields = _stat_fields(f"/proc/{pid}/stat")
    return (int(fields[11]) + int(fields[12])) / _TICK


@dataclass
class TreeSample:
    """One reading of the process tree."""

    wall: float
    cpu_self: float
    cpu_children: float
    vol_ctx: int
    invol_ctx: int
    rss_peak_mb: float
    threads: int


def sample() -> TreeSample:
    """Read CPU, context switches, peak RSS and threads over the tree."""
    me = os.getpid()
    cpu_self = cpu_children = 0.0
    vol = invol = threads = 0
    rss = 0.0
    pids = [me] + descendants(me)
    for pid in pids:
        try:
            cpu = cpu_seconds(pid)
            status = _status(f"/proc/{pid}/status")
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        if pid == me:
            cpu_self = cpu
        else:
            cpu_children += cpu
        rss += int(status["VmHWM"].split()[0]) / 1024.0
        threads += int(status["Threads"])
        for tid in tids:
            try:
                ts = _status(f"/proc/{pid}/task/{tid}/status")
            except OSError:
                continue
            vol += int(ts["voluntary_ctxt_switches"])
            invol += int(ts["nonvoluntary_ctxt_switches"])
    return TreeSample(
        time.perf_counter(), cpu_self, cpu_children, vol, invol, rss, threads
    )


def check_clean(baseline_threads: int, timeout: float = 5.0) -> None:
    """Raise unless shutdown left no descendant process and no extra thread.

    Waits up to *timeout* for exiting threads and processes to be
    reaped before judging.
    """
    deadline = time.monotonic() + timeout
    while True:
        procs = descendants()
        extra = threading.active_count() - baseline_threads
        if not procs and extra <= 0:
            return
        if time.monotonic() > deadline:
            names = sorted(t.name for t in threading.enumerate())
            raise RuntimeError(
                f"shutdown left descendant processes {procs} and "
                f"{extra} extra threads ({names})"
            )
        time.sleep(0.02)
