"""Process and host accounting: CPU, memory, steal, process age.

CPU time is the sum of user and system time of this process *and* of
every child it has reaped (``getrusage`` SELF + CHILDREN), so work a
process pool fans out is charged to the benchmark.  CPU time excludes
hypervisor steal, which is why the throughput metric divides by it.
Wall times are corrected with :func:`steal_share`.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Usage:
    """One snapshot of ``getrusage`` for this process and its children."""

    self_cpu_s: float
    child_cpu_s: float
    child_page_faults: int
    involuntary_switches: int

    @property
    def cpu_s(self) -> float:
        return self.self_cpu_s + self.child_cpu_s

    def __sub__(self, other: "Usage") -> "Usage":
        return Usage(
            self.self_cpu_s - other.self_cpu_s,
            self.child_cpu_s - other.child_cpu_s,
            self.child_page_faults - other.child_page_faults,
            self.involuntary_switches - other.involuntary_switches,
        )


def usage() -> Usage:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return Usage(
        self_cpu_s=me.ru_utime + me.ru_stime,
        child_cpu_s=kids.ru_utime + kids.ru_stime,
        child_page_faults=kids.ru_minflt + kids.ru_majflt,
        involuntary_switches=me.ru_nivcsw + kids.ru_nivcsw,
    )


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # Linux reports KiB


def process_age_s() -> float:
    """Wall seconds since this process was created (fork, not exec).

    Read from ``/proc/self/stat`` (start time in clock ticks since boot)
    against ``CLOCK_BOOTTIME``, so interpreter start-up and imports are
    included.  Resolution is one clock tick (10 ms).
    """
    with open("/proc/self/stat") as handle:
        stat = handle.read()
    # Field 22 counts from 1; the command name in field 2 may hold
    # spaces, so split after its closing parenthesis.
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    ticks = os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks


def cpu_ticks() -> Optional[tuple]:
    """VM-wide ``(steal, busy)`` jiffies from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal [guest ...];
    # guest time is already counted in user, so it is left out.
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        int(v) for v in fields[1:9])
    return steal, user + nice + system + irq + softirq


def steal_share(before: Optional[tuple], after: Optional[tuple]) -> float:
    """Share of the CPU time the VM wanted that the hypervisor stole.

    Steal over steal plus busy time, between two :func:`cpu_ticks`
    snapshots.  Idle time is left out: an idle vCPU is not runnable, so
    it suffers no steal, and counting it would dilute the share a
    single busy thread experiences.
    """
    if before is None or after is None:
        return 0.0
    stolen = after[0] - before[0]
    wanted = stolen + after[1] - before[1]
    return stolen / wanted if wanted > 0 else 0.0

