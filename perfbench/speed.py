"""Host speed, sampled by a fixed probe all through a run.

The vCPUs of a shared VM do not run at one speed.  A fixed computation
timed back to back on a 2-vCPU VM took either about 27 or about 44 ms,
switching between the two within a second, and the program's own code
slowed down with it (CPU time as much as wall time, so this is not
steal).  Nothing measured in whole seconds averages that out, and a
probe timed only between ops misses what happens inside a 12-s op.

So while a run measures, an interval timer interrupts the program every
:data:`INTERVAL_S` of wall time and runs :func:`probe_kernel`, a
fixed mix of small numpy calls and interpreter work like the program's.
Each probe's CPU time gives the speed at that instant relative to the
reference host, :data:`PROBE_REF_S` over the probe's CPU time.  A span
of the run (an op, the set-up) is then charged the time it took, less
what the probes inside it cost, times the mean speed of the probes
around it: the time it would have taken at reference speed.  The probe
is the same for every version of the program, so only the host's speed
is divided out.

On a process pool the workers probe themselves, inline, while the
parent stays quiet: a probe the parent squeezes in between two busy
workers starts with cold caches and reads the host slower than the
workers find it.  One fleet call repeated eight times varied by 4.6 %
at reference speed with parent probes, by 2-3 % with worker probes.

The probe allocates nothing that outlives it, touches no program state
and draws no random numbers, so the program's outputs do not change;
every run checks them against the goldens.
"""

from __future__ import annotations

import os
import signal
import struct
from bisect import bisect_left
from time import perf_counter, thread_time
from typing import List, NamedTuple, Optional

import numpy as np

#: Wall seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of :func:`probe_kernel` in one probe.
PROBE_ROUNDS = 400
#: CPU seconds one probe takes on the reference host: the fast state
#: of a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4.
PROBE_REF_S = 0.002

_N = 96
_X = np.linspace(0.0, 1.0, _N)
_Y = np.empty(_N)
_Z = np.empty(_N)


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, value: float, weight: float):
        self.value = value
        self.weight = weight


_CELLS = [_Cell(i * 0.25, 1.0 / (i + 1)) for i in range(64)]
_TABLE = {i: i * 0.5 for i in range(64)}


def probe_kernel() -> float:
    """Fixed work: small in-place numpy calls, attribute and dict reads."""
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        np.cumsum(_X, out=_Y)
        np.maximum(_Y, 0.5, out=_Z)
        np.multiply(_Z, 0.999, out=_Y)
        cell = _CELLS[i & 63]
        acc += cell.value * cell.weight + _TABLE[i & 63]
        if acc > 1e9:
            acc = 0.0
    return acc


class Probe(NamedTuple):
    start: float  # perf_counter at the probe's start
    cpu_s: float

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (1.0 = as fast)."""
        return PROBE_REF_S / self.cpu_s if self.cpu_s > 0 else 1.0


#: One spooled probe: start, CPU seconds.
_RECORD = struct.Struct("=dd")


class Window(NamedTuple):
    """What the probes say about one span of the run."""

    probes: int  # probes that ran inside the span
    cpu_s: float  # their CPU time, to take out of the span's
    speed: float  # mean speed of the probes in and around the span


class Speedometer:
    """Runs :func:`probe_kernel` on a wall-clock interval timer.

    Only one may run at a time in a process: it owns ``SIGALRM``.
    Forked children inherit neither the timer nor pending signals.
    Given a ``spool`` directory, processes forked while it runs probe
    themselves as well: each arms a timer of its own after the fork and
    appends its probes to a file of its own in the spool, since pool
    workers leave through ``os._exit``.  :meth:`collect` folds those
    probes in.  While :attr:`quiet` is set this process takes none, so
    that on a busy pool only the workers, inline, are probed.
    """

    def __init__(self, interval_s: float = INTERVAL_S,
                 spool: Optional[str] = None):
        self.interval_s = interval_s
        self.spool = spool
        self.probes: List[Probe] = []
        self.quiet = False
        self._running = False
        self._busy = False
        self._previous = None
        self._sink: Optional[int] = None  # a forked child's spool file
        self._hooked = False

    def probe(self) -> None:
        # _busy: a slow probe outlasted the interval.
        if self._busy or self.quiet:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            c0 = thread_time()
            probe_kernel()
            c1 = thread_time()
            probe = Probe(t0, c1 - c0)
            if self._sink is None:
                self.probes.append(probe)
            else:
                os.write(self._sink, _RECORD.pack(*probe))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)

    def start(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        if self.spool is not None and not self._hooked:
            os.register_at_fork(after_in_child=self._after_fork)
            self._hooked = True
        self._arm()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _after_fork(self) -> None:
        if not self._running:
            return
        self.probes = []
        self.quiet = False
        self._busy = False
        path = os.path.join(self.spool, f"{os.getpid()}.probes")
        self._sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                             0o600)
        self._arm()

    def collect(self) -> None:
        """Fold in the probes of reaped children, emptying the spool."""
        if self.spool is None:
            return
        added = False
        for name in os.listdir(self.spool):
            path = os.path.join(self.spool, name)
            with open(path, "rb") as handle:
                data = handle.read()
            os.unlink(path)
            whole = len(data) - len(data) % _RECORD.size
            self.probes.extend(
                Probe(*fields) for fields in _RECORD.iter_unpack(data[:whole]))
            added = True
        if added:
            self.probes.sort()

    def window(self, t0: float, t1: float) -> Window:
        """Probes inside ``[t0, t1)``, and the mean speed around it.

        The speed averages the probes inside the span and the nearest
        one on either side of it, so a span shorter than the interval
        still gets a speed.  Without any probe the speed is 1.0.
        """
        starts = [p.start for p in self.probes]
        lo = bisect_left(starts, t0)
        hi = bisect_left(starts, t1)
        inside = self.probes[lo:hi]
        around = self.probes[max(lo - 1, 0):hi + 1]
        speed = (sum(p.speed for p in around) / len(around)
                 if around else 1.0)
        return Window(len(inside), sum(p.cpu_s for p in inside), speed)
