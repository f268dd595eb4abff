"""Discrete-event kernel: the single clock-advancing authority.

Historically this module held only the heap scheduler behind the
packet-level transport backend.  It has since been generalized into the
simulation kernel every layer runs on:

* :class:`EventScheduler` — the heap-based event loop (time, sequence,
  callback).  Its ``now`` is the simulation time: each step sets it to
  the event time before the callback runs.  :meth:`EventScheduler.step`
  is the one dispatch body; the drain loops call it per event.
* :class:`Waiter` — a one-shot wake-up handle; processes yield one to
  sleep until some event (a download completing, a timer) fires it.
* :class:`SimKernel` — an :class:`EventScheduler` that can
  :meth:`~SimKernel.spawn` generator *processes*: resumable state
  machines that yield either a ``float`` (sleep that many simulated
  seconds) or a :class:`Waiter` (sleep until woken).  N streaming
  sessions spawned on one kernel interleave on a shared bottleneck; a
  solo session runs on a kernel of its own, and the blocking wrappers
  (``session.run()``, ``connection.download()``) run their process with
  :meth:`~SimKernel.run_process`.

The yield protocol is deliberately tiny::

    def process(self):
        result = yield from connection.download_iter(nbytes)  # Waiters
        yield 0.250                                           # sleep
        return result       # surfaced via the spawn()-returned Waiter
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (
    Callable, Generator, Iterable, List, Sequence, Tuple, Union,
)

_INF = float("inf")


class Waiter:
    """A one-shot wake-up handle connecting processes to events.

    A process yields a :class:`Waiter` to suspend; whoever completes the
    awaited condition calls :meth:`wake`, which runs any registered
    callbacks (the kernel's resume hook).  Waking twice is a no-op, so
    completion paths need no "already woken?" bookkeeping.
    """

    __slots__ = ("fired", "value", "_callbacks")

    def __init__(self) -> None:
        self.fired = False
        self.value = None  # optional payload (spawn() stores results here)
        self._callbacks: List[Callable[[], None]] = []

    def wake(self) -> None:
        """Fire the waiter; runs registered callbacks exactly once."""
        if self.fired:
            return
        self.fired = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def on_wake(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when fired (immediately if already fired)."""
        if self.fired:
            callback()
        else:
            self._callbacks.append(callback)


#: What a process may yield: seconds to sleep, or a Waiter to await.
ProcessYield = Union[float, Waiter]
Process = Generator[ProcessYield, None, object]


class EventScheduler:
    """A classic heap-based discrete-event loop.

    Events are ``(time, sequence, callback)``; the sequence number keeps
    ordering stable for simultaneous events.  Callbacks may schedule
    further events.  Before every callback the scheduler moves
    :attr:`now` to the event time.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._cancelled: set = set()

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns an id usable with :meth:`cancel`.  The kernel refuses to
        schedule into the past (or with a NaN/inf delay, which would
        silently corrupt the event heap's ordering).
        """
        if not math.isfinite(delay):
            raise ValueError(
                f"cannot schedule an event with non-finite delay {delay!r}"
            )
        if delay < 0:
            raise ValueError(
                f"cannot schedule an event {-delay} s in the past "
                f"(delay {delay} < 0): simulated time only moves forward"
            )
        event_id = next(self._counter)
        heapq.heappush(self._heap, (self.now + delay, event_id, callback))
        return event_id

    def schedule_many(
        self, delay: float, callbacks: Iterable[Callable[[], None]]
    ) -> List[int]:
        """Schedule a batch of callbacks at the same instant.

        Sequence numbers are assigned in iteration order, so the batch
        fires in exactly the order a loop of :meth:`schedule` calls
        would produce — but the heap is rebuilt once (append +
        ``heapify``, O(n)) instead of push-by-push (O(n log n)), which
        matters when a fleet shard spawns hundreds of sessions.  Heap
        entries stay totally ordered by ``(time, sequence)``, so the
        pop order is byte-identical either way.
        """
        if not math.isfinite(delay):
            raise ValueError(
                f"cannot schedule an event with non-finite delay {delay!r}"
            )
        if delay < 0:
            raise ValueError(
                f"cannot schedule an event {-delay} s in the past "
                f"(delay {delay} < 0): simulated time only moves forward"
            )
        at = self.now + delay
        event_ids: List[int] = []
        for callback in callbacks:
            event_id = next(self._counter)
            event_ids.append(event_id)
            self._heap.append((at, event_id, callback))
        heapq.heapify(self._heap)
        return event_ids

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event (lazy removal)."""
        self._cancelled.add(event_id)

    def empty(self) -> bool:
        return not self._heap

    def step(self) -> bool:
        """Run the next event; returns False when nothing is pending."""
        heap = self._heap
        cancelled = self._cancelled
        heappop = heapq.heappop
        while heap:
            etime, event_id, callback = heappop(heap)
            if cancelled and event_id in cancelled:
                cancelled.discard(event_id)
                continue
            now = self.now
            if etime > now:
                self.now = etime
            elif etime < now - 1e-12:
                raise RuntimeError(
                    f"event scheduled in the past: event time {etime:.9f} "
                    f"precedes kernel time {now:.9f}"
                )
            callback()
            return True
        return False

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> None:
        """Process events until ``predicate()`` holds or the heap drains."""
        events = 0
        while not predicate():
            if not self.step():
                return
            events += 1
            if events > max_events:
                raise RuntimeError("event budget exhausted (livelock?)")

    def run_until_all(self, waiters: Sequence["Waiter"],
                      max_events: int = 50_000_000) -> None:
        """Process events until every waiter has fired.

        Equivalent to ``run_until(lambda: all(w.fired for w in
        waiters))`` — same steps, same order — but O(1) per event
        instead of O(len(waiters)): each waiter decrements a countdown
        when it fires, so a thousand-session shard does not re-scan a
        thousand flags between every pair of events.
        """
        pending = [waiter for waiter in waiters if not waiter.fired]
        if not pending:
            return
        counter = [len(pending)]

        def _one_done() -> None:
            counter[0] -= 1

        for waiter in pending:
            waiter.on_wake(_one_done)
        step = self.step
        events = 0
        while counter[0] > 0:
            if not step():
                return
            events += 1
            if events > max_events:
                raise RuntimeError("event budget exhausted (livelock?)")


class SimKernel(EventScheduler):
    """An event scheduler that runs generator processes.

    The kernel is the *single* clock-advancing authority: every step
    moves :attr:`now` to the event time before the callback, so every
    process (and everything it calls — transport, tracer, player)
    observes one consistent notion of "now".  Multi-client simulations
    share one kernel and one bottleneck; a solo session owns a kernel.
    """

    def _make_process(
        self, process: Process
    ) -> Tuple[Waiter, Callable[[], None]]:
        """Build the (done-waiter, resume-hook) pair for one process."""
        done = Waiter()
        send = process.send
        heap = self._heap
        counter = self._counter
        heappush = heapq.heappush

        def resume() -> None:
            try:
                item = send(None)
            except StopIteration as stop:
                done.value = stop.value
                done.wake()
                return
            # Plain finite sleeps (the overwhelmingly common yield) push
            # straight onto the heap; ids come from the same counter, so
            # event ordering is identical to the schedule() path.
            if type(item) is float and 0.0 <= item < _INF:
                heappush(heap, (self.now + item, next(counter), resume))
            elif isinstance(item, Waiter):
                item.on_wake(resume)
            else:
                self.schedule(item, resume)

        return done, resume

    def spawn(self, process: Process, delay: float = 0.0) -> Waiter:
        """Run a generator process on the kernel.

        The process starts after ``delay`` simulated seconds.  Returns a
        :class:`Waiter` that fires when the process finishes; the
        process's ``return`` value is stored on ``waiter.value``.
        Spawn order breaks ties between simultaneous events, so a fixed
        spawn sequence yields a deterministic interleaving.
        """
        done, resume = self._make_process(process)
        self.schedule(delay, resume)
        return done

    def spawn_many(
        self, processes: Iterable[Process], delay: float = 0.0
    ) -> List[Waiter]:
        """Spawn a batch of processes with one heap rebuild.

        Identical semantics (and byte-identical event ordering) to a
        loop of :meth:`spawn` calls — sequence numbers are assigned in
        iteration order, preserving the spawn-order determinism anchor
        — but the initial resume hooks go through
        :meth:`EventScheduler.schedule_many`, so a fleet shard can
        stand up hundreds of sessions without O(n log n) heap churn.
        """
        waiters: List[Waiter] = []
        resumes: List[Callable[[], None]] = []
        for process in processes:
            done, resume = self._make_process(process)
            waiters.append(done)
            resumes.append(resume)
        self.schedule_many(delay, resumes)
        return waiters

    def run(self, max_events: int = 50_000_000) -> None:
        """Drain the event heap completely."""
        self.run_until(lambda: False, max_events=max_events)

    def run_process(self, process: Process):
        """Run ``process`` to completion and return its value (blocking).

        The process is spawned like any other and the kernel runs until
        it finishes, along with whatever else is scheduled meanwhile.
        An exception raised by the process propagates to the caller.
        """
        done = self.spawn(process)
        self.run_until_all((done,))
        if not done.fired:
            raise RuntimeError(
                "process blocked on a Waiter that no pending event wakes"
            )
        return done.value
