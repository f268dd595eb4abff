"""Packet-level QUIC(*) connection over the event-driven router.

Implements the same ``download()`` / ``download_iter()`` contract as
:class:`repro.transport.connection.QuicConnection`, but at per-packet
granularity: the sender keeps ``cwnd`` packets in flight, ACKs clock out
new packets, CUBIC reacts to individual drops, and unreliable streams
record the exact byte intervals of dropped packets.

This backend is ~2 orders of magnitude slower than the round-based one;
it exists to validate the fast model (``benchmarks/bench_backends.py``)
and to support per-packet experiments such as multi-flow fairness
(:mod:`repro.experiments.fairness`).  Several connections can share one
:class:`~repro.network.packetlink.PacketRouter` and one
:class:`~repro.network.events.SimKernel` — each keeps its own
per-download sender state, so concurrent flows (or full sessions)
interleave at packet granularity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.network.events import SimKernel, Waiter
from repro.network.packetlink import MTU, Packet, PacketRouter
from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.tracer import NULL_TRACER
from repro.transport.base import (
    ByteInterval,
    DownloadResult,
    PAYLOAD_FRACTION,
    ProgressFn,
    REQUEST_RTT_COST,
    TransportFault,
    merge_intervals,
)
from repro.transport.cubic import CubicController

# Backward-compatible alias (historically imported from connection.py).
_merge_intervals = merge_intervals


class PacketLevelConnection:
    """Event-driven, per-packet congestion-controlled connection.

    Args:
        router: shared bottleneck router (possibly carrying other flows).
        kernel: the simulation kernel the router's events run on; its
            ``now`` is the event time.
        partially_reliable: QUIC* (True) or plain QUIC (False).
    """

    def __init__(
        self,
        router: PacketRouter,
        kernel: SimKernel,
        partially_reliable: bool = True,
        tracer=None,
    ):
        self.router = router
        self.kernel = kernel
        self.partially_reliable = partially_reliable
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cc = CubicController()
        self._payload = max(int(MTU * PAYLOAD_FRACTION), 1)
        registry = get_registry()
        self._ctr_delivered = registry.counter("transport.bytes_delivered")
        self._ctr_lost = registry.counter("transport.bytes_lost")

        # Per-download state (reset in _arm()).
        self._reliable = True
        self._limit = 0
        self._next_offset = 0
        self._inflight: Dict[int, int] = {}  # sequence -> byte offset
        self._next_sequence = 0
        self._delivered_bytes = 0
        self._lost: List[ByteInterval] = []
        self._retx_queue: List[int] = []  # byte offsets to resend
        self._last_loss_time = -1.0
        self._progress: Optional[ProgressFn] = None
        self._start_time = 0.0
        self._done = False
        self._done_time = 0.0
        self._round = 0  # send-burst counter (reset per download)
        self._waiter: Optional[Waiter] = None  # wakes the download process
        self._latency = 0.0

        # Fault machinery.  ``_epoch`` tokens guard deadline/reset
        # callbacks scheduled for a download against firing into a later
        # one; ``_failed`` carries the fault across the waiter wake.
        self.fault_plan = None
        self._epoch = 0
        self._failed: Optional[TransportFault] = None

        # Lifetime counters.
        self.total_delivered = 0
        self.total_lost = 0

    # -- sender machinery ------------------------------------------------
    def _bytes_at(self, offset: int) -> int:
        return min(self._payload, self._limit - offset)

    def _outstanding(self) -> bool:
        return (
            self._next_offset < self._limit
            or bool(self._retx_queue)
            or bool(self._inflight)
        )

    def _pump(self) -> None:
        """Send packets while the window allows."""
        injected = 0
        while (
            len(self._inflight) < max(int(self.cc.cwnd), 1)
            and (self._retx_queue or self._next_offset < self._limit)
        ):
            if self._retx_queue:
                offset = self._retx_queue.pop(0)
            else:
                offset = self._next_offset
                self._next_offset += self._bytes_at(offset)
            sequence = self._next_sequence
            self._next_sequence += 1
            self._inflight[sequence] = offset
            self.router.enqueue(Packet(flow=self, sequence=sequence))
            injected += 1
        if injected and self.tracer.enabled:
            # One event per send burst: `offered` is what this pump put
            # on the wire (<= cwnd by the loop guard), `inflight` the
            # resulting outstanding total.  Drops surface separately as
            # packet_loss events when the sender detects them.
            self._round += 1
            self.tracer.emit(
                ev.TRANSPORT_ROUND,
                round=self._round,
                rtt=2 * self.router.propagation_s + 0.002,
                offered=injected,
                dropped=0,
                cwnd=float(self.cc.cwnd),
                inflight=len(self._inflight),
            )

    # -- router callbacks --------------------------------------------------
    def on_delivered(self, packet: Packet) -> None:
        offset = self._inflight.pop(packet.sequence, None)
        if offset is None:
            return
        size = self._bytes_at(offset)
        self._delivered_bytes += size
        self.total_delivered += size
        self._ctr_delivered.inc(size)
        # ACK path: per-ACK window growth approximated by crediting a
        # fraction of a round per delivered packet.
        rtt = 2 * self.router.propagation_s + 0.002
        window = max(int(self.cc.cwnd), 1)
        queue_pressure = self.router.queue_occupancy / max(
            self.router.queue_packets, 1
        )
        if packet.sequence % window == 0:
            self.cc.on_round(rtt=rtt, lost=False,
                             queue_pressure=queue_pressure)
        self._pump()
        self._check_done()

    def on_dropped(self, packet: Packet) -> None:
        """Router tail-dropped a packet.

        Crucially, the *sender* only detects the loss one RTT later
        (duplicate ACKs / timeout), so the congestion-window slot stays
        occupied until then — freeing it synchronously would let the
        sender machine-gun a full queue in zero simulated time.
        """
        if packet.sequence not in self._inflight:
            return
        rtt = 2 * self.router.propagation_s
        self.kernel.schedule(
            rtt, lambda: self._loss_detected(packet.sequence)
        )

    def _loss_detected(self, sequence: int) -> None:
        offset = self._inflight.pop(sequence, None)
        if offset is None:
            # Stale detection: the packet's download was killed by a
            # fault after the router counted the drop.  Still surface a
            # loss event so the shared-link conservation law (router
            # drops == sum of packet_loss events) stays auditable.
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.PACKET_LOSS,
                    dropped_packets=1,
                    lost_bytes=0,
                    reliable=True,
                )
            return
        size = self._bytes_at(offset)
        if self._reliable:
            self._retx_queue.append(offset)
        else:
            self._lost.append((offset, offset + size))
            self.total_lost += size
            self._ctr_lost.inc(size)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PACKET_LOSS,
                dropped_packets=1,
                lost_bytes=0 if self._reliable else size,
                reliable=self._reliable,
            )
        # One multiplicative decrease per RTT worth of losses.
        now = self.kernel.now
        rtt = 2 * self.router.propagation_s
        if now - self._last_loss_time > rtt:
            self._last_loss_time = now
            self.cc.on_round(rtt=rtt + 0.002, lost=True)
        self._pump()
        self._check_done()

    def _check_done(self) -> None:
        if self._done:
            return
        if self._progress is not None:
            sent = min(self._next_offset, self._limit)
            new_limit = self._progress(
                self.kernel.now - self._start_time, sent
            )
            if new_limit is not None:
                self._limit = max(min(new_limit, self._limit), sent)
        if not self._outstanding():
            self._done = True
            self._done_time = self.kernel.now
            if self._waiter is not None:
                self._waiter.wake()

    # -- public API --------------------------------------------------------
    def _arm(
        self,
        nbytes: int,
        reliable: bool,
        progress: Optional[ProgressFn],
    ) -> float:
        """Reset per-download sender state and schedule the request.

        Returns the request latency; the first pump and completion check
        fire after it.
        """
        self._reliable = reliable
        self._limit = nbytes
        self._next_offset = 0
        self._inflight = {}
        self._delivered_bytes = 0
        self._lost = []
        self._retx_queue = []
        self._progress = progress
        self._done = False
        self._round = 0

        # Request latency: one RTT.
        latency = (2 * self.router.propagation_s) * REQUEST_RTT_COST
        self._latency = latency
        self._start_time = self.kernel.now
        self.kernel.schedule(latency, self._pump)
        self.kernel.schedule(latency, self._check_done)
        return latency

    def _fault_fired(self, epoch: int, kind: str, at: Optional[float]) -> None:
        """Deadline/reset callback: kill the in-flight download.

        The epoch token (and the ``_done`` flag) make stale callbacks —
        fired after their download completed — harmless no-ops.
        """
        if epoch != self._epoch or self._done:
            return
        now = self.kernel.now
        lost = merge_intervals(self._lost)
        if self._inflight and lost:
            # The retry resumes at delivered + lost bytes, so the partial
            # must account a prefix.  A loss detected above a packet
            # still in flight (queued behind a blackout, say) lies past
            # that offset: drop it here and let the retry re-request
            # those bytes rather than count them twice.
            first = min(self._inflight.values())
            lost = [(start, end) for start, end in lost if end <= first]
        self._failed = TransportFault(
            kind,
            DownloadResult(
                requested=self._limit,
                delivered=self._delivered_bytes,
                lost=lost,
                elapsed=now - self._start_time,
                truncated_at=None,
                rounds=self._round,
                request_latency=self._latency,
            ),
            at=at,
        )
        # Drop all in-flight tracking: router callbacks for packets still
        # in the queue pop nothing and no-op.
        self._inflight = {}
        self._retx_queue = []
        self._done = True
        self._done_time = now
        if self._waiter is not None:
            self._waiter.wake()

    def download(
        self,
        nbytes: int,
        reliable: bool = True,
        progress: Optional[ProgressFn] = None,
    ) -> DownloadResult:
        """Blocking fetch; same contract as the round backend."""
        return self.kernel.run_process(
            self.download_iter(nbytes, reliable=reliable, progress=progress)
        )

    def download_iter(
        self,
        nbytes: int,
        reliable: bool = True,
        progress: Optional[ProgressFn] = None,
        deadline_s: Optional[float] = None,
    ):
        """Fetch ``nbytes`` as a kernel process.

        Arms the sender state machine, then yields a
        :class:`~repro.network.events.Waiter` that fires when the last
        outstanding packet is accounted for — the kernel runs the event
        loop in the meantime, interleaving any other flows on the shared
        router.

        With ``deadline_s`` set (or a fault plan attached), the waiter
        can instead be woken by a deadline/reset callback, in which case
        a :class:`~repro.transport.base.TransportFault` carrying the
        partial byte accounting is raised.
        """
        if nbytes < 0:
            raise ValueError(f"cannot download {nbytes} bytes")
        if not self.partially_reliable:
            reliable = True
        if nbytes == 0:
            return DownloadResult(0, 0, [], 0.0)

        requested_limit = nbytes
        latency = self._arm(nbytes, reliable, progress)
        start = self._start_time
        self._epoch += 1
        epoch = self._epoch
        self._failed = None
        if deadline_s is not None:
            self.kernel.schedule(
                deadline_s,
                lambda: self._fault_fired(epoch, "timeout", None),
            )
        if self.fault_plan is not None:
            reset_at = self.fault_plan.reset_between(start, float("inf"))
            if reset_at is not None:
                self.kernel.schedule(
                    reset_at - start,
                    lambda: self._fault_fired(epoch, "reset", reset_at),
                )
        waiter = Waiter()
        self._waiter = waiter
        yield waiter
        self._waiter = None

        if self._failed is not None:
            fault = self._failed
            self._failed = None
            raise fault

        elapsed = self.kernel.now - start
        lost = merge_intervals(self._lost)
        truncated = self._limit if self._limit < requested_limit else None
        return DownloadResult(
            requested=self._limit,
            delivered=self._delivered_bytes,
            lost=lost,
            elapsed=elapsed,
            truncated_at=truncated,
            request_latency=latency,
        )

    def reconnect(self) -> None:
        """Re-establish the connection after a :class:`TransportFault`.

        Fresh congestion state and loss-detection history; the shared
        router (and other flows' packets in its queue) is untouched.
        """
        self.cc = CubicController()
        self._last_loss_time = -1.0

    def idle(self, dt: float) -> None:
        """Advance event time while the application idles (blocking)."""
        self.kernel.run_process(self.idle_iter(dt))

    def idle_iter(self, dt: float):
        """Kernel process form of :meth:`idle`.

        Sleeps until exactly ``dt`` later via a scheduled wake-up,
        letting other flows' events run in the meantime.
        """
        if dt <= 0:
            return None
        waiter = Waiter()
        self.kernel.schedule(dt, waiter.wake)
        yield waiter
        return None
