"""Packet-level bottleneck router for the event-driven backend.

Models the testbed's one-hop path at per-packet granularity: packets from
any number of flows arrive at the router, wait in a shared droptail queue
(in packets), are serviced at the trace-driven bottleneck rate, and then
cross the 30 ms last-mile propagation delay.  Each delivered packet
triggers its flow's ``on_delivered`` callback (the ACK path adds the
return propagation delay at the connection layer); each dropped packet
triggers ``on_dropped`` immediately (the simulation shortcut for loss
detection — the sender reacts one RTT later anyway).

This is the high-fidelity counterpart of
:class:`repro.network.link.BottleneckLink`; the two are compared in
``benchmarks/bench_backends.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.network.events import EventScheduler
from repro.network.traces import NetworkTrace
from repro.obs.spans import current as _current_profiler, metered

MTU = 1500
PROPAGATION_ONE_WAY = 0.030  # seconds (§5: 30 ms last mile)


@dataclass
class Packet:
    """One packet in flight."""

    flow: "object"  # the sending connection (opaque to the router)
    sequence: int  # flow-local sequence number
    size: int = MTU


class PacketRouter:
    """Shared droptail bottleneck serving packets at the trace rate.

    Args:
        scheduler: the event loop.
        trace: bottleneck capacity over time.
        queue_packets: droptail limit (shared across flows).
        propagation_s: one-way delay from router to client.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        trace: NetworkTrace,
        queue_packets: int = 32,
        propagation_s: float = PROPAGATION_ONE_WAY,
    ):
        self.scheduler = scheduler
        self.trace = trace
        self.queue_packets = int(queue_packets)
        self.propagation_s = propagation_s
        self._queue: Deque[Packet] = deque()
        self._serving = False
        # Optional FaultPlan (set by the backend factory): loss-channel
        # windows corrupt arriving packets via a deterministic
        # accumulator, latency-channel windows stretch propagation.
        self.fault_plan = None
        self._loss_accum = 0.0
        # Lifetime counters (observability + tests).
        self.offered_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0
        self._prof = _current_profiler()
        if self._prof is not None:
            self.enqueue = metered(
                self._prof, "link.enqueue", "link", self.enqueue
            )

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """A packet arrives from a sender."""
        self.offered_packets += 1
        if len(self._queue) >= self.queue_packets:
            self.dropped_packets += 1
            packet.flow.on_dropped(packet)
            return
        if self.fault_plan is not None:
            # Injected wire loss: a fractional accumulator (not an RNG)
            # keeps the drop pattern a pure function of the arrival
            # sequence, so shared-router multiclient runs stay
            # byte-reproducible at any worker count.
            rate = self.fault_plan.loss_rate(self.scheduler.now)
            if rate > 0.0:
                self._loss_accum += rate
                if self._loss_accum >= 1.0:
                    self._loss_accum -= 1.0
                    self.dropped_packets += 1
                    packet.flow.on_dropped(packet)
                    return
        self._queue.append(packet)
        if not self._serving:
            self._serving = True
            self._schedule_service()

    @property
    def queue_occupancy(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def _schedule_service(self) -> None:
        if not self._queue:
            self._serving = False
            return
        packet = self._queue[0]
        rate = max(self.trace.bandwidth_bps(self.scheduler.now), 1e3)
        service_time = packet.size * 8.0 / rate

        def finish() -> None:
            prof = self._prof
            frame = prof.push("link.service", "link") \
                if prof is not None else None
            served = self._queue.popleft()
            self.delivered_packets += 1
            # Propagation to the client (stretched by any latency fault
            # active at service time), then notify the flow.
            propagation = self.propagation_s
            if self.fault_plan is not None:
                propagation += self.fault_plan.extra_latency(
                    self.scheduler.now
                )
            self.scheduler.schedule(
                propagation, lambda: served.flow.on_delivered(served)
            )
            self._schedule_service()
            if frame is not None:
                prof.pop(frame)

        self.scheduler.schedule(service_time, finish)
