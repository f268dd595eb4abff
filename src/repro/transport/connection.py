"""QUIC* connection: reliable and unreliable streams over one CC context.

A :class:`QuicConnection` multiplexes downloads over a single congestion-
controlled context (CUBIC) across the emulated bottleneck link.  Two
stream flavours exist:

* **reliable** — lost packets are retransmitted until everything arrives
  (this is plain QUIC; also how QUIC* carries I-frames and headers),
* **unreliable** — lost packets are *not* retransmitted; the byte ranges
  that never arrived are reported to the application, which may later
  re-request them selectively (§4.2) via ordinary range requests.

Downloads run round-by-round: each round offers ``cwnd`` packets to the
link, learns what was tail-dropped, updates CUBIC, and yields the
experienced RTT to the connection's
:class:`~repro.network.events.SimKernel`, which may interleave many
sessions on one shared link (:meth:`QuicConnection.download_iter`);
:meth:`QuicConnection.download` runs the same process to completion on
that kernel.  An application-supplied progress callback may truncate the
request mid-flight — the hook ABR* uses for mid-segment adjustments and
smart abandonment.
"""

from __future__ import annotations

from typing import List, Optional

from repro.network.events import SimKernel
from repro.network.link import BottleneckLink
from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.tracer import NULL_TRACER
from repro.transport.base import (
    ByteInterval,
    DownloadResult,
    IDLE_TIMEOUT,
    PAYLOAD_FRACTION,
    ProgressFn,
    REQUEST_RTT_COST,
    TransportFault,
    merge_intervals,
)
from repro.transport.cubic import CubicController

# Backward-compatible aliases: these names historically lived here and
# are imported by tests and downstream code.
_merge_intervals = merge_intervals

__all__ = [
    "ByteInterval",
    "DownloadResult",
    "IDLE_TIMEOUT",
    "PAYLOAD_FRACTION",
    "ProgressFn",
    "QuicConnection",
    "REQUEST_RTT_COST",
    "merge_intervals",
]


class QuicConnection:
    """A congestion-controlled connection over a bottleneck link.

    Args:
        link: the emulated bottleneck (possibly shared with other
            connections; the link accounts contention once >= 2 attach).
        kernel: the simulation kernel whose time downloads advance.
        partially_reliable: whether unreliable streams are available
            (QUIC* = True; plain QUIC = False, every download is
            reliable regardless of what the caller asks).
    """

    def __init__(
        self,
        link: BottleneckLink,
        kernel: SimKernel,
        partially_reliable: bool = True,
        tracer=None,
    ):
        self.link = link
        self.kernel = kernel
        self.partially_reliable = partially_reliable
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cc = CubicController()
        self._last_active: Optional[float] = None
        # Optional FaultPlan (set by the backend factory): reset faults
        # are checked against it at round boundaries.
        self.fault_plan = None
        link.attach()
        # Lifetime counters for experiment accounting.
        self.total_delivered = 0
        self.total_lost = 0
        self.total_retransmitted = 0
        registry = get_registry()
        self._ctr_rounds = registry.counter("transport.rounds")
        self._ctr_delivered = registry.counter("transport.bytes_delivered")
        self._ctr_lost = registry.counter("transport.bytes_lost")
        self._ctr_retx = registry.counter("transport.bytes_retransmitted")

    # ------------------------------------------------------------------
    def download(
        self,
        nbytes: int,
        reliable: bool = True,
        progress: Optional[ProgressFn] = None,
    ) -> DownloadResult:
        """Blocking fetch of ``nbytes`` over one stream."""
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
        """Fetch ``nbytes`` over one stream, yielding time to the driver.

        On an unreliable stream the request's byte space ``[0, nbytes)``
        is sent exactly once in order; tail-dropped packets become lost
        intervals.  On a reliable stream losses are retransmitted (the
        retransmission consumes window like new data, so loss still slows
        the transfer).

        The progress callback runs after every round with the elapsed
        time and bytes sent so far; returning an integer truncates the
        request to that many bytes (never below what was already sent).

        With ``deadline_s`` set (or a fault plan attached), the download
        can die mid-flight: an expired deadline or an injected reset
        raises :class:`~repro.transport.base.TransportFault` carrying the
        partial byte accounting.  Faults are detected at round
        boundaries (the round model cannot interrupt a burst in flight).

        This is a kernel process: every ``yield dt`` suspends for ``dt``
        simulated seconds (one request round trip or one congestion
        round); the kernel's time has advanced by ``dt`` when it
        resumes.
        """
        if nbytes < 0:
            raise ValueError(f"cannot download {nbytes} bytes")
        if not self.partially_reliable:
            reliable = True
        if nbytes == 0:
            return DownloadResult(0, 0, [], 0.0)

        self._maybe_idle_restart()

        # Hot-loop handles: all of these are stable for the lifetime of
        # one download (reconnect() only swaps the controller between
        # downloads), so the round loop skips the attribute traffic.
        link = self.link
        kernel = self.kernel
        cc = self.cc
        tracer = self.tracer
        tracing = tracer.enabled
        queue_limit = link.queue_packets * link.mtu

        # Application bytes carried per packet (headers cost the rest).
        payload = max(int(link.mtu * PAYLOAD_FRACTION), 1)
        start_time = kernel.now
        # Request latency: one RTT for the HTTP request to reach the
        # server and the first byte to come back.
        first_rtt = link.current_rtt(kernel.now)
        latency = first_rtt * REQUEST_RTT_COST

        limit = nbytes
        sent_new = 0  # first-transmission bytes sent so far (in order)
        delivered = 0
        lost_intervals: List[ByteInterval] = []
        retx_queue = 0  # reliable-mode bytes awaiting retransmission
        rounds = 0
        plan = self.fault_plan
        guarded = plan is not None or deadline_s is not None
        fault_from = start_time  # reset scan resumes where it left off

        def _fail(kind: str, at: Optional[float] = None) -> TransportFault:
            """Close the books on a failed download (partial accounting)."""
            intervals = merge_intervals(lost_intervals)
            lost_total = sum(e - s for s, e in intervals)
            self.total_delivered += delivered
            self.total_lost += lost_total
            self._ctr_rounds.inc(rounds)
            self._ctr_delivered.inc(delivered)
            self._ctr_lost.inc(lost_total)
            self._last_active = kernel.now
            return TransportFault(
                kind,
                DownloadResult(
                    requested=limit,
                    delivered=delivered,
                    lost=intervals,
                    elapsed=kernel.now - start_time,
                    truncated_at=None,
                    rounds=rounds,
                    request_latency=latency,
                ),
                at=at,
            )

        if deadline_s is not None and latency > deadline_s:
            # A congested queue can stretch the first-byte wait past the
            # deadline (blackouts drain at the rate floor); the client
            # gives up at the deadline with nothing transferred.
            yield deadline_s
            raise _fail("timeout")
        yield latency

        while sent_new < limit or retx_queue > 0:
            if guarded:
                now = kernel.now
                reset_at = (
                    plan.reset_between(fault_from, now)
                    if plan is not None else None
                )
                fault_from = now
                if reset_at is not None:
                    raise _fail("reset", at=reset_at)
                if (
                    deadline_s is not None
                    and now - start_time >= deadline_s
                ):
                    raise _fail("timeout")
            cwnd_f = cc.cwnd
            cwnd_packets = int(cwnd_f)
            if cwnd_packets < 1:
                cwnd_packets = 1
            new_budget = limit - sent_new
            if retx_queue:
                retx_packets = (retx_queue + payload - 1) // payload
                if retx_packets > cwnd_packets:
                    retx_packets = cwnd_packets
            else:
                retx_packets = 0
            new_packets = (new_budget + payload - 1) // payload
            new_room = cwnd_packets - retx_packets
            if new_packets > new_room:
                new_packets = new_room
            burst = retx_packets + new_packets
            if burst == 0:
                burst = 1
                new_packets = 1 if new_budget > 0 else 0
                retx_packets = burst - new_packets

            outcome = link.offer_round(kernel.now, burst)
            rtt = outcome.rtt
            rounds += 1
            if deadline_s is not None:
                elapsed_now = kernel.now - start_time
                if elapsed_now + rtt > deadline_s:
                    # The round outlives the deadline (e.g. a blackout
                    # stretched it to minutes): the client stops waiting
                    # at the deadline.  The wire still carried the burst
                    # — the round event records it so link accounting
                    # balances — but its bytes never reach the
                    # application.
                    remaining = max(deadline_s - elapsed_now, 0.0)
                    if remaining > 0:
                        yield remaining
                    if tracing:
                        tracer.emit(
                            ev.TRANSPORT_ROUND,
                            round=rounds,
                            rtt=outcome.rtt,
                            offered=burst,
                            dropped=outcome.dropped_packets,
                            cwnd=float(cc.cwnd),
                            inflight=burst,
                        )
                        if outcome.dropped_packets:
                            tracer.emit(
                                ev.PACKET_LOSS,
                                dropped_packets=outcome.dropped_packets,
                                lost_bytes=0,
                                reliable=reliable,
                            )
                    raise _fail("timeout")
            yield rtt

            # Retransmissions ride at the front of the burst (they are
            # oldest data); tail drops therefore hit new data first.
            dropped = outcome.dropped_packets
            if dropped:
                new_dropped = dropped if dropped < new_packets else new_packets
                retx_dropped = dropped - new_dropped
            else:
                new_dropped = 0
                retx_dropped = 0

            # New-data accounting: the round sent bytes
            # [sent_new, sent_new + sent_bytes); the last new_dropped
            # packets of that range were tail-dropped.
            sent_bytes = new_packets * payload
            if sent_bytes > new_budget:
                sent_bytes = new_budget
            if new_dropped:
                ok_bytes = sent_bytes - new_dropped * payload
                if ok_bytes < 0:
                    ok_bytes = 0
            else:
                ok_bytes = sent_bytes
            if reliable:
                delivered += ok_bytes
                retx_queue += sent_bytes - ok_bytes
            else:
                delivered += ok_bytes
                if sent_bytes - ok_bytes > 0:
                    lost_intervals.append(
                        (sent_new + ok_bytes, sent_new + sent_bytes)
                    )
            sent_new += sent_bytes

            if tracing:
                # Direct fields-dict emission (no kwargs relay).  In the
                # round model everything offered is in flight for exactly
                # one RTT; recording it makes the congestion-compliance
                # invariant auditable.
                tracer.emit_fields(None, ev.TRANSPORT_ROUND, {
                    "round": rounds,
                    "rtt": rtt,
                    "offered": burst,
                    "dropped": dropped,
                    "cwnd": float(cwnd_f),
                    "inflight": burst,
                })
                if dropped:
                    tracer.emit_fields(None, ev.PACKET_LOSS, {
                        "dropped_packets": dropped,
                        "lost_bytes": 0 if reliable else sent_bytes - ok_bytes,
                        "reliable": reliable,
                    })

            # Retransmission accounting (reliable only).
            if retx_packets:
                retx_sent = min(retx_packets * payload, retx_queue)
                retx_ok = max(retx_sent - retx_dropped * payload, 0)
                delivered += retx_ok
                retx_queue -= retx_ok
                self.total_retransmitted += retx_ok
                self._ctr_retx.inc(retx_ok)

            pressure = (
                link.queue_bytes / queue_limit if queue_limit else 0.0
            )
            # Application-limited rounds (burst below the window) must
            # not grow the window: the round proves nothing about the
            # path, and unchecked doubling across request tails leads to
            # a catastrophic burst on the next full window.
            if burst >= cwnd_packets or dropped:
                cc.on_round(rtt, dropped > 0, pressure)

            if progress is not None:
                new_limit = progress(kernel.now - start_time, sent_new)
                if new_limit is not None:
                    if new_limit < limit:
                        limit = new_limit
                    if limit < sent_new:
                        limit = sent_new

        self._last_active = kernel.now
        lost_intervals = merge_intervals(lost_intervals)
        self.total_delivered += delivered
        self.total_lost += sum(end - start for start, end in lost_intervals)
        self._ctr_rounds.inc(rounds)
        self._ctr_delivered.inc(delivered)
        self._ctr_lost.inc(
            sum(end - start for start, end in lost_intervals)
        )
        truncated = limit if limit < nbytes else None
        return DownloadResult(
            requested=limit,
            delivered=delivered,
            lost=lost_intervals,
            elapsed=kernel.now - start_time,
            truncated_at=truncated,
            rounds=rounds,
            request_latency=latency,
        )

    def reconnect(self) -> None:
        """Re-establish the connection after a :class:`TransportFault`.

        Congestion state restarts from scratch (a new connection has no
        path history); the shared link and its queue are untouched, so
        co-resident flows keep their state.
        """
        self.cc = CubicController()
        self._last_active = None

    def idle(self, dt: float) -> None:
        """Account an application idle period (player buffer full)."""
        self.kernel.run_process(self.idle_iter(dt))

    def idle_iter(self, dt: float):
        """Kernel process form of :meth:`idle` (yields the idle time)."""
        if dt <= 0:
            return None
        self.link.drain(self.kernel.now, dt)
        yield dt
        return None

    # ------------------------------------------------------------------
    def _maybe_idle_restart(self) -> None:
        if (
            self._last_active is not None
            and self.kernel.now - self._last_active > IDLE_TIMEOUT
        ):
            self.cc.after_idle()
            now = self.kernel.now
            self.link.drain(self._last_active, now - self._last_active)
