"""Bottleneck link with a droptail queue (§5, "Network testbed").

The testbed emulates a one-hop path: server -> router -> client, with the
router shaping to the trace bandwidth, a droptail queue (1.25x the
bandwidth-delay product by default, or a fixed packet count when a trace
experiment pins it, or 750 packets for the long-queue study of §B), and a
30 ms last-mile delay on the router-to-client link.

The link is simulated at *round* (RTT-window) granularity: each round the
sender offers a burst of packets; the queue absorbs what the service rate
cannot carry; overflow beyond the queue limit is tail-dropped.  Queueing
delay feeds back into the RTT.  This keeps the loss <-> congestion-window
feedback loop of a packet-level simulation at a fraction of the cost.

**Shared mode.**  A link is single-flow by default, with the exact
historical accounting (each round assumes the full service rate over its
own RTT window).  Once a second flow attaches (:meth:`attach`) the link
latches into shared mode: service is accounted *continuously* — each
offer first drains the queue by ``service * elapsed`` since the last
offer from any flow, then adds its arrivals with no same-round service
lookahead.  Overlapping rounds from N senders therefore compete for one
service rate instead of each privately assuming all of it, and droptail
losses emerge from genuine aggregate pressure.  Single-flow simulations
keep byte-identical results because the latch only trips at two flows.

Both modes run one round body, :meth:`BottleneckLink.offer_round`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.network.traces import NetworkTrace
from repro.obs.metrics import get_registry

MTU = 1500  # bytes
BASE_RTT = 0.060  # 30 ms each way (§5)


class BottleneckLink:
    """Trace-driven droptail bottleneck shared with optional cross traffic.

    Args:
        trace: raw capacity of the bottleneck over time.
        cross_demand: aggregate cross-traffic demand; the video flow gets
            ``max(capacity - demand, fairness_floor * capacity)``.
        queue_packets: droptail queue limit in packets.  ``None`` sizes
            the queue to ``bdp_factor`` times the bandwidth-delay product
            of the *average* trace bandwidth, like the testbed.
        bdp_factor: queue size as a multiple of the BDP (default 1.25).
        base_rtt: propagation RTT in seconds.
        mtu: packet size in bytes.
        fairness_floor: minimum capacity share the video flow keeps under
            cross traffic (cross flows are congestion controlled too).
    """

    def __init__(
        self,
        trace: NetworkTrace,
        cross_demand: Optional[NetworkTrace] = None,
        queue_packets: Optional[int] = 32,
        bdp_factor: float = 1.25,
        base_rtt: float = BASE_RTT,
        mtu: int = MTU,
        fairness_floor: float = 0.25,
    ):
        self.trace = trace
        self.cross_demand = cross_demand
        self.base_rtt = base_rtt
        self.mtu = mtu
        self.fairness_floor = fairness_floor
        if queue_packets is None:
            bdp_bytes = trace.mean_mbps() * 1e6 * base_rtt / 8.0
            queue_packets = max(int(bdp_factor * bdp_bytes / mtu), 4)
        self.queue_packets = int(queue_packets)
        self.queue_bytes = 0  # current occupancy
        # Flow bookkeeping: >= 2 concurrent attachments latch shared
        # (continuous-service) accounting for the rest of the run.
        self.flows = 0
        self._shared = False
        self._last_service_t: Optional[float] = None
        # Optional FaultPlan (set by the backend factory): latency-channel
        # windows add to the propagation RTT, loss-channel windows drop
        # serviced packets via a deterministic accumulator.
        self.fault_plan = None
        self._loss_accum = 0.0
        # Constant trace with no cross traffic (the fleet default):
        # the service rate is one precomputed float, so the per-round
        # paths skip the trace lookup entirely.  The precomputation
        # replays available_bps() exactly (same ops, same floats).
        self._const_bps: Optional[float] = None
        if cross_demand is None:
            const_mbps = getattr(trace, "_const_mbps", None)
            # Subclasses (e.g. FaultedTrace) may override the bandwidth
            # lookup while inheriting the base series' constant marker;
            # the fast path only applies when the base lookup is live.
            if (const_mbps is not None
                    and type(trace).bandwidth_mbps
                    is NetworkTrace.bandwidth_mbps
                    and type(trace).bandwidth_bps
                    is NetworkTrace.bandwidth_bps):
                capacity = const_mbps * 1e6
                self._const_bps = capacity if capacity > 1e3 else 1e3
        # Lifetime instance counters (cross-session conservation law).
        self.offered_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0
        registry = get_registry()
        self._ctr_offered = registry.counter("link.packets_offered")
        self._ctr_dropped = registry.counter("link.packets_dropped")
        self._gauge_queue = registry.gauge("link.queue_bytes")

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Register a flow (connection) using this link.

        The second concurrent flow permanently switches the link to the
        shared continuous-service accounting; single-flow runs never pay
        for (or observe) it.
        """
        self.flows += 1
        if self.flows >= 2:
            self._shared = True

    @property
    def shared(self) -> bool:
        return self._shared

    # ------------------------------------------------------------------
    def available_bps(self, t: float) -> float:
        """Service rate available to the video flow at time ``t``."""
        const = self._const_bps
        if const is not None:
            return const
        capacity = self.trace.bandwidth_bps(t)
        if self.cross_demand is None:
            return capacity if capacity > 1e3 else 1e3
        demand = self.cross_demand.bandwidth_bps(t)
        return max(capacity - demand, self.fairness_floor * capacity, 1e3)

    def _rtt_base(self, t: float) -> float:
        """Propagation RTT plus any injected latency-fault extra."""
        if self.fault_plan is not None:
            return self.base_rtt + self.fault_plan.extra_latency(t)
        return self.base_rtt

    def _inject_loss(self, t: float, delivered: int) -> int:
        """Injected loss-fault drops among ``delivered`` packets.

        A fractional accumulator (not an RNG) keeps the drop pattern a
        pure function of the offer sequence, so shared-link multiclient
        runs stay byte-reproducible at any worker count.
        """
        if self.fault_plan is None or delivered <= 0:
            return 0
        rate = self.fault_plan.loss_rate(t)
        if rate <= 0.0:
            return 0
        self._loss_accum += delivered * rate
        injected = min(int(self._loss_accum), delivered)
        self._loss_accum -= injected
        return injected

    def current_rtt(self, t: float) -> float:
        """Propagation plus queueing delay at time ``t``."""
        service = self.available_bps(t)
        return self._rtt_base(t) + self.queue_bytes * 8.0 / service

    def offer_round(self, t: float, packets: int
                    ) -> Tuple[int, int, float]:
        """Send a burst of ``packets`` through the link over one RTT.

        Returns ``(delivered, dropped, rtt)``: how many packets survived,
        how many were dropped, and the RTT the round experienced.
        Advancing the clock is the caller's job (by ``rtt``).

        The two modes differ only in the queue ahead of the burst: a
        single flow is served over its own round (the queue plus the
        burst, less what the link carries during ``rtt``); a shared link
        first drains the service since the last offer from *any* flow
        and grants this burst no same-round lookahead.
        """
        if packets < 0:
            raise ValueError("cannot offer a negative burst")
        mtu = self.mtu
        plan = self.fault_plan
        shared = self._shared
        service = self._const_bps
        if service is None:
            service = self.available_bps(t)
        queue = self.queue_bytes
        if shared:
            last_t = self._last_service_t
            if last_t is not None and t > last_t:
                queue -= service * (t - last_t) / 8.0
                if queue < 0.0:
                    queue = 0.0
            self._last_service_t = t

        # Queueing delay seen by this burst: the backlog already ahead
        # of it at arrival.
        rtt_base = self.base_rtt if plan is None \
            else self.base_rtt + plan.extra_latency(t)
        rtt = rtt_base + queue * 8.0 / service

        backlog = queue + packets * mtu
        if not shared:
            # Bytes the link serves while this round is in flight.
            backlog -= service * rtt / 8.0
            if backlog < 0:
                backlog = 0.0
        limit = self.queue_packets * mtu
        if backlog > limit:
            self.queue_bytes = limit
            dropped = int((backlog - limit) // mtu)
            if dropped > packets:
                dropped = packets
        else:
            self.queue_bytes = backlog
            dropped = 0

        delivered = packets - dropped
        # Loss-fault drops hit packets that survived the queue (wire
        # corruption happens after service).
        if plan is not None:
            injected = self._inject_loss(t, delivered)
            dropped += injected
            delivered -= injected
        self.offered_packets += packets
        self.delivered_packets += delivered
        self.dropped_packets += dropped
        self._ctr_offered.inc(packets)
        if dropped:
            self._ctr_dropped.inc(dropped)
        self._gauge_queue.set(self.queue_bytes)
        return delivered, dropped, rtt

    def drain(self, t: float, dt: float) -> None:
        """Let the queue drain while the sender is idle for ``dt``.

        In shared mode this is a no-op: one flow idling says nothing
        about the others, and elapsed-time draining at the next offer
        already accounts the service (double-draining here would hand
        the idler's share out twice).
        """
        if self._shared or dt <= 0:
            return
        service = self.available_bps(t)
        self.queue_bytes = max(0.0, self.queue_bytes - service * dt / 8.0)

    def reset(self) -> None:
        """Empty the queue (fresh connection on a quiet path)."""
        self.queue_bytes = 0
