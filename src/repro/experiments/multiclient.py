"""Multi-client experiment: N full ABR sessions on one bottleneck.

The paper's testbed streams one client against cross traffic; this
module runs *several complete streaming sessions* — mixed ABR
algorithms, mixed transport flavours (QUIC vs QUIC*), even mixed videos
— concurrently on one shared bottleneck, interleaved by the discrete-
event kernel.  Each session is the ordinary
:class:`~repro.player.session.StreamingSession` state machine
(:meth:`~repro.player.session.StreamingSession.steps`) spawned as a
kernel process; contention emerges from the shared link's continuous-
service accounting (round backend) or the shared droptail router
(packet backend), not from any bespoke multi-client code path.

Reported per client: QoE (SSIM, bitrate), stalls, startup delay, and
realized throughput; across clients: Jain's fairness index.  With a
tracer attached, all sessions record into one globally ordered stream
(events tagged ``session_id``) and the run ends with a ``link_stats``
event carrying the shared link's lifetime counters, so
``repro trace --check`` can verify cross-session byte conservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.network.events import SimKernel
from repro.network.traces import NetworkTrace
from repro.obs import events as ev
from repro.player.metrics import SessionMetrics
from repro.player.session import StreamingSession
from repro.prep.prepare import PreparedVideo
from repro.transport.backends import make_backend


def client_label(spec: ScenarioSpec, index: Optional[int] = None) -> str:
    """A client's row tag: ABR and transport flavour.

    Pass the client index to disambiguate clients that share an ABR and
    flavour (table rows would otherwise collide — session ids stay
    unchanged).
    """
    flavour = "Q*" if spec.partially_reliable else "Q"
    base = f"{spec.abr}/{flavour}"
    return base if index is None else f"{base}#{index}"


@dataclass
class ClientOutcome:
    """One client's results."""

    session_id: str
    spec: ScenarioSpec
    metrics: SessionMetrics

    @property
    def delivered_bytes(self) -> int:
        return sum(r.bytes_delivered for r in self.metrics.records)

    @property
    def throughput_mbps(self) -> float:
        wall = self.metrics.wall_duration
        if wall <= 0:
            return 0.0
        return self.delivered_bytes * 8.0 / wall / 1e6


@dataclass
class MulticlientResult:
    """Aggregate of one multi-client run."""

    clients: List[ClientOutcome]
    trace_name: str
    backend: str

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over per-client throughput."""
        rates = np.array([c.throughput_mbps for c in self.clients])
        if not len(rates) or rates.sum() == 0:
            return 1.0
        return float(rates.sum() ** 2 / (len(rates) * (rates**2).sum()))

    def rows(self) -> List[Dict[str, float]]:
        out = []
        for i, client in enumerate(self.clients):
            m = client.metrics
            out.append({
                "session_id": client.session_id,
                "label": client_label(client.spec, i),
                "video": client.spec.video,
                "mean_ssim": m.mean_ssim,
                "bitrate_kbps": m.avg_bitrate_kbps,
                "buf_ratio": m.buf_ratio,
                "total_stall_s": m.total_stall,
                "startup_delay_s": m.startup_delay,
                "throughput_mbps": client.throughput_mbps,
            })
        return out


#: The mixed 4-client default: both ABRs, both transport flavours, on
#: the spec defaults' network (bbb over verizon, seed 0).
DEFAULT_SPECS = (
    ScenarioSpec(abr="abr_star", reliability="quic*"),
    ScenarioSpec(abr="bola", reliability="quic*"),
    ScenarioSpec(abr="abr_star", reliability="quic"),
    ScenarioSpec(abr="bola", reliability="quic"),
)

#: Spec fields every client of one shard must agree on: they describe
#: the one bottleneck (trace weather, queue, RTT, backend, cross
#: traffic), its fault plan, and the resilience policy that plan is
#: built for.
SHARED_FIELDS = (
    "trace", "seed", "trace_kwargs", "trace_shift_s", "cross_traffic_mbps",
    "link_mbps_under_cross", "backend", "queue_packets", "base_rtt",
    "faults", "request_timeout_s", "retry_budget", "retry_backoff_s",
)


def default_session_ids(specs: Sequence[ScenarioSpec]) -> List[str]:
    """The historical per-client session ids: index, ABR, flavour."""
    return [
        f"c{i}-{spec.abr}-{'Qstar' if spec.partially_reliable else 'Q'}"
        for i, spec in enumerate(specs)
    ]


def _shared_network(specs: Sequence[ScenarioSpec]) -> ScenarioSpec:
    """The first client's spec, once every client agrees with it on
    :data:`SHARED_FIELDS` (``ValueError`` naming the field otherwise).

    Cross traffic is rejected: the clients contend with each other on
    the shared bottleneck, which carries no separate cross demand.
    """
    if not specs:
        raise ValueError("a multi-client run needs at least one client")
    first = specs[0]
    for name in SHARED_FIELDS:
        value = getattr(first, name)
        for spec in specs[1:]:
            if getattr(spec, name) != value:
                raise ValueError(
                    f"clients of one shard must share {name}: "
                    f"{value!r} vs {getattr(spec, name)!r}"
                )
    if first.cross_traffic_mbps is not None:
        raise ValueError(
            "multi-client runs do not model cross traffic: got "
            f"cross_traffic_mbps={first.cross_traffic_mbps!r}"
        )
    return first


@dataclass
class Shard:
    """One assembled simulation cell, ready to run.

    A shard is a kernel, one shared bottleneck (fluid link or packet
    router), and N client sessions built against it — the unit a fleet
    executor hands to a worker process.  :meth:`run` drives every
    session to completion and returns their metrics in client order.
    """

    kernel: SimKernel
    sessions: List[StreamingSession]
    session_ids: List[str]
    specs: List[ScenarioSpec]
    trace_name: str
    backend: str
    #: The shared contention point (a link or a router, by backend).
    bottleneck: object
    tracer: Optional[object] = None

    def run(self) -> List[SessionMetrics]:
        """Drive all sessions concurrently; metrics in client order.

        Spawn order is the determinism anchor: simultaneous events
        tie-break by spawn sequence, so a fixed spec list fixes the
        interleave.  Spawning and the completion wait are batched
        (``spawn_many`` / ``run_until_all``) so a shard with hundreds
        of sessions costs O(1) bookkeeping per event, byte-identical
        to the unbatched loop.
        """
        waiters = self.kernel.spawn_many(
            session.steps() for session in self.sessions
        )
        self.kernel.run_until_all(waiters)
        if self.tracer is not None and self.tracer.enabled:
            source = self.bottleneck
            self.tracer.emit(
                ev.LINK_STATS,
                offered_packets=source.offered_packets,
                dropped_packets=source.dropped_packets,
                delivered_packets=source.delivered_packets,
                flows=len(self.sessions),
            )
        return [w.value for w in waiters]


def build_shard(
    specs: Sequence[ScenarioSpec],
    network_trace: Optional[NetworkTrace] = None,
    *,
    tracer=None,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    session_ids: Optional[Sequence[str]] = None,
) -> Shard:
    """Assemble one shared-substrate cell: kernel, bottleneck, sessions.

    One :class:`~repro.core.spec.ScenarioSpec` per client.  The clients
    share one bottleneck, so they must agree on :data:`SHARED_FIELDS`;
    its capacity is the specs' trace, resolved as
    :meth:`~repro.core.build.StackBuilder.resolve_trace` does (name,
    seed, kwargs, shift).  An explicit ``network_trace`` replaces it
    as is; the specs must then name it (``trace`` equal to the
    object's ``name``), so every stamped ``spec_hash`` and the
    reported ``trace_name`` describe the link that ran.  The fleet
    executor builds many cells — each with its own kernel, trace
    weather, and fault plan — through this one code path.
    ``session_ids`` overrides the default ``c{i}-...`` ids (fleet
    shards need globally unique ids so the hash-keyed rollup sampling
    stays a pure function of the id).
    """
    network = _shared_network(specs)
    if network_trace is None:
        trace = StackBuilder(network).resolve_trace()
    elif network_trace.name != network.trace:
        raise ValueError(
            f"clients name trace {network.trace!r} but the explicit "
            f"network_trace is {network_trace.name!r}"
        )
    else:
        trace = network_trace
    builders = [
        StackBuilder(spec, prepared_map=prepared_map) for spec in specs
    ]
    kernel = SimKernel()
    # The one bottleneck all clients contend for, built by their backend
    # as a solo session builds its own.  The clients share the fault
    # spec and seed, so the longest-playing client's plan spreads the
    # run-level faults over every client's playback.
    longest = max(builders, key=lambda b: b.prepared_video().video.duration)
    bottleneck = make_backend(network.backend).bottleneck(
        kernel, trace, network.queue_packets, network.base_rtt,
        fault_plan=longest.fault_plan(trace),
    )

    if session_ids is None:
        session_ids = default_session_ids(specs)
    elif len(session_ids) != len(specs):
        raise ValueError(
            f"{len(session_ids)} session ids for {len(specs)} clients"
        )

    sessions: List[StreamingSession] = [
        builder.build(
            network_trace=trace,
            tracer=tracer,
            kernel=kernel,
            session_id=session_id,
            bottleneck=bottleneck,
        )
        for builder, session_id in zip(builders, session_ids)
    ]
    return Shard(
        kernel=kernel,
        sessions=sessions,
        session_ids=list(session_ids),
        specs=list(specs),
        trace_name=network.trace,
        backend=network.backend,
        bottleneck=bottleneck,
        tracer=tracer,
    )


def run_multiclient(
    specs: Sequence[ScenarioSpec] = DEFAULT_SPECS,
    network_trace: Optional[NetworkTrace] = None,
    tracer=None,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    observers: Optional[Sequence] = None,
    session_ids: Optional[Sequence[str]] = None,
) -> MulticlientResult:
    """Run N concurrent streaming sessions on one shared bottleneck.

    Args:
        specs: one :class:`~repro.core.spec.ScenarioSpec` per client
            (>= 1).  Per-client fields (video, ABR, reliability,
            buffer, ...) may differ; the :data:`SHARED_FIELDS` describe
            the one bottleneck and must agree.  The whole run is a pure
            function of the specs — same inputs, byte-identical traces.
            Substrate faults (blackouts, loss, latency) hit the shared
            bottleneck once — every client feels the same weather —
            while resets/deadlines act per connection.
        network_trace: explicit capacity trace replacing the specs'
            resolved one (all clients contend for this one link); the
            specs' ``trace`` must equal its ``name``.
        tracer: optional shared tracer; events are tagged per session.
        prepared_map: video name -> PreparedVideo, for videos outside
            the catalog (fixtures, benchmarks).
        observers: trace-event callbacks (fleet rollups, attributors,
            auditors).  Attached to ``tracer`` when one is given;
            otherwise a buffer-less
            :class:`~repro.obs.tracer.StreamingTracer` is created, so
            fleet aggregation never retains per-event history.
        session_ids: override the default ``c{i}-...`` per-client ids
            (fleet shards pass globally unique ids).

    Returns:
        Per-client metrics plus Jain's fairness index.
    """
    if observers:
        if tracer is None:
            from repro.obs.tracer import StreamingTracer

            tracer = StreamingTracer()
        for observer in observers:
            tracer.add_observer(observer)
    shard = build_shard(
        specs,
        network_trace,
        tracer=tracer,
        prepared_map=prepared_map,
        session_ids=session_ids,
    )
    metrics = shard.run()
    clients = [
        ClientOutcome(session_id=sid, spec=spec, metrics=m)
        for sid, spec, m in zip(shard.session_ids, shard.specs, metrics)
    ]
    return MulticlientResult(
        clients=clients, trace_name=shard.trace_name, backend=shard.backend
    )
