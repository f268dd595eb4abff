"""Transport-backend registry: a spec string becomes a ready stack.

A *backend* is the whole transport substrate of a session — the link
model plus the QUIC(*) connection riding it.  Two ship with the repo:

* ``"round"`` — the fast per-RTT fluid model
  (:class:`~repro.network.link.BottleneckLink` +
  :class:`~repro.transport.connection.QuicConnection`), used for all
  sweeps;
* ``"packet"`` — the event-driven per-packet backend
  (:class:`~repro.network.packetlink.PacketRouter` +
  :class:`~repro.transport.packet_connection.PacketLevelConnection`),
  orders of magnitude slower, used to validate the round model.

:class:`~repro.player.session.StreamingSession` resolves its backend
here, so a custom transport plugs in with one decorator and is
immediately usable from ``ScenarioSpec(backend=...)``, ``stream()``,
and ``repro sweep`` grids.

Factory contract::

    factory(config, kernel, trace, cross_demand=None, tracer=None,
            link=None, router=None) -> TransportStack

``kernel`` is the session's :class:`~repro.network.events.SimKernel`,
the one time authority the connection (and a packet router) runs on.
``link``/``router`` allow several sessions to share one bottleneck
(multi-client runs hand every session the shard's kernel and the
shared link or router).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.registry import Registry
from repro.network.linkmodels import LINK_MODELS

#: The transport-backend registry (``ScenarioSpec.backend`` keys).
BACKENDS = Registry("transport backend")


@dataclass
class TransportStack:
    """What a backend factory returns: connection plus its substrate."""

    connection: object
    #: The round backend's :class:`BottleneckLink` (None for packet).
    link: object = None


@BACKENDS.register(
    "round",
    "fast per-RTT fluid model (BottleneckLink + QuicConnection); "
    "default for all sweeps",
)
def _build_round(
    config,
    kernel,
    trace,
    cross_demand=None,
    tracer=None,
    link=None,
    router=None,
) -> TransportStack:
    from repro.obs.tracer import NULL_TRACER
    from repro.transport.connection import QuicConnection

    plan = getattr(config, "fault_plan", None)
    if link is None:
        if plan is not None:
            # Bandwidth-channel faults reshape the capacity the link
            # sees; latency/loss channels hook into the link directly.
            from repro.faults.plan import FaultedTrace

            trace = FaultedTrace(trace, plan)
        link = LINK_MODELS.get("droptail")(
            trace,
            cross_demand=cross_demand,
            queue_packets=config.queue_packets,
            base_rtt=config.base_rtt,
        )
        if plan is not None:
            link.fault_plan = plan
    # A shared (passed-in) link belongs to the multi-client runner, which
    # wires run-level faults onto it once; only the per-session
    # connection faults (resets, deadlines) attach here.
    connection = QuicConnection(
        link,
        kernel,
        partially_reliable=config.partially_reliable,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    if plan is not None:
        connection.fault_plan = plan
    return TransportStack(connection=connection, link=link)


@BACKENDS.register(
    "packet",
    "event-driven per-packet backend (PacketRouter + "
    "PacketLevelConnection); slow, validates the round model",
)
def _build_packet(
    config,
    kernel,
    trace,
    cross_demand=None,
    tracer=None,
    link=None,
    router=None,
) -> TransportStack:
    from repro.network.crosstraffic import cross_traffic_available
    from repro.obs.tracer import NULL_TRACER
    from repro.transport.packet_connection import PacketLevelConnection

    plan = getattr(config, "fault_plan", None)
    effective = trace
    if cross_demand is not None:
        effective = cross_traffic_available(trace.mean_mbps(), cross_demand)
    if router is None:
        if plan is not None:
            from repro.faults.plan import FaultedTrace

            effective = FaultedTrace(effective, plan)
        queue = config.queue_packets
        router = LINK_MODELS.get("packet-router")(
            kernel,
            effective,
            queue_packets=queue if queue is not None else 32,
            propagation_s=config.base_rtt / 2.0,
        )
        if plan is not None:
            router.fault_plan = plan
    connection = PacketLevelConnection(
        router,
        kernel,
        partially_reliable=config.partially_reliable,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    if plan is not None:
        connection.fault_plan = plan
    return TransportStack(connection=connection)


def make_backend(name: str, **kwargs) -> TransportStack:
    """Build the named transport stack.

    Raises ``ValueError`` for unknown names (the session constructor's
    historical contract), with the registry catalog in the message.
    """
    try:
        factory = BACKENDS.get(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return factory(**kwargs)


__all__ = ["BACKENDS", "TransportStack", "make_backend"]
