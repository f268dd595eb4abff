"""Transport-backend registry: a spec string becomes a bottleneck and
the connections riding it.

A *backend* is the whole transport substrate of a session — the
bottleneck plus the QUIC(*) connection riding it.  Two ship with the
repo:

* ``"round"`` — the fast per-RTT fluid model
  (:class:`~repro.network.link.BottleneckLink` +
  :class:`~repro.transport.connection.QuicConnection`), used for all
  sweeps;
* ``"packet"`` — the event-driven per-packet backend
  (:class:`~repro.network.packetlink.PacketRouter` +
  :class:`~repro.transport.packet_connection.PacketLevelConnection`),
  orders of magnitude slower, used to validate the round model.

Each registered :class:`Backend` is the one place its bottleneck is
built: a solo :class:`~repro.player.session.StreamingSession` builds
its own through it, and
:func:`~repro.experiments.multiclient.build_shard` builds one through
the same call and hands it to every client.  A custom transport plugs
in with one registration and is immediately usable from
``ScenarioSpec(backend=...)``, ``stream()``, ``repro sweep`` grids and
every CLI ``--backend``: the registry, not the argument parser, checks
the name.

Factory contract::

    bottleneck(kernel, trace, queue_packets, base_rtt,
               fault_plan=None, cross_demand=None) -> link or router
    connection(bottleneck, kernel, partially_reliable, tracer)
        -> connection

``kernel`` is the cell's :class:`~repro.network.events.SimKernel`, the
one time authority its connections (and a packet router) run on.
``fault_plan`` is the cell's realized
:class:`~repro.faults.plan.FaultPlan`: bandwidth-channel faults reshape
the trace the bottleneck serves, latency/loss channels hook into the
bottleneck directly.  Per-connection faults (resets, deadlines) are the
session's to attach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.registry import Registry
from repro.network.crosstraffic import cross_traffic_available
from repro.network.link import BottleneckLink
from repro.transport.connection import QuicConnection

#: The transport-backend registry (``ScenarioSpec.backend`` keys).
BACKENDS = Registry("transport backend")


@dataclass(frozen=True)
class Backend:
    """One registered backend: its two factories (see the module doc)."""

    bottleneck: Callable
    connection: Callable


def _faulted(trace, fault_plan):
    if fault_plan is None:
        return trace
    from repro.faults.plan import FaultedTrace

    return FaultedTrace(trace, fault_plan)


def _round_bottleneck(kernel, trace, queue_packets, base_rtt,
                      fault_plan=None, cross_demand=None):
    link = BottleneckLink(
        _faulted(trace, fault_plan),
        cross_demand=cross_demand,
        queue_packets=queue_packets,
        base_rtt=base_rtt,
    )
    link.fault_plan = fault_plan
    return link


BACKENDS.register(
    "round",
    "fast per-RTT fluid model (BottleneckLink + QuicConnection); "
    "default for all sweeps",
)(Backend(_round_bottleneck, QuicConnection))


def _packet_bottleneck(kernel, trace, queue_packets, base_rtt,
                       fault_plan=None, cross_demand=None):
    # Imported lazily: the packet-level stack is only paid for when used.
    from repro.network.packetlink import PacketRouter

    if cross_demand is not None:
        trace = cross_traffic_available(trace.mean_mbps(), cross_demand)
    router = PacketRouter(
        kernel,
        _faulted(trace, fault_plan),
        queue_packets=32 if queue_packets is None else queue_packets,
        propagation_s=base_rtt / 2.0,
    )
    router.fault_plan = fault_plan
    return router


def _packet_connection(bottleneck, kernel, partially_reliable, tracer):
    from repro.transport.packet_connection import PacketLevelConnection

    return PacketLevelConnection(
        bottleneck, kernel, partially_reliable, tracer
    )


BACKENDS.register(
    "packet",
    "event-driven per-packet backend (PacketRouter + "
    "PacketLevelConnection); slow, validates the round model",
)(Backend(_packet_bottleneck, _packet_connection))


def make_backend(name: str) -> Backend:
    """The named backend.

    Raises ``ValueError`` for unknown names (the session constructor's
    historical contract), with the registry catalog in the message.
    """
    try:
        return BACKENDS.get(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


__all__ = ["BACKENDS", "Backend", "make_backend"]
