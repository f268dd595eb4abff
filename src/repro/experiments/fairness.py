"""Flow-fairness study (§5.2 mentions fairness results were omitted).

"As all streams in VOXEL are congestion-controlled, we have no
flow-fairness concerns."  This module substantiates that claim with the
packet-level backend: several flows — any mix of reliable and
QUIC*-unreliable bulk transfers — share one bottleneck router, and we
measure each flow's realized throughput plus Jain's fairness index.

The key property: QUIC*'s unreliable streams still run CUBIC, so an
unreliable flow claims no more than its fair share even though it never
retransmits.

Each flow is an ordinary kernel process (``download_iter`` spawned on a
:class:`~repro.network.events.SimKernel`) — the same execution model
full multi-client sessions use, with no private scheduler wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.network.events import SimKernel
from repro.network.packetlink import PacketRouter
from repro.network.traces import NetworkTrace, constant_trace
from repro.transport.packet_connection import PacketLevelConnection


@dataclass
class FlowResult:
    """Outcome of one flow in a fairness run."""

    label: str
    reliable: bool
    delivered_bytes: int
    elapsed: float

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.delivered_bytes * 8.0 / self.elapsed / 1e6


@dataclass
class FairnessResult:
    """Aggregate of a fairness run."""

    flows: List[FlowResult]
    link_mbps: float

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over flow throughputs (1.0 = perfect)."""
        rates = np.array([flow.throughput_mbps for flow in self.flows])
        if not len(rates) or rates.sum() == 0:
            return 1.0
        return float(rates.sum() ** 2 / (len(rates) * (rates**2).sum()))

    @property
    def utilization(self) -> float:
        """Delivered bits over what the link could carry while busy.

        Every flow starts at time 0, so the link is busy until the last
        flow completes.  Summing per-flow rates instead would measure
        each flow over its own completion time and can exceed 1.
        """
        elapsed = max((flow.elapsed for flow in self.flows), default=0.0)
        if elapsed <= 0:
            return 0.0
        bits = 8.0 * sum(flow.delivered_bytes for flow in self.flows)
        return bits / (self.link_mbps * 1e6 * elapsed)


def _bulk_flow(
    label: str,
    connection: PacketLevelConnection,
    total_bytes: int,
    reliable: bool,
):
    """One long-lived transfer as a kernel process; returns FlowResult."""
    result = yield from connection.download_iter(
        total_bytes, reliable=reliable
    )
    return FlowResult(
        label=label,
        reliable=reliable,
        delivered_bytes=result.delivered,
        elapsed=result.elapsed,
    )


def run_fairness(
    link_mbps: float = 20.0,
    flow_specs: Sequence[tuple] = (
        ("reliable-1", True),
        ("reliable-2", True),
        ("unreliable-voxel", False),
    ),
    transfer_mb: float = 10.0,
    queue_packets: int = 64,
    trace: NetworkTrace = None,
) -> FairnessResult:
    """Run concurrent bulk flows over one bottleneck.

    Args:
        link_mbps: bottleneck capacity (constant unless ``trace`` given).
        flow_specs: (label, reliable) per flow; unreliable flows model
            QUIC*'s non-retransmitting streams.
        transfer_mb: bytes each flow pushes.
        queue_packets: shared droptail queue size.
        trace: optional explicit capacity trace.

    Returns:
        Per-flow throughputs and Jain's index, measured over each flow's
        own completion time.
    """
    kernel = SimKernel()
    the_trace = trace if trace is not None else constant_trace(
        link_mbps, duration=3600
    )
    router = PacketRouter(kernel, the_trace, queue_packets=queue_packets)

    waiters = []
    for label, reliable in flow_specs:
        connection = PacketLevelConnection(
            router, kernel, partially_reliable=True
        )
        waiters.append(
            kernel.spawn(
                _bulk_flow(
                    label, connection, int(transfer_mb * 1e6), reliable
                )
            )
        )

    kernel.run_until_all(waiters)
    results = [w.value for w in waiters]
    return FairnessResult(flows=results, link_mbps=link_mbps)
