"""Network emulation substrate: traces, cross traffic, link."""

from repro.network.crosstraffic import (
    CrossTrafficConfig,
    cross_traffic_available,
    generate_cross_demand,
)
from repro.network.link import BASE_RTT, MTU, BottleneckLink, RoundOutcome
from repro.network.traces import (
    TRACE_NAMES,
    TRACES,
    NetworkTrace,
    att_trace,
    constant_trace,
    fcc_trace,
    get_trace,
    riiser_3g_corpus,
    step_trace,
    threeg_trace,
    tmobile_trace,
    verizon_trace,
    wild_trace,
)

__all__ = [
    "CrossTrafficConfig",
    "cross_traffic_available",
    "generate_cross_demand",
    "BASE_RTT",
    "MTU",
    "BottleneckLink",
    "RoundOutcome",
    "TRACE_NAMES",
    "TRACES",
    "NetworkTrace",
    "att_trace",
    "constant_trace",
    "fcc_trace",
    "get_trace",
    "riiser_3g_corpus",
    "step_trace",
    "threeg_trace",
    "tmobile_trace",
    "verizon_trace",
    "wild_trace",
]
