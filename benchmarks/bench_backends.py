"""Ablation: round-based vs packet-level transport simulation.

DESIGN.md calls out the per-RTT round model as the key simulation
shortcut; this benchmark validates it against the event-driven
per-packet backend on identical scenarios, and runs the flow-fairness
study the paper alludes to ("as all streams in VOXEL are congestion
controlled, we have no flow-fairness concerns", §5.2).
"""

import numpy as np

from benchmarks.conftest import format_rows
from repro.abr import make_abr
from repro.core.spec import ScenarioSpec
from repro.experiments.fairness import run_fairness
from repro.network import constant_trace, get_trace
from repro.player import StreamingSession
from repro.prep.prepare import get_prepared


def test_backend_agreement(benchmark):
    """Both backends put the same scenarios in the same regime."""

    def run():
        prepared = get_prepared("bbb")
        rows = []
        for trace_name in ("constant:10.5", "verizon"):
            for backend in ("round", "packet"):
                abr = make_abr("bola", prepared=prepared)
                spec = ScenarioSpec(
                    buffer_segments=2, reliability="quic", backend=backend,
                )
                metrics = StreamingSession(
                    prepared, abr, get_trace(trace_name), spec
                ).run()
                rows.append({
                    "trace": trace_name,
                    "backend": backend,
                    "buf_ratio_pct": metrics.buf_ratio * 100,
                    "bitrate_kbps": metrics.avg_bitrate_kbps,
                    "ssim": metrics.mean_ssim,
                })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(format_rows(
        rows, ["trace", "backend", "buf_ratio_pct", "bitrate_kbps", "ssim"],
        "Backend validation: round vs packet",
    ))
    by = {(r["trace"], r["backend"]): r for r in rows}
    for trace_name in ("constant:10.5", "verizon"):
        round_row = by[(trace_name, "round")]
        packet_row = by[(trace_name, "packet")]
        # Same stall regime (within half a percentage point of
        # bufRatio: verizon reads 0.38 % and 0.51 %; a packet clock
        # frozen during downloads read 2.26 %)...
        assert abs(
            round_row["buf_ratio_pct"] - packet_row["buf_ratio_pct"]
        ) < 0.5
        # ...and the same quality regime.
        assert abs(round_row["ssim"] - packet_row["ssim"]) < 0.06


def test_fairness(benchmark):
    """QUIC* unreliable flows remain TCP-friendly (§5.2 claim)."""

    def run():
        return run_fairness(
            link_mbps=20.0,
            flow_specs=(
                ("reliable-1", True),
                ("reliable-2", True),
                ("voxel-unreliable", False),
            ),
            transfer_mb=8.0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "flow": flow.label,
            "reliable": str(flow.reliable),
            "throughput_mbps": flow.throughput_mbps,
        }
        for flow in result.flows
    ]
    print(format_rows(
        rows, ["flow", "reliable", "throughput_mbps"],
        f"Fairness (Jain index {result.jain_index:.3f}, "
        f"utilization {result.utilization:.2f})",
    ))
    assert result.jain_index > 0.85
    assert result.utilization > 0.7
