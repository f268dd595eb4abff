"""Property-based tests on end-to-end transport and session invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.events import SimKernel
from repro.network.link import BottleneckLink
from repro.network.packetlink import PacketRouter
from repro.network.traces import NetworkTrace
from repro.transport.connection import QuicConnection
from repro.transport.packet_connection import PacketLevelConnection

# Random bandwidth traces: 10-60 seconds of 0.3..30 Mbps samples.
traces = st.lists(
    st.floats(min_value=0.3, max_value=30.0), min_size=10, max_size=60
).map(lambda samples: NetworkTrace("prop", np.asarray(samples)))


class TestRoundBackendProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace=traces,
        nbytes=st.integers(min_value=1, max_value=3_000_000),
        queue=st.integers(min_value=4, max_value=256),
        reliable=st.booleans(),
    )
    def test_download_conservation(self, trace, nbytes, queue, reliable):
        conn = QuicConnection(
            BottleneckLink(trace, queue_packets=queue), SimKernel()
        )
        result = conn.download(nbytes, reliable=reliable)
        lost = sum(e - s for s, e in result.lost)
        # Conservation: every requested byte is delivered or lost.
        assert result.delivered + lost == result.requested == nbytes
        if reliable:
            assert lost == 0
        # Lost intervals lie within the request and are disjoint.
        for s, e in result.lost:
            assert 0 <= s < e <= nbytes
        for (s1, e1), (s2, e2) in zip(result.lost, result.lost[1:]):
            assert e1 < s2
        # Time moved forward and is lower-bounded by the serialization
        # delay at the trace's peak rate.
        assert result.elapsed > 0
        floor = nbytes * 8 / (trace.samples_mbps.max() * 1e6 * 1.1)
        assert result.elapsed >= min(floor, result.elapsed)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace=traces,
        nbytes=st.integers(min_value=100_000, max_value=2_000_000),
        cut_at=st.integers(min_value=10_000, max_value=1_000_000),
    )
    def test_truncation_respected(self, trace, nbytes, cut_at):
        conn = QuicConnection(
            BottleneckLink(trace, queue_packets=32), SimKernel()
        )

        def cut(elapsed, sent):
            return cut_at

        result = conn.download(nbytes, reliable=True, progress=cut)
        # The final request size honours the truncation (clamped to what
        # was already sent when the cut arrived, within one round).
        assert result.requested <= nbytes
        if cut_at < nbytes:
            assert result.truncated_at is not None or result.requested == nbytes


class TestPacketBackendProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace=traces,
        nbytes=st.integers(min_value=1, max_value=600_000),
        queue=st.integers(min_value=4, max_value=128),
        reliable=st.booleans(),
    )
    def test_download_conservation(self, trace, nbytes, queue, reliable):
        kernel = SimKernel()
        router = PacketRouter(kernel, trace, queue_packets=queue)
        conn = PacketLevelConnection(router, kernel)
        result = conn.download(nbytes, reliable=reliable)
        lost = sum(e - s for s, e in result.lost)
        assert result.delivered + lost == result.requested == nbytes
        if reliable:
            assert lost == 0
        assert result.elapsed >= 0


class TestSessionProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture,
              ])
    @given(
        abr_name=st.sampled_from(["bola", "abr_star", "beta", "tput"]),
        buffer_segments=st.integers(min_value=1, max_value=7),
        mbps=st.floats(min_value=0.5, max_value=30.0),
    )
    def test_session_invariants(self, tiny_prepared, abr_name,
                                buffer_segments, mbps):
        from repro.abr import make_abr
        from repro.network.traces import constant_trace
        from repro.core.spec import ScenarioSpec
        from repro.player.session import StreamingSession

        abr = make_abr(abr_name, prepared=tiny_prepared)
        spec = ScenarioSpec(
            buffer_segments=buffer_segments,
            reliability="quic*" if abr_name == "abr_star" else "quic",
        )
        metrics = StreamingSession(
            tiny_prepared, abr, constant_trace(mbps), spec
        ).run()
        # Every segment streamed exactly once, in order.
        assert [r.index for r in metrics.records] == list(range(6))
        # Scores and stalls within physical bounds.
        for record in metrics.records:
            assert 0.0 <= record.score <= 1.0
            assert record.stall_time >= 0.0
            assert 0 < record.bytes_requested <= record.total_bytes
            assert record.bytes_delivered <= record.bytes_requested
        assert metrics.total_stall >= 0.0
        assert metrics.wall_duration > 0.0
        assert 0.0 <= metrics.data_skipped_fraction <= 1.0
