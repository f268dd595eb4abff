"""Tests for the event-driven packet-level backend and fairness study."""

import numpy as np
import pytest

from repro.abr import make_abr
from repro.core.api import stream_spec
from repro.core.spec import ScenarioSpec
from repro.experiments.fairness import FairnessResult, run_fairness
from repro.network.events import EventScheduler, SimKernel
from repro.network.packetlink import Packet, PacketRouter
from repro.network.traces import constant_trace, tmobile_trace
from repro.player import StreamingSession
from repro.transport.packet_connection import PacketLevelConnection


class TestEventScheduler:
    def test_ordering(self):
        sched = EventScheduler()
        order = []
        sched.schedule(2.0, lambda: order.append("b"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(3.0, lambda: order.append("c"))
        while sched.step():
            pass
        assert order == ["a", "b", "c"]
        assert sched.now == pytest.approx(3.0)

    def test_stable_simultaneous(self):
        sched = EventScheduler()
        order = []
        for tag in ("first", "second", "third"):
            sched.schedule(1.0, lambda t=tag: order.append(t))
        while sched.step():
            pass
        assert order == ["first", "second", "third"]

    def test_cancel(self):
        sched = EventScheduler()
        fired = []
        keep = sched.schedule(1.0, lambda: fired.append("keep"))
        drop = sched.schedule(1.0, lambda: fired.append("drop"))
        sched.cancel(drop)
        while sched.step():
            pass
        assert fired == ["keep"]
        del keep

    def test_callbacks_can_schedule(self):
        sched = EventScheduler()
        hits = []

        def recurse():
            hits.append(sched.now)
            if len(hits) < 3:
                sched.schedule(1.0, recurse)

        sched.schedule(1.0, recurse)
        while sched.step():
            pass
        assert hits == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-0.1, lambda: None)

    def test_run_until_event_budget(self):
        sched = EventScheduler()

        def forever():
            sched.schedule(0.001, forever)

        sched.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            sched.run_until(lambda: False, max_events=100)


class _Sink:
    """Minimal flow stub collecting router callbacks."""

    def __init__(self):
        self.delivered = []
        self.dropped = []

    def on_delivered(self, packet):
        self.delivered.append(packet.sequence)

    def on_dropped(self, packet):
        self.dropped.append(packet.sequence)


class TestPacketRouter:
    def test_delivery_order_fifo(self):
        sched = EventScheduler()
        router = PacketRouter(sched, constant_trace(10.0), queue_packets=10)
        sink = _Sink()
        for seq in range(5):
            router.enqueue(Packet(flow=sink, sequence=seq))
        while sched.step():
            pass
        assert sink.delivered == [0, 1, 2, 3, 4]
        assert sink.dropped == []

    def test_overflow_drops(self):
        sched = EventScheduler()
        router = PacketRouter(sched, constant_trace(1.0), queue_packets=3)
        sink = _Sink()
        for seq in range(10):
            router.enqueue(Packet(flow=sink, sequence=seq))
        while sched.step():
            pass
        assert len(sink.delivered) + len(sink.dropped) == 10
        assert sink.dropped  # 3-packet queue cannot absorb a 10 burst
        assert router.dropped_packets == len(sink.dropped)

    def test_service_rate_matches_trace(self):
        sched = EventScheduler()
        router = PacketRouter(sched, constant_trace(12.0), queue_packets=100)
        sink = _Sink()
        count = 100
        for seq in range(count):
            router.enqueue(Packet(flow=sink, sequence=seq))
        while sched.step():
            pass
        # 100 x 1500 B at 12 Mbps = 0.1 s (+ propagation).
        assert sched.now == pytest.approx(0.1 + 0.03, rel=0.05)


class TestPacketConnection:
    def _conn(self, trace=None, queue=32, pr=True):
        kernel = SimKernel()
        router = PacketRouter(
            kernel,
            trace if trace is not None else constant_trace(10.0),
            queue_packets=queue,
        )
        return PacketLevelConnection(router, kernel, partially_reliable=pr)

    def test_reliable_complete(self):
        conn = self._conn()
        result = conn.download(2_000_000, reliable=True)
        assert result.delivered == 2_000_000
        assert result.lost == []

    def test_duration_near_ideal(self):
        conn = self._conn()
        result = conn.download(5_000_000, reliable=True)
        ideal = 5_000_000 * 8 / 10e6
        assert ideal * 0.95 <= result.elapsed <= ideal * 1.4

    def test_unreliable_accounting(self):
        conn = self._conn(trace=tmobile_trace(), queue=8)
        result = conn.download(3_000_000, reliable=False)
        lost = sum(e - s for s, e in result.lost)
        assert result.delivered + lost == result.requested
        for (s1, e1), (s2, e2) in zip(result.lost, result.lost[1:]):
            assert e1 < s2

    def test_plain_quic_forces_reliable(self):
        conn = self._conn(trace=tmobile_trace(), queue=8, pr=False)
        result = conn.download(1_000_000, reliable=False)
        assert result.lost == []
        assert result.delivered == 1_000_000

    def test_progress_truncation(self):
        conn = self._conn()

        def cut(elapsed, sent):
            return 400_000 if sent > 100_000 else None

        result = conn.download(5_000_000, reliable=True, progress=cut)
        assert result.truncated_at is not None
        assert result.requested <= 450_000

    def test_zero_and_negative(self):
        conn = self._conn()
        assert conn.download(0).delivered == 0
        with pytest.raises(ValueError):
            conn.download(-1)

    def test_idle_advances_clock(self):
        conn = self._conn()
        before = conn.kernel.now
        conn.idle(2.5)
        assert conn.kernel.now == pytest.approx(before + 2.5)

    def test_agreement_with_round_backend(self):
        """The two backends agree on transfer time within ~25 %."""
        from repro.network.link import BottleneckLink
        from repro.transport.connection import QuicConnection

        packet = self._conn().download(4_000_000, reliable=True)
        round_conn = QuicConnection(
            BottleneckLink(constant_trace(10.0), queue_packets=32),
            SimKernel(),
        )
        round_result = round_conn.download(4_000_000, reliable=True)
        assert packet.elapsed == pytest.approx(
            round_result.elapsed, rel=0.25
        )


class TestSessionOnPacketBackend:
    def test_full_session_runs(self, tiny_prepared):
        abr = make_abr("abr_star", prepared=tiny_prepared)
        spec = ScenarioSpec(buffer_segments=2, backend="packet")
        metrics = StreamingSession(
            tiny_prepared, abr, constant_trace(10.0), spec
        ).run()
        assert len(metrics.records) == 6
        assert metrics.mean_ssim > 0.5

    def test_unknown_backend_rejected(self, tiny_prepared):
        abr = make_abr("bola", prepared=tiny_prepared)
        spec = ScenarioSpec(backend="carrier-pigeon")
        with pytest.raises(ValueError, match="backend"):
            StreamingSession(
                tiny_prepared, abr, constant_trace(10.0), spec
            )

    def test_backends_agree_on_stall_regime(self, tiny_prepared):
        results = {}
        for backend in ("round", "packet"):
            abr = make_abr("bola", prepared=tiny_prepared)
            spec = ScenarioSpec(
                buffer_segments=2, reliability="quic", backend=backend,
            )
            metrics = StreamingSession(
                tiny_prepared, abr, constant_trace(12.0), spec
            ).run()
            results[backend] = metrics
        # Plenty of bandwidth: both backends stream stall-free.
        assert results["round"].buf_ratio == 0.0
        assert results["packet"].buf_ratio == 0.0


class TestSoloSessionClock:
    def test_clock_moves_while_a_download_is_in_flight(
        self, tiny_prepared, monkeypatch
    ):
        """The ABR's progress hook reads the time the download has taken:
        a solo packet session's clock must not stand still mid-flight."""
        make_progress = StreamingSession._make_progress
        requests = []

        def recording(session, *args):
            progress = make_progress(session, *args)
            calls = []
            requests.append(calls)

            def recorded(request_elapsed, request_sent):
                calls.append((request_elapsed, session.kernel.now))
                return progress(request_elapsed, request_sent)

            return recorded

        monkeypatch.setattr(StreamingSession, "_make_progress", recording)
        stream_spec(
            ScenarioSpec(
                video="tinytest", abr="abr_star", trace="verizon", seed=0,
                buffer_segments=2, backend="packet",
            ),
            prepared=tiny_prepared,
        )
        moved = frozen = 0
        for calls in requests:
            for (elapsed0, now0), (elapsed1, now1) in zip(calls, calls[1:]):
                if elapsed1 > elapsed0:
                    if now1 > now0:
                        moved += 1
                    else:
                        frozen += 1
        assert moved > 0
        assert frozen == 0


class TestFairness:
    def test_reliable_flows_share_fairly(self):
        result = run_fairness(
            flow_specs=(("a", True), ("b", True)), transfer_mb=4.0
        )
        assert result.jain_index > 0.9

    def test_unreliable_flow_is_tcp_friendly(self):
        """QUIC*'s unreliable streams do not starve reliable flows."""
        result = run_fairness(
            flow_specs=(
                ("reliable-1", True),
                ("reliable-2", True),
                ("voxel-unreliable", False),
            ),
            transfer_mb=4.0,
        )
        assert result.jain_index > 0.85
        rates = {f.label: f.throughput_mbps for f in result.flows}
        # The unreliable flow stays within ~2x of each reliable flow.
        assert rates["voxel-unreliable"] < 2.0 * rates["reliable-1"]
        assert rates["voxel-unreliable"] < 2.0 * rates["reliable-2"]

    def test_utilization_high(self):
        result = run_fairness(
            flow_specs=(("a", True), ("b", False)), transfer_mb=4.0
        )
        assert result.utilization > 0.7

    def test_utilization_never_exceeds_the_link(self):
        """Delivered bits fit what the link carried until the last flow
        finished; summed per-flow rates read 1.13 on this case."""
        result = run_fairness(
            flow_specs=(
                ("reliable-1", True),
                ("reliable-2", True),
                ("voxel-unreliable", False),
            ),
            transfer_mb=8.0,
        )
        assert 0.7 < result.utilization <= 1.0

    def test_single_flow_gets_everything(self):
        result = run_fairness(
            flow_specs=(("solo", True),), transfer_mb=4.0, link_mbps=10.0
        )
        assert result.flows[0].throughput_mbps == pytest.approx(10.0, rel=0.2)
        assert result.jain_index == pytest.approx(1.0)
