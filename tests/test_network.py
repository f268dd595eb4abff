"""Tests for the network substrate: traces, link, cross traffic."""

import numpy as np
import pytest

from repro.network.crosstraffic import (
    CrossTrafficConfig,
    cross_traffic_available,
    generate_cross_demand,
)
from repro.network.link import BottleneckLink
from repro.network.traces import (
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


class TestTrace:
    def test_constant(self):
        trace = constant_trace(10.5, duration=10)
        assert trace.bandwidth_mbps(0) == 10.5
        assert trace.bandwidth_mbps(9.9) == 10.5
        assert trace.bandwidth_bps(3) == pytest.approx(10.5e6)

    def test_step(self):
        trace = step_trace(before_mbps=10.75, after_mbps=10.5, step_at_s=70)
        assert trace.bandwidth_mbps(69) == pytest.approx(10.75)
        assert trace.bandwidth_mbps(71) == pytest.approx(10.5)

    def test_looping(self):
        trace = NetworkTrace("t", np.array([1.0, 2.0, 3.0]))
        assert trace.bandwidth_mbps(4.5) == 2.0  # wraps to index 1

    def test_shift(self):
        trace = NetworkTrace("t", np.array([1.0, 2.0, 3.0]))
        shifted = trace.shifted(1.0)
        assert shifted.bandwidth_mbps(0) == 2.0
        # Shifting is composable.
        assert shifted.shifted(1.0).bandwidth_mbps(0) == 3.0
        # The original is untouched.
        assert trace.bandwidth_mbps(0) == 1.0

    def test_offset_to_mean(self):
        trace = NetworkTrace("t", np.array([1.0, 3.0]))
        scaled = trace.offset_to_mean(10.0)
        assert scaled.mean_mbps() == pytest.approx(10.0)
        assert scaled.std_mbps() == pytest.approx(trace.std_mbps())

    def test_offset_floors_at_positive(self):
        trace = NetworkTrace("t", np.array([0.0, 100.0]))
        scaled = trace.offset_to_mean(1.0)
        assert (scaled.samples_mbps > 0).all()

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([1.0, -1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([]))


class TestTraceCatalog:
    @pytest.mark.parametrize(
        "factory,std_lo,std_hi",
        [
            (tmobile_trace, 6.0, 13.0),
            (verizon_trace, 5.0, 12.0),
            (att_trace, 1.5, 5.0),
            (threeg_trace, 0.4, 2.5),
            (fcc_trace, 1.0, 4.0),
        ],
    )
    def test_statistics_match_paper_regime(self, factory, std_lo, std_hi):
        trace = factory()
        assert trace.mean_mbps() == pytest.approx(10.0, abs=0.3)
        assert std_lo <= trace.std_mbps() <= std_hi

    def test_deterministic_per_seed(self):
        assert np.array_equal(
            tmobile_trace(seed=3).samples_mbps,
            tmobile_trace(seed=3).samples_mbps,
        )
        assert not np.array_equal(
            tmobile_trace(seed=3).samples_mbps,
            tmobile_trace(seed=4).samples_mbps,
        )

    def test_wild_trace_has_headroom(self):
        trace = wild_trace()
        assert trace.mean_mbps() > 10.0

    def test_get_trace_names(self):
        assert get_trace("tmobile").name == "tmobile"
        assert get_trace("constant:12.5").bandwidth_mbps(0) == 12.5
        assert get_trace("step").bandwidth_mbps(0) == pytest.approx(10.75)
        with pytest.raises(KeyError):
            get_trace("nosuch")

    def test_riiser_corpus(self):
        corpus = riiser_3g_corpus(count=10)
        assert len(corpus) == 10
        means = [t.mean_mbps() for t in corpus]
        assert all(0.3 < m < 6.0 for m in means)  # low-bandwidth commutes
        assert len(set(np.round(means, 3))) > 5  # traces differ

    def test_corpus_trace_by_name(self):
        # Trace i of the corpus is the registered ``3g-corpus`` trace at
        # index i, seeded by the trace seed, whatever the corpus size;
        # the digest was recorded before the corpus became a trace.
        import hashlib

        corpus = riiser_3g_corpus(count=4, seed=3)
        digest = hashlib.sha256(
            b"".join(trace.samples_mbps.tobytes() for trace in corpus)
        )
        assert digest.hexdigest() == (
            "fbb49d4a6977c6d8b53a875ddddd76aaa9e0c90e3f25b649a5c4faaf4f73c336"
        )
        for index, trace in enumerate(corpus):
            named = get_trace("3g-corpus", seed=3, index=index)
            assert named.name == trace.name == f"3g-{index:02d}"
            assert np.array_equal(named.samples_mbps, trace.samples_mbps)
        assert np.array_equal(
            riiser_3g_corpus(count=2, seed=3)[1].samples_mbps,
            corpus[1].samples_mbps,
        )
        # A negative index would silently pick a trace from the end.
        with pytest.raises(ValueError, match="index must be >= 0"):
            get_trace("3g-corpus", index=-1)


class TestLink:
    def test_delivers_within_capacity(self):
        link = BottleneckLink(constant_trace(10.0), queue_packets=32)
        outcome = link.offer_round(0.0, packets=10)
        assert outcome.delivered_packets == 10
        assert outcome.dropped_packets == 0

    def test_conservation(self):
        link = BottleneckLink(constant_trace(1.0), queue_packets=8)
        for burst in (5, 50, 500):
            outcome = link.offer_round(0.0, burst)
            assert outcome.delivered_packets + outcome.dropped_packets == burst

    def test_overflow_tail_drops(self):
        link = BottleneckLink(constant_trace(1.0), queue_packets=4)
        outcome = link.offer_round(0.0, packets=200)
        assert outcome.dropped_packets > 0

    def test_queue_bounded(self):
        link = BottleneckLink(constant_trace(1.0), queue_packets=4)
        for _ in range(10):
            link.offer_round(0.0, packets=100)
            assert link.queue_bytes <= 4 * link.mtu + 1e-9

    def test_queue_raises_rtt(self):
        link = BottleneckLink(constant_trace(5.0), queue_packets=64)
        base = link.current_rtt(0.0)
        link.offer_round(0.0, packets=60)
        assert link.current_rtt(0.0) > base

    def test_drain_empties_queue(self):
        link = BottleneckLink(constant_trace(5.0), queue_packets=64)
        link.offer_round(0.0, packets=60)
        link.drain(0.0, dt=10.0)
        assert link.queue_bytes == 0.0

    def test_bdp_sizing(self):
        link = BottleneckLink(constant_trace(10.0), queue_packets=None)
        bdp_packets = 10e6 * 0.060 / 8 / link.mtu
        assert link.queue_packets == int(1.25 * bdp_packets)

    def test_cross_traffic_reduces_availability(self):
        demand = NetworkTrace("x", np.full(10, 8.0))
        with_cross = BottleneckLink(
            constant_trace(20.0, duration=10), cross_demand=demand
        )
        without = BottleneckLink(constant_trace(20.0, duration=10))
        assert with_cross.available_bps(0) < without.available_bps(0)
        assert with_cross.available_bps(0) == pytest.approx(12e6)

    def test_fairness_floor(self):
        demand = NetworkTrace("x", np.full(10, 25.0))  # overload
        link = BottleneckLink(
            constant_trace(20.0, duration=10),
            cross_demand=demand,
            fairness_floor=0.25,
        )
        assert link.available_bps(0) == pytest.approx(5e6)

    def test_negative_burst_rejected(self):
        link = BottleneckLink(constant_trace(10.0))
        with pytest.raises(ValueError):
            link.offer_round(0.0, -1)


class TestCrossTraffic:
    def test_mean_demand_near_target(self):
        config = CrossTrafficConfig(target_mbps=10.0, seed=1)
        demand = generate_cross_demand(config, duration=2000)
        # Heavy-tailed flow sizes make the realized mean noisy even over
        # 2000 s; it should land in the right ballpark.
        assert demand.mean_mbps() == pytest.approx(10.0, rel=0.4)

    def test_bursty_not_constant(self):
        config = CrossTrafficConfig(target_mbps=15.0, seed=2)
        demand = generate_cross_demand(config, duration=500)
        assert demand.std_mbps() > 1.0

    def test_demand_bounded_by_link(self):
        config = CrossTrafficConfig(target_mbps=18.0, link_mbps=20.0, seed=3)
        demand = generate_cross_demand(config, duration=300)
        assert demand.samples_mbps.max() <= 20.0 + 1e-9

    def test_available_floor(self):
        config = CrossTrafficConfig(target_mbps=19.0, link_mbps=20.0, seed=4)
        demand = generate_cross_demand(config, duration=100)
        available = cross_traffic_available(20.0, demand, fairness_floor=0.25)
        assert available.samples_mbps.min() >= 5.0 - 1e-9

    def test_deterministic(self):
        config = CrossTrafficConfig(target_mbps=10.0, seed=7)
        a = generate_cross_demand(config, duration=100)
        b = generate_cross_demand(config, duration=100)
        assert np.array_equal(a.samples_mbps, b.samples_mbps)
