"""Tests for the observability layer: tracer, metrics, inspector."""

from __future__ import annotations

import io
import json

import pytest

from repro.abr import make_abr
from repro.core.spec import ScenarioSpec
from repro.obs import (
    EVENT_FIELDS,
    NULL_TRACER,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SchemaError,
    TraceEvent,
    Tracer,
    get_registry,
    read_jsonl,
    reset_registry,
)
from repro.obs import events as ev
from repro.obs import inspect as trace_inspect
from repro.player.session import StreamingSession


def _run_traced(prepared, trace, abr_name="abr_star", **spec_kwargs):
    tracer = Tracer()
    abr = make_abr(abr_name, prepared=prepared)
    spec = ScenarioSpec(buffer_segments=2, **spec_kwargs)
    session = StreamingSession(prepared, abr, trace, spec, tracer=tracer)
    metrics = session.run()
    return metrics, tracer


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_nearest_rank_percentiles(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0

    def test_small_sample(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.percentile(50) == 2.0
        assert h.percentile(99) == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_out_of_range_percentile(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_keys(self):
        h = Histogram()
        h.observe(5.0)
        s = h.summary()
        assert set(s) == {"count", "sum", "mean", "p50", "p90", "p99"}
        assert s["count"] == 1.0 and s["sum"] == 5.0


class TestRegistry:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x", abr="bola")
        b = reg.counter("x", abr="bola")
        c = reg.counter("x", abr="beta")
        assert a is b and a is not c

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", abr="bola", trace="verizon")
        b = reg.counter("x", trace="verizon", abr="bola")
        assert a is b

    def test_dump_and_render(self):
        reg = MetricsRegistry()
        reg.counter("hits", abr="bola").inc(3)
        reg.gauge("depth").set(7)
        reg.histogram("lat").observe(0.5)
        snap = reg.dump()
        assert snap["counters"]["hits{abr=bola}"] == 3.0
        assert snap["gauges"]["depth"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 1.0
        text = reg.render()
        assert "counter   hits{abr=bola} = 3" in text
        assert "gauge     depth = 7" in text
        assert reg.render(prefix="hits").count("\n") == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.dump()["counters"] == {}

    def test_default_registry(self):
        reset_registry()
        get_registry().counter("probe").inc()
        assert get_registry().dump()["counters"]["probe"] == 1.0
        reset_registry()
        assert "probe" not in get_registry().dump()["counters"]


class TestHistogramReservoir:
    def test_exact_below_cap(self):
        h = Histogram(reservoir=100)
        for v in range(100, 0, -1):
            h.observe(float(v))
        # Every sample retained: percentiles are exact.
        assert h.percentile(50) == 50.0
        assert h.count == 100
        assert h.total == pytest.approx(sum(range(1, 101)))

    def test_memory_bounded_past_cap(self):
        h = Histogram(reservoir=64)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h._values) == 64
        # Exact aggregates survive the sampling.
        assert h.count == 10_000
        assert h.total == pytest.approx(sum(range(10_000)))
        assert h.mean == pytest.approx(4999.5)

    def test_reservoir_is_deterministic(self):
        def fill():
            h = Histogram(reservoir=32)
            for v in range(5_000):
                h.observe(float(v))
            return h

        assert fill()._values == fill()._values

    def test_reservoir_percentiles_stay_representative(self):
        h = Histogram(reservoir=512)
        for v in range(100_000):
            h.observe(float(v))
        # Uniform input: the sampled median lands near the true median.
        assert abs(h.percentile(50) - 50_000) < 15_000

    def test_sorted_cache_invalidation(self):
        h = Histogram()
        h.observe(2.0)
        assert h.percentile(50) == 2.0
        h.observe(1.0)  # must invalidate the cached ordering
        assert h.percentile(0) == 1.0

    def test_merge_preserves_exact_aggregates(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (3.0, 4.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.total == pytest.approx(10.0)
        assert a.percentile(100) == 4.0

    def test_rejects_non_positive_reservoir(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=0)


class TestScopedRegistry:
    def test_scope_isolates_and_merges_back(self):
        from repro.obs import scoped_registry

        reset_registry()
        get_registry().counter("outer").inc(2)
        with scoped_registry() as registry:
            assert get_registry() is registry
            assert "outer" not in registry.dump()["counters"]
            get_registry().counter("outer").inc(3)
            get_registry().histogram("lat").observe(0.5)
        # Back on the parent, with the scope's series folded in.
        snap = get_registry().dump()
        assert snap["counters"]["outer"] == 5.0
        assert snap["histograms"]["lat"]["count"] == 1.0
        reset_registry()

    def test_scope_discard(self):
        from repro.obs import scoped_registry

        reset_registry()
        with scoped_registry(merge=False):
            get_registry().counter("ephemeral").inc()
        assert "ephemeral" not in get_registry().dump()["counters"]

    def test_scope_restores_on_exception(self):
        from repro.obs import scoped_registry

        reset_registry()
        parent = get_registry()
        with pytest.raises(RuntimeError):
            with scoped_registry():
                raise RuntimeError("boom")
        assert get_registry() is parent

    def test_registry_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.merge(b)
        snap = a.dump()
        assert snap["counters"]["c"] == 3.0  # counters add
        assert snap["gauges"]["g"] == 9.0  # gauges take the latest

    def test_state_survives_json_and_folds_like_merge(self):
        from repro.obs.metrics import HISTOGRAM_RESERVOIR

        b = MetricsRegistry()
        b.counter("c", abr="bola").inc(2.5)
        b.gauge("g").set(9.0)
        for i in range(HISTOGRAM_RESERVOIR + 500):  # past the reservoir
            b.histogram("h", layer="x").observe(i * 0.1)
        a = MetricsRegistry()
        a.counter("c", abr="bola").inc(1.0)
        a.histogram("h", layer="x").observe(7.0)
        expected = Histogram()
        expected.observe(7.0)
        expected.merge(b.histogram("h", layer="x"))
        a.merge_state(json.loads(json.dumps(b.state())))
        snap = a.dump()
        assert snap["counters"]["c{abr=bola}"] == 3.5
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h{layer=x}"] == expected.summary()


class TestTracerObservers:
    def test_observer_sees_every_event(self):
        seen = []
        tracer = Tracer(observers=[seen.append])
        tracer.emit_fields(0.0, ev.STALL, {"duration": 0.5, "segment": 1})
        tracer.emit_fields(1.0, ev.STALL, {"duration": 0.25, "segment": 2})
        assert [e.seq for e in seen] == [0, 1]

    def test_observer_sees_evicted_events(self):
        seen = []
        tracer = Tracer(capacity=2, observers=[seen.append])
        for i in range(5):
            tracer.emit_fields(
                float(i), ev.STALL, {"duration": 0.1, "segment": i}
            )
        assert len(tracer) == 2  # ring buffer kept only the tail
        assert len(seen) == 5  # the observer saw everything

    def test_add_observer_after_construction(self):
        seen = []
        tracer = Tracer()
        tracer.emit_fields(0.0, ev.STALL, {"duration": 0.1, "segment": 0})
        tracer.add_observer(seen.append)
        tracer.emit_fields(1.0, ev.STALL, {"duration": 0.1, "segment": 1})
        assert [e.seq for e in seen] == [1]

    def test_null_tracer_accepts_observers(self):
        NULL_TRACER.add_observer(lambda event: None)


class TestEventSchema:
    def test_roundtrip(self):
        event = TraceEvent(
            seq=3, t=1.25, type=ev.STALL,
            fields={"duration": 0.5, "segment": 7},
        )
        event.validate()
        restored = TraceEvent.from_json(event.to_json())
        assert restored == event

    def test_json_is_deterministic(self):
        event = TraceEvent(
            seq=0, t=0.0, type=ev.STALL,
            fields={"segment": 1, "duration": 0.25},
        )
        assert event.to_json() == event.to_json()
        assert json.loads(event.to_json())["v"] == SCHEMA_VERSION

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            TraceEvent(seq=0, t=0.0, type="nope", fields={}).validate()

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            TraceEvent(
                seq=0, t=0.0, type=ev.STALL, fields={"duration": 1.0}
            ).validate()

    def test_extra_field_rejected(self):
        with pytest.raises(SchemaError):
            TraceEvent(
                seq=0, t=0.0, type=ev.STALL,
                fields={"duration": 1.0, "segment": 0, "bogus": 1},
            ).validate()

    def test_wrong_version_rejected(self):
        line = json.dumps({
            "v": SCHEMA_VERSION + 1, "seq": 0, "t": 0.0,
            "type": ev.STALL, "duration": 1.0, "segment": 0,
        })
        with pytest.raises(SchemaError):
            TraceEvent.from_json(line)

    def test_every_type_has_fields(self):
        for type_, fields in EVENT_FIELDS.items():
            assert isinstance(fields, tuple), type_


class TestTracer:
    def test_emit_validates(self):
        tracer = Tracer()
        with pytest.raises(SchemaError):
            tracer.emit(ev.STALL, duration=1.0)  # missing segment

    def test_ring_buffer_overflow(self):
        tracer = Tracer(capacity=4, validate=False)
        for i in range(10):
            tracer.emit_fields(
                float(i), ev.STALL, {"duration": 0.0, "segment": i}
            )
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.events[0].fields["segment"] == 6

    def test_emit_fields_overrides_clock(self):
        class Clock:
            now = 5.0

        tracer = Tracer()
        tracer.bind_clock(Clock())
        event = tracer.emit_fields(
            42.0, ev.STALL, {"duration": 0.0, "segment": 0}
        )
        assert event.t == 42.0
        event = tracer.emit_fields(
            None, ev.STALL, {"duration": 0.0, "segment": 1}
        )
        assert event.t == 5.0

    def test_write_and_read_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.emit(ev.STALL, duration=0.5, segment=2)
        tracer.emit(ev.PACKET_LOSS, dropped_packets=1, lost_bytes=1500,
                    reliable=False)
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        restored = read_jsonl(str(path))
        assert restored == tracer.events

    def test_read_jsonl_names_the_bad_line(self):
        tracer = Tracer()
        tracer.emit(ev.STALL, duration=0.5, segment=2)
        sink = io.StringIO()
        tracer.write_jsonl(sink)
        lines = io.StringIO(sink.getvalue() + "\n{not json\n")
        with pytest.raises(SchemaError, match="line 3"):
            read_jsonl(lines)

    def test_write_to_file_object(self):
        tracer = Tracer()
        tracer.emit(ev.STALL, duration=0.5, segment=2)
        sink = io.StringIO()
        tracer.write_jsonl(sink)
        assert read_jsonl(io.StringIO(sink.getvalue())) == tracer.events

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(ev.STALL, duration=0.5, segment=2)
        tracer.clear()
        assert len(tracer) == 0 and tracer.to_jsonl() == ""

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(ev.STALL, duration=1.0)  # no validation, no state
        NULL_TRACER.emit_fields(0.0, "whatever", {})
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events == []
        assert NULL_TRACER.write_jsonl("/nonexistent/ignored") == 0

    def test_null_tracer_shared(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestSessionTracing:
    def test_trace_content(self, tiny_prepared, verizon):
        metrics, tracer = _run_traced(tiny_prepared, verizon)
        events = tracer.events

        starts = [e for e in events if e.type == ev.SESSION_START]
        ends = [e for e in events if e.type == ev.SESSION_END]
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].fields["video"] == tiny_prepared.name
        assert starts[0].fields["abr"] == "abr_star"
        assert ends[0].fields["segments"] == len(metrics.records)
        assert ends[0].fields["buf_ratio"] == pytest.approx(
            metrics.buf_ratio
        )

        decisions = tracer.select(ev.ABR_DECISION)
        decided = {e.fields["segment"] for e in decisions}
        assert decided == set(range(len(metrics.records)))

        downloads = tracer.select(ev.DOWNLOAD_END)
        assert len(downloads) == len(metrics.records)
        for event, record in zip(downloads, metrics.records):
            assert event.fields["segment"] == record.index
            assert event.fields["bytes_delivered"] == record.bytes_delivered

        assert tracer.select(ev.TRANSPORT_ROUND)
        assert len(tracer.select(ev.BUFFER_SAMPLE)) == len(metrics.records)

    def test_timestamps_monotone(self, tiny_prepared, verizon):
        _, tracer = _run_traced(tiny_prepared, verizon)
        times = [e.t for e in tracer.events]
        assert all(a <= b for a, b in zip(times, times[1:]))
        seqs = [e.seq for e in tracer.events]
        assert seqs == list(range(len(seqs)))

    def test_deterministic_trace(self, tiny_prepared, verizon):
        _, first = _run_traced(tiny_prepared, verizon)
        _, second = _run_traced(tiny_prepared, verizon)
        assert first.to_jsonl() == second.to_jsonl()

    def test_disabled_by_default(self, tiny_prepared, verizon):
        abr = make_abr("abr_star", prepared=tiny_prepared)
        session = StreamingSession(
            tiny_prepared, abr, verizon, ScenarioSpec(buffer_segments=2)
        )
        assert session.tracer is NULL_TRACER
        session.run()
        assert len(session.tracer) == 0

    def test_tracing_does_not_change_results(self, tiny_prepared, verizon):
        traced, _ = _run_traced(tiny_prepared, verizon)
        abr = make_abr("abr_star", prepared=tiny_prepared)
        plain = StreamingSession(
            tiny_prepared, abr, verizon, ScenarioSpec(buffer_segments=2)
        ).run()
        assert traced.summary() == plain.summary()

    def test_stall_events_account_for_total_stall(self):
        from repro.prep.prepare import get_prepared
        from repro.network.traces import get_trace

        tracer = Tracer()
        prepared = get_prepared("bbb")
        abr = make_abr("bola", prepared=prepared)
        session = StreamingSession(
            prepared, abr, get_trace("tmobile"),
            ScenarioSpec(buffer_segments=2), tracer=tracer,
        )
        metrics = session.run()
        stalls = tracer.select(ev.STALL)
        assert metrics.total_stall > 0
        assert sum(e.fields["duration"] for e in stalls) == pytest.approx(
            metrics.total_stall
        )

    def test_packet_backend_traces(self, tiny_prepared, verizon):
        _, tracer = _run_traced(
            tiny_prepared, verizon, backend="packet"
        )
        assert tracer.select(ev.SESSION_END)
        times = [e.t for e in tracer.events]
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestInspect:
    @pytest.fixture(scope="class")
    def traced(self, tiny_prepared):
        from repro.network.traces import verizon_trace

        return _run_traced(tiny_prepared, verizon_trace())

    def test_summarize(self, traced):
        metrics, tracer = traced
        summary = trace_inspect.summarize(tracer.events)
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["events"] == len(tracer)
        assert summary["session"]["video"] == metrics.video
        assert summary["result"]["buf_ratio"] == pytest.approx(
            metrics.buf_ratio
        )
        assert summary["abr_decisions"] >= len(metrics.records)

    def test_timeline(self, traced):
        metrics, tracer = traced
        rows = trace_inspect.timeline(tracer.events)
        assert [row["segment"] for row in rows] == [
            r.index for r in metrics.records
        ]
        for row, record in zip(rows, metrics.records):
            assert row["quality"] == record.quality
            assert row["bytes"] == record.bytes_delivered

    def test_format_helpers(self, traced):
        _, tracer = traced
        summary = trace_inspect.summarize(tracer.events)
        rows = trace_inspect.timeline(tracer.events)
        assert "events by type" in trace_inspect.format_summary(summary)
        assert "segment" in trace_inspect.format_timeline(rows)

    def test_empty_trace(self):
        summary = trace_inspect.summarize([])
        assert summary["events"] == 0
        assert trace_inspect.timeline([]) == []
