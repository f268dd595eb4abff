"""Invariant auditor: corrupted-trace corpus + clean-session audits.

Each corruption targets exactly one invariant and asserts both that it
fires and that it pins the violation to the right event index; the
clean-session tests assert real traces from both transport backends
audit green.
"""

from __future__ import annotations

import pytest

from repro.abr import make_abr
from repro.core.spec import ScenarioSpec
from repro.network.traces import get_trace
from repro.obs import (
    INVARIANTS,
    TraceAuditor,
    Tracer,
    audit_events,
    format_report,
)
from repro.obs import events as ev
from repro.obs.events import TraceEvent
from repro.player.session import StreamingSession


def _event(seq: int, t: float, type_: str, **fields) -> TraceEvent:
    event = TraceEvent(seq=seq, t=t, type=type_, fields=fields)
    event.validate()
    return event


def _session_start(seq: int = 0, t: float = 0.0, **overrides) -> TraceEvent:
    fields = dict(
        video="tinytest", abr="abr_star", num_segments=3,
        segment_duration=2.0, buffer_capacity_s=4.0, backend="round",
        partially_reliable=True, num_levels=13,
    )
    fields.update(overrides)
    return _event(seq, t, ev.SESSION_START, **fields)


def _names(report):
    return [v.invariant for v in report.violations]


# ---------------------------------------------------------------------------
# Corrupted corpus: each stream breaks exactly one law.
# ---------------------------------------------------------------------------
class TestCorruptedTraces:
    def test_out_of_order_timestamps(self):
        events = [
            _session_start(),
            _event(1, 5.0, ev.STALL, duration=0.5, segment=1),
            _event(2, 4.0, ev.STALL, duration=0.5, segment=1),
        ]
        report = audit_events(events)
        assert _names(report) == ["monotone_clock"]
        assert report.violations[0].index == 2
        assert "runs backwards" in report.violations[0].message

    def test_non_increasing_sequence_numbers(self):
        events = [
            _session_start(seq=5),
            _event(5, 1.0, ev.STALL, duration=0.5, segment=0),
        ]
        report = audit_events(events)
        assert _names(report) == ["monotone_clock"]
        assert report.violations[0].index == 1

    def test_negative_buffer_level(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.BUFFER_SAMPLE, segment=0, level_s=-0.25,
                   capacity_s=4.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["buffer_continuity"]
        assert report.violations[0].index == 1
        assert "negative" in report.violations[0].message

    def test_buffer_overfill(self):
        # Capacity 4s + one 2s in-flight segment = 6s hard ceiling.
        events = [
            _session_start(),
            _event(1, 1.0, ev.BUFFER_SAMPLE, segment=0, level_s=6.5,
                   capacity_s=4.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["buffer_continuity"]
        assert "capacity" in report.violations[0].message

    def test_buffer_discontinuity(self):
        # 3 seconds elapse with no recorded stall, one 2s segment pushed:
        # 2.0 - 3.0 + 2.0 = 1.0s expected, but the trace claims 2.0s.
        events = [
            _session_start(),
            _event(1, 2.0, ev.BUFFER_SAMPLE, segment=0, level_s=2.0,
                   capacity_s=4.0),
            _event(2, 5.0, ev.BUFFER_SAMPLE, segment=1, level_s=2.0,
                   capacity_s=4.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["buffer_continuity"]
        assert report.violations[0].index == 2
        assert "continuity" in report.violations[0].message

    def test_buffer_continuity_accepts_recorded_stalls(self):
        # Same stream, but a 1s stall explains the missing drain.
        events = [
            _session_start(),
            _event(1, 2.0, ev.BUFFER_SAMPLE, segment=0, level_s=2.0,
                   capacity_s=4.0),
            _event(2, 4.5, ev.STALL, duration=1.0, segment=1),
            _event(3, 5.0, ev.BUFFER_SAMPLE, segment=1, level_s=2.0,
                   capacity_s=4.0),
        ]
        assert "buffer_continuity" not in _names(audit_events(events))

    def test_cwnd_overshoot(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.TRANSPORT_ROUND, round=1, rtt=0.05,
                   offered=20, dropped=0, cwnd=10.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["cwnd_compliance"]
        assert report.violations[0].index == 1
        assert "escaped congestion control" in report.violations[0].message

    def test_dropped_exceeds_offered(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.TRANSPORT_ROUND, round=1, rtt=0.05,
                   offered=4, dropped=5, cwnd=10.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["cwnd_compliance"]

    def test_byte_conservation_mismatch(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.DOWNLOAD_START, segment=0, quality=3,
                   wire_bytes=1_000_000, attempt=0),
            _event(2, 2.0, ev.DOWNLOAD_END, segment=0, quality=3,
                   bytes_requested=1_000_000, bytes_delivered=900_000,
                   elapsed=1.0, truncated=False, restarts=0,
                   lost_bytes=50_000, stall=0.0),
        ]
        report = audit_events(events)
        assert _names(report) == ["byte_conservation"]
        assert report.violations[0].index == 2
        assert "950000 != requested 1000000" in report.violations[0].message

    def test_request_beyond_wire_bytes(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.DOWNLOAD_START, segment=0, quality=3,
                   wire_bytes=500_000, attempt=0),
            _event(2, 2.0, ev.DOWNLOAD_END, segment=0, quality=3,
                   bytes_requested=600_000, bytes_delivered=600_000,
                   elapsed=1.0, truncated=False, restarts=0,
                   lost_bytes=0, stall=0.0),
        ]
        report = audit_events(events)
        assert "stream_limit" in _names(report)

    def test_truncate_into_reliable_prefix(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.TRUNCATE, segment=0, quality=3,
                   bytes_requested=80_000, wire_bytes=1_000_000,
                   reliable_bytes=120_000),
        ]
        report = audit_events(events)
        assert _names(report) == ["frame_drop_legality"]
        assert report.violations[0].index == 1
        assert "reliable prefix" in report.violations[0].message

    def test_truncate_without_reliable_bytes_unchecked(self):
        # Plain-QUIC truncation carries no reliable prefix floor.
        events = [
            _session_start(),
            _event(1, 1.0, ev.TRUNCATE, segment=0, quality=3,
                   bytes_requested=80_000, wire_bytes=1_000_000),
        ]
        assert audit_events(events).ok

    def test_quality_outside_ladder(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.ABR_DECISION, segment=0, quality=13,
                   target_bytes=None, unreliable=True, wait_s=0.0,
                   buffer_level_s=0.0, throughput_bps=1e6,
                   expected_score=0.9),
        ]
        report = audit_events(events)
        assert _names(report) == ["abr_legality"]
        assert "outside the ladder" in report.violations[0].message

    def test_decisions_walk_backwards(self):
        decision = dict(target_bytes=None, unreliable=True, wait_s=0.0,
                        buffer_level_s=0.0, throughput_bps=1e6,
                        expected_score=0.9)
        events = [
            _session_start(),
            _event(1, 1.0, ev.ABR_DECISION, segment=2, quality=3,
                   **decision),
            _event(2, 2.0, ev.ABR_DECISION, segment=1, quality=3,
                   **decision),
        ]
        report = audit_events(events)
        assert _names(report) == ["abr_legality"]
        assert report.violations[0].index == 2

    def test_download_quality_contradicts_decision(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.ABR_DECISION, segment=0, quality=3,
                   target_bytes=None, unreliable=True, wait_s=0.0,
                   buffer_level_s=0.0, throughput_bps=1e6,
                   expected_score=0.9),
            _event(2, 1.0, ev.DOWNLOAD_START, segment=0, quality=7,
                   wire_bytes=1_000_000, attempt=0),
        ]
        report = audit_events(events)
        assert _names(report) == ["abr_legality"]
        assert "authorized quality 3" in report.violations[0].message

    def test_stall_accounting_mismatch(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.STALL, duration=0.5, segment=1),
            _event(2, 10.0, ev.SESSION_END, buf_ratio=0.5,
                   total_stall=3.0, startup_delay=0.2, mean_score=0.9,
                   segments=0),
        ]
        report = audit_events(events)
        names = _names(report)
        assert "stall_accounting" in names
        first = report.violations[0]
        assert first.index == 2
        assert "sum to 0.5" in first.message

    def test_reliable_stream_losing_bytes(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.PACKET_LOSS, dropped_packets=2,
                   lost_bytes=2800, reliable=True),
        ]
        report = audit_events(events)
        assert _names(report) == ["byte_conservation"]


# ---------------------------------------------------------------------------
# Retry accounting: failures must resolve, bytes must be conserved.
# ---------------------------------------------------------------------------
class TestRetryAccounting:
    def _timeout(self, seq, t, segment=0, accounted=1000, delivered=1000):
        return _event(
            seq, t, ev.REQUEST_TIMEOUT, segment=segment, attempt=0,
            elapsed=2.0, accounted_bytes=accounted,
            delivered_bytes=delivered,
        )

    def test_unresolved_failure_flagged_at_end(self):
        report = audit_events([_session_start(), self._timeout(1, 2.0)])
        assert _names(report) == ["retry_accounting"]
        assert "never resolved" in report.violations[0].message

    def test_retry_resolves_failure(self):
        events = [
            _session_start(),
            self._timeout(1, 2.0),
            _event(2, 2.5, ev.RETRY, segment=0, attempt=1,
                   backoff_s=0.5, resume_bytes=1000,
                   remaining_bytes=4000),
        ]
        assert audit_events(events).ok

    def test_resume_mismatch_refetches_bytes(self):
        events = [
            _session_start(),
            self._timeout(1, 2.0, accounted=1000),
            _event(2, 2.5, ev.RETRY, segment=0, attempt=1,
                   backoff_s=0.5, resume_bytes=400,
                   remaining_bytes=4000),
        ]
        report = audit_events(events)
        assert _names(report) == ["retry_accounting"]
        assert "re-fetched" in report.violations[0].message

    def test_accounted_fewer_than_delivered(self):
        events = [
            _session_start(),
            self._timeout(1, 2.0, accounted=500, delivered=1000),
            _event(2, 2.5, ev.RETRY, segment=0, attempt=1,
                   backoff_s=0.5, resume_bytes=500,
                   remaining_bytes=4000),
        ]
        report = audit_events(events)
        assert "retry_accounting" in _names(report)

    def test_retry_without_failure_flagged(self):
        events = [
            _session_start(),
            _event(1, 2.0, ev.RETRY, segment=0, attempt=1,
                   backoff_s=0.5, resume_bytes=0, remaining_bytes=4000),
        ]
        report = audit_events(events)
        assert _names(report) == ["retry_accounting"]

    def test_degradation_resolves_failure(self):
        events = [
            _session_start(),
            self._timeout(1, 2.0),
            _event(2, 2.5, ev.DEGRADED, segment=0, mode="floor",
                   attempts=3, wasted_bytes=1000, to_quality=0),
        ]
        assert audit_events(events).ok

    def test_degraded_unknown_mode_flagged(self):
        events = [
            _session_start(),
            self._timeout(1, 2.0),
            _event(2, 2.5, ev.DEGRADED, segment=0, mode="panic",
                   attempts=3, wasted_bytes=1000),
        ]
        report = audit_events(events)
        assert "retry_accounting" in _names(report)


# ---------------------------------------------------------------------------
# Reporting surface.
# ---------------------------------------------------------------------------
class TestReporting:
    def test_catalog_covers_eleven_invariants(self):
        assert len(INVARIANTS) == 11
        assert "shared_link_conservation" in INVARIANTS
        assert "retry_accounting" in INVARIANTS
        assert "stall_attribution" in INVARIANTS

    def test_violation_string_pins_event(self):
        events = [
            _session_start(),
            _event(1, 1.5, ev.TRANSPORT_ROUND, round=1, rtt=0.05,
                   offered=20, dropped=0, cwnd=10.0),
        ]
        report = audit_events(events)
        text = format_report(report)
        assert text.startswith("FAIL: 1 violation(s) in 2 events")
        assert "[cwnd_compliance] event #1 (seq 1, t=1.500000s)" in text

    def test_clean_report_format(self):
        report = audit_events([_session_start()])
        assert format_report(report) == (
            "ok: 1 events, 11 invariants checked, 0 violations"
        )

    def test_incremental_feed_matches_batch(self):
        events = [
            _session_start(),
            _event(1, 1.0, ev.TRANSPORT_ROUND, round=1, rtt=0.05,
                   offered=20, dropped=0, cwnd=10.0),
        ]
        auditor = TraceAuditor()
        for event in events:
            auditor.feed(event)
        incremental = auditor.finalize()
        batch = audit_events(events)
        assert _names(incremental) == _names(batch)
        assert incremental.events == batch.events == 2


# ---------------------------------------------------------------------------
# Clean sessions: real traces audit green on both backends.
# ---------------------------------------------------------------------------
def _run_traced(prepared, backend: str, abr_name: str = "abr_star",
                **spec_kwargs):
    tracer = Tracer()
    abr = make_abr(abr_name, prepared=prepared)
    spec = ScenarioSpec(buffer_segments=2, backend=backend, **spec_kwargs)
    session = StreamingSession(
        prepared, abr, get_trace("verizon", seed=0), spec, tracer=tracer,
    )
    session.run()
    return tracer


@pytest.mark.parametrize("backend", ["round", "packet"])
def test_clean_session_audits_green(tiny_prepared, backend):
    tracer = _run_traced(tiny_prepared, backend)
    report = audit_events(list(tracer))
    assert report.ok, format_report(report)
    assert report.events == len(tracer)


@pytest.mark.parametrize("abr_name,pr", [
    ("bola", False), ("beta", False), ("beta", True), ("abr_star", False),
])
def test_clean_session_other_abrs(tiny_prepared, abr_name, pr):
    tracer = _run_traced(tiny_prepared, "round", abr_name=abr_name,
                         reliability="quic*" if pr else "quic")
    report = audit_events(list(tracer))
    assert report.ok, format_report(report)


def test_inline_observer_audits_despite_eviction(tiny_prepared):
    # A tiny ring buffer evicts most events; the observer still sees all
    # of them, so the inline audit equals the post-hoc one.
    auditor = TraceAuditor()
    tracer = Tracer(capacity=16, observers=[auditor.feed])
    abr = make_abr("abr_star", prepared=tiny_prepared)
    session = StreamingSession(
        tiny_prepared, abr, get_trace("verizon", seed=0),
        ScenarioSpec(buffer_segments=2), tracer=tracer,
    )
    session.run()
    report = auditor.finalize()
    assert report.ok, format_report(report)
    assert report.events > len(tracer)  # buffer really did evict


# ---------------------------------------------------------------------------
# CLI: repro trace --check.
# ---------------------------------------------------------------------------
def _write_jsonl(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json() + "\n")


def test_cli_trace_check_clean(tiny_prepared, tmp_path, capsys):
    from repro.cli import main

    tracer = _run_traced(tiny_prepared, "round")
    path = tmp_path / "clean.jsonl"
    tracer.write_jsonl(str(path))
    assert main(["trace", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_cli_trace_check_corrupted(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "corrupt.jsonl"
    _write_jsonl(path, [
        _session_start(),
        _event(1, 1.0, ev.TRANSPORT_ROUND, round=1, rtt=0.05,
               offered=20, dropped=0, cwnd=10.0),
    ])
    assert main(["trace", str(path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "cwnd_compliance" in out


def test_cli_trace_check_json(tmp_path, capsys):
    import json

    from repro.cli import main

    path = tmp_path / "corrupt.jsonl"
    _write_jsonl(path, [
        _session_start(),
        _event(1, 1.0, ev.BUFFER_SAMPLE, segment=0, level_s=-1.0,
               capacity_s=4.0),
    ])
    assert main(["--json", "trace", str(path), "--check"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"][0]["invariant"] == "buffer_continuity"
    assert payload["violations"][0]["index"] == 1
