"""Trace-driven invariant auditor: cross-layer conservation laws.

The trace of one session is a complete account of what every layer did;
this module checks that the account balances.  Each invariant encodes a
contract the paper's design relies on:

* ``monotone_clock`` — simulation time never runs backwards and sequence
  numbers strictly increase (the premise of every other check).
* ``buffer_continuity`` — the playback buffer is never negative, never
  exceeds capacity plus one in-flight segment, and between consecutive
  segment pushes drains at exactly real-time rate minus recorded stalls
  (§5's player model).
* ``byte_conservation`` — per download, delivered + lost bytes equal the
  bytes requested; nothing is created or silently destroyed at the
  transport/HTTP boundary (§4.2's unreliable-stream accounting).
* ``cwnd_compliance`` — QUIC* keeps *unreliable* streams congestion
  controlled: no transport round offers more packets than the current
  congestion window allows (§4's "QUIC* stays TCP-friendly").
* ``stream_limit`` — a download never requests more than the wire bytes
  announced for the attempt, and never delivers more than it requested
  (stream offsets respect flow-control limits).
* ``frame_drop_legality`` — ABR*'s virtual quality levels may only drop
  frame payloads off the *unreliable tail* of the manifest's frame
  ordering; truncating into the reliable prefix (I-frame + headers)
  would produce an undecodable segment (§4.1/§4.3).
* ``abr_legality`` — decisions walk segments in order, qualities stay
  inside the ladder, and every download attempt matches the decision (or
  abandon target) that authorized it.
* ``stall_accounting`` — the stalls the session reports in
  ``session_end`` equal the sum of the ``stall`` events, and
  ``buf_ratio`` is that total over the media duration — the
  :class:`~repro.player.metrics.SessionMetrics` and the trace agree.
* ``retry_accounting`` — every request failure (``request_timeout`` /
  ``connection_reset``) on a segment download resolves to exactly one
  ``retry`` or ``degraded`` event before the download ends, and the
  bytes the retry resumes from equal the bytes the failed chain had
  accounted — nothing is re-fetched or double-counted across retries
  (the resilience layer's contract).
* ``stall_attribution`` — the causal engine in
  :mod:`repro.obs.attribution` assigns every stall second to exactly one
  cross-layer cause (fault, retry, degraded, bandwidth, ABR overreach),
  and the per-cause sums partition the session's reported stall time
  exactly — no bad second is double-counted or unexplained.

The auditor is incremental: :meth:`TraceAuditor.feed` consumes one event
at a time, so it can run inline as a tracer observer (catching
violations even when the ring buffer later evicts the event) or post hoc
over a parsed JSONL file via :func:`audit_events` / ``repro trace
--check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs import events as ev
from repro.obs.attribution import SessionAttributor
from repro.obs.events import TraceEvent

#: Tolerance for float conservation checks.  Buffer levels and stall
#: totals are chains of clock differences; accumulated rounding is
#: ~1e-13 over hundreds of simulated seconds, so 1e-6 separates real
#: accounting bugs from float noise by seven orders of magnitude.
FLOAT_TOLERANCE = 1e-6

#: Invariant name -> one-line law (the catalog ``--check`` reports from).
INVARIANTS: Dict[str, str] = {
    "monotone_clock": "simulation time and sequence numbers never move backwards",
    "buffer_continuity": "playback buffer stays within [0, capacity + 1 segment] and drains at real-time rate minus stalls",
    "byte_conservation": "bytes delivered + bytes lost = bytes requested for every download",
    "cwnd_compliance": "no transport round offers more packets than the congestion window",
    "stream_limit": "downloads never exceed the announced wire bytes nor deliver more than requested",
    "frame_drop_legality": "truncations keep at least the reliable prefix and at most the announced wire bytes",
    "abr_legality": "decisions walk segments in order with ladder-legal qualities matching each download attempt",
    "stall_accounting": "session_end stall totals and bufRatio equal the sum of stall events",
    "shared_link_conservation": "a shared link's delivered + dropped packets equal the packets the sessions offered",
    "retry_accounting": "every request failure resolves to exactly one retry or degradation, with bytes conserved across the retry chain",
    "stall_attribution": "every stall second maps to exactly one cross-layer cause, and per-cause sums partition the session's stall time",
}


@dataclass
class Violation:
    """One broken invariant, pinned to the event that exposed it."""

    invariant: str
    index: int  # position in the audited stream (0-based)
    seq: int
    t: float
    message: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] event #{self.index} (seq {self.seq}, "
            f"t={self.t:.6f}s): {self.message}"
        )


@dataclass
class AuditReport:
    """Outcome of auditing one event stream."""

    events: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class TraceAuditor:
    """Feed trace events in order; collects :class:`Violation` objects.

    Stateless inputs, stateful checks: the auditor reconstructs the
    session's buffer, stall, and per-segment download state from the
    stream alone, so it needs no access to the live session — a recorded
    JSONL file audits identically to an inline run.
    """

    def __init__(self):
        self.violations: List[Violation] = []
        self._index = -1
        self._last_seq: Optional[int] = None
        self._last_t: Optional[float] = None
        # Session parameters (from session_start, when present).
        self._segment_duration: Optional[float] = None
        self._capacity_s: Optional[float] = None
        self._num_segments: Optional[int] = None
        self._num_levels: Optional[int] = None
        # Buffer-continuity state.
        self._last_sample: Optional[TraceEvent] = None
        self._stall_since_sample = 0.0
        # Stall-accounting state.
        self._stall_total = 0.0
        self._sample_count = 0
        # ABR / download state.
        self._last_decided_segment: Optional[int] = None
        self._decided_quality: Dict[int, int] = {}
        self._abandon_quality: Dict[int, int] = {}
        self._wire_bytes: Dict[int, int] = {}
        # Retry-accounting state: segment -> the unresolved failure event
        # (request_timeout / connection_reset awaiting a retry/degraded).
        self._pending_failure: Dict[int, TraceEvent] = {}
        # Causal attribution runs alongside the conservation checks; the
        # partition law it produces is audited at session_end.
        self._attributor = SessionAttributor()

    # ------------------------------------------------------------------
    def _flag(self, invariant: str, event: TraceEvent, message: str) -> None:
        self.violations.append(Violation(
            invariant=invariant, index=self._index, seq=event.seq,
            t=event.t, message=message,
        ))

    # ------------------------------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Audit one event (events must arrive in stream order)."""
        self._index += 1
        self._check_clock(event)
        self._attributor.feed(event)
        handler = self._HANDLERS.get(event.type)
        if handler is not None:
            handler(self, event)

    def finalize(self) -> AuditReport:
        """Close the audit and return the report."""
        for segment, failure in sorted(self._pending_failure.items()):
            self._flag(
                "retry_accounting", failure,
                f"segment {segment}: {failure.type} never resolved to a "
                f"retry or degradation before the trace ended",
            )
        self._pending_failure.clear()
        return AuditReport(
            events=self._index + 1, violations=list(self.violations)
        )

    # -- universal ------------------------------------------------------
    def _check_clock(self, event: TraceEvent) -> None:
        if self._last_seq is not None and event.seq <= self._last_seq:
            self._flag(
                "monotone_clock", event,
                f"sequence number {event.seq} does not advance past "
                f"{self._last_seq}",
            )
        if self._last_t is not None and event.t < self._last_t - 1e-12:
            self._flag(
                "monotone_clock", event,
                f"timestamp {event.t:.6f} runs backwards from "
                f"{self._last_t:.6f}",
            )
        self._last_seq = event.seq
        self._last_t = event.t

    # -- session lifecycle ----------------------------------------------
    def _on_session_start(self, event: TraceEvent) -> None:
        f = event.fields
        self._segment_duration = float(f["segment_duration"])
        self._capacity_s = float(f["buffer_capacity_s"])
        self._num_segments = int(f["num_segments"])
        levels = f.get("num_levels")
        self._num_levels = int(levels) if levels is not None else None
        if self._segment_duration <= 0:
            self._flag("abr_legality", event,
                       f"segment duration {self._segment_duration} <= 0")
        if self._capacity_s <= 0:
            self._flag("buffer_continuity", event,
                       f"buffer capacity {self._capacity_s} <= 0")

    def _on_session_end(self, event: TraceEvent) -> None:
        f = event.fields
        total = float(f["total_stall"])
        if abs(total - self._stall_total) > FLOAT_TOLERANCE:
            self._flag(
                "stall_accounting", event,
                f"session_end reports {total:.6f}s of stall but the "
                f"trace's stall events sum to {self._stall_total:.6f}s",
            )
        if self._num_segments and self._segment_duration:
            media = self._num_segments * self._segment_duration
            expected_ratio = total / media
            if abs(float(f["buf_ratio"]) - expected_ratio) > FLOAT_TOLERANCE:
                self._flag(
                    "stall_accounting", event,
                    f"buf_ratio {float(f['buf_ratio']):.6f} != "
                    f"total_stall/media_duration {expected_ratio:.6f}",
                )
        segments = int(f["segments"])
        if segments != self._sample_count:
            self._flag(
                "stall_accounting", event,
                f"session_end reports {segments} segments but the trace "
                f"pushed {self._sample_count} buffer samples",
            )
        result = self._attributor.result()
        attributed = result.attributed_stall
        if abs(attributed - self._stall_total) > FLOAT_TOLERANCE:
            self._flag(
                "stall_attribution", event,
                f"per-cause stall seconds sum to {attributed:.6f}s but "
                f"the trace's stall events total "
                f"{self._stall_total:.6f}s — the partition leaks",
            )
        elif abs(attributed - total) > FLOAT_TOLERANCE:
            self._flag(
                "stall_attribution", event,
                f"per-cause stall seconds sum to {attributed:.6f}s but "
                f"session_end reports {total:.6f}s of stall",
            )
        if sum(result.stall_events.values()) != result.total_stall_events:
            self._flag(
                "stall_attribution", event,
                f"{result.total_stall_events} stall events but per-cause "
                f"counts sum to {sum(result.stall_events.values())}",
            )
        if sum(result.quality_drops.values()) != result.total_drops:
            self._flag(
                "stall_attribution", event,
                f"{result.total_drops} quality drops but per-cause "
                f"counts sum to {sum(result.quality_drops.values())}",
            )

    # -- player layer ---------------------------------------------------
    def _on_stall(self, event: TraceEvent) -> None:
        duration = float(event.fields["duration"])
        if duration <= 0:
            self._flag("stall_accounting", event,
                       f"stall event with non-positive duration {duration}")
            return
        self._stall_total += duration
        self._stall_since_sample += duration

    def _on_buffer_sample(self, event: TraceEvent) -> None:
        f = event.fields
        level = float(f["level_s"])
        capacity = float(f["capacity_s"])
        self._sample_count += 1
        if level < -FLOAT_TOLERANCE:
            self._flag("buffer_continuity", event,
                       f"buffer level {level:.6f}s is negative")
        seg_dur = self._segment_duration
        if seg_dur is not None and level > capacity + seg_dur + FLOAT_TOLERANCE:
            self._flag(
                "buffer_continuity", event,
                f"buffer level {level:.6f}s exceeds capacity "
                f"{capacity:.2f}s plus one in-flight segment",
            )
        prev = self._last_sample
        if prev is not None and seg_dur is not None:
            elapsed = event.t - prev.t
            drained = elapsed - self._stall_since_sample
            expected = float(prev.fields["level_s"]) - drained + seg_dur
            if abs(expected - level) > FLOAT_TOLERANCE:
                self._flag(
                    "buffer_continuity", event,
                    f"buffer level {level:.6f}s breaks continuity: "
                    f"expected {expected:.6f}s "
                    f"(previous {float(prev.fields['level_s']):.6f}s - "
                    f"{drained:.6f}s drained + {seg_dur:.2f}s pushed)",
                )
        self._last_sample = event
        self._stall_since_sample = 0.0

    # -- ABR layer ------------------------------------------------------
    def _on_abr_decision(self, event: TraceEvent) -> None:
        f = event.fields
        segment = int(f["segment"])
        quality = int(f["quality"])
        if self._num_segments is not None and not (
            0 <= segment < self._num_segments
        ):
            self._flag("abr_legality", event,
                       f"decision for out-of-range segment {segment}")
        if quality < 0 or (
            self._num_levels is not None and quality >= self._num_levels
        ):
            self._flag(
                "abr_legality", event,
                f"decision quality {quality} outside the ladder "
                f"[0, {self._num_levels})",
            )
        if (
            self._last_decided_segment is not None
            and segment < self._last_decided_segment
        ):
            self._flag(
                "abr_legality", event,
                f"decision for segment {segment} after segment "
                f"{self._last_decided_segment} (segments must be "
                f"non-decreasing)",
            )
        self._last_decided_segment = segment
        if float(f["wait_s"]) <= 0:
            self._decided_quality[segment] = quality
            self._abandon_quality.pop(segment, None)

    # -- download lifecycle ---------------------------------------------
    def _on_download_start(self, event: TraceEvent) -> None:
        f = event.fields
        segment = int(f["segment"])
        quality = int(f["quality"])
        attempt = int(f["attempt"])
        self._wire_bytes[segment] = int(f["wire_bytes"])
        if attempt == 0:
            authorized = self._decided_quality.get(segment)
        else:
            authorized = self._abandon_quality.get(segment)
        if authorized is not None and quality != authorized:
            self._flag(
                "abr_legality", event,
                f"download attempt {attempt} for segment {segment} at "
                f"quality {quality} but the "
                f"{'abandon' if attempt else 'decision'} authorized "
                f"quality {authorized}",
            )

    def _on_abandon(self, event: TraceEvent) -> None:
        f = event.fields
        segment = int(f["segment"])
        self._abandon_quality[segment] = int(f["to_quality"])
        if int(f["wasted_bytes"]) < 0:
            self._flag("byte_conservation", event,
                       f"abandon wasted {f['wasted_bytes']} bytes (< 0)")

    def _on_truncate(self, event: TraceEvent) -> None:
        f = event.fields
        requested = int(f["bytes_requested"])
        wire = int(f["wire_bytes"])
        if requested > wire:
            self._flag(
                "frame_drop_legality", event,
                f"truncation requested {requested} bytes, more than the "
                f"{wire} wire bytes of the attempt",
            )
        reliable = f.get("reliable_bytes")
        if reliable is not None and requested < int(reliable):
            self._flag(
                "frame_drop_legality", event,
                f"truncation to {requested} bytes cuts into the "
                f"{int(reliable)}-byte reliable prefix (I-frame + "
                f"headers): drops must come off the unreliable tail",
            )

    def _on_download_end(self, event: TraceEvent) -> None:
        f = event.fields
        segment = int(f["segment"])
        requested = int(f["bytes_requested"])
        delivered = int(f["bytes_delivered"])
        lost = int(f["lost_bytes"])
        if delivered < 0 or lost < 0 or requested < 0:
            self._flag(
                "byte_conservation", event,
                f"negative byte count (requested={requested}, "
                f"delivered={delivered}, lost={lost})",
            )
            return
        if delivered + lost != requested:
            self._flag(
                "byte_conservation", event,
                f"segment {segment}: delivered {delivered} + lost {lost} "
                f"= {delivered + lost} != requested {requested}",
            )
        if delivered > requested:
            self._flag(
                "stream_limit", event,
                f"segment {segment}: delivered {delivered} bytes exceeds "
                f"the {requested} requested",
            )
        wire = self._wire_bytes.get(segment)
        if wire is not None:
            if requested > wire:
                self._flag(
                    "stream_limit", event,
                    f"segment {segment}: requested {requested} bytes "
                    f"beyond the attempt's {wire} wire bytes",
                )
            truncated = bool(f["truncated"])
            if truncated != (requested < wire):
                self._flag(
                    "stream_limit", event,
                    f"segment {segment}: truncated={truncated} "
                    f"inconsistent with requested {requested} of "
                    f"{wire} wire bytes",
                )
        if float(f["stall"]) < 0:
            self._flag("stall_accounting", event,
                       f"download_end stall {f['stall']} < 0")
        pending = self._pending_failure.pop(segment, None)
        if pending is not None:
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: download ended with an unresolved "
                f"{pending.type} (no retry or degraded event followed)",
            )

    # -- resilience layer -----------------------------------------------
    @staticmethod
    def _segment_scope(fields: Dict) -> bool:
        """Retry accounting binds only segment-download failures; one-off
        repair/manifest failures carry a ``context`` tag and resolve out
        of band."""
        return fields.get("context", "segment") == "segment"

    def _on_request_failure(self, event: TraceEvent) -> None:
        f = event.fields
        if not self._segment_scope(f):
            return
        segment = int(f["segment"])
        if int(f["accounted_bytes"]) < int(f["delivered_bytes"]):
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: accounted bytes "
                f"{f['accounted_bytes']} below delivered "
                f"{f['delivered_bytes']} (accounting lost bytes)",
            )
        previous = self._pending_failure.get(segment)
        if previous is not None:
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: {event.type} while the previous "
                f"{previous.type} is still unresolved",
            )
        self._pending_failure[segment] = event

    def _on_retry(self, event: TraceEvent) -> None:
        f = event.fields
        if not self._segment_scope(f):
            return
        segment = int(f["segment"])
        failure = self._pending_failure.pop(segment, None)
        if failure is None:
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: retry without a preceding "
                f"unresolved failure",
            )
            return
        resume = int(f["resume_bytes"])
        accounted = int(failure.fields["accounted_bytes"])
        if resume != accounted:
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: retry resumes at byte {resume} but "
                f"the failed chain accounted {accounted} — bytes were "
                f"{'re-fetched' if resume < accounted else 'skipped'} "
                f"across the retry",
            )
        if float(f["backoff_s"]) < 0:
            self._flag("retry_accounting", event,
                       f"negative backoff {f['backoff_s']}")

    def _on_degraded(self, event: TraceEvent) -> None:
        f = event.fields
        mode = f["mode"]
        if mode not in ("floor", "skip"):
            self._flag("retry_accounting", event,
                       f"unknown degradation mode {mode!r}")
        if not self._segment_scope(f):
            return
        segment = int(f["segment"])
        failure = self._pending_failure.pop(segment, None)
        if failure is None:
            self._flag(
                "retry_accounting", event,
                f"segment {segment}: degraded without a preceding "
                f"unresolved failure",
            )
        if mode == "floor":
            to_quality = f.get("to_quality")
            if to_quality is None:
                self._flag(
                    "retry_accounting", event,
                    f"segment {segment}: floor degradation without a "
                    f"to_quality authorizing the fallback attempt",
                )
            else:
                # The degradation authorizes the follow-up attempt the
                # same way an abandon does.
                self._abandon_quality[segment] = int(to_quality)

    # -- transport layer ------------------------------------------------
    def _on_transport_round(self, event: TraceEvent) -> None:
        f = event.fields
        offered = int(f["offered"])
        dropped = int(f["dropped"])
        cwnd = float(f["cwnd"])
        allowed = max(int(cwnd), 1)
        if offered > allowed:
            self._flag(
                "cwnd_compliance", event,
                f"round offered {offered} packets with cwnd {cwnd:.2f} "
                f"(allowed {allowed}): the stream escaped congestion "
                f"control",
            )
        if dropped < 0 or dropped > offered:
            self._flag(
                "cwnd_compliance", event,
                f"round dropped {dropped} of {offered} offered packets",
            )
        if float(f["rtt"]) <= 0:
            self._flag("monotone_clock", event,
                       f"non-positive round RTT {f['rtt']}")

    def _on_packet_loss(self, event: TraceEvent) -> None:
        f = event.fields
        if int(f["dropped_packets"]) <= 0:
            self._flag("byte_conservation", event,
                       "packet_loss event with no dropped packets")
        if bool(f["reliable"]) and int(f["lost_bytes"]) != 0:
            self._flag(
                "byte_conservation", event,
                f"reliable stream reports {f['lost_bytes']} "
                f"application bytes lost (retransmission must repair "
                f"them)",
            )

    _HANDLERS = {
        ev.SESSION_START: _on_session_start,
        ev.SESSION_END: _on_session_end,
        ev.STALL: _on_stall,
        ev.BUFFER_SAMPLE: _on_buffer_sample,
        ev.ABR_DECISION: _on_abr_decision,
        ev.DOWNLOAD_START: _on_download_start,
        ev.ABANDON: _on_abandon,
        ev.TRUNCATE: _on_truncate,
        ev.DOWNLOAD_END: _on_download_end,
        ev.TRANSPORT_ROUND: _on_transport_round,
        ev.PACKET_LOSS: _on_packet_loss,
        ev.REQUEST_TIMEOUT: _on_request_failure,
        ev.CONNECTION_RESET: _on_request_failure,
        ev.RETRY: _on_retry,
        ev.DEGRADED: _on_degraded,
    }


class MultiSessionAuditor:
    """Audit one interleaved trace of N concurrent sessions.

    The global stream must stay monotone (one kernel, one clock, one seq
    space); beyond that, events are partitioned by their ``session_id``
    into per-session :class:`TraceAuditor` instances, so every
    single-session law holds *per session* even though the sessions'
    events interleave arbitrarily.  One law is genuinely cross-session:

    * ``shared_link_conservation`` — the shared bottleneck's lifetime
      counters (a ``link_stats`` event emitted when the run ends) must
      balance against what the sessions collectively sent: delivered +
      dropped = offered, offered = the sum of every session's
      ``transport_round.offered``, and dropped = the sum of every
      ``packet_loss.dropped_packets``.  Bytes cannot appear on the wire
      without a session sending them, nor vanish without being dropped.
    """

    def __init__(self):
        self.violations: List[Violation] = []
        self._index = -1
        self._last_seq: Optional[int] = None
        self._last_t: Optional[float] = None
        self._sessions: Dict[object, TraceAuditor] = {}
        self._session_order: List[object] = []
        self._link_stats: Optional[TraceEvent] = None
        self._rounds_offered = 0
        self._losses_dropped = 0

    # ------------------------------------------------------------------
    def _flag(self, invariant: str, event: TraceEvent, message: str) -> None:
        self.violations.append(Violation(
            invariant=invariant, index=self._index, seq=event.seq,
            t=event.t, message=message,
        ))

    def _session(self, key) -> TraceAuditor:
        auditor = self._sessions.get(key)
        if auditor is None:
            auditor = TraceAuditor()
            self._sessions[key] = auditor
            self._session_order.append(key)
        return auditor

    # ------------------------------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Audit one event of the interleaved stream (in stream order)."""
        self._index += 1
        if self._last_seq is not None and event.seq <= self._last_seq:
            self._flag(
                "monotone_clock", event,
                f"global sequence number {event.seq} does not advance "
                f"past {self._last_seq}",
            )
        if self._last_t is not None and event.t < self._last_t - 1e-12:
            self._flag(
                "monotone_clock", event,
                f"global timestamp {event.t:.6f} runs backwards from "
                f"{self._last_t:.6f} (sessions share one kernel clock)",
            )
        self._last_seq = event.seq
        self._last_t = event.t

        if event.type == ev.LINK_STATS:
            # Lifetime counters; the last emission wins.
            self._link_stats = event
            return
        if event.type == ev.TRANSPORT_ROUND:
            self._rounds_offered += int(event.fields["offered"])
        elif event.type == ev.PACKET_LOSS:
            self._losses_dropped += int(event.fields["dropped_packets"])
        self._session(event.fields.get("session_id")).feed(event)

    def finalize(self) -> AuditReport:
        """Close every per-session audit plus the cross-session laws."""
        violations = list(self.violations)
        for key in self._session_order:
            violations.extend(self._sessions[key].finalize().violations)
        stats = self._link_stats
        if stats is not None:
            self._check_link(stats, violations)
        return AuditReport(events=self._index + 1, violations=violations)

    def _check_link(self, stats: TraceEvent,
                    violations: List[Violation]) -> None:
        f = stats.fields
        offered = int(f["offered_packets"])
        delivered = int(f["delivered_packets"])
        dropped = int(f["dropped_packets"])

        def flag(message: str) -> None:
            violations.append(Violation(
                invariant="shared_link_conservation", index=self._index,
                seq=stats.seq, t=stats.t, message=message,
            ))

        if delivered + dropped != offered:
            flag(
                f"link delivered {delivered} + dropped {dropped} = "
                f"{delivered + dropped} != offered {offered}"
            )
        if offered != self._rounds_offered:
            flag(
                f"link saw {offered} offered packets but the sessions' "
                f"transport rounds offered {self._rounds_offered}"
            )
        if dropped != self._losses_dropped:
            flag(
                f"link dropped {dropped} packets but the sessions' "
                f"packet_loss events account for {self._losses_dropped}"
            )


def audit_events(events: Sequence[TraceEvent]) -> AuditReport:
    """Audit a complete event stream post hoc.

    Single-session traces go through :class:`TraceAuditor`; traces
    carrying ``session_id`` tags or ``link_stats`` events (multi-client
    runs) through :class:`MultiSessionAuditor`.
    """
    multi = any(
        e.type == ev.LINK_STATS or "session_id" in e.fields for e in events
    )
    auditor = MultiSessionAuditor() if multi else TraceAuditor()
    for event in events:
        auditor.feed(event)
    return auditor.finalize()


def audit_stream(events: Iterable[TraceEvent]) -> AuditReport:
    """Audit an event stream in one pass, without materializing it.

    Unlike :func:`audit_events` — which must scan the whole sequence to
    decide between the single- and multi-session auditor — this feeds a
    :class:`MultiSessionAuditor` directly (solo traces reduce to one
    per-session audit keyed ``None``), so arbitrarily large JSONL
    traces audit in memory bounded by session count, not event count.
    """
    auditor = MultiSessionAuditor()
    for event in events:
        auditor.feed(event)
    return auditor.finalize()


def format_report(report: AuditReport) -> str:
    """Human-readable audit outcome (one line per violation)."""
    if report.ok:
        return (
            f"ok: {report.events} events, "
            f"{len(INVARIANTS)} invariants checked, 0 violations"
        )
    lines = [
        f"FAIL: {len(report.violations)} violation(s) in "
        f"{report.events} events"
    ]
    lines.extend(str(v) for v in report.violations)
    return "\n".join(lines)
