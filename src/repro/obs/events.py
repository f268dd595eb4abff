"""Typed trace events: the schema of the observability layer.

Every event carries the schema version, a monotonically increasing
sequence number, a *simulation-clock* timestamp (never wall time — traces
must be byte-identical across runs of the same seed), a type from the
registry below, and the type's payload fields.

The schema is versioned so traces stay diffable across PRs: adding an
event type or an optional field is backward compatible; renaming or
removing one bumps :data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, Iterable, Iterator, Union

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Event types (session layer)
SESSION_START = "session_start"
SESSION_END = "session_end"
MANIFEST_FETCH = "manifest_fetch"
ABR_DECISION = "abr_decision"
DOWNLOAD_START = "download_start"
DOWNLOAD_END = "download_end"
ABANDON = "abandon"          # restart at another quality, bytes discarded
TRUNCATE = "truncate"        # ABR*-style keep-partial truncation
STALL = "stall"
BUFFER_SAMPLE = "buffer_sample"
SELECTIVE_RETX = "selective_retx"
# Event types (transport / network layer)
TRANSPORT_ROUND = "transport_round"
PACKET_LOSS = "packet_loss"
# Event types (shared-link / multi-client layer)
LINK_STATS = "link_stats"    # lifetime counters of a shared bottleneck
# Event types (fault injection / resilience layer)
FAULT_INJECTED = "fault_injected"      # one planned fault window/point
REQUEST_TIMEOUT = "request_timeout"    # per-request deadline expired
CONNECTION_RESET = "connection_reset"  # injected mid-download reset
RETRY = "retry"                        # backoff + partial-range resume
DEGRADED = "degraded"                  # retry budget exhausted: floor/skip

#: type -> required payload fields.  Emission and parsing both validate
#: against this map, so a trace that round-trips is schema conformant.
EVENT_FIELDS: Dict[str, tuple] = {
    SESSION_START: (
        "video", "abr", "num_segments", "segment_duration",
        "buffer_capacity_s", "backend", "partially_reliable",
    ),
    SESSION_END: (
        "buf_ratio", "total_stall", "startup_delay", "mean_score",
        "segments",
    ),
    MANIFEST_FETCH: ("mode", "bytes", "elapsed"),
    ABR_DECISION: (
        "segment", "quality", "target_bytes", "unreliable", "wait_s",
        "buffer_level_s", "throughput_bps", "expected_score",
    ),
    DOWNLOAD_START: ("segment", "quality", "wire_bytes", "attempt"),
    DOWNLOAD_END: (
        "segment", "quality", "bytes_requested", "bytes_delivered",
        "elapsed", "truncated", "restarts", "lost_bytes", "stall",
    ),
    ABANDON: ("segment", "from_quality", "to_quality", "wasted_bytes"),
    TRUNCATE: ("segment", "quality", "bytes_requested", "wire_bytes"),
    STALL: ("duration", "segment"),
    BUFFER_SAMPLE: ("segment", "level_s", "capacity_s"),
    SELECTIVE_RETX: ("segment", "repaired_bytes", "residual_bytes"),
    TRANSPORT_ROUND: ("round", "rtt", "offered", "dropped", "cwnd"),
    PACKET_LOSS: ("dropped_packets", "lost_bytes", "reliable"),
    LINK_STATS: (
        "offered_packets", "dropped_packets", "delivered_packets", "flows",
    ),
    # Fault injection / resilience.  ``accounted_bytes`` on a failure is
    # the cumulative bytes of the current download chain that will NOT
    # be re-requested (delivered + deliberately-lost); a following
    # ``retry`` must resume at exactly that offset (the retry-accounting
    # invariant).  ``delivered_bytes`` is the usable subset.
    FAULT_INJECTED: ("kind", "start", "duration", "value"),
    REQUEST_TIMEOUT: (
        "segment", "attempt", "elapsed", "accounted_bytes",
        "delivered_bytes",
    ),
    CONNECTION_RESET: (
        "segment", "attempt", "accounted_bytes", "delivered_bytes",
    ),
    RETRY: (
        "segment", "attempt", "backoff_s", "resume_bytes",
        "remaining_bytes",
    ),
    DEGRADED: ("segment", "mode", "attempts", "wasted_bytes"),
}

#: type -> optional payload fields.  Optional fields may be absent (older
#: traces) but nothing outside ``required + optional`` is accepted, so
#: adding one here is a backward-compatible schema extension (no version
#: bump): old parsers never see it as required, new parsers still reject
#: genuinely unknown fields.
OPTIONAL_FIELDS: Dict[str, tuple] = {
    # spec_hash: content hash of the ScenarioSpec a builder-assembled
    # session realizes — keys recorded artifacts to their configuration.
    SESSION_START: ("num_levels", "spec_hash"),
    TRUNCATE: ("reliable_bytes",),
    TRANSPORT_ROUND: ("inflight",),
    # context: "segment" (default when absent), "repair", or "manifest".
    # The retry-accounting invariant only binds segment-context failures;
    # repairs and manifest fetches degrade silently by design.
    REQUEST_TIMEOUT: ("context", "deadline_s"),
    CONNECTION_RESET: ("context", "at"),
    RETRY: ("context",),
    DEGRADED: ("context", "to_quality"),
}

#: Optional fields every event type may carry.  ``session_id`` tags
#: events of multi-client traces with their originating session so
#: auditors can partition one interleaved stream; solo traces omit it
#: entirely (backward compatible, no version bump).
COMMON_OPTIONAL_FIELDS = ("session_id",)

EVENT_TYPES = tuple(sorted(EVENT_FIELDS))

#: Precomputed per-type field sets: validation on the emit hot path is a
#: pair of subset checks against these, with the original list-building
#: diagnostics reconstructed only when a check fails.
_REQUIRED_SETS: Dict[str, frozenset] = {
    type_: frozenset(required) for type_, required in EVENT_FIELDS.items()
}
_ALLOWED_SETS: Dict[str, frozenset] = {
    type_: _REQUIRED_SETS[type_]
    | frozenset(OPTIONAL_FIELDS.get(type_, ()))
    | frozenset(COMMON_OPTIONAL_FIELDS)
    for type_ in EVENT_FIELDS
}

#: (required, allowed) per type in one dict — the emit hot path does a
#: single lookup and two subset checks per event.
CHECK_SETS: Dict[str, tuple] = {
    type_: (_REQUIRED_SETS[type_], _ALLOWED_SETS[type_])
    for type_ in EVENT_FIELDS
}


class SchemaError(ValueError):
    """An event does not conform to the trace schema."""


@dataclass(slots=True)
class TraceEvent:
    """One structured, timestamped observation."""

    seq: int
    t: float  # simulation-clock seconds
    type: str
    fields: Dict[str, object]

    def validate(self) -> None:
        sets = CHECK_SETS.get(self.type)
        if sets is None:
            raise SchemaError(f"unknown event type {self.type!r}")
        keys = self.fields.keys()
        if sets[0] <= keys and keys <= sets[1]:
            return
        self._validate_slow()

    def _validate_slow(self) -> None:
        required = EVENT_FIELDS[self.type]
        missing = [k for k in required if k not in self.fields]
        if missing:
            raise SchemaError(
                f"event {self.type!r} missing fields {missing}"
            )
        optional = OPTIONAL_FIELDS.get(self.type, ())
        extra = [
            k for k in self.fields
            if k not in required and k not in optional
            and k not in COMMON_OPTIONAL_FIELDS
        ]
        if extra:
            raise SchemaError(
                f"event {self.type!r} has unknown fields {extra}"
            )

    def to_json(self) -> str:
        payload = {"v": SCHEMA_VERSION, "seq": self.seq, "t": self.t,
                   "type": self.type}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"unparseable trace line: {exc}") from None
        if not isinstance(payload, dict):
            raise SchemaError("trace line is not a JSON object")
        version = payload.pop("v", None)
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported trace schema version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        try:
            seq = payload.pop("seq")
            t = payload.pop("t")
            type_ = payload.pop("type")
        except KeyError as exc:
            raise SchemaError(f"trace line missing {exc.args[0]!r}") from None
        event = cls(seq=int(seq), t=float(t), type=str(type_),
                    fields=payload)
        event.validate()
        return event


def iter_trace_events(
    source: Union[str, IO[str], Iterable[str]],
) -> Iterator[TraceEvent]:
    """Yield events from a JSONL trace one line at a time, O(1) memory.

    ``source`` is a path, open file object, or iterable of lines.  Blank
    lines are skipped.  A malformed line raises :class:`SchemaError`
    naming the 1-based line number, so CLI error messages can point at
    the exact spot in a multi-gigabyte trace.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from _iter_lines(handle)
        return
    yield from _iter_lines(source)


def _iter_lines(lines: Iterable[str]) -> Iterator[TraceEvent]:
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield TraceEvent.from_json(line)
        except SchemaError as exc:
            raise SchemaError(f"line {number}: {exc}") from None
