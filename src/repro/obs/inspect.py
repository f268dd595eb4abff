"""Trace inspector: summarize a JSONL trace, reconstruct timelines.

Backs the ``repro trace`` CLI command.  Given the events of one session
it can answer the Fig. 6/7-style questions the aggregates hide: which
ABR decisions ran, where the stalls were, how the buffer and the chosen
bitrate evolved segment by segment.

The builders are streaming: :meth:`SummaryBuilder.feed` and
:meth:`TimelineBuilder.feed` consume one event at a time, so the CLI can
inspect a multi-gigabyte multiclient trace in memory bounded by segment
count (timeline rows), never event count.  The sequence-based
:func:`summarize` / :func:`timeline` wrappers remain for callers that
already hold the events.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs import events as ev
from repro.obs.events import TraceEvent


# ---------------------------------------------------------------------------
class SummaryBuilder:
    """Single-pass accumulator behind :func:`summarize`."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._events = 0
        self._first_t: Optional[float] = None
        self._last_t = 0.0
        self._session: Optional[Dict[str, object]] = None
        self._result: Optional[Dict[str, object]] = None
        self._stall_count = 0
        self._stall_seconds = 0.0
        self._loss_events = 0
        self._lost_packets = 0
        self._repaired_bytes = 0

    def feed(self, event: TraceEvent) -> None:
        self._events += 1
        if self._first_t is None:
            self._first_t = event.t
        self._last_t = event.t
        type_ = event.type
        self._counts[type_] = self._counts.get(type_, 0) + 1
        fields = event.fields
        if type_ == ev.SESSION_START:
            if self._session is None:
                self._session = dict(fields)
        elif type_ == ev.SESSION_END:
            self._result = dict(fields)
        elif type_ == ev.STALL:
            self._stall_count += 1
            self._stall_seconds += fields["duration"]
        elif type_ == ev.PACKET_LOSS:
            self._loss_events += 1
            self._lost_packets += fields["dropped_packets"]
        elif type_ == ev.SELECTIVE_RETX:
            self._repaired_bytes += fields["repaired_bytes"]

    def result(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "schema_version": ev.SCHEMA_VERSION,
            "events": self._events,
            "event_counts": dict(sorted(self._counts.items())),
            "duration": (
                self._last_t - self._first_t
                if self._first_t is not None else 0.0
            ),
        }
        if self._session is not None:
            summary["session"] = self._session
        if self._result is not None:
            summary["result"] = self._result
        summary["stall_count"] = self._stall_count
        summary["stall_seconds"] = float(self._stall_seconds)
        summary["abr_decisions"] = self._counts.get(ev.ABR_DECISION, 0)
        summary["abandons"] = self._counts.get(ev.ABANDON, 0)
        summary["truncations"] = self._counts.get(ev.TRUNCATE, 0)
        summary["loss_events"] = self._loss_events
        summary["lost_packets"] = int(self._lost_packets)
        summary["repaired_bytes"] = int(self._repaired_bytes)
        return summary


def summarize(events: Iterable[TraceEvent]) -> Dict[str, object]:
    """Aggregate view of one trace: counts, lifecycle, loss/repair totals."""
    builder = SummaryBuilder()
    for event in events:
        builder.feed(event)
    return builder.result()


class TimelineBuilder:
    """Single-pass per-segment row accumulator behind :func:`timeline`."""

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[str, object]] = {}
        self._seg_dur: Optional[float] = None

    def _row(self, segment: int) -> Dict[str, object]:
        return self._rows.setdefault(segment, {"segment": segment})

    def feed(self, event: TraceEvent) -> None:
        f = event.fields
        if event.type == ev.SESSION_START:
            self._seg_dur = float(f["segment_duration"])
        elif event.type == ev.ABR_DECISION and f["wait_s"] == 0:
            r = self._row(int(f["segment"]))
            r["quality"] = f["quality"]
            r["target_bytes"] = f["target_bytes"]
            r["buffer_s"] = round(float(f["buffer_level_s"]), 3)
            r["tput_kbps"] = round(float(f["throughput_bps"]) / 1e3, 1)
        elif event.type == ev.DOWNLOAD_END:
            r = self._row(int(f["segment"]))
            r["quality"] = f["quality"]  # realized (restarts may differ)
            r["bytes"] = f["bytes_delivered"]
            r["time_s"] = round(float(f["elapsed"]), 3)
            r["stall_s"] = round(float(f["stall"]), 3)
            r["truncated"] = bool(f["truncated"])
            r["restarts"] = f["restarts"]
            r["lost_bytes"] = f["lost_bytes"]
            if self._seg_dur:
                r["bitrate_kbps"] = round(
                    float(f["bytes_delivered"]) * 8.0 / self._seg_dur / 1e3,
                    1,
                )
        elif event.type == ev.BUFFER_SAMPLE:
            self._row(int(f["segment"]))["buffer_after_s"] = round(
                float(f["level_s"]), 3
            )
        elif event.type == ev.SELECTIVE_RETX:
            r = self._row(int(f["segment"]))
            r["repaired_bytes"] = (
                int(r.get("repaired_bytes", 0)) + int(f["repaired_bytes"])
            )

    def rows(self) -> List[Dict[str, object]]:
        return [self._rows[k] for k in sorted(self._rows)]


def timeline(events: Iterable[TraceEvent]) -> List[Dict[str, object]]:
    """Per-segment rows reconstructed from the event stream.

    One row per streamed segment with the decision, realized download,
    stall, and post-push buffer level — the raw material of a Fig. 7
    per-segment narrative.
    """
    builder = TimelineBuilder()
    for event in events:
        builder.feed(event)
    return builder.rows()


# ---------------------------------------------------------------------------
def format_summary(summary: Dict[str, object]) -> str:
    lines = [
        f"trace: {summary['events']} events, schema "
        f"v{summary['schema_version']}, "
        f"{summary['duration']:.2f} s of session time",
    ]
    session = summary.get("session")
    if session:
        lines.append(
            f"session: {session['video']} / {session['abr']} / "
            f"{session['num_segments']} segments / "
            f"{'QUIC*' if session['partially_reliable'] else 'QUIC'} "
            f"({session['backend']} backend)"
        )
    result = summary.get("result")
    if result:
        lines.append(
            f"result: bufRatio {float(result['buf_ratio']) * 100:.2f} %  "
            f"stall {float(result['total_stall']):.2f} s  "
            f"mean score {float(result['mean_score']):.3f}"
        )
    lines.append(
        f"abr: {summary['abr_decisions']} decisions, "
        f"{summary['abandons']} abandons, "
        f"{summary['truncations']} truncations"
    )
    lines.append(
        f"loss: {summary['loss_events']} loss events "
        f"({summary['lost_packets']} packets), "
        f"{summary['repaired_bytes']} bytes repaired, "
        f"{summary['stall_count']} stalls "
        f"({summary['stall_seconds']:.2f} s)"
    )
    lines.append("events by type:")
    for type_, count in summary["event_counts"].items():
        lines.append(f"  {type_:18s} {count}")
    return "\n".join(lines)


def format_timeline(rows: List[Dict[str, object]]) -> str:
    from repro.experiments.report import format_table

    columns = [
        "segment", "quality", "buffer_s", "tput_kbps", "bytes",
        "bitrate_kbps", "time_s", "stall_s", "truncated", "restarts",
        "lost_bytes", "buffer_after_s",
    ]
    return format_table(rows, columns, title="per-segment timeline")
