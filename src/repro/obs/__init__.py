"""Observability: structured tracing, metrics registry, profiler.

The layer is zero-dependency and deterministic: trace timestamps come
from the simulation clock (never wall time), so the same seed yields a
byte-identical JSONL trace; the metrics registry and the profiler's
CPU samples live outside the trace and never influence the simulation.

Usage::

    from repro import prepare_video, stream
    from repro.obs import Tracer

    tracer = Tracer()
    stream(prepare_video("bbb"), tracer=tracer)
    tracer.write_jsonl("trace.jsonl")
"""

from repro.obs import spans
from repro.obs.attribution import (
    CAUSE_DESCRIPTIONS,
    CAUSES,
    AttributionResult,
    FleetAttributor,
    SessionAttributor,
    attribute_events,
    format_attribution,
)
from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_TYPES,
    OPTIONAL_FIELDS,
    SCHEMA_VERSION,
    SchemaError,
    TraceEvent,
    iter_trace_events,
)
from repro.obs.invariants import (
    INVARIANTS,
    AuditReport,
    MultiSessionAuditor,
    TraceAuditor,
    Violation,
    audit_events,
    audit_stream,
    format_report,
)
from repro.obs.diff import diff_files, format_diff
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    build_ledger,
    collapsed_stacks,
    format_ledger,
    load_ledger,
    profile_trials,
    write_ledger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    scoped_registry,
)
from repro.obs.report import (
    build_report,
    render_markdown,
    report_to_json,
)
from repro.obs.spans import (
    SPANS_VERSION,
    SUBSYSTEMS,
    SpanNode,
    SpanProfiler,
)
from repro.obs.rollup import (
    TraceRollup,
    format_rollup,
    merge_rollups,
    session_sample_key,
    session_sampled,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SessionTracer,
    StreamingTracer,
    Tracer,
    read_jsonl,
)

__all__ = [
    "CAUSE_DESCRIPTIONS",
    "CAUSES",
    "AttributionResult",
    "FleetAttributor",
    "SessionAttributor",
    "attribute_events",
    "format_attribution",
    "EVENT_FIELDS",
    "EVENT_TYPES",
    "OPTIONAL_FIELDS",
    "SCHEMA_VERSION",
    "SchemaError",
    "TraceEvent",
    "iter_trace_events",
    "INVARIANTS",
    "AuditReport",
    "MultiSessionAuditor",
    "TraceAuditor",
    "Violation",
    "audit_events",
    "audit_stream",
    "format_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "scoped_registry",
    "SPANS_VERSION",
    "SUBSYSTEMS",
    "SpanNode",
    "SpanProfiler",
    "spans",
    "LEDGER_SCHEMA_VERSION",
    "build_ledger",
    "collapsed_stacks",
    "format_ledger",
    "load_ledger",
    "profile_trials",
    "write_ledger",
    "diff_files",
    "format_diff",
    "build_report",
    "render_markdown",
    "report_to_json",
    "TraceRollup",
    "format_rollup",
    "merge_rollups",
    "session_sample_key",
    "session_sampled",
    "NULL_TRACER",
    "NullTracer",
    "SessionTracer",
    "StreamingTracer",
    "Tracer",
    "read_jsonl",
]
