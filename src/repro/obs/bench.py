"""Continuous benchmark suite: the repo's performance trajectory.

``repro bench`` runs a deterministic suite of micro benchmarks (one hot
function at a time, timed through the :mod:`repro.obs.profiling` hooks
into a scoped metrics registry) and macro benchmarks (full seeded
streaming sessions per transport backend, traced) and emits a
schema-versioned ``BENCH_<label>.json``.  Committing one per milestone
and diffing with ``repro bench --compare`` turns "did this PR slow the
simulator down?" into a CI check (:mod:`repro.obs.regression`).

Wall times are inherently machine-dependent; the suite therefore also
records machine-independent *throughput* figures — simulated seconds per
wall second and trace events per second — which are the numbers worth
tracking across hardware.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional

from repro.obs.metrics import scoped_registry
from repro.obs.profiling import enable_profiling, profiling_enabled, timed
from repro.obs.tracer import Tracer

#: Version of the BENCH_*.json layout.  Adding a benchmark or a field is
#: backward compatible; renaming or removing one bumps this.
BENCH_SCHEMA_VERSION = 1

#: Synthetic workload for quick runs and the packet backend: mirrors the
#: test suite's tiny video (6 segments, full 13-level ladder) so a quick
#: bench costs seconds, not minutes.
_TINY_PROFILE_KWARGS = dict(
    name="benchtiny",
    title="Bench Tiny Video",
    genre="Bench",
    segments=6,
    motion_mean=0.4,
    motion_spread=0.2,
    complexity=0.5,
    scene_cut_rate=1.0,
    size_std_mbps=3.0,
    static_fraction=0.15,
)


def default_output_path(label: str) -> str:
    return f"BENCH_{label}.json"


def _git_sha() -> Optional[str]:
    """The repo's HEAD commit, or None outside a git checkout.

    Stamped into the payload's ``meta`` so archived bench results are
    traceable to the exact code that produced them.  Resolved against
    the source tree containing this module, not the caller's cwd.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _tiny_prepared():
    from repro.prep.prepare import prepare
    from repro.video.content import ContentProfile
    from repro.video.encoder import encode_video

    return prepare(encode_video(ContentProfile(**_TINY_PROFILE_KWARGS)))


def _timed_loop(name: str, repeats: int, fn) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times under a profiling hook; report stats.

    The timings flow through ``timed()`` into a scoped registry — the
    same pipeline the ``--metrics`` flag uses — so the benchmark measures
    exactly what production profiling measures.
    """
    was_enabled = profiling_enabled()
    with scoped_registry(merge=False) as registry:
        enable_profiling(True)
        try:
            for _ in range(repeats):
                with timed(f"bench.{name}"):
                    fn()
        finally:
            enable_profiling(was_enabled)
        hist = registry.histogram(f"timing.bench.{name}")
        summary = hist.summary()
    return {
        "kind": "micro",
        "repeats": repeats,
        "wall_s": summary["sum"],
        "per_call_s": summary["mean"],
        "p50_s": summary["p50"],
        "p90_s": summary["p90"],
    }


# ---------------------------------------------------------------------------
def _bench_decode_segment(prepared, repeats: int) -> Dict[str, float]:
    from repro.qoe.model import decode_segment

    top = prepared.manifest.num_levels - 1
    segment = prepared.video.segment(top, 0)
    # Drop a couple of tail frames: the realistic imperfect-delivery case
    # the decoder model is built for (never frame 0, the I-frame).
    num_frames = len(segment.frames)
    dropped = [i for i in range(max(num_frames - 3, 1), num_frames)]

    def call():
        decode_segment(segment, params=prepared.params, dropped=dropped,
                       corruption={})

    return _timed_loop("decode_segment", repeats, call)


def _bench_abr_choose(prepared, repeats: int) -> Dict[str, float]:
    from repro.abr import make_abr
    from repro.network.traces import constant_trace
    from repro.player.session import SessionConfig, StreamingSession

    abr = make_abr("abr_star", prepared=prepared)
    session = StreamingSession(
        prepared, abr, constant_trace(10.0),
        SessionConfig(buffer_segments=3),
    )
    context = session._context(0, None)

    def call():
        abr.choose(context)

    return _timed_loop("abr_choose", repeats, call)


def _bench_transport_round(repeats: int) -> Dict[str, float]:
    # The bare transport stack comes from the backend registry (the same
    # assembly path sessions use), described by a spec — no hardcoded
    # link/connection wiring that could drift from production.
    from repro.core.build import StackBuilder
    from repro.core.spec import ScenarioSpec
    from repro.network.clock import Clock
    from repro.transport.backends import make_backend

    builder = StackBuilder(ScenarioSpec(trace="constant:10"))
    stack = make_backend(
        builder.spec.backend,
        config=builder.session_config(),
        clock=Clock(),
        trace=builder.resolve_trace(),
    )
    connection = stack.connection
    rounds = [0]

    def call():
        result = connection.download(500_000, reliable=True)
        rounds[0] += result.rounds

    stats = _timed_loop("transport_download", repeats, call)
    total_rounds = max(rounds[0], 1)
    stats["rounds"] = rounds[0]
    stats["per_round_s"] = stats["wall_s"] / total_rounds
    return stats


def _bench_session(prepared, backend: str, seed: int) -> Dict[str, float]:
    from repro.abr import make_abr
    from repro.network.traces import get_trace
    from repro.player.session import SessionConfig, StreamingSession

    tracer = Tracer()
    abr = make_abr("abr_star", prepared=prepared)
    config = SessionConfig(buffer_segments=3, transport_backend=backend)
    session = StreamingSession(
        prepared, abr, get_trace("verizon", seed=seed), config,
        tracer=tracer,
    )
    t0 = time.perf_counter()
    metrics = session.run()
    wall = max(time.perf_counter() - t0, 1e-9)
    events = len(tracer)
    trace_bytes = len(tracer.to_jsonl())
    return {
        "kind": "macro",
        "workload": prepared.name,
        "wall_s": wall,
        "sim_s": metrics.wall_duration,
        "sim_s_per_wall_s": metrics.wall_duration / wall,
        "events": events,
        "events_per_s": events / wall,
        "peak_trace_bytes": trace_bytes,
        "segments": len(metrics.records),
    }


def _bench_multiclient(tiny, seed: int) -> Dict[str, float]:
    """Four mixed clients contending on one shared bottleneck."""
    from repro.experiments.multiclient import DEFAULT_SPECS, run_multiclient

    tracer = Tracer()
    specs = [
        spec.with_(video=tiny.name, trace="constant:20", seed=seed)
        for spec in DEFAULT_SPECS
    ]
    t0 = time.perf_counter()
    result = run_multiclient(
        specs, tracer=tracer, prepared_map={tiny.name: tiny}
    )
    wall = max(time.perf_counter() - t0, 1e-9)
    sim_s = max(c.metrics.wall_duration for c in result.clients)
    events = len(tracer)
    return {
        "kind": "macro",
        "workload": tiny.name,
        "wall_s": wall,
        "sim_s": sim_s,
        "sim_s_per_wall_s": sim_s / wall,
        "events": events,
        "events_per_s": events / wall,
        "peak_trace_bytes": len(tracer.to_jsonl()),
        "clients": len(result.clients),
        "jain_index": result.jain_index,
    }


def _bench_fleet(tiny, seed: int) -> Dict[str, float]:
    """A sharded fleet: clients simulated per wall-second.

    Fixed shard count so the headline ``clients_per_s`` tracks
    per-shard executor cost, not parallelism; runs single-process for
    the same reason.  ``audit_ok`` gates the attribution partition law
    over the merged fleet, and ``fleet_hash`` pins cross-shard merge
    determinism into the payload.
    """
    from repro.experiments.fleet import ClientGroup, FleetSpec, run_fleet

    groups = tuple(
        ClientGroup(abr=abr, video=tiny.name, partially_reliable=pr)
        for abr, pr in (
            ("abr_star", True), ("bola", True),
            ("abr_star", False), ("bola", False),
        )
    )
    spec = FleetSpec(
        clients=48, shards=4, groups=groups, trace="constant:40",
        seed=seed,
    )
    t0 = time.perf_counter()
    result = run_fleet(spec, prepared_map={tiny.name: tiny})
    wall = max(time.perf_counter() - t0, 1e-9)
    report = result.report()
    return {
        "kind": "fleet",
        "workload": tiny.name,
        "wall_s": wall,
        "clients": result.clients,
        "shards": spec.shards,
        "clients_per_s": result.clients / wall,
        "events": int(report["rollup"]["events_seen"]),
        "jain_index": result.jain_index,
        "stall_p99_s": report["rollup"]["session_stall_s"]["p99"],
        "fleet_hash": result.fleet_hash(),
        "audit_ok": bool(result.attribution.combined().ok),
    }


def _bench_resilience(tiny, seed: int) -> Dict[str, float]:
    """A faulted session under the retry/degradation machinery, audited.

    Benchmarks the fault-injection hot path (deadline checks, fault-plan
    window queries, retry/backoff bookkeeping) and doubles as a
    regression tripwire: ``audit_ok`` feeds bench gating, so a PR that
    breaks retry accounting fails the comparison even if it got faster.
    """
    from repro.core.build import StackBuilder
    from repro.core.spec import ScenarioSpec
    from repro.experiments.chaos import CHAOS_PROFILES
    from repro.obs.invariants import TraceAuditor

    spec = ScenarioSpec(
        video=tiny.name,
        abr="abr_star",
        trace="verizon",
        seed=seed,
        buffer_segments=2,
        faults=CHAOS_PROFILES["mixed"],
        request_timeout_s=2.0,
        retry_budget=2,
    )
    auditor = TraceAuditor()
    tracer = Tracer(observers=[auditor.feed])
    session = StackBuilder(spec, prepared=tiny).build(tracer=tracer)
    t0 = time.perf_counter()
    metrics = session.run()
    wall = max(time.perf_counter() - t0, 1e-9)
    report = auditor.finalize()
    summary = metrics.summary()
    events = len(tracer)
    return {
        "kind": "macro",
        "workload": tiny.name,
        "wall_s": wall,
        "sim_s": metrics.wall_duration,
        "sim_s_per_wall_s": metrics.wall_duration / wall,
        "events": events,
        "events_per_s": events / wall,
        "peak_trace_bytes": len(tracer.to_jsonl()),
        "segments": len(metrics.records),
        "faults_injected": summary.get("faults_injected", 0.0),
        "retries": summary.get("retries", 0.0),
        "degraded_segments": summary.get("degraded_segments", 0.0),
        "audit_ok": report.ok,
    }


def _bench_rollup(tiny, seed: int) -> Dict[str, float]:
    """Tracing-off fast path vs streaming rollup on one seeded session.

    ``wall_s`` times the session with the :class:`NullTracer` — the
    production fast path every emit site gates on — so bench comparisons
    catch any PR that puts work on the tracing-off path.  The same
    seeded session then runs again under a buffer-less
    :class:`StreamingTracer` feeding a fleet rollup and causal stall
    attributor, yielding the observer overhead and an ``audit_ok``
    correctness gate (the attribution partition law must hold).
    """
    from repro.abr import make_abr
    from repro.network.traces import get_trace
    from repro.obs.attribution import FleetAttributor
    from repro.obs.rollup import TraceRollup
    from repro.obs.tracer import NULL_TRACER, StreamingTracer
    from repro.player.session import SessionConfig, StreamingSession

    def build(tracer):
        abr = make_abr("abr_star", prepared=tiny)
        config = SessionConfig(buffer_segments=3)
        return StreamingSession(
            tiny, abr, get_trace("verizon", seed=seed), config,
            tracer=tracer,
        )

    session = build(NULL_TRACER)
    t0 = time.perf_counter()
    metrics = session.run()
    wall = max(time.perf_counter() - t0, 1e-9)

    rollup = TraceRollup()
    fleet = FleetAttributor()
    streaming = StreamingTracer(observers=[rollup.feed, fleet.feed])
    session = build(streaming)
    t0 = time.perf_counter()
    session.run()
    rollup_wall = max(time.perf_counter() - t0, 1e-9)
    events = rollup.events_seen
    combined = fleet.combined()
    return {
        "kind": "macro",
        "workload": tiny.name,
        "wall_s": wall,
        "sim_s": metrics.wall_duration,
        "sim_s_per_wall_s": metrics.wall_duration / wall,
        "events": events,
        "events_per_s": events / rollup_wall,
        # Both paths are memory-bounded: the null tracer records nothing
        # and the streaming tracer dispatches without buffering.
        "peak_trace_bytes": 0,
        "segments": len(metrics.records),
        "rollup_wall_s": rollup_wall,
        "rollup_overhead_pct": (rollup_wall - wall) / wall * 100.0,
        "stall_p99_s": rollup.percentile("stall_seconds", 99),
        "audit_ok": combined.ok,
    }


def _bench_spans(tiny, seed: int) -> Dict[str, float]:
    """Spans-off fast path vs full span profiler on one seeded session.

    ``wall_s`` times the session with no profiler installed — the
    single global read every instrumentation site gates on — so bench
    comparisons catch any PR that puts work on the spans-off path.
    The same seeded session then reruns under a
    :class:`~repro.obs.spans.SpanProfiler`, yielding the profiling
    overhead, the per-subsystem self-time table that ``repro diff``
    attributes regressions with, the deterministic tree hash, and an
    ``audit_ok`` gate: the profiled run must compute byte-identical
    session metrics (spans observe, never perturb).
    """
    from repro.abr import make_abr
    from repro.network.traces import get_trace
    from repro.obs import spans
    from repro.player.session import SessionConfig, StreamingSession

    def build(tracer):
        abr = make_abr("abr_star", prepared=tiny)
        config = SessionConfig(buffer_segments=3)
        return StreamingSession(
            tiny, abr, get_trace("verizon", seed=seed), config,
            tracer=tracer,
        )

    tracer = Tracer()
    session = build(tracer)
    t0 = time.perf_counter()
    metrics = session.run()
    wall = max(time.perf_counter() - t0, 1e-9)
    events = len(tracer)
    trace_bytes = len(tracer.to_jsonl())

    with spans.profiled() as prof:
        # Build inside the profiled block: components capture the
        # ambient profiler at construction time.
        session = build(Tracer())
        t0 = time.perf_counter()
        prof_metrics = session.run()
        spans_wall = max(time.perf_counter() - t0, 1e-9)
    table = prof.subsystem_table()
    return {
        "kind": "macro",
        "workload": tiny.name,
        "wall_s": wall,
        "sim_s": metrics.wall_duration,
        "sim_s_per_wall_s": metrics.wall_duration / wall,
        "events": events,
        "events_per_s": events / wall,
        "peak_trace_bytes": trace_bytes,
        "segments": len(metrics.records),
        "spans_wall_s": spans_wall,
        "spans_overhead_pct": (spans_wall - wall) / wall * 100.0,
        "spans": prof.total_spans,
        "subsystems": {
            name: entry["self_wall_s"] for name, entry in table.items()
        },
        "tree_hash": prof.tree_hash(),
        "audit_ok": bool(
            prof_metrics.summary() == metrics.summary()
            and prof.total_spans > 0
        ),
    }


def _bench_parallel_runner(tiny, seed: int) -> Dict[str, float]:
    """Serial vs parallel trial executor on the same experiment cell."""
    from repro.core.spec import ScenarioSpec
    from repro.experiments.runner import run_trials

    spec = ScenarioSpec(
        video=tiny.name,
        abr="bola",
        trace="constant:20",
        repetitions=4,
        seed=seed,
    )
    t0 = time.perf_counter()
    serial = run_trials(spec, prepared=tiny, workers=1)
    serial_wall = max(time.perf_counter() - t0, 1e-9)
    t0 = time.perf_counter()
    parallel = run_trials(spec, prepared=tiny, workers=2)
    wall = max(time.perf_counter() - t0, 1e-9)
    return {
        "kind": "parallel",
        "workload": tiny.name,
        "wall_s": wall,
        "serial_wall_s": serial_wall,
        "speedup": serial_wall / wall,
        "workers": 2,
        "reps": spec.repetitions,
        "identical": serial.sessions == parallel.sessions,
    }


# ---------------------------------------------------------------------------
def run_suite(
    quick: bool = False,
    seed: int = 0,
    label: str = "local",
    prepared=None,
) -> Dict[str, object]:
    """Run the whole suite; returns the BENCH payload (JSON-ready).

    Args:
        quick: reduced repeat counts and the tiny synthetic workload —
            for CI and smoke runs.
        seed: network-trace seed for the macro sessions.
        label: stamped into the payload (and the default file name).
        prepared: optionally reuse an already-prepared video as the
            workload (tests pass their session fixture to avoid
            re-preparing).
    """
    with scoped_registry(merge=False):
        # The whole suite runs inside one scope: benchmark instrumentation
        # (sessions, connections) must not pollute the process registry.
        if prepared is not None:
            workload = prepared
            tiny = prepared
        elif quick:
            workload = tiny = _tiny_prepared()
        else:
            from repro.prep.prepare import get_prepared

            workload = get_prepared("bbb")
            tiny = _tiny_prepared()

        decode_reps, abr_reps, transport_reps = (
            (20, 200, 5) if quick or prepared is not None else (100, 1000, 20)
        )
        benchmarks: Dict[str, Dict[str, float]] = {}
        benchmarks["micro.decode_segment"] = _bench_decode_segment(
            workload, decode_reps
        )
        benchmarks["micro.abr_choose"] = _bench_abr_choose(
            workload, abr_reps
        )
        benchmarks["micro.transport_round"] = _bench_transport_round(
            transport_reps
        )
        benchmarks["macro.session.round"] = _bench_session(
            workload, "round", seed
        )
        # The per-packet backend is ~2 orders of magnitude slower; it
        # always runs on the tiny workload so the suite stays bounded.
        benchmarks["macro.session.packet"] = _bench_session(
            tiny, "packet", seed
        )
        # Multi-client contention and the parallel trial executor always
        # use the tiny workload — they each run several full sessions.
        benchmarks["macro.multiclient"] = _bench_multiclient(tiny, seed)
        # The sharded fleet executor: headline clients-per-wall-second
        # at a fixed shard count, with the fleet hash pinned into the
        # payload (cross-shard merge determinism).
        benchmarks["macro.fleet"] = _bench_fleet(tiny, seed)
        # Chaos cell: the resilience machinery under the mixed fault
        # profile, with the inline invariant auditor attached.
        benchmarks["macro.resilience"] = _bench_resilience(tiny, seed)
        # Null-tracer fast path vs streaming rollup observers: gates the
        # tracing-off cost and the fleet-observability overhead.
        benchmarks["macro.rollup"] = _bench_rollup(tiny, seed)
        # Spans-off fast path vs full span profiler: gates the
        # profiler-off cost and feeds `repro diff` its per-subsystem
        # regression attribution.
        benchmarks["macro.spans"] = _bench_spans(tiny, seed)
        benchmarks["macro.parallel_runner"] = _bench_parallel_runner(
            tiny, seed
        )

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": bool(quick),
        "seed": seed,
        "workload": workload.name,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "benchmarks": benchmarks,
    }


def write_payload(payload: Dict[str, object], path: str) -> None:
    from repro.ioutil import atomic_write_json

    atomic_write_json(path, payload)


def format_suite(payload: Dict[str, object]) -> str:
    """Human-readable one-line-per-benchmark rendering."""
    lines = [
        f"=== bench {payload['label']} "
        f"(schema v{payload['schema_version']}, "
        f"workload {payload['workload']}, "
        f"{'quick' if payload['quick'] else 'full'}) ==="
    ]
    for name, stats in sorted(payload["benchmarks"].items()):
        if stats["kind"] == "micro":
            lines.append(
                f"{name:28s} {stats['wall_s']:9.4f}s total  "
                f"{stats['per_call_s'] * 1e6:10.1f}us/call  "
                f"p90 {stats['p90_s'] * 1e6:10.1f}us "
                f"({stats['repeats']} calls)"
            )
        elif stats["kind"] == "parallel":
            lines.append(
                f"{name:28s} {stats['wall_s']:9.4f}s wall  "
                f"serial {stats['serial_wall_s']:9.4f}s  "
                f"speedup {stats['speedup']:5.2f}x  "
                f"({stats['workers']} workers, {stats['reps']} reps, "
                f"identical={stats['identical']})"
            )
        elif stats["kind"] == "fleet":
            lines.append(
                f"{name:28s} {stats['wall_s']:9.4f}s wall  "
                f"{stats['clients_per_s']:8.1f} clients/s  "
                f"({stats['clients']} clients / {stats['shards']} "
                f"shards, jain {stats['jain_index']:.3f}, "
                f"hash {stats['fleet_hash']})"
            )
        else:
            lines.append(
                f"{name:28s} {stats['wall_s']:9.4f}s wall  "
                f"{stats['sim_s_per_wall_s']:8.1f} sim-s/s  "
                f"{stats['events_per_s']:10.0f} events/s  "
                f"trace {stats['peak_trace_bytes'] / 1e3:.1f} kB"
            )
    return "\n".join(lines)
