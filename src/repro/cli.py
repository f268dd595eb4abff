"""Command-line interface.

::

    python -m repro list                      # catalogs: videos/abrs/traces
    python -m repro prepare bbb               # offline analysis summary
    python -m repro stream bbb --abr abr_star --trace verizon --buffer 2
    python -m repro stream bbb --trace-out trace.jsonl   # + session trace
    python -m repro trace trace.jsonl         # inspect a recorded trace
    python -m repro trace trace.jsonl --check # audit trace invariants
    python -m repro report trace.jsonl --out report.md   # markdown report
    python -m repro faults --rollup --out chaos.jsonl
    python -m repro report chaos.jsonl --check           # fleet report
    python -m repro profile bbb --out ledger.json --collapsed prof.folded
    python -m repro diff base.json ledger.json --threshold 25  # two ledgers
    python -m repro compare bbb --trace tmobile --buffer 1
    python -m repro fleet --clients 1000 --shards 8 --workers 4
    python -m repro fleet --workers 4 --resume ckpt/   # crash-safe resume
    python -m repro sweep --spec grid.json --workers 4 --out results.jsonl
    python -m repro sweep --abrs bola,abr_star --buffers 1,3 --dry-run
    python -m repro faults --profiles mixed --check-invariants
    python -m repro stream bbb --faults @faults.json --timeout 3
    python -m repro figure fig6 --light       # regenerate a paper figure
    python -m repro figure fig14              # the simulated user study

Every command prints human-readable text; ``--json`` switches to
machine-readable output where applicable; ``--metrics`` appends the
process metrics registry.  Per-layer CPU time comes from the sampling
profiler: ``repro profile``, or ``--profile`` on ``fleet``, ``sweep``
and ``faults``.  Unknown video/ABR/trace names exit with status 2 and
a one-line message.

Exit codes: 0 success; 1 audit/regression failure; 2 usage or input
error; 3 degraded fan-out run (tasks quarantined after their retry
budget — partial results were still emitted); 130 interrupted (the
fan-out commands print a one-line ``--resume`` hint instead of a
traceback).  Every artifact (``--out`` files, reports, traces,
checkpoints) is written atomically: temp file + rename, never a torn
file.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional


def _cmd_list(args: argparse.Namespace) -> int:
    from repro import available_videos
    from repro.abr import ABRS
    from repro.faults import FAULTS
    from repro.network.traces import TRACES
    from repro.obs import CAUSE_DESCRIPTIONS
    from repro.transport.backends import BACKENDS

    # Every component registry, with the one-line descriptions captured
    # at the registration sites — the catalog can never drift from what
    # the StackBuilder accepts.  Stall causes come from the attribution
    # engine's own catalog for the same reason.
    data = {
        "videos": available_videos(),
        "abrs": ABRS.describe(),
        "traces": TRACES.describe(),
        "backends": BACKENDS.describe(),
        "faults": FAULTS.describe(),
        "stall_causes": dict(CAUSE_DESCRIPTIONS),
    }
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print(f"videos: {', '.join(data['videos'])}")
    for kind in ("abrs", "traces", "backends", "faults", "stall_causes"):
        print(f"{kind}:")
        for name, description in data[kind].items():
            print(f"  {name:14s} {description}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    from repro import prepare_video
    from repro.prep.ranking import Ordering

    prepared = prepare_video(args.video)
    manifest = prepared.manifest
    counts: Dict[str, int] = {o.value: 0 for o in Ordering}
    for rep in manifest.representations:
        for entry in rep.segments:
            counts[entry.ordering.value] += 1
    summary = {
        "video": prepared.name,
        "levels": manifest.num_levels,
        "segments": manifest.num_segments,
        "manifest_bytes": manifest.metadata_bytes(),
        "ordering_choices": counts,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"Prepared {prepared.name}: {manifest.num_levels} levels x "
          f"{manifest.num_segments} segments")
    print(f"Serialized manifest: {summary['manifest_bytes'] / 1e6:.2f} MB")
    print("Chosen orderings per (segment, level):")
    for ordering, count in counts.items():
        print(f"  {ordering:20s} {count}")
    entry = manifest.entry(manifest.num_levels - 1, 0)
    print("Top-quality segment 0 virtual levels (score:frames:bytes):")
    for point in entry.quality_points:
        print(f"  {point.serialize()}")
    return 0


def _read_json_arg(raw: str):
    """Parse a ``JSON|@FILE`` flag: inline JSON, or ``@path`` to a file.

    Raises ``OSError`` or ``ValueError``; each caller reports its own
    one-line error.
    """
    text = raw
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text)


def _trace_recorder(args: argparse.Namespace, auditor_type):
    """The (tracer, auditor) pair of ``--trace-out``/``--check-invariants``.

    Both are None without either flag; the auditor is None without
    ``--check-invariants``.
    """
    if not (args.trace_out or args.check_invariants):
        return None, None
    from repro.obs import Tracer

    tracer = Tracer()
    auditor = None
    if args.check_invariants:
        # Inline audit: the auditor observes every event as it is
        # emitted, so even events later evicted from the ring buffer
        # are checked.
        auditor = auditor_type()
        tracer.add_observer(auditor.feed)
    return tracer, auditor


def _finish_trace(args: argparse.Namespace, tracer, auditor) -> int:
    """Write ``--trace-out`` and print the audit report to stderr.

    Returns the exit status so far: 2 when the trace cannot be written,
    1 when the audit failed, else 0.
    """
    if args.trace_out:
        from repro.ioutil import atomic_output

        # Atomic: a previously recorded trace at this path survives
        # until the new one is complete.
        try:
            with atomic_output(args.trace_out) as trace_sink:
                written = tracer.write_jsonl(trace_sink)
        except OSError as exc:
            print(f"error: cannot write trace {args.trace_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {written} events to {args.trace_out}",
              file=sys.stderr)
    if auditor is None:
        return 0
    from repro.obs import format_report

    report = auditor.finalize()
    print(format_report(report), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro import prepare_video, stream
    from repro.obs import TraceAuditor

    _scenario_spec(args)  # every name checked before the prep
    tracer, auditor = _trace_recorder(args, TraceAuditor)
    fields = _scenario_fields(args)
    prepared = prepare_video(fields.pop("video"))
    try:  # a value only a built fault plan or trace checks
        result = stream(prepared, tracer=tracer, **fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = _finish_trace(args, tracer, auditor)
    if status == 2:
        return status
    summary = result.summary()
    if args.json:
        if getattr(args, "metrics", False):
            from repro.obs import get_registry

            summary = dict(summary, metrics=get_registry().dump())
        print(json.dumps(summary, indent=2))
        return status
    metrics = result.metrics
    print(f"{args.video} / {args.abr} / {args.trace} / "
          f"{args.buffer}-segment buffer "
          f"({'QUIC' if args.plain_quic else 'QUIC*'})")
    print(f"  bufRatio       {metrics.buf_ratio * 100:7.2f} %")
    print(f"  startup delay  {metrics.startup_delay:7.2f} s")
    print(f"  mean SSIM      {metrics.mean_ssim:7.3f}")
    print(f"  avg bitrate    {metrics.avg_bitrate_kbps:7.0f} kbps")
    print(f"  data skipped   {metrics.data_skipped_fraction * 100:7.2f} %")
    print(f"  residual loss  {metrics.residual_loss_fraction * 100:7.2f} %")
    print(f"  switches       {metrics.quality_switches:7d}")
    if "retries" in summary:
        # Resilience block: present only when the run had a fault plan
        # or a request deadline (keeps fault-free output unchanged).
        print(f"  faults         {int(summary['faults_injected']):7d}")
        print(f"  timeouts       {int(summary['request_timeouts']):7d}")
        print(f"  conn resets    {int(summary['connection_resets']):7d}")
        print(f"  retries        {int(summary['retries']):7d}")
        print(f"  degraded segs  {int(summary['degraded_segments']):7d}")
        print(f"  backoff        {summary['backoff_s']:7.2f} s")
    _maybe_print_metrics(args)
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import SchemaError, iter_trace_events
    from repro.obs import inspect as trace_inspect

    # Every mode below streams the file through one pass — O(1) memory
    # in trace length (only --type --json buffers, and only the printed
    # subset).  Malformed lines surface as SchemaError mid-stream with
    # their line number.
    try:
        if args.check:
            from repro.obs import audit_stream, format_report

            report = audit_stream(iter_trace_events(args.file))
            if args.json:
                print(json.dumps({
                    "events": report.events,
                    "ok": report.ok,
                    "violations": [
                        {
                            "invariant": v.invariant,
                            "index": v.index,
                            "seq": v.seq,
                            "t": v.t,
                            "message": v.message,
                        }
                        for v in report.violations
                    ],
                }, indent=2))
            else:
                print(format_report(report))
            return 0 if report.ok else 1
        if args.type is not None:
            matched = 0
            buffered = []
            for event in iter_trace_events(args.file):
                if event.type != args.type:
                    continue
                matched += 1
                if args.limit > 0 and matched > args.limit:
                    continue
                if args.json:
                    buffered.append(json.loads(event.to_json()))
                else:
                    print(event.to_json())
            if args.json:
                print(json.dumps(buffered, indent=2))
            elif args.limit > 0 and matched > args.limit:
                print(f"... {matched - args.limit} more", file=sys.stderr)
            return 0
        summary_builder = trace_inspect.SummaryBuilder()
        timeline_builder = (
            trace_inspect.TimelineBuilder() if args.timeline else None
        )
        for event in iter_trace_events(args.file):
            summary_builder.feed(event)
            if timeline_builder is not None:
                timeline_builder.feed(event)
        summary = summary_builder.result()
    except (OSError, SchemaError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    if timeline_builder is not None:
        rows = timeline_builder.rows()
        if args.json:
            print(json.dumps({"summary": summary, "timeline": rows},
                             indent=2))
            return 0
        print(trace_inspect.format_summary(summary))
        print(trace_inspect.format_timeline(rows))
        return 0
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(trace_inspect.format_summary(summary))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import SchemaError, build_report, render_markdown
    from repro.obs.report import report_to_json

    try:
        report = build_report(
            args.file,
            sample_rate=args.sample,
            sample_seed=args.sample_seed,
        )
    except (OSError, SchemaError) as exc:
        print(f"error: cannot read report input {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    from repro.ioutil import atomic_write_text

    markdown = render_markdown(report)
    if args.out:
        try:
            atomic_write_text(args.out, markdown)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json_out:
        try:
            atomic_write_text(args.json_out, report_to_json(report) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.json:
        print(report_to_json(report))
    elif not args.out:
        print(markdown, end="")
    if args.check and not report["audit"]["ok"]:
        return 1
    return 0


class _UsageError(ValueError):
    """A bad flag value: ``main`` reports it in one line and exits 2."""


def _fault_spec_arg(raw: str) -> Dict:
    """``--faults JSON|@FILE`` as a fault spec whose kinds all exist."""
    from repro.faults import FaultSpec, validate_fault_spec

    try:
        faults = _read_json_arg(raw)
        validate_fault_spec(FaultSpec.from_dict(faults))
    except (OSError, ValueError) as exc:
        raise _UsageError(
            f"cannot read fault spec {raw!r}: {exc}"
        ) from None
    return faults


class _Flag(NamedTuple):
    """One scenario flag: the ScenarioSpec field it sets, and how."""

    field: str
    type: Callable  # ``bool`` declares a store_true switch
    help: str
    metavar: Optional[str] = None
    #: Parsed value -> field value (None: the value as parsed).
    to_field: Optional[Callable] = None


#: Every scenario flag, declared once, by its ``args`` name.  A command
#: picks its flags and their defaults with :func:`_add_scenario_flags`
#: and reads them back as spec fields with :func:`_scenario_fields`.
#: The registries, not argparse, check names (videos, ABRs, traces,
#: backends), so whatever is registered works with every command.
_SCENARIO_FLAGS: Dict[str, _Flag] = {
    "video": _Flag("video", str, "catalog video (see `repro list`)"),
    "abr": _Flag("abr", str, "ABR algorithm (see `repro list`)"),
    "trace": _Flag("trace", str, "network trace (see `repro list`)"),
    "buffer": _Flag("buffer_segments", int, "playback buffer in segments"),
    "plain_quic": _Flag(
        "reliability", bool,
        "disable partial reliability (reliability mode quic)",
        to_field=lambda plain: "quic" if plain else "quic*",
    ),
    "seed": _Flag("seed", int, "trace seed"),
    "shift": _Flag("trace_shift_s", float, "trace shift in seconds", "S"),
    "bandwidth_safety": _Flag(
        "abr_kwargs", float, "the ABR's bandwidth safety factor",
        to_field=lambda safety: {"bandwidth_safety": safety},
    ),
    "backend": _Flag("backend", str, "transport backend (see `repro list`)"),
    "queue": _Flag("queue_packets", int, "droptail queue in packets"),
    "reps": _Flag("repetitions", int, "repetitions, each on a shifted trace"),
    "faults": _Flag(
        "faults", str,
        "fault spec: inline JSON or @path to a JSON file "
        '(e.g. \'{"events": [{"kind": "blackout", "at": 5, '
        '"duration": 3}]}\')',
        "JSON|@FILE", _fault_spec_arg,
    ),
    "timeout": _Flag(
        "request_timeout_s", float,
        "per-request deadline in seconds (enables the "
        "retry/degradation path)", "S",
    ),
    "retry_budget": _Flag(
        "retry_budget", int, "retries per segment before degrading"
    ),
    "retry_backoff": _Flag(
        "retry_backoff_s", float, "exponential backoff base in seconds",
        "S",
    ),
}


def _add_scenario_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the named scenario flags, each with this command's default.

    A default of None leaves the field to the spec or the chaos base.
    """
    for name, default in defaults.items():
        flag = _SCENARIO_FLAGS[name]
        option = "--" + name.replace("_", "-")
        if flag.type is bool:
            parser.add_argument(option, action="store_true", help=flag.help)
        else:
            parser.add_argument(
                option, type=flag.type, default=default,
                metavar=flag.metavar, help=flag.help,
            )


def _scenario_fields(args: argparse.Namespace) -> Dict:
    """The ScenarioSpec fields the command's scenario flags set.

    Reads every table name the command has (the positional ``video``
    included) and skips values left at None.
    """
    fields: Dict = {}
    for name, flag in _SCENARIO_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None:
            fields[flag.field] = (
                value if flag.to_field is None else flag.to_field(value)
            )
    return fields


def _scenario_spec(args: argparse.Namespace):
    """The command's ScenarioSpec, its names checked before any prep.

    A value the spec rejects is a usage error; so is an unknown backend
    or fault kind, and an unknown video, ABR or trace raises ``KeyError``
    (both exit 2 in one line).
    """
    from repro.core.build import StackBuilder
    from repro.core.spec import ScenarioSpec

    try:
        spec = ScenarioSpec(**_scenario_fields(args))
        StackBuilder(spec).validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return spec


def _comma_list(flag: str, raw: str, cast=str) -> List:
    """Parse a comma-separated flag value, casting each item."""
    try:
        return [cast(value) for value in raw.split(",") if value]
    except ValueError:
        raise _UsageError(
            f"{flag} expects comma-separated {cast.__name__} values, "
            f"got {raw!r}"
        ) from None


def _rows_out(args: argparse.Namespace, rows: List[Dict]) -> str:
    """Result rows as canonical JSONL, also written to ``--out`` when
    given (atomically; an unwritable path is a usage error)."""
    from repro.experiments.sweep import rows_to_jsonl

    jsonl = rows_to_jsonl(rows)
    if args.out:
        from repro.ioutil import atomic_write_text

        try:
            atomic_write_text(args.out, jsonl)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out!r}: {exc}") from None
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return jsonl


def _exec_policy(args: argparse.Namespace):
    """Supervision policy from ``--task-timeout``/``--task-retries``.

    Returns None when neither flag was given, keeping the default
    policy (and the serial in-process fast path at ``--workers 1``).
    """
    if args.task_timeout is None and args.task_retries is None:
        return None
    from repro.experiments.execution import DEFAULT_POLICY, ExecutionPolicy

    return ExecutionPolicy(
        task_timeout_s=args.task_timeout,
        max_attempts=(
            args.task_retries if args.task_retries is not None
            else DEFAULT_POLICY.max_attempts
        ),
    )


def _degraded_cells_exit(rows: List[Dict]) -> int:
    """Exit code for a sweep/chaos row list: 3 when any cell degraded."""
    degraded = [row for row in rows if "degraded" in row]
    if not degraded:
        return 0
    from repro.experiments.execution import EXIT_DEGRADED

    names = ", ".join(row["label"] for row in degraded)
    print(
        f"degraded run: {len(degraded)}/{len(rows)} cell(s) missing "
        f"({names}); remaining rows are valid",
        file=sys.stderr,
    )
    return EXIT_DEGRADED


def _profiled(args: argparse.Namespace):
    """``spans.profiled()`` under ``--profile``, else a block yielding None."""
    from contextlib import nullcontext

    from repro.obs import spans

    return spans.profiled() if args.profile else nullcontext()


def _maybe_print_metrics(args: argparse.Namespace) -> None:
    """Print the registry dump when ``--metrics`` was requested."""
    if not getattr(args, "metrics", False):
        return
    from repro.obs import get_registry

    print(get_registry().render())


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro import prepare_video
    from repro.experiments.runner import compare

    base = _scenario_spec(args)
    prepared = prepare_video(args.video)
    variants = {
        "BOLA/QUIC": {"abr": "bola", "reliability": "quic"},
        "BETA/QUIC": {"abr": "beta", "reliability": "quic"},
        "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
    }
    try:
        summaries = compare(
            base, variants, prepared=prepared, workers=args.workers
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for label, summary in summaries.items():
        rows.append({
            "system": label,
            "buf_ratio_p90_pct": summary.buf_ratio_p90 * 100,
            "mean_ssim": summary.mean_ssim,
            "bitrate_kbps": summary.mean_bitrate_kbps,
        })
    if args.json:
        if args.metrics:
            from repro.obs import get_registry

            print(json.dumps(
                {"rows": rows, "metrics": get_registry().dump()}, indent=2
            ))
        else:
            print(json.dumps(rows, indent=2))
        return 0
    print(f"{args.video} over {args.trace}, {args.buffer}-segment buffer, "
          f"{args.reps} trials")
    print(f"{'system':>12s} {'p90 bufRatio%':>14s} {'mean SSIM':>10s} "
          f"{'kbps':>8s}")
    for row in rows:
        print(
            f"{row['system']:>12s} {row['buf_ratio_p90_pct']:14.2f} "
            f"{row['mean_ssim']:10.3f} {row['bitrate_kbps']:8.0f}"
        )
    _maybe_print_metrics(args)
    return 0


def _cmd_multiclient(args: argparse.Namespace) -> int:
    from repro.experiments.multiclient import DEFAULT_SPECS, run_multiclient
    from repro.obs import MultiSessionAuditor

    tracer, auditor = _trace_recorder(args, MultiSessionAuditor)
    rollup = fleet = None
    observers = None
    if args.rollup:
        from repro.obs import FleetAttributor, TraceRollup

        rollup = TraceRollup(
            sample_rate=args.sample, sample_seed=args.sample_seed
        )
        fleet = FleetAttributor()
        observers = [rollup.feed, fleet.feed]

    fields = _scenario_fields(args)
    try:
        # Mixed fleet: cycle the default ABR x transport-flavour mix so
        # any --clients count exercises contention between heterogeneous
        # sessions.
        specs = [
            DEFAULT_SPECS[i % len(DEFAULT_SPECS)].with_(**fields)
            for i in range(args.clients)
        ]
        result = run_multiclient(specs, tracer=tracer, observers=observers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = _finish_trace(args, tracer, auditor)
    if status == 2:
        return status

    rows = result.rows()
    if args.json:
        payload = {"jain_index": result.jain_index, "clients": rows}
        if rollup is not None:
            payload["rollup"] = rollup.summary()
            payload["attribution"] = fleet.combined().to_dict()
        if getattr(args, "metrics", False):
            from repro.obs import get_registry

            payload["metrics"] = get_registry().dump()
        print(json.dumps(payload, indent=2))
        return status
    print(f"{args.clients} clients on {args.trace} "
          f"({args.backend} backend, shared bottleneck)")
    print(f"{'client':>22s} {'SSIM':>7s} {'kbps':>7s} {'bufRatio%':>10s} "
          f"{'stall s':>8s} {'Mbps':>6s}")
    for row in rows:
        print(
            f"{row['session_id']:>22s} {row['mean_ssim']:7.3f} "
            f"{row['bitrate_kbps']:7.0f} {row['buf_ratio'] * 100:10.2f} "
            f"{row['total_stall_s']:8.2f} {row['throughput_mbps']:6.2f}"
        )
    print(f"Jain's fairness index: {result.jain_index:.4f}")
    if rollup is not None:
        from repro.obs import format_attribution, format_rollup

        print(format_rollup(rollup.summary()))
        print(format_attribution(fleet.combined()))
    _maybe_print_metrics(args)
    return status


def _cmd_fleet(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from time import perf_counter

    from repro.experiments.fleet import (
        DEFAULT_GROUPS,
        FleetSpec,
        format_fleet_report,
        prewarm_catalog,
        run_fleet,
    )

    try:
        if args.spec:
            spec = FleetSpec.from_dict(_read_json_arg(args.spec))
        else:
            # The video and buffer go to every group's clients; the
            # other flags (trace, seed, backend, queue) are FleetSpec
            # fields of the same names.
            fields = _scenario_fields(args)
            client = {
                name: fields.pop(name)
                for name in ("video", "buffer_segments")
            }
            spec = FleetSpec(
                clients=args.clients,
                shards=args.shards,
                groups=tuple(
                    replace(group, **client) for group in DEFAULT_GROUPS
                ),
                sample_rate=args.sample,
                sample_seed=args.sample_seed,
                **fields,
            )
        # Checked and prepared outside the clock and the profiler: the
        # wall time and a --profile ledger cover the simulation, as
        # `repro profile`'s do.
        prewarm_catalog(spec)
    except (OSError, ValueError) as exc:
        print(f"error: invalid fleet spec: {exc}", file=sys.stderr)
        return 2
    start = perf_counter()
    with _profiled(args) as profiler:
        try:
            result = run_fleet(
                spec, workers=args.workers,
                policy=_exec_policy(args),
                checkpoint_dir=args.resume,
                strict=False,
            )
        except ValueError as exc:
            # Bad worker count or a checkpoint dir from a different run.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    wall_s = perf_counter() - start
    resumed = f", {result.resumed} shard(s) from checkpoint" \
        if result.resumed else ""
    print(
        f"{result.clients} clients / {spec.shards} shards in "
        f"{wall_s:.1f}s ({result.clients / wall_s:.2f} clients/s, "
        f"workers={args.workers}{resumed})",
        file=sys.stderr,
    )

    report = result.report()
    report["fleet_hash"] = result.fleet_hash()
    if args.out:
        from repro.ioutil import atomic_write_json

        try:
            atomic_write_json(args.out, report)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote fleet report to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_fleet_report(result))
    if profiler is not None:
        from repro.obs.ledger import build_ledger, format_ledger

        ledger = build_ledger(
            profiler, wall_s, label=f"fleet-{spec.spec_hash()}",
            spec=spec.to_dict(), spec_hash=spec.spec_hash(),
        )
        print(format_ledger(ledger))
    _maybe_print_metrics(args)
    if result.degraded is not None:
        from repro.experiments.execution import EXIT_DEGRADED

        block = result.degraded
        print(
            f"degraded run: {block['completed']}/{block['total']} "
            f"shards completed (partial statistics above)",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


# Figure registry: name -> (callable path, light kwargs).
_FIGURES = {
    "tab1": ("table1_videos", {}),
    "tab2": ("table2_ladder", {}),
    "tab3": ("table3_youtube", {}),
    "fig1": ("fig1_drop_tolerance", {"segment_stride": 3}),
    "fig1d": ("fig1d_low_quality_ssim", {}),
    "fig2a": ("fig2a_droppable_positions", {"segment_stride": 5}),
    "fig2b": ("fig2b_ordering_comparison", {"segment_stride": 3}),
    "fig2cd": ("fig2cd_virtual_levels", {}),
    "fig3": ("fig3_fig4_vanilla_quicstar",
             {"videos": ("bbb",), "repetitions": 3}),
    "fig5": ("fig5_cross_traffic_vanilla",
             {"videos": ("bbb",), "repetitions": 2}),
    "fig6": ("fig6_bufratio",
             {"videos": ("bbb", "tos"), "buffers": (1, 7),
              "repetitions": 3}),
    "fig7": ("fig7_metric_agnostic", {"repetitions": 3}),
    "fig7d": ("fig7d_data_skipped", {"repetitions": 2}),
    "fig8": ("fig8_bitrates",
             {"videos": ("bbb",), "repetitions": 3}),
    "fig9": ("fig9_ssim_cdfs", {"repetitions": 3}),
    "fig10": ("fig10_components", {"trace_count": 30}),
    "fig11": ("fig11_synthetic", {"repetitions": 3}),
    "fig12": ("fig12_cross_traffic",
              {"videos": ("bbb",), "repetitions": 2}),
    "fig13": ("fig11d_fig13_wild",
              {"videos": ("bbb", "tos"), "repetitions": 3}),
    "fig14": ("fig14_mos", {"clips": 4}),
    "fig15": ("fig15_vbr_variation", {}),
    "fig16": ("fig16_long_queue",
              {"videos": ("bbb",), "repetitions": 2}),
    "fig18cd": ("fig18cd_reliability_ablation",
                {"videos": ("bbb",), "repetitions": 3}),
    "fig19": ("fig19_youtube_tolerance", {"segment_stride": 3}),
    "retx": ("selective_retransmission_residual", {"repetitions": 4}),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures as figures_module
    from repro.experiments.report import render

    key = args.name.lower()
    if key not in _FIGURES:
        raise KeyError(
            f"unknown figure {args.name!r}; known: "
            f"{', '.join(sorted(_FIGURES))}"
        )
    func_name, light_kwargs = _FIGURES[key]
    func = getattr(figures_module, func_name)
    kwargs = dict(light_kwargs) if args.light else {}
    result = func(**kwargs)
    if args.json:
        if args.metrics:
            from repro.obs import get_registry

            result = {"result": result, "metrics": get_registry().dump()}
        # Figures return plain data; numpy arrays and scalars as lists
        # and numbers.
        print(json.dumps(result, indent=2, default=lambda v: v.tolist()))
        return 0
    print(render(key, result))
    _maybe_print_metrics(args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.spec import ScenarioSpec
    from repro.obs.ledger import (
        build_ledger,
        collapsed_stacks,
        format_ledger,
        profile_trials,
        write_ledger,
    )

    if args.spec:
        try:
            spec = ScenarioSpec.from_dict(_read_json_arg(args.spec))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read scenario spec {args.spec!r}: {exc}",
                  file=sys.stderr)
            return 2
    elif not args.video:
        print("error: provide a VIDEO or --spec JSON|@FILE",
              file=sys.stderr)
        return 2
    else:
        spec = _scenario_spec(args)

    try:
        profiler, _summary, wall_s = profile_trials(
            spec, workers=args.workers
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ledger = build_ledger(
        profiler, wall_s, label=spec.label(), spec=spec.to_dict(),
        spec_hash=spec.spec_hash(), top=args.top,
    )
    for path, content, what in (
        (args.out, None, "ledger"),
        (args.collapsed, collapsed_stacks(ledger), "collapsed stacks"),
    ):
        if not path:
            continue
        try:
            if content is None:
                write_ledger(path, ledger)
            else:
                from repro.ioutil import atomic_write_text

                atomic_write_text(path, content)
        except OSError as exc:
            print(f"error: cannot write {path!r}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {what} to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(ledger, indent=2, sort_keys=True))
    else:
        print(format_ledger(ledger, top=args.top))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_files, format_diff

    try:
        result = diff_files(
            args.baseline, args.current, threshold_pct=args.threshold
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_diff(result))
    return 1 if result["failed"] else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import (
        SweepSpec,
        dry_run_rows,
        parse_rows_jsonl,
        run_sweep,
        validate_rows,
    )

    if args.validate:
        try:
            with open(args.validate, encoding="utf-8") as handle:
                rows = parse_rows_jsonl(handle)
        except OSError as exc:
            print(f"error: cannot read sweep output {args.validate!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
        try:
            count = validate_rows(rows)
        except ValueError as exc:
            print(f"error: invalid sweep output {args.validate!r}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{args.validate}: {count} rows ok")
        return 0

    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read sweep spec {args.spec!r}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            sweep = SweepSpec.from_json(text)
        except ValueError as exc:
            print(f"error: invalid sweep spec {args.spec!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        grid: Dict[str, List] = {}
        for field, flag, raw, cast in (
            ("video", "--videos", args.videos, str),
            ("abr", "--abrs", args.abrs, str),
            ("trace", "--traces", args.traces, str),
            ("buffer_segments", "--buffers", args.buffers, int),
            ("reliability", "--reliability", args.reliability, str),
            ("backend", "--backends", args.backends, str),
            ("seed", "--seeds", args.seeds, int),
        ):
            if raw:
                grid[field] = _comma_list(flag, raw, cast)
        if not grid:
            print("error: provide --spec FILE or at least one grid flag "
                  "(--videos/--abrs/--traces/--buffers/--reliability/"
                  "--backends/--seeds)", file=sys.stderr)
            return 2
        sweep = SweepSpec(base=_scenario_fields(args), grid=grid)

    try:
        if args.dry_run:
            rows = dry_run_rows(sweep)
        else:
            with _profiled(args):
                rows = run_sweep(
                    sweep, workers=args.workers, rollup=args.rollup,
                    sample_rate=args.sample, sample_seed=args.sample_seed,
                    policy=_exec_policy(args),
                    checkpoint_dir=args.resume,
                    strict=False,
                )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jsonl = _rows_out(args, rows)
    if args.json or not args.out:
        if args.dry_run and not args.json:
            print(f"{len(rows)} scenarios:")
            for row in rows:
                print(f"  {row['spec_hash']}  {row['label']}")
        else:
            print(jsonl, end="")
    return _degraded_cells_exit(rows) if not args.dry_run else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import (
        CHAOS_PROFILES,
        format_chaos_report,
        run_chaos,
    )

    if args.list_profiles:
        if args.json:
            print(json.dumps(CHAOS_PROFILES, indent=2, sort_keys=True))
            return 0
        for name in sorted(CHAOS_PROFILES):
            kinds = ", ".join(
                e["kind"] for e in CHAOS_PROFILES[name]["events"]
            )
            print(f"  {name:12s} {kinds}")
        return 0

    profiles = None
    if args.profiles:
        profiles = _comma_list("--profiles", args.profiles)
    seeds = _comma_list("--seeds", args.seeds, int)
    try:
        with _profiled(args):
            rows = run_chaos(
                profiles=profiles, seeds=seeds,
                base=_scenario_fields(args),
                workers=args.workers, rollup=args.rollup,
                sample_rate=args.sample, sample_seed=args.sample_seed,
                policy=_exec_policy(args),
                checkpoint_dir=args.resume,
                strict=False,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    jsonl = _rows_out(args, rows)
    if args.json:
        print(jsonl, end="")
    else:
        print(format_chaos_report(rows))
    _maybe_print_metrics(args)
    if args.check_invariants and any(
        not row.get("audit", {"ok": True})["ok"] for row in rows
    ):
        return 1
    return _degraded_cells_exit(rows)


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Supervised-pool flags shared by the fan-out commands.

    ``--workers`` must be a positive integer (exit 2 otherwise) and is
    capped at the task count — extra workers would only idle.
    """
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes across tasks (shards or cells); the "
        "output is byte-identical to --workers 1",
    )
    parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="checkpoint spool directory: completed tasks are written "
        "here atomically as they finish, and a re-run with the same "
        "directory skips them (the resumed output is byte-identical "
        "to an uninterrupted run)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-task wall-clock deadline; a hung worker is killed "
        "and the task retried (default: no deadline)",
    )
    parser.add_argument(
        "--task-retries", type=int, default=None, metavar="N",
        help="attempts per task before it is quarantined and the run "
        "degrades (default 3; exit 3 on a degraded run)",
    )


def _add_rollup_flags(parser: argparse.ArgumentParser) -> None:
    """Streaming-rollup flags shared by multiclient/sweep/faults."""
    parser.add_argument(
        "--rollup", action="store_true",
        help="attach a streaming fleet rollup + causal stall attributor "
        "(memory-bounded; no per-event history)",
    )
    parser.add_argument(
        "--sample", type=float, default=1.0, metavar="RATE",
        help="per-session head-sampling rate for the rollup "
        "(default 1.0 = every session; deterministic per session id)",
    )
    parser.add_argument(
        "--sample-seed", type=int, default=0,
        help="seed of the session-sampling hash (default 0)",
    )


def _add_observability_flags(
    parser: argparse.ArgumentParser,
    metrics: bool = True,
    profile: bool = False,
) -> None:
    """``--metrics`` and ``--profile``, shared by the commands that run
    sessions (``sweep`` takes ``--profile`` only)."""
    if metrics:
        parser.add_argument(
            "--metrics", action="store_true",
            help="print the metrics registry after the run",
        )
    if profile:
        parser.add_argument(
            "--profile", action="store_true",
            help="profile the run: a perf ledger of sampled CPU time "
            "per subsystem and the player's simulated-time spans, "
            "printed by fleet and added to every row as 'ledger' by "
            "sweep and faults (results are unchanged)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VOXEL reproduction: prepare, stream, and regenerate "
        "the paper's experiments.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output where supported")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list videos, ABR algorithms and traces")

    p_prepare = sub.add_parser("prepare", help="run the offline analysis")
    p_prepare.add_argument("video")

    p_stream = sub.add_parser("stream", help="stream one session")
    p_stream.add_argument("video")
    _add_scenario_flags(
        p_stream, abr="abr_star", trace="verizon", buffer=2,
        plain_quic=False, seed=0, shift=0.0, bandwidth_safety=None,
        faults=None, timeout=None, retry_budget=None, retry_backoff=None,
    )
    p_stream.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a structured session trace to this JSONL file",
    )
    _add_observability_flags(p_stream)
    p_stream.add_argument(
        "--check-invariants", action="store_true",
        help="audit trace invariants inline during the session; "
        "exit 1 on any violation",
    )

    p_trace = sub.add_parser(
        "trace", help="inspect a JSONL session trace"
    )
    p_trace.add_argument("file", help="trace file written by --trace-out")
    p_trace.add_argument("--type", default=None,
                         help="print raw events of this type only")
    p_trace.add_argument("--timeline", action="store_true",
                         help="reconstruct the per-segment timeline")
    p_trace.add_argument("--limit", type=int, default=0,
                         help="cap the number of events printed by --type")
    p_trace.add_argument(
        "--check", action="store_true",
        help="audit the trace against the invariant catalog; "
        "exit 1 on any violation",
    )

    p_report = sub.add_parser(
        "report",
        help="render a trace file or sweep/chaos JSONL as a "
        "deterministic markdown + JSON report",
    )
    p_report.add_argument(
        "file",
        help="input: a --trace-out JSONL trace, or sweep/faults --out rows",
    )
    p_report.add_argument("--out", default=None, metavar="MD",
                          help="write the markdown report to this file")
    p_report.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the JSON report object to this file",
    )
    p_report.add_argument(
        "--check", action="store_true",
        help="exit 1 when the report's invariant audit (attribution "
        "partition included) fails",
    )
    p_report.add_argument(
        "--sample", type=float, default=1.0, metavar="RATE",
        help="per-session head-sampling rate for trace inputs "
        "(default 1.0 = every session)",
    )
    p_report.add_argument(
        "--sample-seed", type=int, default=0,
        help="seed of the session-sampling hash (default 0)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="run a scenario under the profiler and emit a perf ledger "
        "(sampled CPU per subsystem, hotspots, collapsed stacks)",
    )
    p_profile.add_argument("video", nargs="?", default=None)
    p_profile.add_argument(
        "--spec", default=None, metavar="JSON|@FILE",
        help="full ScenarioSpec as inline JSON or @path (overrides the "
        "positional/flag form)",
    )
    _add_scenario_flags(
        p_profile, abr="abr_star", trace="verizon", buffer=2, backend=None,
        seed=0, reps=1,
    )
    p_profile.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the repetitions (the ledger's "
        "deterministic span tree is worker-count invariant)",
    )
    p_profile.add_argument("--top", type=int, default=12,
                           help="hotspots to keep in the ledger")
    p_profile.add_argument("--out", default=None, metavar="PATH",
                           help="write the perf ledger JSON to this file")
    p_profile.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="write collapsed stacks (speedscope/flamegraph.pl format) "
        "to this file",
    )

    p_diff = sub.add_parser(
        "diff",
        help="compare two perf ledgers and attribute the wall-time "
        "delta to subsystems",
    )
    p_diff.add_argument("baseline", help="baseline perf ledger")
    p_diff.add_argument("current", help="current perf ledger")
    p_diff.add_argument(
        "--threshold", type=float, default=10.0,
        help="regression threshold in percent (default 10); exit 1 "
        "when exceeded",
    )

    p_compare = sub.add_parser(
        "compare", help="BOLA vs BETA vs VOXEL on one scenario"
    )
    p_compare.add_argument("video")
    _add_scenario_flags(p_compare, trace="verizon", buffer=1, reps=5, seed=0)
    p_compare.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the repetitions (results are "
        "byte-identical to --workers 1)",
    )
    _add_observability_flags(p_compare)

    p_mc = sub.add_parser(
        "multiclient",
        help="N concurrent ABR sessions contending on one bottleneck",
    )
    p_mc.add_argument("video", nargs="?", default="bbb")
    p_mc.add_argument("--clients", type=int, default=4,
                      help="number of concurrent sessions")
    _add_scenario_flags(
        p_mc, trace="verizon", buffer=3, seed=0, queue=32, backend="round"
    )
    p_mc.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the interleaved multi-session trace to this "
        "JSONL file",
    )
    p_mc.add_argument(
        "--check-invariants", action="store_true",
        help="audit the interleaved trace inline (per-session laws + "
        "shared-link conservation); exit 1 on any violation",
    )
    _add_observability_flags(p_mc)
    _add_rollup_flags(p_mc)

    p_fleet = sub.add_parser(
        "fleet",
        help="fleet-scale sharded simulation: 1k+ clients across cells "
        "(shard i draws the trace at seed+i), deterministic cross-shard "
        "merge",
    )
    p_fleet.add_argument("video", nargs="?", default="bbb",
                         help="video every population group streams")
    p_fleet.add_argument("--clients", type=int, default=1000,
                         help="fleet population size")
    p_fleet.add_argument("--shards", type=int, default=8,
                         help="cells; each gets its own kernel, "
                         "bottleneck, and trace weather")
    _add_scenario_flags(
        p_fleet, trace="verizon", buffer=3, seed=0, queue=32,
        backend="round",
    )
    p_fleet.add_argument(
        "--spec", default=None, metavar="JSON|@FILE",
        help="full FleetSpec JSON (weighted groups, faults, ...); "
        "overrides the population flags",
    )
    p_fleet.add_argument(
        "--sample", type=float, default=1.0, metavar="RATE",
        help="per-session head-sampling rate for the rollup "
        "(default 1.0; deterministic per session id)",
    )
    p_fleet.add_argument("--sample-seed", type=int, default=0,
                         help="seed of the session-sampling hash")
    p_fleet.add_argument("--out", default=None, metavar="PATH",
                         help="write the fleet report JSON to this file")
    _add_observability_flags(p_fleet, profile=True)
    _add_resilience_flags(p_fleet)

    p_figure = sub.add_parser(
        "figure", help="regenerate a paper table/figure"
    )
    p_figure.add_argument("name", help=f"one of: {', '.join(sorted(_FIGURES))}")
    p_figure.add_argument(
        "--light", action="store_true",
        help="reduced workload (fewer videos/repetitions)",
    )
    _add_observability_flags(p_figure)

    p_sweep = sub.add_parser(
        "sweep",
        help="expand a scenario grid and run every cell "
        "(JSONL rows keyed by spec hash)",
    )
    p_sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON sweep file with base/grid/scenarios "
        "(mutually exclusive with the grid flags)",
    )
    p_sweep.add_argument("--videos", default=None,
                         help="comma-separated video grid axis")
    p_sweep.add_argument("--abrs", default=None,
                         help="comma-separated ABR grid axis")
    p_sweep.add_argument("--traces", default=None,
                         help="comma-separated trace grid axis")
    p_sweep.add_argument("--buffers", default=None,
                         help="comma-separated buffer sizes (segments)")
    p_sweep.add_argument(
        "--reliability", default=None,
        help="comma-separated reliability modes (quic*, quic, "
        "quic*-rel, quic-rel)",
    )
    p_sweep.add_argument("--backends", default=None,
                         help="comma-separated transport backends")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated trace seeds")
    _add_scenario_flags(p_sweep, reps=3)
    p_sweep.add_argument("--out", default=None, metavar="PATH",
                         help="write JSONL rows to this file")
    p_sweep.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="expand and validate the grid without simulating",
    )
    p_sweep.add_argument(
        "--validate", default=None, metavar="PATH",
        help="validate an existing sweep JSONL against the row schema "
        "(spec hash round-trip included); exit 1 on violation",
    )
    _add_observability_flags(p_sweep, metrics=False, profile=True)
    _add_rollup_flags(p_sweep)
    _add_resilience_flags(p_sweep)

    p_faults = sub.add_parser(
        "faults",
        help="chaos sweep: named fault profiles x seeds, every cell "
        "audited against the invariant catalog",
    )
    p_faults.add_argument(
        "--profiles", default=None,
        help="comma-separated chaos profiles (default: all); "
        "see --list-profiles",
    )
    p_faults.add_argument("--seeds", default="0,1,2",
                          help="comma-separated scenario seeds")
    # Unset flags keep the chaos base (chaos.DEFAULT_BASE).
    _add_scenario_flags(
        p_faults, video=None, trace=None, backend=None, timeout=None,
        retry_budget=None,
    )
    p_faults.add_argument("--out", default=None, metavar="PATH",
                          help="write JSONL rows to this file")
    p_faults.add_argument(
        "--check-invariants", action="store_true",
        help="exit 1 if any cell's inline invariant audit fails",
    )
    p_faults.add_argument(
        "--list-profiles", action="store_true",
        help="list the named chaos profiles and exit",
    )
    _add_observability_flags(p_faults, profile=True)
    _add_rollup_flags(p_faults)
    _add_resilience_flags(p_faults)

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "prepare": _cmd_prepare,
    "stream": _cmd_stream,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "multiclient": _cmd_multiclient,
    "fleet": _cmd_fleet,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "diff": _cmd_diff,
    "faults": _cmd_faults,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # Catalog lookups (videos, ABRs, traces) raise KeyError with a
        # one-line "unknown X; known: ..." message.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        # The supervised pool kills its workers and flushes the
        # checkpoint spool before this propagates; one line instead of
        # a traceback, with the resume hint when there is one.
        hint = getattr(exc, "resume_hint", None)
        print(
            f"interrupted: {hint}" if hint else "interrupted",
            file=sys.stderr,
        )
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; suppress the noise
        # (and the flush-on-exit repeat) per the Python docs recipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 120


if __name__ == "__main__":
    sys.exit(main())
