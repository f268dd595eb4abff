"""Experiment runner (§5, "Experiments").

An *experiment* streams one video under a fixed
:class:`~repro.core.spec.ScenarioSpec` — ABR algorithm, buffer size,
video, network trace, transport flavour — and is repeated
(``repetitions``; 30 in the paper) with the trace linearly shifted by
``d/reps`` seconds per repetition to probe the interaction between
throughput variations and VBR segment-size variations.  Aggregates follow
the paper: 90th percentile and standard error of bufRatio, means of
average bitrates, CDFs of per-segment scores.

Repetitions are independent simulations, so :func:`run_trials` can fan
them out over worker processes (``workers=K``) through
:func:`~repro.experiments.execution.execute`.  Parallel execution is
*deterministic*: ``execute`` runs each repetition inside its own
metrics scope, and under its own profiler when one is installed (in
both modes), and folds them back in repetition order, so aggregates,
metrics dumps, traces and span trees are byte-identical to a serial
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.experiments.execution import (
    ExecutionError,
    execute,
    validate_workers,
)
from repro.network.traces import NetworkTrace
from repro.obs.metrics import scoped_registry
from repro.obs.tracer import StreamingTracer, Tracer
from repro.player.metrics import SessionMetrics, percentile_across, stderr_across
from repro.prep.prepare import PreparedVideo, get_prepared


@dataclass
class TrialSummary:
    """Aggregate of the repetitions of one experiment."""

    config: ScenarioSpec
    sessions: List[SessionMetrics]
    # Metrics-registry dump scoped to this trial's sessions only (no
    # bleed-over from earlier trials in the process); None when the
    # trial was built by hand.
    metrics: Optional[Dict] = None
    # Per-repetition JSONL traces when run_trials(collect_traces=True).
    traces: Optional[List[str]] = None

    @property
    def buf_ratio_p90(self) -> float:
        return percentile_across(self.sessions, "buf_ratio", 90)

    @property
    def buf_ratio_mean(self) -> float:
        return float(np.mean([s.buf_ratio for s in self.sessions]))

    @property
    def buf_ratio_stderr(self) -> float:
        return stderr_across(self.sessions, "buf_ratio")

    @property
    def mean_bitrate_kbps(self) -> float:
        return float(np.mean([s.avg_bitrate_kbps for s in self.sessions]))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean([s.mean_ssim for s in self.sessions]))

    @property
    def mean_data_skipped(self) -> float:
        return float(np.mean([s.data_skipped_fraction for s in self.sessions]))

    @property
    def mean_residual_loss(self) -> float:
        return float(np.mean([s.residual_loss_fraction for s in self.sessions]))

    def ssim_samples(self) -> np.ndarray:
        """All per-segment scores across repetitions (CDF material)."""
        return np.concatenate([s.scores for s in self.sessions])

    def row(self) -> Dict[str, float]:
        return {
            "buf_ratio_p90": self.buf_ratio_p90,
            "buf_ratio_mean": self.buf_ratio_mean,
            "buf_ratio_stderr": self.buf_ratio_stderr,
            "bitrate_kbps": self.mean_bitrate_kbps,
            "ssim": self.mean_ssim,
            "data_skipped": self.mean_data_skipped,
        }


def run_single(
    spec: ScenarioSpec,
    shift_s: float = 0.0,
    prepared: Optional[PreparedVideo] = None,
    trace: Optional[NetworkTrace] = None,
    tracer=None,
) -> SessionMetrics:
    """Run one streaming session of ``spec``, its trace shifted by ``shift_s``.

    The stack is assembled by the :class:`~repro.core.build.StackBuilder`;
    an explicit ``trace`` replaces the spec's named one.
    """
    if shift_s:
        spec = spec.with_(trace_shift_s=spec.trace_shift_s + shift_s)
    if trace is not None:
        trace = trace.shifted(shift_s)
    return StackBuilder(spec, prepared=prepared).build(
        network_trace=trace, tracer=tracer
    ).run()


def _rep_session(
    spec: ScenarioSpec,
    shift_s: float,
    prepared: PreparedVideo,
    trace: NetworkTrace,
    collect_trace: bool,
    observers: Optional[Sequence] = None,
) -> Tuple[SessionMetrics, Optional[str]]:
    """Run one repetition.

    Returns the session metrics and the JSONL trace if requested.
    ``observers`` see every trace event; without ``collect_trace`` they
    are served by a buffer-less :class:`StreamingTracer`, so fleet
    rollups cost no per-event history.
    """
    if collect_trace:
        tracer = Tracer(observers=observers)
    elif observers:
        tracer = StreamingTracer(observers=observers)
    else:
        tracer = None
    metrics = run_single(
        spec, shift_s=shift_s, prepared=prepared, trace=trace,
        tracer=tracer,
    )
    return metrics, (tracer.to_jsonl() if collect_trace else None)


def run_trials(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo] = None,
    workers: int = 1,
    collect_traces: bool = False,
    observers: Optional[Sequence] = None,
) -> TrialSummary:
    """Run all repetitions with per-repetition trace shifting.

    Args:
        spec: the experiment cell; ``spec.repetitions`` sessions run,
            the trace shifted by ``d/reps`` seconds per repetition.
        prepared: pre-analyzed video (looked up by name if omitted).
        workers: worker processes; ``1`` runs serially in-process.  Any
            K produces byte-identical summaries (sessions, metrics dump,
            traces) to the serial run — repetitions are independent and
            results are folded in repetition order.
        collect_traces: record a JSONL trace per repetition on the
            summary's ``traces``.
        observers: trace-event callbacks attached to every repetition's
            tracer (streaming rollups, attributors).  They require
            ``workers=1``: observer state lives in this process.  A
            sweep fans out across cells instead, each cell's
            repetitions feeding its own observers.
    """
    workers = validate_workers(workers)
    if observers and workers > 1:
        raise ValueError(
            "trace observers require workers=1 (observer state lives "
            "in this process; forked repetitions cannot feed it)"
        )
    if prepared is None:
        prepared = get_prepared(spec.video)
    trace = StackBuilder(spec).resolve_trace()
    reps = spec.repetitions
    shift_step = trace.duration / reps
    shifts = [i * shift_step for i in range(reps)]

    def repetition(shift: float):
        return _rep_session(spec, shift, prepared, trace, collect_traces,
                            observers)

    # Each trial runs inside its own registry scope so its metrics dump
    # reflects only these sessions (execute folds the repetitions into
    # it); the scope merges back into the parent on exit, keeping
    # process-wide totals intact.
    with scoped_registry() as registry:
        outcome = execute(
            repetition, shifts, workers=workers,
            labels=[f"repetition {i}" for i in range(reps)],
        )
        if outcome.failures:
            raise ExecutionError(outcome.failures, total=reps)
        sessions = []
        traces: List[str] = []
        for metrics, jsonl in outcome.results:
            sessions.append(metrics)
            if jsonl is not None:
                traces.append(jsonl)
        metrics_dump = registry.dump()
    return TrialSummary(
        config=spec,
        sessions=sessions,
        metrics=metrics_dump,
        traces=traces if collect_traces else None,
    )


def compare(
    base: ScenarioSpec,
    variants: Dict[str, Dict],
    prepared: Optional[PreparedVideo] = None,
    workers: int = 1,
) -> Dict[str, TrialSummary]:
    """Run several variants of a base scenario.

    ``variants`` maps a label to field overrides of ``base``
    (:meth:`~repro.core.spec.ScenarioSpec.with_`).
    """
    return {
        label: run_trials(
            base.with_(**overrides), prepared=prepared, workers=workers
        )
        for label, overrides in variants.items()
    }
