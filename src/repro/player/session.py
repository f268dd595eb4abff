"""The streaming session: player main loop tying all layers together.

A session streams one prepared video through an ABR algorithm over a
QUIC(*) connection across an emulated bottleneck.  It reproduces the
paper's client behaviour:

* a new segment download starts only when the playback buffer has room
  (one in-flight segment on top of the configured buffer, §5),
* downloads run with a live control hook so the ABR can abandon
  (restart lower — BOLA/BETA) or truncate-and-keep (ABR*),
* buffer-full idle periods are used for selective retransmission of
  bytes lost on unreliable streams (§4.2), provided the buffer stays
  healthy,
* every delivered segment is scored by decoding it against the
  server-side ground truth with the exact losses that occurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.abr.base import (
    ABRAlgorithm,
    ControlVerb,
    Decision,
    DecisionContext,
    DownloadProgress,
    safe_throughput,
)
from repro.core.spec import ScenarioSpec
from repro.faults.plan import FaultPlan
from repro.network.events import SimKernel
from repro.network.traces import NetworkTrace
from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.spans import current as _current_profiler
from repro.obs.tracer import NULL_TRACER, SessionTracer
from repro.player.buffer import PlaybackBuffer
from repro.player.metrics import SegmentRecord, SessionMetrics
from repro.prep.prepare import PreparedVideo
from repro.qoe.model import decode_segment
from repro.transport.backends import make_backend
from repro.transport.base import RetryBudgetExhausted, TransportFault
from repro.transport.http import SegmentDelivery, VoxelHttp
from repro.transport.resilience import (
    RetryContext,
    RetryPolicy,
    resilient_download_iter,
)


@dataclass(slots=True)
class _PendingRepair:
    record: SegmentRecord
    delivery: SegmentDelivery
    quality: int
    index: int


class StreamingSession:
    """Streams one video once; :meth:`run` returns the session metrics.

    The player and transport knobs are read from ``spec`` (buffer size,
    reliability mode, backend, repair, manifest and retry settings); its
    video, ABR and trace names are not: ``prepared``, ``abr`` and
    ``trace`` are passed as objects.  ``fault_plan`` is the spec's
    realized fault schedule (None = no faults).  The resilience
    machinery activates only under a fault plan or a request deadline;
    otherwise the session takes its fault-free paths.
    """

    def __init__(
        self,
        prepared: PreparedVideo,
        abr: ABRAlgorithm,
        trace: NetworkTrace,
        spec: Optional[ScenarioSpec] = None,
        fault_plan: Optional[FaultPlan] = None,
        cross_demand: Optional[NetworkTrace] = None,
        bottleneck=None,
        tracer=None,
        kernel: Optional[SimKernel] = None,
        session_id: Optional[str] = None,
        spec_hash: Optional[str] = None,
    ):
        self.prepared = prepared
        self.abr = abr
        self.spec = spec = spec if spec is not None else ScenarioSpec()
        self.fault_plan = fault_plan
        # The kernel is the session's one time authority: a shard hands
        # every client the shard's kernel, a solo session builds its own.
        self.kernel = kernel if kernel is not None else SimKernel()
        self.session_id = session_id
        # Content hash of the ScenarioSpec this session realizes (set by
        # the StackBuilder); stamped into the trace header so recorded
        # artifacts are traceable to their exact configuration.
        self.spec_hash = spec_hash
        tracer = tracer if tracer is not None else NULL_TRACER
        if session_id is not None and tracer.enabled:
            tracer = SessionTracer(tracer, session_id)
        self.tracer = tracer
        self.tracer.bind_clock(self.kernel)
        # Span profiler, captured at construction like the registry
        # counters (install the profiler before building the stack).
        # The session's spans go on a stack of its own, timed on its
        # kernel, so sessions sharing a kernel never nest in each other.
        prof = _current_profiler()
        self._spans = prof.stack(self.kernel) if prof is not None else None
        # The transport substrate comes from the backend registry: a
        # shard hands every client its one bottleneck (on the shard's
        # kernel), a solo session builds its own the same way.
        backend = make_backend(spec.backend)
        if bottleneck is None:
            bottleneck = backend.bottleneck(
                self.kernel,
                trace,
                spec.queue_packets,
                spec.base_rtt,
                fault_plan=fault_plan,
                cross_demand=cross_demand,
            )
        self.connection = backend.connection(
            bottleneck, self.kernel, spec.partially_reliable, self.tracer,
        )
        self.connection.fault_plan = fault_plan
        self.http = VoxelHttp(
            self.connection,
            server_voxel_aware=spec.server_voxel_aware,
            client_voxel_aware=spec.client_voxel_aware,
        )
        self._force_reliable = spec.force_reliable_payload
        # Selective retransmission (§4.2) needs unreliable delivery end
        # to end.
        self._repairs = (
            spec.selective_retransmission
            and self.http.voxel_capable
            and not self._force_reliable
        )
        manifest = prepared.manifest
        if not self.http.voxel_capable:
            manifest = manifest.basic_view()
        self.manifest = manifest

        seg_dur = prepared.video.segment_duration
        self.segment_duration = seg_dur
        self.buffer = PlaybackBuffer(
            capacity_s=spec.buffer_segments * seg_dur
        )
        # Repairs stop once the buffer falls to this level.
        self._repair_floor_s = (
            spec.retx_buffer_threshold * self.buffer.capacity_s
        )
        self.abr.setup(self.manifest, self.buffer.capacity_s)
        self._throughput_samples: List[float] = []
        # Cache of the harmonic-mean throughput estimate: samples only
        # change when a download completes, but the estimate is read on
        # every progress round and every repair-budget calculation.
        self._tp_cache: Optional[float] = None
        self._pending_repairs: List[_PendingRepair] = []
        self._resilience = (
            fault_plan is not None or spec.request_timeout_s is not None
        )
        self._retry_policy: Optional[RetryPolicy] = None
        self._res_counts: Dict[str, float] = {}
        self._segment_retries: Dict[int, int] = {}
        if self._resilience:
            self._retry_policy = RetryPolicy(
                request_timeout_s=spec.request_timeout_s,
                retry_budget=spec.retry_budget,
                backoff_base_s=spec.retry_backoff_s,
            )
            self._res_counts = {
                "faults": 0, "timeouts": 0, "resets": 0,
                "retries": 0, "degraded": 0, "backoff": 0.0,
            }
        self._records: List[SegmentRecord] = []
        self._total_stall = 0.0
        self._startup_delay = 0.0
        registry = get_registry()
        self._ctr_segments = registry.counter(
            "session.segments", abr=self.abr.name
        )
        self._ctr_decisions = registry.counter(
            "abr.decisions", abr=self.abr.name
        )
        self._ctr_stall = registry.counter(
            "session.stall_seconds", abr=self.abr.name
        )
        self._ctr_repaired = registry.counter(
            "session.repaired_bytes", abr=self.abr.name
        )
        if self._resilience:
            # Only materialized when the fault/retry machinery is active,
            # keeping no-fault metric dumps identical to legacy runs.
            self._ctr_timeouts = registry.counter(
                "session.request_timeouts", abr=self.abr.name
            )
            self._ctr_resets = registry.counter(
                "session.connection_resets", abr=self.abr.name
            )
            self._ctr_retries = registry.counter(
                "session.retries", abr=self.abr.name
            )
            self._ctr_degraded = registry.counter(
                "session.degraded_segments", abr=self.abr.name
            )

    # ------------------------------------------------------------------
    @property
    def throughput_estimate(self) -> float:
        estimate = self._tp_cache
        if estimate is None:
            estimate = safe_throughput(self._throughput_samples, default=0.0)
            self._tp_cache = estimate
        return estimate

    def _context(self, index: int, last_quality: Optional[int]
                 ) -> DecisionContext:
        entries = self.manifest.entry_row(index)
        # The capacity handed to the ABR is the decision-time maximum: a
        # new download starts once the buffer is at or below capacity, so
        # the level seen by `choose` never exceeds it (the in-flight
        # segment briefly overshoots, but no decision happens then).
        return DecisionContext(
            segment_index=index,
            buffer_level_s=self.buffer.level_s,
            buffer_capacity_s=self.buffer.capacity_s,
            throughput_bps=self.throughput_estimate,
            last_quality=last_quality,
            manifest=self.manifest,
            entries=entries,
            segment_duration=self.segment_duration,
            voxel_capable=self.http.voxel_capable,
            throughput_samples=tuple(self._throughput_samples),
        )

    # ------------------------------------------------------------------
    def run(self) -> SessionMetrics:
        """Stream the whole video, blocking, and return the metrics.

        Runs :meth:`steps` to completion on the session's kernel, as
        a shard runs each of its clients.
        """
        return self.kernel.run_process(self.steps())

    def steps(self):
        """The session as a resumable kernel process.

        A generator state machine cycling request → progress rounds →
        idle/retransmit → playback for every segment; it yields control
        (sleep times or wake handles) to the session's
        :class:`~repro.network.events.SimKernel` — its own (:meth:`run`)
        or one interleaving N sessions on a shared bottleneck.  Returns
        the session metrics.
        """
        video = self.prepared.video
        last_quality: Optional[int] = None
        start_clock = self.kernel.now

        spans = self._spans
        s_frame = spans.push("session") if spans is not None else None

        if self.tracer.enabled:
            extra = {}
            if self.spec_hash is not None:
                extra["spec_hash"] = self.spec_hash
            self.tracer.emit(
                ev.SESSION_START,
                video=video.name,
                abr=self.abr.name,
                num_segments=video.num_segments,
                segment_duration=self.segment_duration,
                buffer_capacity_s=self.buffer.capacity_s,
                backend=self.spec.backend,
                partially_reliable=self.spec.partially_reliable,
                num_levels=self.manifest.num_levels,
                **extra,
            )
        plan = self.fault_plan
        if plan is not None:
            # Announce the realized fault schedule up front: every window
            # the plan will apply is visible in the trace before any
            # request can hit it.
            self._res_counts["faults"] = len(plan.windows)
            if self.tracer.enabled:
                for window in plan.windows:
                    self.tracer.emit(
                        ev.FAULT_INJECTED,
                        kind=window.kind,
                        start=window.start,
                        duration=window.duration,
                        value=window.value,
                    )
        yield from self._before_session()
        for index in range(video.num_segments):
            seg_frame = spans.push("segment") if spans is not None else None
            yield from self._before_segment(index)
            yield from self._wait_for_room()
            yield from self._opportunistic_repair()
            decision = yield from self._decide(index, last_quality)
            record = yield from self._stream_segment(index, decision)
            self._records.append(record)
            self._ctr_segments.inc()
            last_quality = record.quality
            self.abr.on_complete(
                index, record.quality, record.bytes_delivered,
                record.download_time,
            )
            yield from self._after_segment(index, record)
            if seg_frame is not None:
                spans.pop(seg_frame)

        # Drain the remaining buffer (playback finishes).
        self.buffer.drain(self.buffer.level_s)
        metrics = SessionMetrics(
            video=video.name,
            abr=self.abr.name,
            records=self._records,
            startup_delay=self._startup_delay,
            total_stall=self._total_stall,
            media_duration=video.duration,
            wall_duration=self.kernel.now - start_clock,
            segment_duration=self.segment_duration,
            resilience=self._resilience,
            faults_injected=int(self._res_counts.get("faults", 0)),
            request_timeouts=int(self._res_counts.get("timeouts", 0)),
            connection_resets=int(self._res_counts.get("resets", 0)),
            retries=int(self._res_counts.get("retries", 0)),
            degraded_segments=int(self._res_counts.get("degraded", 0)),
            backoff_s=float(self._res_counts.get("backoff", 0.0)),
        )
        if self.tracer.enabled:
            self.tracer.emit(
                ev.SESSION_END,
                buf_ratio=metrics.buf_ratio,
                total_stall=metrics.total_stall,
                startup_delay=metrics.startup_delay,
                mean_score=metrics.mean_ssim,
                segments=len(self._records),
            )
        if s_frame is not None:
            spans.pop(s_frame)
        return metrics

    # ------------------------------------------------------------------
    def _before_session(self) -> None:
        """Fetch the manifest per the configured strategy (§4.1).

        The enriched manifest is large (the paper quotes ~16 % of an
        average top-quality segment); downloading it in full delays
        startup, while DASH's MPD-update feature amortizes it.
        """
        mode = self.spec.manifest_fetch
        if mode == "free":
            return
        spans = self._spans
        frame = spans.push("manifest") if spans is not None else None
        try:
            yield from self._fetch_manifest(mode)
        finally:
            if frame is not None:
                spans.pop(frame)

    def _fetch_manifest(self, mode: str):
        total = self.manifest.metadata_bytes()
        if mode == "incremental":
            window = min(
                max(self.spec.manifest_window_segments, 1),
                self.manifest.num_segments,
            )
            total = int(total * window / self.manifest.num_segments)
        retry = self._make_retry(-1, context="manifest")
        try:
            result = yield from resilient_download_iter(
                self.connection, total, reliable=True, retry=retry
            )
        except RetryBudgetExhausted as exc:
            # Startup must not wedge on a dead manifest server: record the
            # degradation and stream with the metadata baked into the
            # prepared video (the cost simply was not paid).
            self._bump("degraded", counter=self._ctr_degraded)
            self._startup_delay += exc.elapsed
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.DEGRADED,
                    segment=-1,
                    mode="skip",
                    attempts=exc.attempts,
                    wasted_bytes=exc.kept_bytes,
                    context="manifest",
                )
            return
        self._startup_delay += result.elapsed
        if self.tracer.enabled:
            self.tracer.emit(
                ev.MANIFEST_FETCH, mode=mode, bytes=total,
                elapsed=result.elapsed,
            )

    def _before_segment(self, index: int):
        """Hook before each segment's decision (subclass extension)."""
        return
        yield  # pragma: no cover - makes the hook a kernel process

    def _after_segment(self, index: int, record: SegmentRecord):
        """Hook after each segment completes (subclass extension)."""
        return
        yield  # pragma: no cover - makes the hook a kernel process

    # ------------------------------------------------------------------
    def _record_stall(self, stall: float, segment: int = -1) -> None:
        """Account a rebuffering event (``segment`` -1 = between segments)."""
        if stall <= 0:
            return
        self._total_stall += stall
        self._ctr_stall.inc(stall)
        if self.tracer.enabled:
            self.tracer.emit(ev.STALL, duration=stall, segment=segment)

    # ------------------------------------------------------------------
    def _bump(self, key: str, amount: float = 1, counter=None) -> None:
        self._res_counts[key] = self._res_counts.get(key, 0) + amount
        if counter is not None:
            counter.inc(amount)

    def _make_retry(
        self,
        segment: int,
        context: str = "segment",
        policy: Optional[RetryPolicy] = None,
    ) -> Optional[RetryContext]:
        """Per-segment retry context with trace/metric side effects.

        Returns None when resilience is off, which makes every wrapped
        download a byte-exact passthrough.
        """
        if not self._resilience:
            return None
        session = self

        def notify(kind: str, **fields) -> None:
            if context != "segment":
                fields["context"] = context
            if kind == "timeout":
                session._bump("timeouts", counter=session._ctr_timeouts)
                event = ev.REQUEST_TIMEOUT
            elif kind == "reset":
                session._bump("resets", counter=session._ctr_resets)
                # The reset event records where the chain stood, not how
                # long the attempt ran (its schema has no elapsed field).
                fields.pop("elapsed", None)
                event = ev.CONNECTION_RESET
            else:  # "retry"
                session._bump("retries", counter=session._ctr_retries)
                session._bump("backoff", fields.get("backoff_s", 0.0))
                if context == "segment":
                    session._segment_retries[segment] = (
                        session._segment_retries.get(segment, 0) + 1
                    )
                event = ev.RETRY
            if session.tracer.enabled:
                session.tracer.emit(event, segment=segment, **fields)

        return RetryContext(
            policy=policy if policy is not None else self._retry_policy,
            notify=notify,
        )

    def _note_failure(
        self, fault: TransportFault, segment: int, context: str
    ) -> None:
        """Trace/count a one-off transport failure outside a retry chain."""
        if not self._resilience:
            return
        if fault.kind == "timeout":
            self._bump("timeouts", counter=self._ctr_timeouts)
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.REQUEST_TIMEOUT,
                    segment=segment,
                    attempt=0,
                    elapsed=fault.partial.elapsed,
                    accounted_bytes=fault.accounted_bytes,
                    delivered_bytes=fault.partial.delivered,
                    context=context,
                )
        else:
            self._bump("resets", counter=self._ctr_resets)
            extra = {"at": fault.at} if fault.at is not None else {}
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.CONNECTION_RESET,
                    segment=segment,
                    attempt=0,
                    accounted_bytes=fault.accounted_bytes,
                    delivered_bytes=fault.partial.delivered,
                    context=context,
                    **extra,
                )

    # ------------------------------------------------------------------
    def _wait_for_room(self):
        """Idle until the buffer can take one more in-flight segment."""
        overhang = self.buffer.level_s - self.buffer.capacity_s
        if overhang <= 1e-9:
            return
        yield from self._idle(overhang)

    def _opportunistic_repair(self):
        """Repair losses whenever the buffer is comfortably full (§4.2).

        The paper's client re-requests lost data "when the playback
        buffer is full"; at BOLA's equilibrium the player hovers right at
        capacity, so we treat any healthy margin above the retransmission
        threshold as repair time — spending it never risks a stall
        because we cap the repair window by the spare buffer.
        """
        if not (self._repairs and self._pending_repairs):
            return
        margin = self.buffer.level_s - self._repair_floor_s
        if margin <= 0.25:
            return
        t0 = self.kernel.now
        yield from self._repair_losses(deadline=t0 + margin)
        elapsed = self.kernel.now - t0
        if elapsed > 0:
            self._record_stall(self.buffer.drain(elapsed))

    def _idle(self, duration: float):
        """Pass ``duration`` seconds of playback, repairing losses."""
        spans = self._spans
        frame = spans.push("idle") if spans is not None else None
        t0 = self.kernel.now
        deadline = t0 + duration
        if self._repairs:
            yield from self._repair_losses(deadline)
        remaining = deadline - self.kernel.now
        if remaining > 0:
            yield from self.connection.idle_iter(remaining)
        elapsed = self.kernel.now - t0
        self._record_stall(self.buffer.drain(elapsed))
        if frame is not None:
            spans.pop(frame)

    def _repair_losses(self, deadline: float):
        """Selective retransmission of lost bytes during idle time."""
        spans = self._spans
        frame = spans.push("repair") if spans is not None else None
        try:
            yield from self._repair_losses_inner(deadline)
        finally:
            if frame is not None:
                spans.pop(frame)

    def _repair_losses_inner(self, deadline: float):
        playhead = self.buffer.media_time()
        t0 = self.kernel.now
        for pending in list(self._pending_repairs):
            if self.kernel.now >= deadline:
                break
            effective_buffer = self.buffer.level_s - (self.kernel.now - t0)
            if effective_buffer <= self._repair_floor_s:
                # Conditions unfavorable: stop repairing (§4.2).
                break
            media_start = pending.index * self.segment_duration
            if media_start <= playhead + 0.5:
                # Too late: (nearly) playing already.
                self._pending_repairs.remove(pending)
                continue
            time_left = deadline - self.kernel.now
            budget = int(
                max(self.throughput_estimate, 1e5) * time_left / 8.0
            )
            try:
                repaired = yield from self.http.refetch_lost_iter(
                    pending.delivery, budget
                )
            except TransportFault as fault:
                # A failed repair is not worth a retry chain: the lost
                # intervals stay pending for the next idle window (or
                # remain residual loss).  Re-establish the connection and
                # stop repairing for now.
                self._note_failure(fault, pending.index, context="repair")
                reconnect = getattr(self.connection, "reconnect", None)
                if reconnect is not None:
                    reconnect()
                break
            if repaired > 0:
                pending.record.repaired_bytes += repaired
                pending.record.residual_loss_bytes = (
                    pending.delivery.residual_loss_bytes()
                )
                pending.record.score = self._score_delivery(
                    pending.quality, pending.index, pending.delivery
                )
                self._ctr_repaired.inc(repaired)
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.SELECTIVE_RETX,
                        segment=pending.index,
                        repaired_bytes=repaired,
                        residual_bytes=pending.record.residual_loss_bytes,
                    )
            if not pending.delivery.lost_intervals:
                self._pending_repairs.remove(pending)

    # ------------------------------------------------------------------
    def _decide(self, index: int, last_quality: Optional[int]):
        while True:
            ctx = self._context(index, last_quality)
            decision = self.abr.choose(ctx)
            self._ctr_decisions.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.ABR_DECISION,
                    segment=index,
                    quality=decision.quality,
                    target_bytes=decision.target_bytes,
                    unreliable=decision.unreliable,
                    wait_s=decision.wait_s,
                    buffer_level_s=ctx.buffer_level_s,
                    throughput_bps=ctx.throughput_bps,
                    expected_score=decision.expected_score,
                )
            if decision.wait_s <= 0:
                return decision
            yield from self._idle(decision.wait_s)

    # ------------------------------------------------------------------
    def _stream_segment(self, index: int, decision: Decision):
        buffer_at_start = self.buffer.level_s
        t_start = self.kernel.now
        restarts = 0
        wasted = 0
        truncated = False
        degraded_mode = ""
        retry = self._make_retry(index)

        while True:
            entry = self.manifest.entry(decision.quality, index)
            restart_to: List[int] = []

            total_wire = self._request_total(entry, decision)
            progress = self._make_progress(
                index, decision.quality, t_start, buffer_at_start,
                total_wire, restart_to,
            )

            if self.tracer.enabled:
                self.tracer.emit(
                    ev.DOWNLOAD_START,
                    segment=index,
                    quality=decision.quality,
                    wire_bytes=total_wire,
                    attempt=restarts,
                )
            spans = self._spans
            req_frame = spans.push("request") if spans is not None else None
            try:
                # Dispatched here rather than in a helper generator, so
                # the common VOXEL path adds no delegation frame to every
                # round's resume chain.
                if (decision.skip_frames is not None
                        and self.connection.partially_reliable):
                    delivery = yield from self._fetch_skip_frames(
                        entry, decision, progress, retry
                    )
                else:
                    delivery = yield from self.http.fetch_segment_iter(
                        entry,
                        target_bytes=decision.target_bytes,
                        progress=progress,
                        force_reliable=(
                            self._force_reliable or not decision.unreliable
                        ),
                        retry=retry,
                    )
            except RetryBudgetExhausted as exc:
                if req_frame is not None:
                    spans.pop(req_frame)
                wasted += exc.delivered_bytes
                reconnect = getattr(self.connection, "reconnect", None)
                if reconnect is not None:
                    reconnect()
                if degraded_mode == "":
                    # Graceful degradation, stage 1: abandon the chosen
                    # quality and fall to the lowest level's reliable
                    # prefix with a fresh (single-attempt) budget.
                    degraded_mode = "floor"
                    self._bump("degraded", counter=self._ctr_degraded)
                    if self.tracer.enabled:
                        self.tracer.emit(
                            ev.DEGRADED,
                            segment=index,
                            mode="floor",
                            attempts=exc.attempts,
                            wasted_bytes=exc.kept_bytes,
                            to_quality=0,
                        )
                    restarts += 1
                    decision = Decision(
                        quality=0,
                        target_bytes=self.manifest.entry(
                            0, index
                        ).reliable_size,
                        unreliable=decision.unreliable,
                    )
                    # The floor attempt keeps the deadline but has no
                    # retries left: another failure degrades straight to
                    # skip, so the segment terminates in bounded time.
                    retry = self._make_retry(
                        index,
                        policy=RetryPolicy(
                            request_timeout_s=self.spec.request_timeout_s,
                            retry_budget=0,
                            backoff_base_s=self.spec.retry_backoff_s,
                        ),
                    )
                    continue
                # Stage 2: even the floor failed — skip the segment.
                degraded_mode = "skip"
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.DEGRADED,
                        segment=index,
                        mode="skip",
                        attempts=exc.attempts,
                        wasted_bytes=exc.kept_bytes,
                    )
                delivery = self._skipped_delivery(decision.quality, entry)
                truncated = True
                break
            if req_frame is not None:
                spans.pop(req_frame)
            if restart_to:
                wasted += delivery.bytes_delivered
                restarts += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.ABANDON,
                        segment=index,
                        from_quality=decision.quality,
                        to_quality=restart_to[0],
                        wasted_bytes=delivery.bytes_delivered,
                    )
                decision = Decision(
                    quality=restart_to[0],
                    unreliable=decision.unreliable,
                )
                continue
            truncated = delivery.bytes_requested < total_wire
            break

        elapsed = self.kernel.now - t_start
        if index == 0 and not self._records:
            # Adds to any manifest-fetch delay accounted in
            # _before_session.
            self._startup_delay += elapsed
            stall = 0.0
            self.buffer.drain(min(self.buffer.level_s, elapsed))
        else:
            stall = self.buffer.drain(elapsed)
            self._record_stall(stall, index)

        if elapsed > 0:
            # Exclude request round trips: the sample should reflect the
            # path's transfer rate, not per-request latency overheads.
            transfer_time = max(elapsed - delivery.request_latency, 1e-3)
            sample = delivery.bytes_delivered * 8.0 / transfer_time
            if delivery.bytes_delivered > 50_000:
                self._throughput_samples.append(sample)
                self._tp_cache = None

        self.buffer.push_segment(self.segment_duration)

        lost_bytes = sum(
            end - start for start, end in delivery.lost_intervals
        )
        if self.tracer.enabled:
            if truncated and degraded_mode != "skip":
                # The reliable prefix is only a hard floor on the VOXEL
                # path: a plain-QUIC truncation cuts the decode-order
                # stream, where no such boundary exists.  A skipped
                # segment is a degradation, not an ABR truncation — the
                # DEGRADED event already tells that story.
                extra = {}
                if self.http.voxel_capable and decision.skip_frames is None:
                    extra["reliable_bytes"] = entry.reliable_size
                self.tracer.emit(
                    ev.TRUNCATE,
                    segment=index,
                    quality=decision.quality,
                    bytes_requested=delivery.bytes_requested,
                    wire_bytes=total_wire,
                    **extra,
                )
            self.tracer.emit(
                ev.DOWNLOAD_END,
                segment=index,
                quality=decision.quality,
                bytes_requested=delivery.bytes_requested,
                bytes_delivered=delivery.bytes_delivered,
                elapsed=elapsed,
                truncated=truncated,
                restarts=restarts,
                lost_bytes=lost_bytes,
                stall=stall,
            )
            self.tracer.emit(
                ev.BUFFER_SAMPLE,
                segment=index,
                level_s=self.buffer.level_s,
                capacity_s=self.buffer.capacity_s,
            )

        if degraded_mode == "skip":
            # Nothing usable arrived; the viewer sees a frozen segment.
            score = 0.0
        else:
            score = self._score_delivery(decision.quality, index, delivery)
        segment = self.prepared.video.segment(decision.quality, index)
        referenced = segment.frames.referenced_set()
        dropped_ref = sum(
            1 for f in delivery.dropped_frames if f in referenced
        )
        record = SegmentRecord(
            index=index,
            quality=decision.quality,
            target_bytes=decision.target_bytes,
            bytes_requested=delivery.bytes_requested,
            bytes_delivered=delivery.bytes_delivered,
            total_bytes=entry.total_bytes,
            download_time=elapsed,
            stall_time=stall,
            score=score,
            pristine_score=entry.pristine_score,
            skipped_frame_count=len(delivery.skipped_frames),
            dropped_referenced_frames=dropped_ref,
            corruption_frames=len(delivery.corruption),
            lost_bytes=lost_bytes,
            repaired_bytes=0,
            residual_loss_bytes=delivery.residual_loss_bytes(),
            restarts=restarts,
            truncated=truncated,
            wasted_bytes=wasted,
            segment_duration=self.segment_duration,
            retries=self._segment_retries.get(index, 0),
            degraded=degraded_mode,
        )
        if delivery.lost_intervals and self.http.voxel_capable:
            self._pending_repairs.append(
                _PendingRepair(
                    record=record,
                    delivery=delivery,
                    quality=decision.quality,
                    index=index,
                )
            )
        return record

    # ------------------------------------------------------------------
    def _request_total(self, entry, decision: Decision) -> int:
        """Total wire bytes the request will ask for."""
        if decision.skip_frames is not None and self.connection.partially_reliable:
            # Mirrors the dispatch in _stream_segment: without partial
            # reliability the skip-frames request degrades to a
            # full-segment fetch, so the announced wire bytes must be the
            # full segment too.
            return self._skip_frames_bytes(entry, decision)
        if not self.http.voxel_capable:
            return entry.total_bytes
        if decision.target_bytes is None:
            return entry.total_bytes
        return min(max(decision.target_bytes, entry.reliable_size),
                   entry.total_bytes)

    def _skip_frames_bytes(self, entry, decision: Decision) -> int:
        """The segment's bytes without the payloads of its skipped frames."""
        segment = self.prepared.video.segment(decision.quality, entry.index)
        skipped = segment.frames.payload_sizes()[list(decision.skip_frames)]
        return entry.total_bytes - int(skipped.sum())

    def _make_progress(
        self,
        index: int,
        quality: int,
        t_start: float,
        buffer_at_start: float,
        total_wire: int,
        restart_to: List[int],
    ):
        """Build the transport progress callback bridging to ABR control."""
        session = self
        kernel = self.kernel
        abr_control = self.abr.control
        min_elapsed = self.abr.control_min_elapsed_s

        def progress(request_elapsed: float, request_sent: int) -> Optional[int]:
            elapsed_total = kernel.now - t_start
            if elapsed_total < min_elapsed:
                # The algorithm's own warm-up gate would CONTINUE; skip
                # the snapshot without consulting it.
                return None
            buffer_now = buffer_at_start - elapsed_total
            if buffer_now < 0.0:
                buffer_now = 0.0
            # Blend the historical estimate with the rate this very
            # request is achieving: mid-download decisions must react to
            # the network as it is *now*, not as it was last segment.
            throughput = session.throughput_estimate
            if request_elapsed > 0.5 and request_sent > 0:
                # After the slow-start ramp the request's own rate is the
                # best signal; before that it systematically undershoots.
                instantaneous = request_sent * 8.0 / request_elapsed
                throughput = (
                    instantaneous if throughput <= 0
                    else 0.7 * instantaneous + 0.3 * throughput
                )
            state = DownloadProgress(
                index, quality, elapsed_total, request_sent,
                total_wire, buffer_now, throughput,
            )
            action = abr_control(state)
            if action.verb is ControlVerb.CONTINUE:
                return None
            if action.verb is ControlVerb.RESTART:
                restart_to.append(action.restart_quality or 0)
                return request_sent  # stop sending as soon as possible
            # TRUNCATE: convert from total-wire space to request space if
            # needed; connection clamps to >= bytes already sent.
            limit = action.truncate_to_bytes
            if limit is None:
                return request_sent
            return max(limit, request_sent)

        return progress

    def _fetch_skip_frames(self, entry, decision: Decision, progress,
                           retry=None):
        """BETA-style request: the segment minus specific frames, reliable."""
        result = yield from resilient_download_iter(
            self.connection, self._skip_frames_bytes(entry, decision),
            reliable=True, progress=progress, retry=retry,
        )
        return SegmentDelivery(
            entry=entry,
            bytes_requested=result.requested,
            bytes_delivered=result.delivered,
            skipped_frames=sorted(decision.skip_frames),
            corruption={},
            elapsed=result.elapsed,
            unreliable=False,
            lost_intervals=[],
            request_latency=result.request_latency,
        )

    def _skipped_delivery(self, quality: int, entry) -> SegmentDelivery:
        """Synthesize the empty delivery of a skipped (degraded) segment."""
        segment = self.prepared.video.segment(quality, entry.index)
        return SegmentDelivery(
            entry=entry,
            bytes_requested=0,
            bytes_delivered=0,
            skipped_frames=list(range(len(segment.frames))),
            corruption={},
            elapsed=0.0,
            unreliable=False,
            lost_intervals=[],
        )

    # ------------------------------------------------------------------
    def _score_delivery(
        self, quality: int, index: int, delivery: SegmentDelivery
    ) -> float:
        dropped = [f for f in delivery.dropped_frames if f != 0]
        corruption = delivery.partial_frames
        if not dropped and not corruption:
            # Loss-free: the offline analysis decoded exactly this as
            # the k = 0 point of the segment's drop curve.
            return self.prepared.prepared[quality][index].curve.pristine_score
        return decode_segment(
            self.prepared.video.segment(quality, index),
            params=self.prepared.params,
            dropped=dropped,
            corruption=corruption,
        ).score
