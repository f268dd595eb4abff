"""`StackBuilder`: a :class:`ScenarioSpec` becomes a ready session.

The builder is the single assembly point of the stack.  It resolves the
spec's component names against the registries (ABRs, traces, transport
backends), realizes the network (trace seed/shift, optional cross
traffic), maps the spec onto a
:class:`~repro.player.session.SessionConfig`, and wires a
:class:`~repro.player.session.StreamingSession` — byte-identical to the
historical ad-hoc wiring in ``stream()`` / the experiment runner.

Multi-client runs use the same builder with shared plumbing: pass the
shard's ``kernel`` plus the shared ``link`` (round backend) or
``router`` (packet backend) and spawn each session's
:meth:`~repro.player.session.StreamingSession.steps` on the kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.abr import ABRS, make_abr
from repro.core.spec import ScenarioSpec
from repro.faults.plan import FaultPlan, build_plan, validate_fault_spec
from repro.network.crosstraffic import (
    CrossTrafficConfig,
    generate_cross_demand,
)
from repro.network.traces import TRACES, NetworkTrace, get_trace
from repro.obs.metrics import get_registry
from repro.player.session import SessionConfig, StreamingSession
from repro.prep.prepare import PreparedVideo, get_prepared
from repro.qoe.metrics import get_metric
from repro.transport.backends import BACKENDS


class StackBuilder:
    """Assemble the streaming stack described by one scenario spec.

    Args:
        spec: the scenario to realize.
        prepared: pre-analyzed video; looked up in the catalog by
            ``spec.video`` when omitted.
        prepared_map: ``video name -> PreparedVideo`` overriding the
            catalog (test fixtures, benchmarks, sweep workers).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        prepared: Optional[PreparedVideo] = None,
        prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    ):
        self.spec = spec
        self._prepared = prepared
        self._prepared_map = prepared_map

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Resolve every component name now; raise on unknown ones.

        Useful for ``repro sweep --dry-run``: a typo in a grid fails
        before any simulation runs.  Raises ``KeyError`` for unknown
        ABR/trace names (the CLI contract) and ``ValueError`` for an
        unknown backend (the session contract).
        """
        if self._prepared is None and (
            self._prepared_map is None
            or self.spec.video not in self._prepared_map
        ):
            from repro.video.content import get_profile

            get_profile(self.spec.video)
        ABRS.canonical(self.spec.abr)
        trace_key = self.spec.trace.lower()
        if not trace_key.startswith("constant") and trace_key != "step":
            TRACES.canonical(trace_key)
        if self.spec.backend not in BACKENDS:
            raise ValueError(
                f"unknown transport backend {self.spec.backend!r}; "
                f"known: {', '.join(BACKENDS.names())}"
            )
        validate_fault_spec(self.spec.fault_spec())

    # ------------------------------------------------------------------
    def prepared_video(self) -> PreparedVideo:
        """The prepared video (explicit > prepared_map > catalog)."""
        if self._prepared is not None:
            return self._prepared
        if (
            self._prepared_map is not None
            and self.spec.video in self._prepared_map
        ):
            return self._prepared_map[self.spec.video]
        return get_prepared(self.spec.video)

    def resolve_trace(self) -> NetworkTrace:
        """The capacity trace: name + seed + shift, per the spec.

        Under cross traffic the capacity is a constant link at
        ``link_mbps_under_cross`` (the cross demand eats into it) —
        exactly the experiment runner's historical resolution.
        """
        spec = self.spec
        if spec.cross_traffic_mbps is not None:
            trace = get_trace(f"constant:{spec.link_mbps_under_cross}")
        else:
            trace = get_trace(
                spec.trace, seed=spec.seed, **spec.trace_kwargs
            )
        return trace.shifted(spec.trace_shift_s)

    def cross_demand(
        self, trace: Optional[NetworkTrace] = None
    ) -> Optional[NetworkTrace]:
        """The cross-traffic demand trace (None when no cross traffic).

        The demand seed folds in the trace shift, so each repetition of
        the paper's shift protocol sees different cross traffic.
        """
        spec = self.spec
        if spec.cross_traffic_mbps is None:
            return None
        if trace is None:
            trace = self.resolve_trace()
        return generate_cross_demand(
            CrossTrafficConfig(
                target_mbps=spec.cross_traffic_mbps,
                link_mbps=spec.link_mbps_under_cross,
                seed=spec.seed + int(spec.trace_shift_s * 1000) % 997,
            ),
            duration=int(trace.duration),
        )

    def make_abr(self):
        """Construct the spec's ABR algorithm (registry lookup)."""
        return make_abr(
            self.spec.abr,
            prepared=self.prepared_video(),
            **self.spec.abr_kwargs,
        )

    def fault_plan(
        self, trace: Optional[NetworkTrace] = None
    ) -> Optional[FaultPlan]:
        """Realize the spec's FaultSpec against the trace horizon.

        Deterministic: the windows are a pure function of the fault spec
        and the scenario seed, so every repetition (and every worker of a
        parallel sweep) places identical faults.  None when the spec
        declares no faults.
        """
        spec = self.spec.fault_spec()
        if spec is None:
            return None
        if trace is None:
            trace = self.resolve_trace()
        # Seeded placements spread across the window the session will
        # actually play — the media duration, not the (usually much
        # longer) trace horizon — so every declared fault can hit the
        # session.  Explicit ``at`` placements are unaffected.
        horizon = min(
            trace.duration, self.prepared_video().video.duration
        )
        return build_plan(
            spec, horizon=horizon, scenario_seed=self.spec.seed
        )

    def session_config(
        self, fault_plan: Optional[FaultPlan] = None
    ) -> SessionConfig:
        """Map the spec onto the session's knob set."""
        spec = self.spec
        return SessionConfig(
            buffer_segments=spec.buffer_segments,
            partially_reliable=spec.partially_reliable,
            server_voxel_aware=spec.server_voxel_aware,
            client_voxel_aware=spec.client_voxel_aware,
            force_reliable_payload=spec.force_reliable_payload,
            selective_retransmission=spec.selective_retransmission,
            retx_buffer_threshold=spec.retx_buffer_threshold,
            queue_packets=spec.queue_packets,
            base_rtt=spec.base_rtt,
            metric=get_metric(spec.metric),
            transport_backend=spec.backend,
            manifest_fetch=spec.manifest_fetch,
            manifest_window_segments=spec.manifest_window_segments,
            request_timeout_s=spec.request_timeout_s,
            retry_budget=spec.retry_budget,
            retry_backoff_s=spec.retry_backoff_s,
            fault_plan=fault_plan,
        )

    # ------------------------------------------------------------------
    def build(
        self,
        network_trace: Optional[NetworkTrace] = None,
        tracer=None,
        kernel=None,
        session_id: Optional[str] = None,
        link=None,
        router=None,
    ) -> StreamingSession:
        """Assemble the ready-to-run session.

        Every session is counted here, as ``experiments.sessions``
        labelled with the spec's ABR and trace names, whichever engine
        runs it.

        Args:
            network_trace: explicit trace object overriding the spec's
                named trace (already shifted; the builder applies no
                further shift).
            tracer: structured-event tracer (None = tracing off).
            kernel: the shard's kernel for multi-client runs (None =
                the session builds its own).
            session_id: tag for events in shared traces.
            link / router: shared transport substrate for sessions
                contending on one bottleneck.
        """
        trace = (
            network_trace if network_trace is not None
            else self.resolve_trace()
        )
        get_registry().counter(
            "experiments.sessions", abr=self.spec.abr, trace=self.spec.trace
        ).inc()
        return StreamingSession(
            self.prepared_video(),
            self.make_abr(),
            trace,
            self.session_config(fault_plan=self.fault_plan(trace)),
            cross_demand=self.cross_demand(trace),
            link=link,
            tracer=tracer,
            kernel=kernel,
            session_id=session_id,
            router=router,
            spec_hash=self.spec.spec_hash(),
        )


def build_session(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo] = None,
    **build_kwargs,
) -> StreamingSession:
    """One-call convenience: ``StackBuilder(spec, prepared).build(...)``."""
    return StackBuilder(spec, prepared=prepared).build(**build_kwargs)


__all__ = ["StackBuilder", "build_session"]
