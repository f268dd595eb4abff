"""Property-based chaos: randomized fault schedules stay lawful.

Whatever faults hypothesis throws at the stack — random kinds, random
placements, random budgets, either backend — every session must
terminate, every planned fault must surface as a ``fault_injected``
trace event, and the full invariant catalog (retry accounting included)
must hold on the resulting trace.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.api import stream_spec
from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.experiments.chaos import CHAOS_PROFILES
from repro.obs import events as ev
from repro.obs.invariants import MultiSessionAuditor, TraceAuditor
from repro.obs.tracer import Tracer
from repro.transport import packet_connection

# The tiny fixture plays ~24 s of media; place faults inside that.
_HORIZON = 22.0

_CLAUSES = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("blackout"),
        "at": st.floats(0.0, _HORIZON),
        "duration": st.floats(0.5, 5.0),
    }),
    st.fixed_dictionaries({
        "kind": st.just("bandwidth_cliff"),
        "at": st.floats(0.0, _HORIZON),
        "duration": st.floats(1.0, 8.0),
        "factor": st.floats(0.05, 0.5),
    }),
    st.fixed_dictionaries({
        "kind": st.just("rtt_spike"),
        "at": st.floats(0.0, _HORIZON),
        "duration": st.floats(0.5, 4.0),
        "extra": st.floats(0.05, 0.5),
    }),
    st.fixed_dictionaries({
        "kind": st.just("loss_burst"),
        "at": st.floats(0.0, _HORIZON),
        "duration": st.floats(0.5, 4.0),
        "rate": st.floats(0.05, 0.5),
    }),
    st.fixed_dictionaries({
        "kind": st.just("reset"),
        "at": st.floats(0.0, _HORIZON),
    }),
    st.fixed_dictionaries({
        "kind": st.just("server_stall"),
        "at": st.floats(0.0, _HORIZON),
        "duration": st.floats(1.0, 5.0),
        "delay": st.floats(0.2, 1.5),
    }),
)

_SCHEDULES = st.fixed_dictionaries({
    "events": st.lists(_CLAUSES, min_size=1, max_size=4),
})

#: A blackout holds a retry's first packets in the router queue while
#: later ones are tail-dropped, so the attempt times out with a loss
#: detected above bytes still in flight.  Its partial must still account
#: a prefix of the request, or the retry counts those bytes twice.
_PACKET_BLACKOUT_RETRY = dict(
    faults={"events": [{"kind": "blackout", "at": 1.0, "duration": 1.0}]},
    seed=0, backend="packet", retry_budget=2,
)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    faults=_SCHEDULES,
    seed=st.integers(0, 7),
    backend=st.sampled_from(["round", "packet"]),
    retry_budget=st.integers(0, 3),
)
@example(**_PACKET_BLACKOUT_RETRY)
# The `mixed` chaos profile on the round backend: five fault kinds in
# one session, with one retry.
@example(faults=CHAOS_PROFILES["mixed"], seed=0, backend="round",
         retry_budget=2)
def test_random_schedules_keep_all_invariants(
    tiny_prepared, faults, seed, backend, retry_budget
):
    spec = ScenarioSpec(
        video="tinytest", abr="abr_star", trace="verizon", seed=seed,
        buffer_segments=2, backend=backend, faults=faults,
        request_timeout_s=2.0, retry_budget=retry_budget,
        retry_backoff_s=0.2,
    )
    auditor = TraceAuditor()
    tracer = Tracer(observers=[auditor.feed])
    result = stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
    report = auditor.finalize()
    assert report.ok, [str(v) for v in report.violations]

    # Every planned fault window surfaces as exactly one trace event.
    plan = StackBuilder(spec, prepared=tiny_prepared).fault_plan()
    injected = [e for e in tracer.events if e.type == ev.FAULT_INJECTED]
    assert len(injected) == len(plan.windows)

    # The session terminated with every segment accounted for.
    assert len(result.metrics.records) == 6


def test_packet_fault_partial_accounts_a_prefix(tiny_prepared, monkeypatch):
    partials = []

    class RecordingFault(packet_connection.TransportFault):
        """Records every fault the packet backend raises as it is built
        (the download resumes inside the waiter wake, so a hook run after
        the fault fires would find it already consumed)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            partials.append(self)

    monkeypatch.setattr(packet_connection, "TransportFault", RecordingFault)
    spec = ScenarioSpec(
        video="tinytest", abr="abr_star", trace="verizon",
        buffer_segments=2, request_timeout_s=2.0, retry_backoff_s=0.2,
        **_PACKET_BLACKOUT_RETRY,
    )
    auditor = TraceAuditor()
    stream_spec(spec, prepared=tiny_prepared,
                tracer=Tracer(observers=[auditor.feed]))
    report = auditor.finalize()
    assert report.ok, [str(v) for v in report.violations]
    assert partials
    for fault in partials:
        # The retry resumes at ``accounted_bytes``: every lost byte of
        # the attempt must lie below it.
        assert all(end <= fault.accounted_bytes
                   for _, end in fault.partial.lost), fault.partial


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    faults=_SCHEDULES,
    seed=st.integers(0, 5),
)
def test_same_schedule_same_bytes(tiny_prepared, faults, seed):
    """Fault runs are reproducible: same spec, byte-identical trace."""
    spec = ScenarioSpec(
        video="tinytest", abr="abr_star", trace="verizon", seed=seed,
        buffer_segments=2, faults=faults,
        request_timeout_s=2.0, retry_budget=2,
    )
    traces = []
    for _ in range(2):
        tracer = Tracer()
        stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        traces.append(tracer.to_jsonl())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("backend", ("round", "packet"))
def test_multiclient_chaos_audits_clean(tiny_prepared, backend):
    """Shared-bottleneck chaos: substrate faults hit every client once,
    and the interleaved trace passes the multi-session audit (per-session
    laws + shared-link conservation + retry accounting)."""
    from repro.experiments.multiclient import run_multiclient

    network = ScenarioSpec(
        video="tinytest", buffer_segments=2, trace="constant:12", seed=1,
        backend=backend,
        faults={"events": [
            {"kind": "blackout", "at": 4.0, "duration": 3.0},
            {"kind": "reset", "at": 10.0},
            {"kind": "loss_burst", "at": 8.0, "duration": 2.0,
             "rate": 0.2},
        ]},
        request_timeout_s=2.0,
        retry_budget=2,
    )
    specs = [
        network.with_(abr="abr_star", reliability="quic*"),
        network.with_(abr="bola", reliability="quic"),
    ]
    auditor = MultiSessionAuditor()
    tracer = Tracer(observers=[auditor.feed])
    result = run_multiclient(
        specs,
        tracer=tracer,
        prepared_map={"tinytest": tiny_prepared},
    )
    report = auditor.finalize()
    assert report.ok, [str(v) for v in report.violations]
    assert len(result.clients) == 2
    for client in result.clients:
        assert len(client.metrics.records) == 6
    # The run-level plan is announced once per session.
    injected = [e for e in tracer.events if e.type == ev.FAULT_INJECTED]
    assert injected
