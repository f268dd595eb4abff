"""Multi-client runs and the parallel trial executor: determinism first.

The two headline guarantees of the shared kernel refactor:

* a multi-client run is a pure function of its client specs — re-run
  it and the global trace and every per-client metric is byte-identical;
* ``run_trials(workers=K)`` is byte-identical to the serial run
  (sessions, metrics dump, collected traces).
"""

from __future__ import annotations

import pytest

from repro.core.api import stream_spec
from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.experiments.chaos import CHAOS_PROFILES
from repro.experiments.multiclient import (
    build_shard,
    client_label,
    run_multiclient,
)
from repro.experiments.runner import run_trials
from repro.network.traces import constant_trace
from repro.obs import audit_events
from repro.obs.tracer import Tracer
from repro.prep.prepare import prepare
from repro.video.content import ContentProfile
from repro.video.encoder import encode_video


def _specs(count, video, **network):
    # Clients name the explicit link they run on (constant_trace(12.0)).
    network.setdefault("trace", "constant-12.0")
    cycle = [
        ("abr_star", "quic*"),
        ("bola", "quic*"),
        ("abr_star", "quic"),
        ("bola", "quic"),
    ]
    return [
        ScenarioSpec(
            abr=cycle[i % 4][0],
            video=video,
            reliability=cycle[i % 4][1],
            **network,
        )
        for i in range(count)
    ]


def _run(tiny_prepared, count=2, seed=0, tracer=None):
    return run_multiclient(
        _specs(count, tiny_prepared.name, seed=seed),
        constant_trace(12.0),
        tracer=tracer,
        prepared_map={tiny_prepared.name: tiny_prepared},
    )


# ---------------------------------------------------------------------------
# Multi-client determinism.
# ---------------------------------------------------------------------------
def test_two_client_rerun_is_byte_identical(tiny_prepared):
    tracer_a, tracer_b = Tracer(), Tracer()
    first = _run(tiny_prepared, tracer=tracer_a)
    second = _run(tiny_prepared, tracer=tracer_b)
    assert tracer_a.to_jsonl() == tracer_b.to_jsonl()
    for a, b in zip(first.clients, second.clients):
        assert a.session_id == b.session_id
        assert a.metrics == b.metrics


def test_four_client_mixed_run_passes_audit(tiny_prepared):
    tracer = Tracer()
    result = _run(tiny_prepared, count=4, tracer=tracer)
    assert len(result.clients) == 4
    labels = {client_label(c.spec) for c in result.clients}
    assert labels == {"abr_star/Q*", "bola/Q*", "abr_star/Q", "bola/Q"}
    # Every session streamed the whole video despite contention.
    for client in result.clients:
        assert len(client.metrics.records) == 6
        assert client.throughput_mbps > 0
    assert 0.0 < result.jain_index <= 1.0
    report = audit_events(tracer.events)
    assert report.ok, [str(v) for v in report.violations]


def test_multiclient_tags_events_and_emits_link_stats(tiny_prepared):
    tracer = Tracer()
    _run(tiny_prepared, count=2, tracer=tracer)
    events = tracer.events
    sessions = {e.fields.get("session_id") for e in events if e.fields.get("session_id")}
    assert len(sessions) == 2
    link_stats = [e for e in events if e.type == "link_stats"]
    assert len(link_stats) == 1
    stats = link_stats[-1].fields
    assert stats["flows"] == 2
    assert (
        stats["delivered_packets"] + stats["dropped_packets"]
        == stats["offered_packets"]
    )


def test_multiclient_requires_at_least_one_client(tiny_prepared):
    with pytest.raises(ValueError, match="at least one client"):
        run_multiclient([], constant_trace(12.0))


@pytest.mark.parametrize("field, value", [
    ("seed", 1), ("trace", "constant:6"), ("backend", "packet"),
    ("retry_budget", 1), ("trace_kwargs", {"outage_prob": 0.1}),
    ("trace_shift_s", 5.0), ("cross_traffic_mbps", 4.0),
    ("link_mbps_under_cross", 10.0),
])
def test_clients_must_share_the_bottleneck(tiny_prepared, field, value):
    specs = _specs(2, tiny_prepared.name)
    specs[1] = specs[1].with_(**{field: value})
    with pytest.raises(ValueError, match=f"must share {field}:"):
        run_multiclient(
            specs, prepared_map={tiny_prepared.name: tiny_prepared}
        )


def test_multiclient_rejects_cross_traffic(tiny_prepared):
    specs = _specs(2, tiny_prepared.name, trace="constant:12",
                   cross_traffic_mbps=4.0)
    with pytest.raises(ValueError, match="do not model cross traffic"):
        run_multiclient(
            specs, prepared_map={tiny_prepared.name: tiny_prepared}
        )


def test_explicit_trace_must_be_named_by_the_specs(tiny_prepared):
    specs = _specs(2, tiny_prepared.name, trace="verizon")
    with pytest.raises(ValueError, match="explicit network_trace is "
                       "'constant-12.0'"):
        run_multiclient(
            specs, constant_trace(12.0),
            prepared_map={tiny_prepared.name: tiny_prepared},
        )


def test_stamps_and_trace_name_describe_the_link_that_ran(tiny_prepared):
    tracer = Tracer()
    result = _run(tiny_prepared, tracer=tracer)
    assert result.trace_name == "constant-12.0"
    stamped = [
        e.fields["spec_hash"] for e in tracer.events
        if e.type == "session_start"
    ]
    assert stamped == [c.spec.spec_hash() for c in result.clients]
    assert all(c.spec.trace == "constant-12.0" for c in result.clients)


def test_shared_trace_resolves_kwargs_and_shift(tiny_prepared):
    specs = _specs(
        2, tiny_prepared.name, trace="verizon", seed=2,
        trace_kwargs={"outage_prob": 0.2}, trace_shift_s=7.0,
    )
    shard = build_shard(
        specs, prepared_map={tiny_prepared.name: tiny_prepared}
    )
    expected = StackBuilder(specs[0]).resolve_trace()
    assert shard.bottleneck.trace.shift_s == 7.0
    assert (shard.bottleneck.trace.samples_mbps == expected.samples_mbps).all()
    plain = StackBuilder(specs[0].with_(trace_kwargs={})).resolve_trace()
    assert not (plain.samples_mbps == expected.samples_mbps).all()


def test_multiclient_packet_backend_runs(tiny_prepared):
    result = run_multiclient(
        _specs(2, tiny_prepared.name, backend="packet"),
        constant_trace(12.0),
        prepared_map={tiny_prepared.name: tiny_prepared},
    )
    for client in result.clients:
        assert len(client.metrics.records) == 6
    assert 0.0 < result.jain_index <= 1.0


_SOLO_CASES = {
    "fault-free": {},
    "mixed": dict(faults=CHAOS_PROFILES["mixed"], request_timeout_s=3.0),
    "blackout": dict(
        faults={"events": [{"kind": "blackout", "at": 1.0, "duration": 1.0}]},
        request_timeout_s=2.0, retry_backoff_s=0.2,
    ),
    # No queue size: each backend's bottleneck picks its own default.
    "default-queue": dict(queue_packets=None),
}


@pytest.mark.parametrize("case", list(_SOLO_CASES))
@pytest.mark.parametrize("backend", ("round", "packet"))
def test_solo_session_is_a_one_client_shard(tiny_prepared, backend, case):
    """A solo session runs on its own kernel exactly as a shard's client
    runs on the shard's: same metrics, summary and per-segment records."""
    spec = ScenarioSpec(
        video="tinytest", abr="abr_star", trace="verizon", seed=0,
        buffer_segments=2, backend=backend, **_SOLO_CASES[case],
    )
    solo = stream_spec(spec, prepared=tiny_prepared).metrics
    shard = run_multiclient(
        [spec], prepared_map={"tinytest": tiny_prepared}
    ).clients[0].metrics
    assert solo.summary() == shard.summary()
    assert solo.records == shard.records


@pytest.mark.parametrize("backend", ("round", "packet"))
def test_every_client_rides_the_shard_bottleneck(tiny_prepared, backend):
    shard = build_shard(
        _specs(3, tiny_prepared.name, backend=backend),
        constant_trace(12.0),
        prepared_map={tiny_prepared.name: tiny_prepared},
    )
    attr = "link" if backend == "round" else "router"
    for session in shard.sessions:
        assert getattr(session.connection, attr) is shard.bottleneck
    if backend == "round":
        assert shard.bottleneck.flows == 3


@pytest.fixture(scope="module")
def short_prepared():
    """A 3-segment video: half the tiny video's playing time."""
    profile = ContentProfile(
        name="tinyshort", title="Short Test Video", genre="Test",
        segments=3, motion_mean=0.4, motion_spread=0.2, complexity=0.5,
        scene_cut_rate=1.0, size_std_mbps=3.0, static_fraction=0.15,
    )
    return prepare(encode_video(profile))


@pytest.mark.parametrize("backend", ("round", "packet"))
def test_shard_faults_span_the_longest_playback(
    tiny_prepared, short_prepared, backend
):
    """Count-placed faults spread over the longest client's playback,
    whichever client comes first."""
    prepared_map = {p.name: p for p in (short_prepared, tiny_prepared)}
    faults = {"events": [{"kind": "blackout", "count": 3, "duration": 1.0}]}
    specs = [
        ScenarioSpec(video=name, trace="verizon", backend=backend,
                     faults=faults)
        for name in ("tinyshort", "tinytest")
    ]
    shard = build_shard(specs, prepared_map=prepared_map)
    trace = StackBuilder(specs[0]).resolve_trace()
    short, longest = (
        StackBuilder(spec, prepared_map=prepared_map).fault_plan(trace)
        for spec in specs
    )
    assert shard.bottleneck.fault_plan.windows == longest.windows
    assert short.windows != longest.windows


# ---------------------------------------------------------------------------
# Parallel trial executor: serial/parallel identity.
# ---------------------------------------------------------------------------
def _config(video):
    return ScenarioSpec(
        video=video,
        abr="bola",
        trace="constant:16",
        repetitions=4,
        seed=3,
    )


def test_parallel_trials_identical_to_serial(tiny_prepared):
    config = _config(tiny_prepared.name)
    serial = run_trials(
        config, prepared=tiny_prepared, collect_traces=True
    )
    parallel = run_trials(
        config, prepared=tiny_prepared, workers=2, collect_traces=True
    )
    assert serial.sessions == parallel.sessions
    assert serial.metrics == parallel.metrics
    assert serial.traces == parallel.traces
    assert len(serial.traces) == 4


def test_parallel_traces_off_by_default(tiny_prepared):
    summary = run_trials(_config(tiny_prepared.name), prepared=tiny_prepared)
    assert summary.traces is None


# ---------------------------------------------------------------------------
# Labels and session ids: distinguishable clients in mixed populations.
# ---------------------------------------------------------------------------
def test_label_index_disambiguates_repeated_specs():
    spec = ScenarioSpec(abr="bola", video="bbb", reliability="quic*")
    assert client_label(spec) == "bola/Q*"
    assert client_label(spec, 3) == "bola/Q*#3"
    assert client_label(spec, 0) == "bola/Q*#0"


def test_result_rows_carry_unique_labels(tiny_prepared):
    # 8 clients over a 4-way cycle: specs repeat, labels must not.
    result = _run(tiny_prepared, count=8)
    labels = [row["label"] for row in result.rows()]
    assert len(labels) == 8
    assert len(set(labels)) == 8, labels
    # Ordering survives: row i belongs to client i.
    for i, label in enumerate(labels):
        assert label.endswith(f"#{i}")


def test_custom_session_ids_tag_events(tiny_prepared):
    tracer = Tracer()
    ids = ["alpha", "beta"]
    result = run_multiclient(
        _specs(2, tiny_prepared.name),
        constant_trace(12.0),
        tracer=tracer,
        prepared_map={tiny_prepared.name: tiny_prepared},
        session_ids=ids,
    )
    assert [c.session_id for c in result.clients] == ids
    tagged = {
        e.fields.get("session_id")
        for e in tracer.events
        if e.fields.get("session_id")
    }
    assert tagged == set(ids)


def test_session_ids_length_mismatch_rejected(tiny_prepared):
    with pytest.raises(ValueError):
        run_multiclient(
            _specs(2, tiny_prepared.name),
            constant_trace(12.0),
            prepared_map={tiny_prepared.name: tiny_prepared},
            session_ids=["only-one"],
        )
