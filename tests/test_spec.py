"""Scenario spine: spec serialization, stable hashing, builder parity.

The golden tests here are the refactor's safety net: a session built
from a :class:`ScenarioSpec` through :class:`StackBuilder` must be
byte-identical to the same spec wired by hand (make_abr + get_trace +
StreamingSession) for both transport backends.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.abr import make_abr
from repro.core.api import stream, stream_spec
from repro.core.build import StackBuilder
from repro.core.spec import RELIABILITY_MODES, ScenarioSpec
from repro.network.traces import constant_trace, get_trace
from repro.obs.tracer import Tracer
from repro.player.session import StreamingSession


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------
def test_spec_json_round_trip_identity():
    spec = ScenarioSpec(
        video="bbb",
        abr="abr_star",
        abr_kwargs={"gamma": 5.0},
        trace="tmobile",
        seed=7,
        trace_shift_s=42.0,
        reliability="quic",
        buffer_segments=1,
        backend="packet",
    )
    clone = ScenarioSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.to_json() == spec.to_json()


def test_spec_defaults_round_trip():
    spec = ScenarioSpec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_spec_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
        ScenarioSpec.from_dict({"video": "bbb", "abr_name": "bola"})


def test_spec_is_frozen_and_hashable():
    spec = ScenarioSpec()
    with pytest.raises(AttributeError):
        spec.video = "ed"
    assert spec in {spec}


def test_with_override():
    spec = ScenarioSpec(abr="bola")
    other = spec.with_(abr="mpc", seed=3)
    assert other.abr == "mpc" and other.seed == 3
    assert spec.abr == "bola" and spec.seed == 0
    assert other.spec_hash() != spec.spec_hash()


def test_reliability_modes():
    for mode in RELIABILITY_MODES:
        spec = ScenarioSpec(reliability=mode)
        assert spec.partially_reliable == mode.startswith("quic*")
        assert spec.force_reliable_payload == mode.endswith("-rel")
    with pytest.raises(ValueError, match="unknown reliability"):
        ScenarioSpec(reliability="tcp").to_dict()


# ---------------------------------------------------------------------------
# Hash stability
# ---------------------------------------------------------------------------
def test_spec_hash_is_stable_across_processes():
    """The content hash must not depend on PYTHONHASHSEED or process."""
    spec = ScenarioSpec(abr="bola", trace="att", seed=3, buffer_segments=2)
    code = (
        "from repro.core.spec import ScenarioSpec;"
        "print(ScenarioSpec.from_json({!r}).spec_hash())".format(
            spec.to_json()
        )
    )
    hashes = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        hashes.add(out.stdout.strip())
    assert hashes == {spec.spec_hash()}


def test_spec_rejects_a_metric_sessions_do_not_score():
    assert ScenarioSpec(metric="SSIM").metric == "SSIM"
    with pytest.raises(ValueError, match="abr_kwargs"):
        ScenarioSpec(metric="vmaf")


@pytest.mark.parametrize("field,value", [
    ("buffer_segments", 0), ("manifest_fetch", "bogus"),
])
def test_spec_rejects_values_a_session_cannot_run(field, value):
    # Rejected when the spec is built, so a sweep fails before any cell
    # runs, whatever its worker count.
    with pytest.raises(ValueError, match=field):
        ScenarioSpec(**{field: value})


def test_spec_hash_ignores_dict_insertion_order():
    a = ScenarioSpec.from_dict({"abr": "bola", "trace": "att"})
    b = ScenarioSpec.from_dict({"trace": "att", "abr": "bola"})
    assert a.spec_hash() == b.spec_hash()


def test_spec_hash_distinguishes_fields():
    base = ScenarioSpec()
    assert base.spec_hash() != base.with_(seed=1).spec_hash()
    assert base.spec_hash() != base.with_(backend="packet").spec_hash()


# ---------------------------------------------------------------------------
# Golden: builder output == the same spec wired by hand
# ---------------------------------------------------------------------------
GOLDEN_SCENARIOS = [
    # (abr, reliability, backend, knobs) — the representative corners.
    ("bola", "quic", "round", {}),
    ("abr_star", "quic*", "round", {}),
    ("abr_star", "quic*", "packet", {}),
    # Every session knob off its default (faults and cross traffic are
    # the builder's to realize, so they stay off).
    ("abr_star", "quic*", "round", {
        "selective_retransmission": False,
        "retx_buffer_threshold": 0.25,
        "queue_packets": 64,
        "base_rtt": 0.1,
        "manifest_fetch": "incremental",
        "manifest_window_segments": 2,
        "server_voxel_aware": False,
        "request_timeout_s": 4.0,
    }),
]


@pytest.mark.parametrize(
    "abr,reliability,backend,knobs", GOLDEN_SCENARIOS,
    ids=[f"{a}-{r}-{b}" + ("-knobs" if k else "")
         for a, r, b, k in GOLDEN_SCENARIOS],
)
def test_builder_matches_legacy_wiring(tiny_prepared, abr, reliability,
                                       backend, knobs):
    spec = ScenarioSpec(
        video="tinytest", abr=abr, trace="verizon", seed=0,
        reliability=reliability, backend=backend, buffer_segments=2,
        **knobs,
    )
    built = StackBuilder(spec, prepared=tiny_prepared).build().run()

    # The same spec, wired by hand.
    hand_wired = StreamingSession(
        tiny_prepared,
        make_abr(abr, prepared=tiny_prepared),
        get_trace("verizon", seed=0),
        spec,
    ).run()

    assert built == hand_wired


def test_builder_validate_rejects_unknowns(tiny_prepared):
    good = ScenarioSpec(video="tinytest", abr="bola")
    StackBuilder(good, prepared=tiny_prepared).validate()
    with pytest.raises(KeyError, match="unknown ABR"):
        StackBuilder(good.with_(abr="nope"),
                     prepared=tiny_prepared).validate()
    with pytest.raises(KeyError, match="unknown trace"):
        StackBuilder(good.with_(trace="nope"),
                     prepared=tiny_prepared).validate()
    with pytest.raises(ValueError, match="backend"):
        StackBuilder(good.with_(backend="nope"),
                     prepared=tiny_prepared).validate()
    with pytest.raises(KeyError, match="unknown video"):
        StackBuilder(ScenarioSpec(video="nope")).validate()


def test_spec_hash_stamped_into_trace_header(tiny_prepared):
    spec = ScenarioSpec(video="tinytest", abr="bola", trace="verizon",
                        buffer_segments=1)
    tracer = Tracer()
    StackBuilder(spec, prepared=tiny_prepared).build(tracer=tracer).run()
    starts = [e for e in tracer.events if e.type == "session_start"]
    assert len(starts) == 1
    assert starts[0].fields["spec_hash"] == spec.spec_hash()


# ---------------------------------------------------------------------------
# stream() compatibility shims
# ---------------------------------------------------------------------------
def test_stream_rejects_seed_with_explicit_trace(tiny_prepared):
    with pytest.raises(ValueError, match="seed"):
        stream(tiny_prepared, network_trace=constant_trace(10.0), seed=3)


def test_stream_explicit_trace_without_seed_ok(tiny_prepared):
    result = stream(tiny_prepared, network_trace=constant_trace(10.0))
    assert len(result.metrics.records) == 6


def test_stream_unexpected_kwarg_still_typeerror(tiny_prepared):
    # Keywords are spec fields: the old session-config spellings
    # (transport_backend, force_reliable_payload) are unknown names.
    for name in ("bogus", "transport_backend", "force_reliable_payload"):
        with pytest.raises(TypeError, match=f"unexpected keyword.*'{name}'"):
            stream(tiny_prepared, **{name: True})


def test_stream_takes_any_reliability_mode(tiny_prepared):
    # reliability is a spec field like the rest, -rel modes included.
    fields = {"reliability": "quic*-rel", "trace": "constant:10.5"}
    result = stream(tiny_prepared, **fields)
    expected = stream_spec(
        ScenarioSpec(video=tiny_prepared.video.name, **fields),
        prepared=tiny_prepared,
    )
    assert result.metrics.summary() == expected.metrics.summary()
    assert result.metrics.scores.tolist() == expected.metrics.scores.tolist()


def test_stream_rejects_a_metric_sessions_do_not_score(tiny_prepared):
    from repro.qoe.metrics import VMAF

    with pytest.raises(ValueError, match="abr_kwargs"):
        stream(tiny_prepared, metric=VMAF)
