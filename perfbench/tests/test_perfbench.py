"""Tests of the benchmark itself: tracing, verification, CPU accounting."""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time

import pytest

import host
import layers
import run
import speed
import workloads
from repro.core.api import stream
from repro.experiments.fleet import ClientGroup, FleetSpec, run_fleet
from repro.prep.prepare import prepare
from repro.video.content import ContentProfile
from repro.video.encoder import encode_video

#: The modules that bind ``decode_segment`` by ``from ... import``.
DECODE_ALIASES = ("repro.qoe.model", "repro.qoe", "repro.prep.prepare",
                  "repro.prep.analysis", "repro.abr.beta",
                  "repro.player.session")


@pytest.fixture(scope="module")
def small_video():
    """A 4-segment synthetic video: cheap to prepare, full ladder."""
    return encode_video(ContentProfile(
        name="benchsmall", title="Benchmark Fixture", genre="Test",
        segments=4, motion_mean=0.4, static_fraction=0.15,
    ))


@pytest.fixture()
def traced(tmp_path):
    recorder = layers.Recorder(str(tmp_path))
    installation = layers.install(recorder)
    try:
        yield recorder
    finally:
        installation.undo()


def test_decode_wrapper_catches_every_alias(small_video, traced):
    from repro.qoe import model

    original = model.decode_segment.__wrapped__
    for name in DECODE_ALIASES:
        assert sys.modules[name].decode_segment is model.decode_segment

    # Independent count: every Python-level call of the original code
    # object, whichever binding the caller went through.
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is original.__code__:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        # Through the program's own binding: this module's ``prepare``
        # was imported before the wrappers existed.
        prepared = sys.modules["repro.prep.prepare"].prepare(small_video)
        stream(prepared, abr="beta", trace="constant:10.5")  # abr, player
    finally:
        sys.setprofile(None)

    assert calls[0] > 100
    assert traced.values["qoe.decode_calls"] == calls[0]
    assert traced.values["prep.prepare_calls"] == 1
    assert traced.values["player.sessions"] == 1
    assert traced.values["player.segments"] == small_video.num_segments


def test_undo_restores_every_binding(tmp_path):
    from repro.network.link import BottleneckLink
    from repro.qoe import model

    before = {name: sys.modules[name].decode_segment
              for name in DECODE_ALIASES}
    offer_round = BottleneckLink.__dict__["offer_round"]
    installation = layers.install(layers.Recorder(str(tmp_path)))
    assert BottleneckLink.__dict__["offer_round"] is not offer_round
    installation.undo()
    assert BottleneckLink.__dict__["offer_round"] is offer_round
    for name in DECODE_ALIASES:
        assert sys.modules[name].decode_segment is before[name]
    assert not hasattr(model.decode_segment, "__wrapped__")


def test_generator_proxy_keeps_protocol_and_times_resumptions(tmp_path):
    recorder = layers.Recorder(str(tmp_path))

    def inner():
        time.sleep(0.01)
        received = yield 1
        return received * 2

    def outer(gen):
        value = yield from gen
        return value

    proxy = layers._generator(inner, recorder, "transport.fetch_calls")()
    delegator = outer(proxy)
    assert next(delegator) == 1
    with pytest.raises(StopIteration) as stop:
        delegator.send(21)
    assert stop.value.value == 42
    assert recorder.values["transport.fetch_calls"] == 1
    assert recorder.values["transport.self_s"] >= 0.01
    assert recorder.stack == []


def test_self_time_excludes_enclosed_spans(tmp_path):
    recorder = layers.Recorder(str(tmp_path))
    inner = layers._span(lambda: time.sleep(0.02), recorder,
                         "qoe.decode_s", "qoe.decode_calls")

    def work():
        inner()
        time.sleep(0.01)

    outer = layers._span(work, recorder, "prep.self_s", "prep.prepare_calls")
    outer()
    assert recorder.values["qoe.decode_s"] >= 0.02
    assert 0.01 <= recorder.values["prep.self_s"] < 0.02


def test_pool_children_report_their_records(small_video, traced):
    prepared = prepare(small_video)
    spec = FleetSpec(clients=4, shards=2, trace="constant:10.5",
                     groups=(ClientGroup(video="benchsmall"),))
    result = run_fleet(spec, workers=2,
                       prepared_map={"benchsmall": prepared})
    assert result.degraded is None
    assert traced.values["execution.tasks"] == 2
    assert traced.values["execution.attempts"] == 2
    assert traced.values["player.sessions"] == 4
    assert traced.values["player.segments"] == 4 * small_video.num_segments
    assert os.listdir(traced.spool) == []


class _Constant(workloads.Workload):
    """Workload whose ops return fixed strings: verification only."""

    name = "constant"
    OUTPUTS = {"a": "alpha", "b": "beta", "c": "gamma"}

    def ops(self, seed, rnd):
        for label, value in self.OUTPUTS.items():
            yield workloads.Op(label, lambda value=value: value)

    def digest(self, output):
        return hashlib.sha256(output.encode()).hexdigest()

    def content_s(self, output):
        return 300.0


def test_perturbed_digest_counts_as_failed_op():
    workload = _Constant()
    goldens = {label: workload.digest(value)
               for label, value in workload.OUTPUTS.items()}
    records = []
    run.run_ops(workload, workload.ops(0, 0), goldens, records)
    assert [r.ok for r in records] == [True, True, True]

    perturbed = dict(goldens, b="0" * 64)
    records = []
    run.run_ops(workload, workload.ops(0, 0), perturbed, records)
    assert [r.label for r in records if not r.ok] == ["b"]
    result = run._result(records, [], {"x": 1.0}, (("x", "s"),),
                         io.StringIO())
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_exception_counts_as_failed_op():
    workload = _Constant()

    def boom():
        raise RuntimeError("op failed")

    records = []
    run.run_ops(workload, [workloads.Op("x", boom)], {}, records)
    assert len(records) == 1 and not records[0].ok
    assert "RuntimeError" in records[0].error


def test_cpu_accounting_includes_reaped_child():
    before = host.usage()
    pid = os.fork()
    if pid == 0:  # child: burn CPU, leave without cleanup
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
        os._exit(0)
    os.waitpid(pid, 0)
    used = host.usage() - before
    assert used.child_cpu_s >= 0.25
    assert used.cpu_s == pytest.approx(used.self_cpu_s + used.child_cpu_s)


def test_benchmark_json_matches_the_catalogs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER_METRICS)


def test_steal_share_leaves_idle_time_out():
    # (steal, busy) jiffies: 10 stolen out of 100 wanted, however long
    # the vCPUs idled in between.
    assert host.steal_share((5, 1000), (15, 1090)) == pytest.approx(0.1)
    assert host.steal_share((5, 1000), (5, 1000)) == 0.0
    assert host.steal_share(None, (5, 1000)) == 0.0


def test_window_scales_an_op_to_reference_speed():
    ref = speed.PROBE_REF_S
    meter = speed.Speedometer()
    # Probes at t = 0, 1, 2, 3: the host at full, half, half and full
    # reference speed.
    meter.probes = [speed.Probe(t, c) for t, c in
                    ((0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref))]
    window = meter.window(0.5, 2.5)
    assert window.probes == 2
    assert window.cpu_s == pytest.approx(4 * ref)
    # Inside: two half-speed probes; around: one full-speed each side.
    assert window.speed == pytest.approx((1 + 0.5 + 0.5 + 1) / 4)

    # An op of 2 s wall and 1.5 s CPU, 4 * ref of it in the probes.
    record = run.OpRecord("op", 2.0, host.Usage(1.0, 0.5, 0, 0), "d",
                          300.0, window=window)
    assert record.ref_wall_s == pytest.approx(
        2.0 * (1 - 4 * ref / 1.5) * 0.75)
    assert record.ref_cpu_s == pytest.approx((1.5 - 4 * ref) * 0.75)
    # A span between two probes still gets their speed.
    assert meter.window(1.2, 1.4) == speed.Window(0, 0.0, 0.5)
    assert meter.window(5.0, 6.0).speed == pytest.approx(1.0)


def test_speedometer_probes_only_while_started():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(interval_s=0.02).start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        meter.stop()
    taken = len(meter.probes)
    assert taken >= 5
    assert all(p.cpu_s > 0 for p in meter.probes)
    time.sleep(0.1)
    assert len(meter.probes) == taken
    assert signal.getsignal(signal.SIGALRM) is before


def test_probes_leave_outputs_unchanged(small_video):
    plain = workloads.manifest_digest(prepare(small_video))
    meter = speed.Speedometer(interval_s=0.005).start()
    try:
        probed = prepare(small_video)
    finally:
        meter.stop()
    assert len(meter.probes) > 10
    assert workloads.manifest_digest(probed) == plain


def test_pool_workers_spool_their_probes(tmp_path):
    meter = speed.Speedometer(interval_s=0.01, spool=str(tmp_path)).start()
    try:
        meter.quiet = True  # as during an op that fans out
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # a worker: busy, then gone without cleanup
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
        t1 = time.perf_counter()
        meter.quiet = False
    finally:
        meter.stop()
    assert meter.window(t0, t1).probes == 0  # the parent kept quiet
    meter.collect()
    assert meter.window(t0, t1).probes >= 5
    assert os.listdir(tmp_path) == []
    starts = [p.start for p in meter.probes]
    assert starts == sorted(starts)
