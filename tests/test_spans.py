"""Profiler (player spans + CPU sampler), perf ledger, ``repro diff``."""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import re
import signal
import sys
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro.core.spec import ScenarioSpec
from repro.obs import spans
from repro.obs.diff import diff_files, diff_ledgers, format_diff
from repro.obs.ledger import (
    build_ledger,
    collapsed_stacks,
    format_ledger,
    load_ledger,
    profile_trials,
    write_ledger,
)
from repro.obs.spans import SpanProfiler, subsystem_of


@pytest.fixture(autouse=True)
def _clean_span_state():
    """No test leaks an installed profiler."""
    yield
    spans.install(None)


class FakeClock:
    def __init__(self):
        self.now = 0.0


def _tree(prof: SpanProfiler):
    return prof.tree_dict()["tree"].get("children", {})


def _fake_frame(*entries):
    """A frame chain, outermost entry first: ``(module, qualname)``."""
    frame = None
    for module, qualname in entries:
        frame = SimpleNamespace(
            f_globals={"__name__": module},
            f_code=SimpleNamespace(**{spans._CODE_NAME: qualname}),
            f_back=frame,
        )
    return frame


class TestSpanProfiler:
    def test_tree_shape_and_counts(self):
        prof = SpanProfiler()
        stack = prof.stack(FakeClock())
        for _ in range(3):
            segment = stack.push("segment")
            stack.pop(stack.push("request"))
            stack.pop(segment)
        tree = _tree(prof)
        assert set(tree) == {"segment"}
        assert tree["segment"]["count"] == 3
        assert tree["segment"]["children"]["request"]["count"] == 3
        assert prof.total_spans == 6
        assert prof.node_count == 2

    def test_self_excludes_children(self):
        prof = SpanProfiler()
        prof.sample(_fake_frame(
            ("repro.player.session", "StreamingSession.steps"),
            ("repro.transport.connection", "QuicConnection.download_iter"),
            ("numpy.core.fromnumeric", "sum"),
        ), 0.004)
        prof.sample(_fake_frame(
            ("repro.player.session", "StreamingSession.steps"),
            ("repro.abr.bola", "Bola.choose"),
            ("repro.prep.manifest", "VoxelManifest.segment_sizes"),
        ), 0.006)
        prof.sample(_fake_frame(("threading", "run")), 0.002)
        table = prof.subsystem_table()
        # Self time goes to the innermost repro frame with a subsystem:
        # numpy's to transport, the manifest read to the ABR calling it.
        assert table["transport"]["self_s"] == pytest.approx(0.004)
        assert table["abr"]["self_s"] == pytest.approx(0.006)
        assert table["other"]["self_s"] == pytest.approx(0.002)
        assert table["player"]["self_s"] == 0.0
        assert table["player"]["cum_s"] == pytest.approx(0.010)
        assert "prep" not in table
        assert prof.sample_count == 3
        assert prof.cpu_s == pytest.approx(0.012)
        assert set(prof.to_dict()["samples"]) == {
            "repro.player.session:StreamingSession.steps;"
            "repro.transport.connection:QuicConnection.download_iter",
            "repro.player.session:StreamingSession.steps;"
            "repro.abr.bola:Bola.choose;"
            "repro.prep.manifest:VoxelManifest.segment_sizes",
            "(outside repro)",
        }
        top = prof.hotspots(1)[0]
        assert top["function"] == (
            "repro.prep.manifest:VoxelManifest.segment_sizes"
        )
        assert top["subsystem"] == "abr" and top["samples"] == 1

    def test_sim_plane_uses_bound_clock(self):
        clock = FakeClock()
        clock.now = 2.5
        prof = SpanProfiler()
        stack = prof.stack(clock)
        frame = stack.push("request")
        clock.now = 4.0
        stack.pop(frame)
        assert _tree(prof)["request"]["sim_s"] == pytest.approx(1.5)

    def test_stacks_interleave_without_nesting(self):
        prof = SpanProfiler()
        clock = FakeClock()
        a, b = prof.stack(clock), prof.stack(clock)
        a_session = a.push("session")
        b_session = b.push("session")
        a_segment = a.push("segment")
        clock.now = 1.0
        b.pop(b_session)  # must not unwind a's segment
        assert a._open == [a_session, a_segment]
        clock.now = 3.0
        a.pop(a_session)
        tree = _tree(prof)
        assert set(tree) == {"session"}
        assert tree["session"]["count"] == 2
        assert tree["session"]["sim_s"] == pytest.approx(4.0)
        assert tree["session"]["children"]["segment"]["count"] == 1

    def test_pop_unwinds_to_handle(self):
        prof = SpanProfiler()
        stack = prof.stack(FakeClock())
        outer = stack.push("outer")
        stack.push("mid")
        stack.push("leaf")
        stack.pop(outer)  # closes leaf, mid, then outer
        assert not stack._open
        assert prof.total_spans == 3

    def test_pop_stale_handle_is_noop(self):
        prof = SpanProfiler()
        first = prof.stack(FakeClock())
        second = prof.stack(FakeClock())
        foreign = first.push("request")
        live = second.push("session")
        second.pop(foreign)
        assert second._open == [live]
        second.pop(live)
        assert prof.total_spans == 1

    def test_merge_and_serialize_roundtrip(self):
        a = SpanProfiler()
        stack = a.stack(FakeClock())
        segment = stack.push("segment")
        stack.pop(stack.push("request"))
        stack.pop(segment)
        a.sample(_fake_frame(("repro.abr.bola", "Bola.choose")), 0.004)
        b = SpanProfiler()
        stack = b.stack(FakeClock())
        stack.pop(stack.push("segment"))
        b.sample(_fake_frame(("repro.abr.bola", "Bola.choose")), 0.008)
        merged = SpanProfiler()
        merged.merge_dict(a.to_dict())
        merged.merge_dict(b.to_dict())
        tree = _tree(merged)
        assert tree["segment"]["count"] == 2
        assert tree["segment"]["children"]["request"]["count"] == 1
        assert merged.sample_count == 2
        assert merged.cpu_s == pytest.approx(0.012)
        # Round-trip through JSON preserves the state (floats are exact).
        restored = SpanProfiler.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert restored.to_dict() == merged.to_dict()
        assert restored.tree_hash() == merged.tree_hash()

    def test_deterministic_dict_excludes_wall_fields(self):
        # The tree holds no wall or CPU field at all, and samples never
        # move its hash.
        prof = SpanProfiler()
        stack = prof.stack(FakeClock())
        stack.pop(stack.push("segment"))
        before = prof.tree_hash()
        prof.sample(_fake_frame(("repro.abr.bola", "Bola.choose")), 0.1)
        assert prof.tree_hash() == before
        assert "samples" not in prof.tree_dict()
        node = prof.tree_dict()["tree"]["children"]["segment"]
        assert set(node) == {"count", "sim_s"}

    def test_from_dict_rejects_unknown_version(self):
        # Version 1 is the probe profiler's state (wall-time spans).
        for version in (1, 99):
            with pytest.raises(ValueError, match="version"):
                SpanProfiler.from_dict({"spans_version": version, "tree": {}})

    def test_collapsed_format(self):
        prof = SpanProfiler()
        prof.sample(sys._getframe(), 0.004)
        assert prof.to_dict()["samples"] == {"(outside repro)": [1, 0.004]}

        def sample_here():
            prof.sample(sys._getframe(), 0.002)

        # A repro frame calling back into this test: the collapsed path
        # holds only repro frames, outermost first.
        from repro.obs.tracer import StreamingTracer

        tracer = StreamingTracer(observers=[lambda event: sample_here()])
        tracer.bind_clock(FakeClock())
        tracer.emit("session_end", buf_ratio=0.0, total_stall=0.0,
                    startup_delay=0.0, mean_score=1.0, segments=0)
        ledger = build_ledger(prof, wall_s=0.1, meta=False)
        lines = collapsed_stacks(ledger).splitlines()
        # Code objects name the class from Python 3.11 (co_qualname).
        cls = "StreamingTracer." if sys.version_info >= (3, 11) else ""
        assert lines == [
            "(outside repro) 4000",
            f"repro.obs.tracer:{cls}emit;"
            f"repro.obs.tracer:{cls}emit_fields 2000",
        ]

    def test_sampled_names_without_qualname(self, monkeypatch):
        # Before Python 3.11 code objects have no co_qualname: the
        # sampler names each frame by its bare function name.
        from repro.obs.tracer import StreamingTracer

        monkeypatch.setattr(spans, "_CODE_NAME", "co_name")
        prof = SpanProfiler()
        tracer = StreamingTracer(
            observers=[lambda event: prof.sample(sys._getframe(), 0.001)]
        )
        tracer.bind_clock(FakeClock())
        tracer.emit("session_end", buf_ratio=0.0, total_stall=0.0,
                    startup_delay=0.0, mean_score=1.0, segments=0)
        assert list(prof.to_dict()["samples"]) == [
            "repro.obs.tracer:emit;repro.obs.tracer:emit_fields"
        ]

    def test_subsystem_table_no_same_subsystem_double_count(self):
        clock = FakeClock()
        prof = SpanProfiler()
        stack = prof.stack(clock)
        outer = stack.push("segment")
        clock.now = 1.0
        inner = stack.push("idle")
        clock.now = 3.0
        stack.pop(inner)
        stack.pop(outer)
        table = prof.subsystem_table()
        # Cumulative counts the outer span once, not outer + nested.
        assert table["player"]["sim_s"] == pytest.approx(3.0)
        assert table["player"]["count"] == 2
        # No samples: only the spans' subsystem is listed.
        assert set(table) == {"player"}


_LAYERS = {
    "repro.network": "link",
    "repro.transport": "transport",
    "repro.abr": "abr",
    "repro.qoe": "qoe",
    "repro.player": "player",
}


def test_every_layer_module_maps_to_its_layer():
    seen = 0
    for package, layer in _LAYERS.items():
        module = importlib.import_module(package)
        assert subsystem_of(package) == layer
        for info in pkgutil.walk_packages(
            module.__path__, prefix=package + "."
        ):
            expected = (
                "kernel" if info.name == "repro.network.events" else layer
            )
            assert subsystem_of(info.name) == expected, info.name
            seen += 1
    assert seen > 20
    assert subsystem_of("repro.experiments.execution") == "pool"
    assert subsystem_of("repro.obs.tracer") == "tracing"
    assert subsystem_of("repro.prep.manifest") is None
    assert subsystem_of("repro.prep.prepare") == "prep"
    assert subsystem_of("repro.video.encoder") == "prep"
    assert subsystem_of("repro.networking") == "other"
    assert subsystem_of("repro.cli") == "other"


def _signal_state():
    return (
        signal.getsignal(signal.SIGPROF),
        signal.getitimer(signal.ITIMER_PROF),
    )


def test_profiled_restores_the_signal_state():
    before = _signal_state()
    with spans.profiled():
        inside = _signal_state()
        assert inside[0] is not before[0]
        assert inside[1][1] > 0.0  # the sampler's timer runs
        with spans.profiled():
            pass
        # The inner exit leaves the outer sampler as it found it.
        handler, (_, interval) = _signal_state()
        assert handler is inside[0]
        assert interval == inside[1][1]
    assert _signal_state() == before
    with spans.profiled():
        pass
    assert _signal_state() == before


def test_sampled_transport_round_stacks_span_the_layers(tiny_prepared):
    from repro.core.api import stream_spec
    from repro.obs import events as ev
    from repro.obs.tracer import StreamingTracer

    prof = SpanProfiler()

    def observer(event):
        if event.type == ev.TRANSPORT_ROUND:
            prof.sample(sys._getframe(), 0.001)

    stream_spec(
        ScenarioSpec(
            video=tiny_prepared.name, abr="abr_star", trace="verizon",
            seed=3,
        ),
        prepared=tiny_prepared,
        tracer=StreamingTracer(observers=[observer]),
    )
    assert prof.sample_count > 0
    cumulative = {
        name for name, row in prof.subsystem_table().items()
        if row["cum_s"] > 0
    }
    assert {"transport", "kernel", "player", "tracing"} <= cumulative
    # The observer is test code: the tracer's emit is the innermost
    # repro frame, so tracing holds all the self time.
    assert set(
        name for name, row in prof.subsystem_table().items()
        if row["self_s"] > 0
    ) == {"tracing"}


#: Golden hash of the deterministic span tree for the pinned scenario
#: below (tinytest fixture, bola, constant:20, 2 reps, seed 0).
#: Regenerate after an intentional simulation or instrumentation
#: change:
#:   PYTHONPATH=src python -c "..."  # see test_golden_tree_hash
_GOLDEN_SPEC = dict(
    abr="bola", trace="constant:20", repetitions=2, seed=0
)
_GOLDEN_TREE_HASH = (
    "38b4b96f1471fa3ed81f8a957c939baf8b3480fb3c4d23171bab7253adb4123d"
)


class TestRunnerDeterminism:
    def test_span_tree_identical_across_runs_and_workers(self, tiny_prepared):
        config = ScenarioSpec(
            video=tiny_prepared.name, **_GOLDEN_SPEC
        )
        hashes = []
        for workers in (1, 1, 4):
            prof, _, _ = profile_trials(
                config, prepared=tiny_prepared, workers=workers
            )
            assert prof.total_spans > 0
            hashes.append(prof.tree_hash())
        assert len(set(hashes)) == 1

    def test_golden_tree_hash(self, tiny_prepared):
        config = ScenarioSpec(
            video=tiny_prepared.name, **_GOLDEN_SPEC
        )
        prof, _, _ = profile_trials(config, prepared=tiny_prepared)
        assert prof.tree_hash() == _GOLDEN_TREE_HASH

    def test_profiling_state_propagates_to_forked_workers(
        self, tiny_prepared
    ):
        # Satellite: --profile at workers>1 must not be a silent no-op.
        # The forked path yields the same folded span totals as serial.
        config = ScenarioSpec(
            video=tiny_prepared.name, **_GOLDEN_SPEC
        )
        serial, _, _ = profile_trials(
            config, prepared=tiny_prepared, workers=1
        )
        forked, _, _ = profile_trials(
            config, prepared=tiny_prepared, workers=2
        )
        assert forked.total_spans == serial.total_spans > 0
        assert forked.total_sim_s == pytest.approx(serial.total_sim_s)

    def test_forked_repetitions_return_their_samples(self, tiny_prepared):
        # A fork()ed child inherits the installed profiler but not the
        # interval timer: each task's install must arm it again.  The
        # packet backend gives each child about 50 samples' worth of CPU.
        config = ScenarioSpec(
            video=tiny_prepared.name, backend="packet",
            **dict(_GOLDEN_SPEC, repetitions=4),
        )
        prof, _, wall_s = profile_trials(
            config, prepared=tiny_prepared, workers=2
        )
        ledger = build_ledger(prof, wall_s, meta=False)
        assert ledger["samples"] > 0
        simulated = sum(
            ledger["subsystems"].get(name, {}).get("self_s", 0.0)
            for name in ("kernel", "link", "transport", "abr", "qoe",
                         "player")
        )
        assert simulated > 0.0

    def test_interleaved_sessions_keep_their_own_spans(self, tiny_prepared):
        from repro.experiments.multiclient import (
            DEFAULT_SPECS,
            run_multiclient,
        )

        def nodes(prof):
            return {path for _, path in prof._walk()}

        # A constant 20 Mbps lets every client idle and repair, so a
        # solo session visits every node a session can open.
        fields = dict(video=tiny_prepared.name, trace="constant:20", seed=3)
        prepared_map = {tiny_prepared.name: tiny_prepared}
        with spans.profiled() as solo:
            run_multiclient(
                [DEFAULT_SPECS[0].with_(**fields)],
                prepared_map=prepared_map,
            )
        with spans.profiled() as shared:
            result = run_multiclient(
                [spec.with_(**fields) for spec in DEFAULT_SPECS],
                prepared_map=prepared_map,
            )
        assert nodes(shared) == nodes(solo)
        assert len(nodes(solo)) == 6
        session = _tree(shared)["session"]
        assert session["count"] == len(DEFAULT_SPECS)
        assert session["sim_s"] == pytest.approx(sum(
            client.metrics.wall_duration for client in result.clients
        ))
        assert shared.total_sim_s == pytest.approx(session["sim_s"])


#: Span-tree hashes of the profiled runs in
#: test_profiling_never_changes_results (tinytest fixture, abr_star for
#: solo runs, the DEFAULT_SPECS mix for shared-link runs, verizon,
#: seed 3).  They cover the player's spans over both backends, solo and
#: on a shared kernel, with and without the "mixed" chaos profile.
_IDENTITY_TREE_HASH = {
    "solo-round": (
        "0bd290d3492908c99bc785554d563b48db5b67a2d19af549b472bbc0d7f5ec6f"
    ),
    "solo-packet": (
        "c14840475e2867153ae59bd2d4116e07374904092f378989d18863bad19eda1e"
    ),
    "solo-round-mixed": (
        "df9db8731f90a95b5a2a08f26a5c4804bb4333f1414d957bc9b199648771e167"
    ),
    "mix-round": (
        "a3827ab2deb3529facb6bb11cd805b5c93adf8ebc4989fb1de45b2a57521dc68"
    ),
    "mix-round-mixed": (
        "8f1bf90a24a5dcb51323fb96d94cf35543624eeef74170ab82b1b163cdf8f37f"
    ),
    "mix-packet": (
        "fcc4aa30fef82506ea32e66e161e7fb892e59479aba8f2977e742545d97e4ca4"
    ),
    "mix-packet-mixed": (
        "ece916cef7aa4ca3f2f502607a7716245953fdcf374a6bea633d2dfd119a060d"
    ),
}


def _identity_run(case: str, prepared, profile: bool):
    """(sha256 of trace JSONL + summary/rows, tree hash or None)."""
    from repro.core.api import stream_spec
    from repro.experiments.chaos import CHAOS_PROFILES
    from repro.experiments.multiclient import DEFAULT_SPECS, run_multiclient
    from repro.obs.tracer import Tracer

    kind, backend, *chaos = case.split("-")
    fields = dict(video="tinytest", trace="verizon", seed=3, backend=backend)
    if chaos:
        fields.update(faults=CHAOS_PROFILES["mixed"], request_timeout_s=3.0)
    with (spans.profiled() if profile else nullcontext()) as prof:
        tracer = Tracer()
        if kind == "solo":
            result = stream_spec(
                ScenarioSpec(abr="abr_star", **fields),
                prepared=prepared, tracer=tracer,
            )
            outcome = result.metrics.summary()
        else:
            result = run_multiclient(
                [spec.with_(**fields) for spec in DEFAULT_SPECS],
                tracer=tracer, prepared_map={"tinytest": prepared},
            )
            outcome = result.rows()
    text = tracer.to_jsonl() + json.dumps(outcome, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return digest, (prof.tree_hash() if profile else None)


@pytest.mark.parametrize("case", list(_IDENTITY_TREE_HASH))
def test_profiling_never_changes_results(tiny_prepared, case):
    plain, _ = _identity_run(case, tiny_prepared, profile=False)
    metered, tree = _identity_run(case, tiny_prepared, profile=True)
    assert metered == plain
    assert tree == _IDENTITY_TREE_HASH[case]


_ABR_STACK = (
    "repro.player.session:StreamingSession.steps;"
    "repro.abr.bola:Bola.choose"
)
_TRANSPORT_STACK = (
    "repro.player.session:StreamingSession.steps;"
    "repro.transport.connection:QuicConnection.download_iter"
)


def _mini_profiler(abr_s: float, transport_s: float) -> SpanProfiler:
    return SpanProfiler.from_dict({
        "spans_version": spans.SPANS_VERSION,
        "tree": {},
        "samples": {
            _ABR_STACK: [10, abr_s],
            _TRANSPORT_STACK: [20, transport_s],
        },
    })


#: Valid JSON in another perf-file shape: no ``ledger_version``.
_NON_LEDGER = {
    "schema_version": 1,
    "benchmarks": {
        "macro.spans": {"wall_s": 0.1, "subsystems": {"abr": 0.02}},
    },
}


class TestLedgerAndDiff:
    def test_ledger_fields(self, tmp_path):
        prof = _mini_profiler(0.2, 0.1)
        ledger = build_ledger(
            prof, wall_s=0.5, label="cell", spec_hash="abc123",
            meta=False,
        )
        assert ledger["ledger_version"] == 2
        assert ledger["wall_s"] == pytest.approx(0.5)
        assert ledger["samples"] == 30
        assert ledger["cpu_s"] == pytest.approx(0.3)
        abr = ledger["subsystems"]["abr"]
        assert abr["self_s"] == pytest.approx(0.2)
        assert abr["self_pct"] == pytest.approx(200.0 / 3.0)
        assert abr["samples"] == 10
        assert ledger["subsystems"]["player"]["cum_s"] == pytest.approx(0.3)
        assert set(ledger["subsystems"]) == {"abr", "player", "transport"}
        assert ledger["hotspots"][0]["function"] == (
            "repro.abr.bola:Bola.choose"
        )
        assert ledger["deterministic"]["hash"] == prof.tree_hash()
        assert "tree" not in ledger
        text = format_ledger(ledger)
        assert "perf ledger" in text and "abr" in text
        assert "30 samples" in text
        path = tmp_path / "ledger.json"
        write_ledger(str(path), ledger)
        assert load_ledger(str(path))["label"] == "cell"

    def test_load_ledger_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ledger_version": 99}')
        with pytest.raises(ValueError, match="ledger_version"):
            load_ledger(str(path))

    def test_collapsed_stacks_from_ledger(self):
        ledger = build_ledger(
            _mini_profiler(0.2, 0.1), wall_s=0.5, meta=False
        )
        assert collapsed_stacks(ledger).splitlines() == [
            f"{_ABR_STACK} 200000",
            f"{_TRANSPORT_STACK} 100000",
        ]

    def test_diff_ledgers_attributes_top_subsystem(self):
        base = build_ledger(
            _mini_profiler(0.2, 0.1), wall_s=0.5, meta=False
        )
        cur = build_ledger(
            _mini_profiler(0.6, 0.1), wall_s=1.0, meta=False
        )
        result = diff_ledgers(base, cur, threshold_pct=10.0)
        assert result["failed"]  # +100% wall
        assert result["top"] == "abr"
        assert result["wall_delta_pct"] == pytest.approx(100.0)
        markdown = format_diff(result)
        assert "`abr`" in markdown
        assert "FAIL" in markdown

    def test_self_diff_names_no_prime_suspect(self):
        ledger = build_ledger(
            _mini_profiler(0.2, 0.1), wall_s=0.5, meta=False
        )
        result = diff_ledgers(ledger, ledger)
        assert all(
            entry["delta_s"] == 0.0
            for entry in result["subsystems"].values()
        )
        assert result["top"] is None
        assert result["top_delta_s"] == 0.0
        assert "Attribution" not in format_diff(result)

    def test_all_shrunk_diff_names_no_prime_suspect(self):
        base = build_ledger(
            _mini_profiler(0.6, 0.3), wall_s=1.0, meta=False
        )
        cur = build_ledger(
            _mini_profiler(0.2, 0.25), wall_s=0.5, meta=False
        )
        result = diff_ledgers(base, cur)
        table = result["subsystems"]
        assert table["abr"]["delta_s"] < table["transport"]["delta_s"] < 0
        assert all(entry["delta_s"] <= 0.0 for entry in table.values())
        assert result["top"] is None
        assert result["top_delta_s"] == 0.0
        assert "Attribution" not in format_diff(result)

    def test_one_grown_subsystem_is_the_prime_suspect(self):
        base = build_ledger(
            _mini_profiler(0.2, 0.3), wall_s=0.5, meta=False
        )
        cur = build_ledger(
            _mini_profiler(0.25, 0.1), wall_s=0.4, meta=False
        )
        result = diff_ledgers(base, cur)
        assert result["top"] == "abr"
        assert result["top_delta_s"] == pytest.approx(0.05)
        assert "`abr`" in format_diff(result)

    def test_diff_ledgers_under_threshold_passes(self):
        base = build_ledger(
            _mini_profiler(0.2, 0.1), wall_s=0.5, meta=False
        )
        cur = build_ledger(
            _mini_profiler(0.21, 0.1), wall_s=0.51, meta=False
        )
        result = diff_ledgers(base, cur, threshold_pct=10.0)
        assert not result["failed"]
        assert "ok" in format_diff(result)

    def test_diff_files_reads_ledgers_and_rejects_bench_payloads(
        self, tmp_path
    ):
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(json.dumps(_NON_LEDGER))
        ledger_path = tmp_path / "ledger.json"
        write_ledger(
            str(ledger_path),
            build_ledger(_mini_profiler(0.2, 0.1), 0.5, meta=False),
        )
        for base, cur in ((bench_path, ledger_path),
                          (ledger_path, bench_path)):
            with pytest.raises(
                ValueError,
                match="^" + re.escape(
                    f"{bench_path}: unsupported ledger_version None"
                ),
            ):
                diff_files(str(base), str(cur))
        result = diff_files(str(ledger_path), str(ledger_path))
        assert result["kind"] == "ledger" and not result["failed"]

    def test_load_ledger_rejects_garbage(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="unsupported ledger_version"):
            diff_files(str(path), str(path))
        path.write_text("{not json")
        with pytest.raises(ValueError, match="nope.json: unparseable JSON"):
            load_ledger(str(path))


class TestCLI:
    def test_cli_diff_markdown_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "a.json"
        cur = tmp_path / "b.json"
        write_ledger(
            str(base),
            build_ledger(_mini_profiler(0.2, 0.1), 0.5, meta=False),
        )
        write_ledger(
            str(cur),
            build_ledger(_mini_profiler(0.6, 0.1), 1.0, meta=False),
        )
        rc = main(["diff", str(base), str(cur), "--threshold", "10"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "`abr`" in out and "FAIL" in out
        rc = main(["diff", str(base), str(base)])
        assert rc == 0
        assert "Attribution" not in capsys.readouterr().out

    def test_cli_diff_json_names_subsystem(self, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "a.json"
        cur = tmp_path / "b.json"
        write_ledger(
            str(base),
            build_ledger(_mini_profiler(0.2, 0.1), 0.5, meta=False),
        )
        write_ledger(
            str(cur),
            build_ledger(_mini_profiler(0.6, 0.1), 1.0, meta=False),
        )
        rc = main(["--json", "diff", str(base), str(cur)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["top"] == "abr"
        assert payload["failed"] is True

    @pytest.mark.parametrize(
        "bad", ["absent", "not_json", "bench_shaped", "version_1"]
    )
    def test_cli_diff_bad_baseline_exits_2_in_one_line(
        self, bad, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / f"{bad}.json"
        if bad == "not_json":
            path.write_text("{not json")
        elif bad == "bench_shaped":
            path.write_text(json.dumps(_NON_LEDGER))
        elif bad == "version_1":
            # A ledger of probe wall time, before the sampler.
            path.write_text(json.dumps({
                "ledger_version": 1, "wall_s": 0.5, "subsystems": {},
            }))
        ledger = tmp_path / "ledger.json"
        write_ledger(
            str(ledger),
            build_ledger(_mini_profiler(0.2, 0.1), 0.5, meta=False),
        )
        for argv in (["diff"], ["--json", "diff"]):
            assert main(argv + [str(path), str(ledger)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert str(path) in captured.err
            assert "Traceback" not in captured.err

    def test_cli_profile_smoke(
        self, tiny_prepared, tmp_path, monkeypatch, capsys
    ):
        import importlib

        from repro.cli import main

        # The CLI checks the name against the catalog, then prepares
        # through the process cache: both know the fixture video here.
        # repro.prep re-exports the prepare() function over the
        # submodule attribute; import_module reaches the real module.
        prepare_mod = importlib.import_module("repro.prep.prepare")
        monkeypatch.setitem(
            prepare_mod._PREPARED_CACHE,
            (tiny_prepared.name, prepare_mod.DEFAULT_PARAMS), tiny_prepared,
        )
        content_mod = importlib.import_module("repro.video.content")
        monkeypatch.setattr(
            content_mod, "get_profile",
            lambda name: tiny_prepared.video.profile,
        )
        out = tmp_path / "ledger.json"
        folded = tmp_path / "prof.folded"
        rc = main([
            "profile", tiny_prepared.name, "--trace", "constant:20",
            "--reps", "1", "--out", str(out),
            "--collapsed", str(folded),
        ])
        assert rc == 0
        assert "perf ledger" in capsys.readouterr().out
        ledger = load_ledger(str(out))
        # One tinytest repetition takes a handful of samples at the
        # kernel's tick, too few to cover every layer (the sampled
        # attribution test does that); the spans always cover the
        # player.
        assert ledger["ledger_version"] == 2
        assert ledger["spans"] > 0
        assert isinstance(ledger["samples"], int)
        assert ledger["subsystems"]["player"]["count"] == ledger["spans"]
        for key in ("cpu_s", "hotspots", "stacks", "deterministic"):
            assert key in ledger
        assert len(ledger["deterministic"]["hash"]) == 64
        if ledger["samples"]:
            assert folded.read_text().strip()


def test_profile_spool_of_the_probe_profiler_is_refused(
    tiny_prepared, tmp_path, monkeypatch
):
    from repro.experiments.execution import CheckpointError
    from repro.experiments.fleet import ClientGroup, FleetSpec, run_fleet
    from repro.experiments.sweep import SweepSpec, run_sweep

    prepared = {tiny_prepared.name: tiny_prepared}
    fleet = FleetSpec(
        clients=2, shards=2, trace="constant:20",
        groups=(ClientGroup(abr="bola", video=tiny_prepared.name),),
    )
    sweep = SweepSpec(
        base={"video": tiny_prepared.name, "repetitions": 1,
              "trace": "constant:20"},
        grid={"abr": ["bola"]},
    )
    fleet_dir = str(tmp_path / "fleet")
    sweep_dir = str(tmp_path / "sweep")

    def run():
        with spans.profiled():
            run_fleet(fleet, prepared_map=prepared, checkpoint_dir=fleet_dir)
            run_sweep(sweep, prepared_map=prepared, checkpoint_dir=sweep_dir)

    # Version 1 writes the spools a --profile run wrote before the
    # sampler: the same run keys and version-1 profiler states.
    with monkeypatch.context() as patch:
        patch.setattr(spans, "SPANS_VERSION", 1)
        run()
    for resume in (
        lambda: run_fleet(
            fleet, prepared_map=prepared, checkpoint_dir=fleet_dir
        ),
        lambda: run_sweep(
            sweep, prepared_map=prepared, checkpoint_dir=sweep_dir,
        ),
    ):
        with spans.profiled() as prof:
            with pytest.raises(CheckpointError, match="different run"):
                resume()
        assert prof.total_spans == 0


class TestSweepLedgers:
    def test_sweep_profile_rows_worker_invariant(self, tiny_prepared):
        from repro.experiments.sweep import (
            SweepSpec,
            run_sweep,
            validate_rows,
        )

        spec = SweepSpec(
            base={
                "video": tiny_prepared.name,
                "repetitions": 1,
                "trace": "constant:20",
            },
            grid={"abr": ["bola", "abr_star"]},
        )
        prepared_map = {tiny_prepared.name: tiny_prepared}
        with spans.profiled():
            serial = run_sweep(spec, workers=1, prepared_map=prepared_map)
            forked = run_sweep(spec, workers=2, prepared_map=prepared_map)
        assert validate_rows(serial) == 2
        for row_s, row_f in zip(serial, forked):
            det_s = row_s["ledger"]["deterministic"]
            det_f = row_f["ledger"]["deterministic"]
            assert det_s["hash"] == det_f["hash"]
            assert det_s["tree"] == det_f["tree"]
            assert row_s["summary"] == row_f["summary"]

    def test_chaos_rows_carry_worker_invariant_ledgers(self, tiny_prepared):
        from repro.experiments.chaos import run_chaos

        def chaos(workers):
            return run_chaos(
                profiles=["mixed"], seeds=[0],
                base={"video": tiny_prepared.name}, workers=workers,
                prepared_map={tiny_prepared.name: tiny_prepared},
            )

        plain = chaos(1)
        with spans.profiled():
            serial = chaos(1)
            forked = chaos(2)
        assert len(plain) == len(serial) == len(forked) == 1
        for row_p, row_s, row_f in zip(plain, serial, forked):
            assert "ledger" not in row_p
            assert row_s["ledger"]["spans"] > 0
            assert (
                row_s["ledger"]["deterministic"]
                == row_f["ledger"]["deterministic"]
            )
            assert row_s["summary"] == row_f["summary"] == row_p["summary"]
