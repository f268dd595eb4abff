"""Span profiler, perf ledger, and ``repro diff`` attribution."""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import nullcontext

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
from repro.obs.spans import SpanProfiler


@pytest.fixture(autouse=True)
def _clean_span_state():
    """No test leaks an installed profiler."""
    yield
    spans.install(None)


class FakeClock:
    def __init__(self):
        self.now = 0.0


def _tree(prof: SpanProfiler):
    return prof.to_dict()["tree"].get("children", {})


class TestSpanProfiler:
    def test_tree_shape_and_counts(self):
        prof = SpanProfiler()
        for _ in range(3):
            with prof.span("segment", "player"):
                with prof.span("request", "player"):
                    pass
        tree = _tree(prof)
        assert set(tree) == {"segment"}
        assert tree["segment"]["count"] == 3
        assert tree["segment"]["children"]["request"]["count"] == 3
        assert prof.total_spans == 6
        assert prof.node_count == 2

    def test_self_excludes_children(self):
        prof = SpanProfiler()
        outer = prof.push("outer", "player")
        inner = prof.push("inner", "abr")
        prof.pop(inner)
        prof.pop(outer)
        nodes = {node.name: node for node, _ in prof._walk()}
        assert nodes["outer"].wall_s >= nodes["inner"].wall_s
        assert nodes["outer"].self_wall_s == pytest.approx(
            nodes["outer"].wall_s - nodes["inner"].wall_s, abs=1e-9
        )

    def test_sim_plane_uses_bound_clock(self):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        frame = prof.push("round", "transport")
        clock.now = 2.5
        prof.pop(frame)
        assert _tree(prof)["round"]["sim_s"] == pytest.approx(2.5)

    def test_span_pushed_before_clock_bind_has_no_sim_time(self):
        prof = SpanProfiler()
        frame = prof.push("early", "player")
        clock = FakeClock()
        clock.now = 9.0
        prof.bind_clock(clock)
        prof.pop(frame)
        assert _tree(prof)["early"]["sim_s"] == 0.0

    def test_pop_unwinds_to_handle(self):
        prof = SpanProfiler()
        outer = prof.push("outer", "player")
        prof.push("mid", "transport")
        prof.push("leaf", "link")
        prof.pop(outer)  # closes leaf, mid, then outer
        assert not prof._stack
        assert prof.total_spans == 3

    def test_pop_stale_handle_is_noop(self):
        first = SpanProfiler()
        stale = first.push("request", "player")
        first.finalize()
        # A generator finalized later must not unwind the new epoch.
        second = SpanProfiler()
        live = second.push("session", "player")
        second.pop(stale)
        assert second._stack == [live]
        second.pop(live)
        assert second.total_spans == 1

    def test_add_flat_top_level(self):
        prof = SpanProfiler()
        prof.add_flat("kernel.step", "kernel", 0.25, count=10)
        prof.add_flat("kernel.step", "kernel", 0.05, count=2)
        node = _tree(prof)["kernel.step"]
        assert node["count"] == 12
        assert prof.total_wall_s == pytest.approx(0.3)

    def test_finalize_closes_open_spans(self):
        prof = SpanProfiler()
        prof.push("a", "player")
        prof.push("b", "player")
        prof.finalize()
        assert not prof._stack
        assert prof.total_spans == 2

    def test_merge_and_serialize_roundtrip(self):
        a = SpanProfiler()
        with a.span("segment", "player"):
            with a.span("request", "player"):
                pass
        b = SpanProfiler()
        with b.span("segment", "player"):
            pass
        merged = SpanProfiler()
        merged.merge_dict(a.to_dict())
        merged.merge_dict(b.to_dict())
        tree = _tree(merged)
        assert tree["segment"]["count"] == 2
        assert tree["segment"]["children"]["request"]["count"] == 1
        # Round-trip through JSON preserves the hash (floats are exact).
        restored = SpanProfiler.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert restored.tree_hash() == merged.tree_hash()

    def test_deterministic_dict_excludes_wall_fields(self):
        prof = SpanProfiler()
        with prof.span("segment", "player"):
            pass
        prof.add_flat("kernel.step", "kernel", 0.1)

        def assert_no_wall(node):
            assert "wall_s" not in node
            assert "self_wall_s" not in node
            for child in node.get("children", {}).values():
                assert_no_wall(child)

        state = prof.to_dict(deterministic=True)
        assert state["spans_version"] == spans.SPANS_VERSION
        assert_no_wall(state["tree"])
        # The full dict does carry them.
        assert "wall_s" in prof.to_dict()["tree"]["children"]["segment"]

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            SpanProfiler.from_dict({"spans_version": 99, "tree": {}})

    def test_subsystem_table_no_same_subsystem_double_count(self):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        outer = prof.push("segment", "player")
        clock.now = 1.0
        inner = prof.push("idle", "player")
        clock.now = 3.0
        prof.pop(inner)
        prof.pop(outer)
        table = prof.subsystem_table()
        # Cumulative counts the outer span once, not outer + nested.
        assert table["player"]["sim_s"] == pytest.approx(3.0)
        assert table["player"]["count"] == 2

    def test_collapsed_format(self):
        prof = SpanProfiler()
        node = prof.push("session", "player")
        prof.push("abr.choose", "abr")
        for _ in range(20000):
            pass
        prof.pop(node)
        collapsed = prof.collapsed()
        for line in collapsed.strip().splitlines():
            path, _, micros = line.rpartition(" ")
            assert path
            assert int(micros) > 0
        assert any(
            line.startswith("session;abr.choose ")
            for line in collapsed.splitlines()
        )


#: Golden hash of the deterministic span tree for the pinned scenario
#: below (tinytest fixture, bola, constant:20, 2 reps, seed 0).
#: Regenerate after an intentional simulation or instrumentation
#: change:
#:   PYTHONPATH=src python -c "..."  # see test_golden_tree_hash
_GOLDEN_SPEC = dict(
    abr="bola", trace="constant:20", repetitions=2, seed=0
)
_GOLDEN_TREE_HASH = (
    "40d501705368f3f37d2c091841c27d28716001e2691baea10b67b855b6df2630"
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


#: Deterministic span-tree hashes of the profiled runs in
#: test_profiling_never_changes_results (tinytest fixture, abr_star for
#: solo runs, the DEFAULT_SPECS mix for shared-link runs, verizon,
#: seed 3).  They cover the metered link, router, kernel, transport and
#: tracer paths of both backends, solo and shared, with and without the
#: "mixed" chaos profile.
_IDENTITY_TREE_HASH = {
    "solo-round": (
        "6d20b31e1951255738ecc193ee358ff30ac0ccf3cc1e177178bb0d229ad510fe"
    ),
    "solo-packet": (
        "c304b148b94dec19b2c0fc40e52b087e79837e5152989f61197bc0d433dc20a7"
    ),
    "solo-round-mixed": (
        "b75ab3b8d648c46bf230b487d0939b278e9846f7fe01dd2a122a9d09940ac61d"
    ),
    "mix-round": (
        "9fc064f1cc8dba0f511fccae7d9dd851c4e0ac5eed4d109dec0c8def61deccda"
    ),
    "mix-round-mixed": (
        "e9212ca32896ac7150bdcc5798054cd62271f0ab1876f1f08338587a9c35914c"
    ),
    "mix-packet": (
        "30562d8c3af147ba2f93b4984e163b981f3f2836fc0144e56edd956225cafb15"
    ),
    "mix-packet-mixed": (
        "bb8d42bc51e686f32e5bbb13055af942702753c2b60c31e8eefeef93cd8c1de8"
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


def _mini_profiler(abr_s: float, transport_s: float) -> SpanProfiler:
    prof = SpanProfiler()
    prof.add_flat("abr.choose", "abr", abr_s, count=10)
    prof.add_flat("transport.round", "transport", transport_s, count=20)
    return prof


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
        assert ledger["ledger_version"] == 1
        assert ledger["wall_s"] == pytest.approx(0.5)
        assert ledger["subsystems"]["abr"]["self_wall_s"] == (
            pytest.approx(0.2)
        )
        assert ledger["subsystems"]["abr"]["self_pct"] == (
            pytest.approx(200.0 / 3.0)
        )
        assert ledger["hotspots"][0]["path"] == "abr.choose"
        assert ledger["deterministic"]["hash"] == prof.tree_hash()
        text = format_ledger(ledger)
        assert "perf ledger" in text and "abr" in text
        path = tmp_path / "ledger.json"
        write_ledger(str(path), ledger)
        assert load_ledger(str(path))["label"] == "cell"

    def test_load_ledger_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ledger_version": 99}')
        with pytest.raises(ValueError, match="ledger_version"):
            load_ledger(str(path))

    def test_collapsed_stacks_from_ledger(self):
        prof = SpanProfiler()
        frame = prof.push("session", "player")
        prof.push("abr.choose", "abr")
        for _ in range(20000):
            pass
        prof.pop(frame)
        ledger = build_ledger(prof, wall_s=0.1, meta=False)
        lines = collapsed_stacks(ledger).strip().splitlines()
        assert lines
        for line in lines:
            path, _, micros = line.rpartition(" ")
            assert int(micros) > 0
        assert any(l.startswith("session;abr.choose ") for l in lines)

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

    @pytest.mark.parametrize("bad", ["absent", "not_json", "bench_shaped"])
    def test_cli_diff_bad_baseline_exits_2_in_one_line(
        self, bad, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / f"{bad}.json"
        if bad == "not_json":
            path.write_text("{not json")
        elif bad == "bench_shaped":
            path.write_text(json.dumps(_NON_LEDGER))
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

        # repro.prep re-exports the prepare() function over the
        # submodule attribute; import_module reaches the real module.
        prepare_mod = importlib.import_module("repro.prep.prepare")
        monkeypatch.setattr(
            prepare_mod, "get_prepared", lambda name: tiny_prepared
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
        assert ledger["spans"] > 0
        assert set(ledger["subsystems"]) >= {"abr", "transport", "player"}
        assert folded.read_text().strip()


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
        serial = run_sweep(
            spec, workers=1, prepared_map=prepared_map, profile=True
        )
        forked = run_sweep(
            spec, workers=2, prepared_map=prepared_map, profile=True
        )
        assert validate_rows(serial) == 2
        for row_s, row_f in zip(serial, forked):
            det_s = row_s["ledger"]["deterministic"]
            det_f = row_f["ledger"]["deterministic"]
            assert det_s["hash"] == det_f["hash"]
            assert det_s["tree"] == det_f["tree"]
            assert row_s["summary"] == row_f["summary"]
