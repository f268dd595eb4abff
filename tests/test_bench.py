"""Benchmark suite: payload schema, persistence, and the `repro diff` gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import bench, diff
from repro.obs.metrics import get_registry


@pytest.fixture(scope="module")
def payload(tiny_prepared):
    """One quick suite run, shared across the module (seconds, not minutes)."""
    return bench.run_suite(quick=True, label="test", prepared=tiny_prepared)


def test_payload_schema(payload):
    assert payload["schema_version"] == bench.BENCH_SCHEMA_VERSION
    assert payload["label"] == "test"
    assert payload["quick"] is True
    assert payload["workload"] == "tinytest"
    assert set(payload["benchmarks"]) == {
        "micro.decode_segment", "micro.abr_choose", "micro.transport_round",
        "macro.session.round", "macro.session.packet",
        "macro.multiclient", "macro.parallel_runner",
        "macro.resilience", "macro.rollup", "macro.spans",
        "macro.fleet",
    }
    for name, stats in payload["benchmarks"].items():
        assert stats["wall_s"] > 0, name
        assert stats["kind"] in ("micro", "macro", "parallel", "fleet")


def test_micro_stats(payload):
    stats = payload["benchmarks"]["micro.abr_choose"]
    assert stats["repeats"] == 200
    assert stats["per_call_s"] == pytest.approx(
        stats["wall_s"] / stats["repeats"]
    )
    assert 0 < stats["p50_s"] <= stats["p90_s"]


def test_macro_stats(payload):
    for name in ("macro.session.round", "macro.session.packet"):
        stats = payload["benchmarks"][name]
        assert stats["sim_s"] > 0
        assert stats["sim_s_per_wall_s"] == pytest.approx(
            stats["sim_s"] / stats["wall_s"]
        )
        assert stats["events"] > 0
        assert stats["peak_trace_bytes"] > 0
        assert stats["segments"] == 6


def test_multiclient_stats(payload):
    stats = payload["benchmarks"]["macro.multiclient"]
    assert stats["kind"] == "macro"
    assert stats["clients"] == 4
    assert 0.0 < stats["jain_index"] <= 1.0
    assert stats["events"] > 0
    assert stats["sim_s"] > 0


def test_fleet_stats(payload):
    stats = payload["benchmarks"]["macro.fleet"]
    assert stats["kind"] == "fleet"
    assert stats["clients"] == 48
    assert stats["shards"] == 4
    assert stats["clients_per_s"] > 0
    assert 0.0 < stats["jain_index"] <= 1.0
    assert len(stats["fleet_hash"]) == 16
    assert stats["audit_ok"] is True


def test_resilience_stats(payload):
    stats = payload["benchmarks"]["macro.resilience"]
    assert stats["kind"] == "macro"
    assert stats["audit_ok"] is True
    assert stats["faults_injected"] > 0
    assert stats["segments"] == 6
    assert stats["events"] > 0


def test_rollup_stats(payload):
    stats = payload["benchmarks"]["macro.rollup"]
    assert stats["kind"] == "macro"
    # wall_s times the NullTracer fast path; the observer pass is
    # reported separately so regressions gate the tracing-off cost.
    assert stats["rollup_wall_s"] > 0
    assert stats["rollup_overhead_pct"] == pytest.approx(
        (stats["rollup_wall_s"] - stats["wall_s"]) / stats["wall_s"] * 100.0
    )
    # Neither path buffers events.
    assert stats["peak_trace_bytes"] == 0
    assert stats["events"] > 0
    assert stats["segments"] == 6
    assert stats["stall_p99_s"] >= 0.0
    assert stats["audit_ok"] is True


def test_spans_stats(payload):
    stats = payload["benchmarks"]["macro.spans"]
    assert stats["kind"] == "macro"
    # wall_s times the spans-off fast path; the profiled rerun is
    # reported separately so regressions gate the profiler-off cost.
    assert stats["spans_wall_s"] > 0
    assert stats["spans_overhead_pct"] == pytest.approx(
        (stats["spans_wall_s"] - stats["wall_s"]) / stats["wall_s"] * 100.0
    )
    assert stats["spans"] > 0
    assert set(stats["subsystems"]) >= {"abr", "transport", "player"}
    assert all(v >= 0.0 for v in stats["subsystems"].values())
    assert len(stats["tree_hash"]) == 64
    # The profiled run computed identical session metrics.
    assert stats["audit_ok"] is True


def test_parallel_runner_stats(payload):
    stats = payload["benchmarks"]["macro.parallel_runner"]
    assert stats["kind"] == "parallel"
    assert stats["workers"] == 2
    assert stats["reps"] == 4
    assert stats["serial_wall_s"] > 0
    assert stats["speedup"] == pytest.approx(
        stats["serial_wall_s"] / stats["wall_s"]
    )
    assert stats["identical"] is True


def test_suite_does_not_pollute_registry(tiny_prepared):
    before = get_registry().dump()
    bench.run_suite(quick=True, label="isolated", prepared=tiny_prepared)
    assert get_registry().dump() == before


def test_payload_roundtrip(payload, tmp_path):
    path = tmp_path / "BENCH_test.json"
    bench.write_payload(payload, str(path))
    kind, loaded = diff.load_perf_file(str(path))
    assert kind == "bench"
    assert loaded == json.loads(json.dumps(payload))


def test_format_suite_lists_every_benchmark(payload):
    text = bench.format_suite(payload)
    for name in payload["benchmarks"]:
        assert name in text


# ---------------------------------------------------------------------------
# Regression gating (repro.obs.diff, the one comparator).
# ---------------------------------------------------------------------------
def _with_wall(payload, name, wall_s):
    clone = copy.deepcopy(payload)
    clone["benchmarks"][name]["wall_s"] = wall_s
    return clone


def _rows(result, status):
    return [row for row in result["comparison"]["rows"]
            if row["status"] == status]


def test_compare_flags_regression(payload):
    slower = _with_wall(
        payload, "micro.abr_choose",
        payload["benchmarks"]["micro.abr_choose"]["wall_s"] * 1.5,
    )
    result = diff.diff_bench(payload, slower, threshold_pct=10.0)
    assert result["failed"]
    regressions = _rows(result, "regression")
    assert [r["name"] for r in regressions] == ["micro.abr_choose"]
    assert regressions[0]["delta_pct"] == pytest.approx(50.0)


def test_compare_tolerates_below_threshold(payload):
    slower = _with_wall(
        payload, "micro.abr_choose",
        payload["benchmarks"]["micro.abr_choose"]["wall_s"] * 1.05,
    )
    result = diff.diff_bench(payload, slower, threshold_pct=10.0)
    assert not result["failed"]
    assert all(r["status"] == "ok" for r in result["comparison"]["rows"])


def test_compare_missing_benchmark_fails(payload):
    current = copy.deepcopy(payload)
    del current["benchmarks"]["macro.session.packet"]
    result = diff.diff_bench(payload, current)
    assert result["failed"]
    assert [r["name"] for r in _rows(result, "missing")] == [
        "macro.session.packet"
    ]


def test_compare_new_benchmark_is_informational(payload):
    current = copy.deepcopy(payload)
    current["benchmarks"]["micro.novel"] = {"kind": "micro", "wall_s": 1.0}
    result = diff.diff_bench(payload, current)
    assert not result["failed"]
    assert any(r["status"] == "new" for r in result["comparison"]["rows"])
    assert "| micro.novel | — | 1.0000s | — | new |" in diff.format_diff(
        result
    )


def test_compare_broken_audit_fails_regardless_of_speed(payload):
    current = copy.deepcopy(payload)
    current["benchmarks"]["macro.resilience"]["audit_ok"] = False
    # Even faster-than-baseline, a broken invariant audit gates.
    current["benchmarks"]["macro.resilience"]["wall_s"] *= 0.5
    result = diff.diff_bench(payload, current)
    assert result["failed"]
    assert [r["name"] for r in _rows(result, "broken")] == [
        "macro.resilience"
    ]
    assert "| -50.0% | broken |" in diff.format_diff(result)


def test_load_payload_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "benchmarks": {}}))
    with pytest.raises(diff.PerfDiffFormatError,
                       match="unsupported bench schema version 99"):
        diff.load_perf_file(str(path))
    path.write_text("not json")
    with pytest.raises(diff.PerfDiffFormatError, match="unparseable JSON"):
        diff.load_perf_file(str(path))


# ---------------------------------------------------------------------------
# CLI: repro diff exit codes on bench payloads.
# ---------------------------------------------------------------------------
def test_cli_bench_compare_exit_codes(payload, tmp_path, capsys):
    from repro.cli import main

    base_path = tmp_path / "BENCH_base.json"
    bench.write_payload(payload, str(base_path))
    slower = _with_wall(
        payload, "micro.abr_choose",
        payload["benchmarks"]["micro.abr_choose"]["wall_s"] * 1.5,
    )
    cur_path = tmp_path / "BENCH_cur.json"
    bench.write_payload(slower, str(cur_path))

    rc = main(["diff", str(base_path), str(cur_path), "--threshold", "10"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "| +50.0% | regression |" in out
    assert "**Verdict: FAIL**" in out

    rc = main(["diff", str(base_path), str(cur_path), "--threshold", "60"])
    assert rc == 0
    assert "**Verdict: ok** — no regression" in capsys.readouterr().out


def test_cli_bench_json_compare_object(payload, tmp_path, capsys):
    """--json emits one machine-readable verdict object for CI."""
    from repro.cli import main

    base_path = tmp_path / "BENCH_base.json"
    bench.write_payload(payload, str(base_path))
    slower = _with_wall(
        payload, "micro.abr_choose",
        payload["benchmarks"]["micro.abr_choose"]["wall_s"] * 1.5,
    )
    cur_path = tmp_path / "BENCH_cur.json"
    bench.write_payload(slower, str(cur_path))

    rc = main(["--json", "diff", str(base_path), str(cur_path),
               "--threshold", "10"])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "kind", "threshold_pct", "failed", "comparison", "subsystems",
        "top", "top_delta_s", "baseline_path", "current_path",
    }
    assert out["kind"] == "bench"
    comparison = out["comparison"]
    assert set(comparison) == {
        "threshold_pct", "failed", "counts", "attribution", "rows",
    }
    assert comparison["failed"] is True
    assert comparison["threshold_pct"] == 10.0
    assert comparison["counts"]["regression"] == 1
    by_name = {row["name"]: row for row in comparison["rows"]}
    assert by_name.keys() == payload["benchmarks"].keys()
    row = by_name["micro.abr_choose"]
    assert row["status"] == "regression"
    assert row["delta_pct"] == pytest.approx(50.0)
    assert all(
        set(r) == {"name", "baseline_s", "current_s", "delta_pct", "status"}
        for r in comparison["rows"]
    )
    # The attribution entries carry no per-subsystem percentage.
    assert all(
        set(entry) == {"baseline_s", "current_s", "delta_s"}
        for entry in out["subsystems"].values()
    )


def test_cli_bench_rejects_unreadable_baseline(payload, tmp_path):
    from repro.cli import main

    cur_path = tmp_path / "BENCH_cur.json"
    bench.write_payload(payload, str(cur_path))
    rc = main(["diff", str(tmp_path / "absent.json"), str(cur_path)])
    assert rc == 2
