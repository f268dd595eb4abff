"""Tests for the command-line interface and the report renderer."""

import json

import numpy as np
import pytest

from repro.cli import _FIGURES, build_parser, main
from repro.experiments.report import (
    ascii_cdf,
    format_table,
    render,
    summarize_cdf,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "bbb"])
        assert args.abr == "abr_star"
        assert args.trace == "verizon"
        assert args.buffer == 2
        assert not args.plain_quic

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig6", "--light"])
        assert args.name == "fig6"
        assert args.light


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bbb" in out and "abr_star" in out and "tmobile" in out
        assert "blackout" in out and "server_stall" in out
        assert "outage_level" in out

    def test_list_json(self, capsys):
        assert main(["--json", "list"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "videos" in data and "p10" in data["videos"]

    def test_stream(self, capsys):
        code = main([
            "stream", "bbb", "--trace", "constant:10.5", "--buffer", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bufRatio" in out and "mean SSIM" in out

    def test_stream_json(self, capsys):
        code = main([
            "--json", "stream", "bbb", "--trace", "constant:10.5",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "buf_ratio" in data and "mean_ssim" in data

    def test_stream_plain_quic_and_safety(self, capsys):
        code = main([
            "stream", "bbb", "--trace", "constant:10.5", "--plain-quic",
        ])
        assert code == 0
        code = main([
            "stream", "bbb", "--trace", "constant:10.5",
            "--bandwidth-safety", "0.9",
        ])
        assert code == 0

    def test_stream_with_faults_prints_resilience_block(self, capsys):
        code = main([
            "stream", "bbb", "--trace", "constant:10.5", "--buffer", "2",
            "--faults",
            '{"events": [{"kind": "reset", "at": 6.0}]}',
            "--timeout", "3", "--check-invariants",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "retries" in captured.out
        assert "degraded segs" in captured.out
        assert "11 invariants checked" in captured.err

    def test_stream_without_faults_has_no_resilience_block(self, capsys):
        assert main(["stream", "bbb", "--trace", "constant:10.5"]) == 0
        assert "retries" not in capsys.readouterr().out

    def test_stream_bad_fault_spec_exits_2(self, capsys):
        code = main([
            "stream", "bbb", "--trace", "constant:10.5",
            "--faults", "{not json",
        ])
        assert code == 2
        assert "fault spec" in capsys.readouterr().err
        code = main([
            "stream", "bbb", "--trace", "constant:10.5",
            "--faults", '{"events": [{"kind": "quake"}]}',
        ])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_faults_list_profiles(self, capsys):
        assert main(["faults", "--list-profiles"]) == 0
        out = capsys.readouterr().out
        assert "mixed" in out and "blackouts" in out

    def test_faults_chaos_cell(self, capsys):
        code = main([
            "faults", "--profiles", "resets", "--seeds", "0",
            "--trace", "constant:10.5", "--check-invariants",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells, 1 audits clean" in out

    def test_faults_unknown_profile_exits_2(self, capsys):
        code = main(["faults", "--profiles", "nope", "--seeds", "0"])
        assert code == 2
        assert "unknown chaos profile" in capsys.readouterr().err

    def test_prepare(self, capsys):
        assert main(["prepare", "bbb"]) == 0
        out = capsys.readouterr().out
        assert "13 levels" in out
        assert "virtual levels" in out

    def test_compare(self, capsys):
        code = main([
            "compare", "bbb", "--trace", "constant:8", "--reps", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BOLA/QUIC" in out and "VOXEL" in out

    def test_figure_light(self, capsys):
        assert main(["figure", "fig15", "--light"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "nope"]) == 2

    def test_survey(self, capsys):
        code = main(["survey", "--clips", "3", "--participants", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "prefer VOXEL" in out

    def test_figure_registry_names_resolve(self):
        from repro.experiments import figures as figures_module
        from repro.experiments.figures import __dict__ as names

        for key, (func_name, kwargs) in _FIGURES.items():
            assert hasattr(figures_module, func_name), func_name
            assert isinstance(kwargs, dict)


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "yy"}]
        text = format_table(rows, ["a", "b"], title="T")
        assert "=== T ===" in text
        assert text.count("\n") >= 3

    def test_format_table_missing_key(self):
        text = format_table([{"a": 1.0}], ["a", "missing"])
        assert "missing" in text

    def test_summarize_cdf(self):
        cdf = {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([0.3, 0.6, 1.0])}
        summary = summarize_cdf(cdf)
        assert "p50=2" in summary and "n=3" in summary
        assert summarize_cdf({"x": np.array([]), "y": np.array([])}) == "(empty)"

    def test_ascii_cdf(self):
        cdf = {"x": np.linspace(0, 10, 50), "y": np.linspace(0, 1, 50)}
        plot = ascii_cdf(cdf, width=20, label="demo")
        assert "demo" in plot
        assert plot.count("|") >= 22  # 11 decile rows, two pipes each

    def test_render_row_list(self):
        text = render("x", [{"a": 1, "b": 2.5}])
        assert "### x ###" in text and "2.5" in text

    def test_render_composite(self):
        result = {
            "rows": [{"a": 1}],
            "cdfs": {"s": {"x": np.array([1.0]), "y": np.array([1.0])}},
        }
        text = render("combo", result)
        assert "s:" in text

    def test_render_nested(self):
        result = {
            "grp": {
                "cdf": {"x": np.array([1.0, 2.0]), "y": np.array([0.5, 1.0])},
                "scalar": 3.0,
                "arr": np.array([1.0, 2.0, 3.0]),
            },
            "top": np.array([5.0]),
        }
        text = render("nested", result)
        assert "grp:" in text and "scalar: 3" in text and "top:" in text


class TestObservabilityCli:
    def test_trace_out_and_inspect(self, tmp_path, capsys):
        path = tmp_path / "session.jsonl"
        code = main([
            "stream", "bbb", "--trace", "constant:10.5",
            "--trace-out", str(path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err and path.exists()

        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema v1" in out and "bufRatio" in out

        assert main(["trace", str(path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "per-segment timeline" in out

        assert main(["trace", str(path), "--type", "abr_decision",
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count('"type":"abr_decision"') == 2

    def test_trace_json_summary(self, tmp_path, capsys):
        path = tmp_path / "session.jsonl"
        main(["stream", "bbb", "--trace", "constant:10.5",
              "--trace-out", str(path)])
        capsys.readouterr()
        assert main(["--json", "trace", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert data["session"]["video"] == "bbb"

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/nope.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["trace", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stream_metrics_flag(self, capsys):
        from repro.obs import reset_registry

        reset_registry()
        try:
            code = main([
                "stream", "bbb", "--trace", "constant:10.5", "--metrics",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "=== metrics ===" in out
            assert "transport.rounds" in out
            # Wall time lives in the span profiler, not the registry.
            assert "=== timing ===" not in out
            assert "timing." not in out
        finally:
            reset_registry()

    def test_unknown_video_exits_2(self, capsys):
        assert main(["stream", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown video" in err and "Traceback" not in err

    def test_unknown_abr_exits_2(self, capsys):
        assert main(["stream", "bbb", "--abr", "nosuch"]) == 2
        assert "unknown ABR" in capsys.readouterr().err

    def test_unknown_trace_exits_2(self, capsys):
        assert main(["stream", "bbb", "--trace", "nosuch"]) == 2
        assert "unknown trace" in capsys.readouterr().err

    def test_unknown_video_in_prepare_exits_2(self, capsys):
        assert main(["prepare", "nosuch"]) == 2
        assert "unknown video" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faults", "--seeds", "a"],
        ["sweep", "--videos", "bbb", "--buffers", "x", "--dry-run"],
        ["multiclient", "bbb", "--clients", "0"],
        ["stream", "bbb", "--buffer", "0"],
        ["stream", "bbb", "--timeout", "-1"],
        ["stream", "bbb", "--retry-budget", "-1"],
        ["profile", "bbb", "--reps", "0"],
        ["survey", "--clips", "0"],
        ["survey", "--participants", "0"],
    ])
    def test_usage_error_exits_2_in_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_compare_rejects_zero_reps_in_one_line(self, capsys):
        assert main(["compare", "bbb", "--reps", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repetitions must be >= 1\n"


class TestFleetCli:
    _ARGS = [
        "fleet", "bbb", "--clients", "4", "--shards", "2",
        "--trace", "constant:30", "--buffer", "2",
    ]

    def test_fleet_report(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "Jain" in out
        assert "fleet hash" in out

    def test_fleet_json_and_out(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        code = main(["--json"] + self._ARGS + ["--out", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clients"] == 4
        assert len(data["shards"]) == 2
        assert len(data["fleet_hash"]) == 16
        on_disk = json.loads(path.read_text())
        assert on_disk["fleet_hash"] == data["fleet_hash"]

    def test_fleet_spec_json_overrides_flags(self, capsys):
        spec = json.dumps({
            "clients": 4, "shards": 2, "trace": "constant:30",
        })
        code = main(["--json", "fleet", "--spec", spec])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clients"] == 4

    _PACKET_SPEC = json.dumps({
        "backend": "packet", "queue_packets": None,
        "clients": 2, "shards": 1, "trace": "constant:3",
    })

    def test_packet_fleet_without_a_queue_runs(self, capsys):
        # The packet bottleneck falls back to its 32-packet queue, as a
        # solo packet session's does.
        assert main(["fleet", "--spec", self._PACKET_SPEC]) == 0
        assert "fleet hash" in capsys.readouterr().out

    def test_a_slow_fleet_prints_a_nonzero_rate(self, monkeypatch, capsys):
        import time

        # The fleet's clock reads twice: a 10 s run of 2 clients.
        monkeypatch.setattr(time, "perf_counter", iter((0.0, 10.0)).__next__)
        assert main(["fleet", "--spec", self._PACKET_SPEC]) == 0
        assert "(0.20 clients/s" in capsys.readouterr().err

    def test_fleet_profile_prepares_before_the_profiler(
        self, monkeypatch, capsys
    ):
        import repro.prep.prepare as prepare_module
        from repro.obs import spans

        bbb = prepare_module.get_prepared("bbb")
        profilers = []

        def prepare(name, params=prepare_module.DEFAULT_PARAMS):
            profilers.append(spans.current())
            return bbb

        # A cold cache, so the fleet's one prepare of bbb happens here.
        monkeypatch.setattr(prepare_module, "_PREPARED_CACHE", {})
        monkeypatch.setattr(prepare_module, "prepare", prepare)
        assert main(self._ARGS + ["--profile"]) == 0
        assert profilers == [None]
        assert "perf ledger" in capsys.readouterr().out

    def test_fleet_bad_spec_exits_2(self, capsys):
        assert main(["fleet", "--spec", "{\"shardz\": 3}"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()
