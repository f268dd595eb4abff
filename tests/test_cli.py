"""Tests for the command-line interface and the report renderer."""

import json

import numpy as np
import pytest

from repro.cli import _FIGURES, build_parser, main
from repro.experiments.report import format_table, render, summarize_cdf


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

    def test_every_scenario_flag_names_a_spec_field(self):
        from dataclasses import fields

        from repro.cli import _SCENARIO_FLAGS
        from repro.core.spec import ScenarioSpec

        names = {field.name for field in fields(ScenarioSpec)}
        for flag, entry in _SCENARIO_FLAGS.items():
            assert entry.field in names, flag

    def test_stream_flags_read_back_as_spec_fields(self):
        from repro.cli import _scenario_fields

        args = build_parser().parse_args([
            "stream", "bbb", "--plain-quic", "--bandwidth-safety", "0.9",
            "--timeout", "3",
        ])
        assert _scenario_fields(args) == {
            "video": "bbb", "abr": "abr_star", "trace": "verizon",
            "buffer_segments": 2, "reliability": "quic", "seed": 0,
            "trace_shift_s": 0.0, "abr_kwargs": {"bandwidth_safety": 0.9},
            "request_timeout_s": 3.0,
        }


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

    def test_figure_fig14(self, capsys):
        # The survey is a figure that prints every number of its result.
        from repro.experiments.figures import fig14_survey
        from repro.experiments.survey import DIMENSIONS

        assert main(["figure", "fig14", "--light"]) == 0
        out = capsys.readouterr().out
        result = fig14_survey(**_FIGURES["fig14"][1])
        expected = ["### fig14 ###"]
        for system in ("VOXEL", "BOLA"):
            expected.append(f"{system}:")
            expected += [
                f"    {dim}: {result.mos[system][dim]:.4g}"
                for dim in DIMENSIONS
            ]
            expected.append(
                f"    would_stop: {result.would_stop[system]:.4g}"
            )
        expected.append("delta:")
        expected += [
            f"    {dim}: {result.mos_delta(dim):.4g}" for dim in DIMENSIONS
        ]
        expected.append(f"participants: {result.participants}")
        expected.append(f"preference_voxel: {result.preference_voxel}")
        assert out == "\n".join(expected) + "\n"
        # --json prints the same numbers as one JSON object, and
        # --metrics puts it beside the registry dump.
        payload = dict(
            {
                system: dict(
                    result.mos[system], would_stop=result.would_stop[system]
                )
                for system in ("VOXEL", "BOLA")
            },
            delta={dim: result.mos_delta(dim) for dim in DIMENSIONS},
            participants=result.participants,
            preference_voxel=result.preference_voxel,
        )
        assert main(["--json", "figure", "fig14", "--light"]) == 0
        assert json.loads(capsys.readouterr().out) == payload
        assert main(["--json", "figure", "fig14", "--light", "--metrics"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == payload
        assert any(
            name.startswith("experiments.sessions{")
            and "trace=3g-corpus" in name
            for name in out["metrics"]["counters"]
        )

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


_ZERO_BUFFER_SWEEP = [
    "sweep", "--videos", "bbb", "--abrs", "bola,tput",
    "--traces", "constant:10.5", "--buffers", "0", "--reps", "1",
]


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

    @pytest.mark.parametrize("argv", [
        ["stream", "bbb", "--trace", "nosuch"],
        ["compare", "bbb", "--trace", "nosuch"],
        ["profile", "bbb", "--trace", "nosuch"],
        ["fleet", "bbb", "--clients", "4", "--shards", "2",
         "--trace", "nosuch"],
        ["multiclient", "bbb", "--trace", "nosuch"],
        ["faults", "--trace", "nosuch", "--seeds", "0"],
        ["sweep", "--traces", "nosuch", "--dry-run"],
    ], ids=lambda argv: argv[0])
    def test_unknown_trace_is_one_line_before_any_prep(
        self, argv, monkeypatch, capsys
    ):
        import repro.prep.prepare as prepare_module
        from repro.network.traces import get_trace

        def prepare(name, *args, **kwargs):
            raise AssertionError(f"prepared {name!r} before the name check")

        # A cold cache, so any prep of any video reaches the stub.
        monkeypatch.setattr(prepare_module, "_PREPARED_CACHE", {})
        monkeypatch.setattr(prepare_module, "prepare", prepare)
        with pytest.raises(KeyError) as lookup:
            get_trace("nosuch")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {lookup.value.args[0]}\n"
        assert "unknown trace 'nosuch'" in captured.err

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
        ["figure", "nosuch"],
        # A corpus index below 0 would pick another trace.
        ["profile", "--spec",
         '{"video": "bbb", "trace": "3g-corpus", '
         '"trace_kwargs": {"index": -1}}'],
        # A spec value no session can run fails before any cell runs,
        # whatever the worker count.
        _ZERO_BUFFER_SWEEP + ["--dry-run"],
        _ZERO_BUFFER_SWEEP + ["--workers", "2"],
        ["multiclient", "bbb", "--clients", "2", "--buffer", "0"],
        # Fleets and repetitions check their scenario before forking.
        ["fleet", "bbb", "--clients", "4", "--shards", "2",
         "--trace", "nosuchtrace", "--workers", "2"],
        ["fleet", "--spec", '{"clients": 4, "shards": 2, "retry_budget": -1}',
         "--workers", "2"],
        ["profile", "--spec",
         '{"video": "bbb", "backend": "nosuch", "repetitions": 2}',
         "--workers", "2"],
        # The backend registry, not argparse, checks the name.
        ["faults", "--backend", "nosuch", "--seeds", "0"],
        # Values only a built fault plan or trace checks.
        ["stream", "bbb", "--faults",
         '{"events": [{"kind": "loss_burst", "rate": 2}]}'],
        ["stream", "bbb", "--faults",
         '{"events": [{"kind": "loss_burst", "bogus": 1}]}'],
        ["stream", "bbb", "--trace", "constant:-1"],
        # A constant rate is checked with the trace name, before any run.
        ["stream", "bbb", "--trace", "constant:nan"],
        ["stream", "bbb", "--trace", "constant:inf"],
        ["sweep", "--videos", "bbb", "--abrs", "bola", "--traces",
         "constant:-1", "--buffers", "1", "--dry-run"],
    ])
    def test_usage_error_exits_2_in_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", [["--dry-run"], ["--workers", "2"]])
    def test_sweep_spec_with_an_unknown_manifest_mode_exits_2(
        self, tmp_path, capsys, mode
    ):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "base": {"video": "bbb", "repetitions": 1,
                     "trace": "constant:10.5", "manifest_fetch": "bogus"},
            "grid": {"abr": ["bola", "tput"]},
        }))
        assert main(["sweep", "--spec", str(spec)] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "manifest_fetch" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", [["--dry-run"], ["--workers", "2"]])
    def test_sweep_spec_with_a_negative_corpus_index_exits_2(
        self, tmp_path, capsys, mode
    ):
        # The index is checked with the names, before any cell runs.
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "base": {"video": "bbb", "repetitions": 1,
                     "trace": "3g-corpus", "trace_kwargs": {"index": -1}},
            "grid": {"abr": ["bola", "tput"]},
        }))
        assert main(["sweep", "--spec", str(spec)] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 3g-corpus index must be >= 0, got -1\n"
        )

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
