"""Fault-injection subsystem: spec, plan, resilience, and goldens.

The golden tests pin byte-exact fingerprints of fault-free runs (both
backends, plus a parallel sweep): the fault subsystem must be a strict
no-op when no faults are declared — same spec hashes, same traces, same
summaries as before the subsystem existed.
"""

import hashlib
import json

import pytest

from repro.core.api import stream_spec
from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.faults import (
    FAULTS,
    FaultSpec,
    build_plan,
    validate_fault_spec,
)
from repro.obs import events as ev
from repro.obs.invariants import TraceAuditor
from repro.obs.tracer import Tracer
from repro.transport.resilience import RetryPolicy

# ---------------------------------------------------------------------------
# Golden fingerprints of fault-free behaviour.  These are the exact
# values produced by the seed revision of this subsystem; any drift
# means faults are no longer a strict opt-in.

GOLDEN_DEFAULT_SPEC_HASH = "5bafac3cc269"

GOLDEN_RUNS = {
    "round": {
        "spec_hash": "123e252e5dc8",
        "trace_sha": (
            "bc969067c1935c354533e46db85e68a8"
            "2e57d79e6e1201fb7ed8d017f1389536"
        ),
        "summary": {
            "avg_bitrate_kbps": 2610.773,
            "buf_ratio": 0.0,
            "data_skipped": 0.0,
            "mean_ssim": 0.9513439591308389,
            "median_ssim": 0.9786096870224119,
            "perceptible_artifact_rate": 0.0,
            "residual_loss": 0.00035914146849889945,
            "segments_with_drops": 5.0,
            "startup_delay": 0.42,
            "switches": 5.0,
            "wall_duration": 15.944246713219618,
        },
    },
    "packet": {
        "spec_hash": "b5ca742e2cb7",
        "trace_sha": (
            "5e1923b2bcc10c2c4adea75ab5cd1e4b"
            "e07f9a31606e28975a1bcd6bfb985094"
        ),
        "summary": {
            "avg_bitrate_kbps": 3103.5086666666666,
            "buf_ratio": 0.0,
            "data_skipped": 0.0,
            "mean_ssim": 0.9527646531634062,
            "median_ssim": 0.9820960913839789,
            "perceptible_artifact_rate": 0.0,
            "residual_loss": 0.0,
            "segments_with_drops": 1.0,
            "startup_delay": 0.3061625515170314,
            "switches": 5.0,
            "wall_duration": 16.343733636599616,
        },
    },
}

GOLDEN_SWEEP_SHA = (
    "3de47d4014ff132aa86f8c72b55b1a94"
    "1c6c4e7abdb5ec00e5894c564614c2ed"
)


class TestNoFaultGoldens:
    def test_default_spec_hash_unchanged(self):
        assert ScenarioSpec().spec_hash() == GOLDEN_DEFAULT_SPEC_HASH

    def test_absent_and_empty_faults_hash_identically(self):
        bare = ScenarioSpec()
        explicit_none = ScenarioSpec(faults=None)
        assert explicit_none.spec_hash() == bare.spec_hash()

    @pytest.mark.parametrize("backend", ("round", "packet"))
    def test_traces_byte_identical(self, tiny_prepared, backend):
        golden = GOLDEN_RUNS[backend]
        spec = ScenarioSpec(
            video="tinytest", abr="abr_star", trace="verizon",
            seed=3, buffer_segments=2, backend=backend,
        )
        assert spec.spec_hash() == golden["spec_hash"]
        tracer = Tracer()
        result = stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        sha = hashlib.sha256(
            (tracer.to_jsonl() + "\n").encode()
        ).hexdigest()
        assert sha == golden["trace_sha"]
        assert result.summary() == golden["summary"]
        # Fault-free runs must not leak resilience keys.
        for key in ("retries", "faults_injected", "request_timeouts"):
            assert key not in result.summary()

    def test_parallel_sweep_byte_identical(self, tiny_prepared):
        from repro.experiments.sweep import (
            SweepSpec, rows_to_jsonl, run_sweep,
        )

        sweep = SweepSpec(
            base={"video": "tinytest", "trace": "constant:6",
                  "buffer_segments": 2},
            grid={"abr": ["bola", "abr_star"]},
        )
        rows = run_sweep(
            sweep, workers=1, prepared_map={"tinytest": tiny_prepared}
        )
        sha = hashlib.sha256(rows_to_jsonl(rows).encode()).hexdigest()
        assert sha == GOLDEN_SWEEP_SHA


# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_round_trip(self):
        data = {
            "events": [
                {"kind": "blackout", "at": 3.0, "duration": 4.0},
                {"kind": "loss_burst", "count": 2, "rate": 0.2,
                 "duration": 3.0},
            ],
            "seed": 7,
        }
        spec = FaultSpec.from_dict(data)
        assert spec.to_dict() == data
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == data

    def test_seed_zero_omitted(self):
        spec = FaultSpec.from_dict({"events": [{"kind": "reset"}]})
        assert "seed" not in spec.to_dict()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec field"):
            FaultSpec.from_dict({"events": [], "chaos": True})

    def test_clause_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="missing 'kind'"):
            FaultSpec.from_dict({"events": [{"at": 3.0}]})

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ValueError, match="must be numeric"):
            FaultSpec.from_dict(
                {"events": [{"kind": "reset", "at": "soon"}]}
            )

    def test_unknown_kind_rejected_by_validation(self):
        spec = FaultSpec.from_dict({"events": [{"kind": "earthquake"}]})
        with pytest.raises(ValueError, match="unknown fault kind"):
            validate_fault_spec(spec)

    def test_validate_accepts_absent_spec(self):
        validate_fault_spec(None)

    def test_registry_lists_all_paper_fault_kinds(self):
        expected = {"blackout", "bandwidth_cliff", "rtt_spike",
                    "loss_burst", "reset", "server_stall"}
        assert expected <= set(FAULTS.names())


class TestSpecHashFolding:
    FAULTS_DICT = {"events": [{"kind": "blackout", "at": 3.0,
                               "duration": 4.0}]}

    def test_faults_change_hash_and_label(self):
        bare = ScenarioSpec()
        faulted = ScenarioSpec(faults=self.FAULTS_DICT)
        assert faulted.spec_hash() != bare.spec_hash()
        assert faulted.label().endswith("+faults")
        assert not bare.label().endswith("+faults")

    def test_faulted_spec_round_trips(self):
        spec = ScenarioSpec(
            faults=self.FAULTS_DICT, request_timeout_s=2.0,
            retry_budget=2, retry_backoff_s=0.25,
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.fault_spec() == spec.fault_spec()

    def test_resilience_knobs_neutral_at_defaults(self):
        assert ScenarioSpec(
            retry_budget=3, retry_backoff_s=0.5
        ).spec_hash() == GOLDEN_DEFAULT_SPEC_HASH
        assert ScenarioSpec(
            request_timeout_s=2.0
        ).spec_hash() != GOLDEN_DEFAULT_SPEC_HASH


# ---------------------------------------------------------------------------
class TestBuildPlan:
    def test_deterministic_per_seed(self):
        spec = FaultSpec.from_dict({"events": [
            {"kind": "blackout", "count": 2, "duration": 3.0},
            {"kind": "reset", "count": 2},
        ]})
        one = build_plan(spec, horizon=60.0, scenario_seed=5)
        two = build_plan(spec, horizon=60.0, scenario_seed=5)
        assert one.windows == two.windows
        other = build_plan(spec, horizon=60.0, scenario_seed=6)
        assert other.windows != one.windows

    def test_seeded_windows_inside_horizon(self):
        spec = FaultSpec.from_dict({"events": [
            {"kind": "blackout", "count": 3, "duration": 2.0},
        ]})
        plan = build_plan(spec, horizon=30.0, scenario_seed=1)
        assert len(plan.windows) == 3
        for window in plan.windows:
            assert 0.0 <= window.start < 30.0

    def test_empty_spec_builds_no_plan(self):
        assert build_plan(FaultSpec(), horizon=60.0, scenario_seed=0) is None
        assert build_plan(None, horizon=60.0, scenario_seed=0) is None


# ---------------------------------------------------------------------------
CHAOS_FAULTS = {"events": [
    {"kind": "blackout", "at": 3.0, "duration": 4.0},
    {"kind": "reset", "at": 9.0},
    {"kind": "server_stall", "at": 14.0, "duration": 4.0, "delay": 1.0},
    {"kind": "loss_burst", "at": 10.0, "duration": 3.0, "rate": 0.2},
]}


class TestRetryPolicy:
    def test_backoff_doubles_up_to_its_cap(self):
        policy = RetryPolicy(backoff_base_s=0.5)
        assert [policy.backoff(k) for k in range(1, 7)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 8.0,
        ]


class TestResilientSession:
    @pytest.mark.parametrize("backend", ("round", "packet"))
    def test_faulted_run_is_audited_and_counted(
        self, tiny_prepared, backend
    ):
        spec = ScenarioSpec(
            video="tinytest", abr="abr_star", trace="verizon", seed=3,
            buffer_segments=2, backend=backend, faults=CHAOS_FAULTS,
            request_timeout_s=2.0, retry_budget=2,
        )
        auditor = TraceAuditor()
        tracer = Tracer(observers=[auditor.feed])
        result = stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        report = auditor.finalize()
        assert report.ok, [str(v) for v in report.violations]

        # Every planned fault surfaces as a fault_injected event.
        plan = StackBuilder(spec, prepared=tiny_prepared).fault_plan()
        injected = [
            e for e in tracer.events if e.type == ev.FAULT_INJECTED
        ]
        assert len(injected) == len(plan.windows)
        assert {e.fields["kind"] for e in injected} == {
            w.kind for w in plan.windows
        }

        summary = result.summary()
        assert summary["faults_injected"] == len(plan.windows)
        for key in ("request_timeouts", "connection_resets", "retries",
                    "degraded_segments", "backoff_s"):
            assert key in summary
        # The blackout against a 2 s deadline must provoke the retry
        # machinery at least once.
        assert summary["retries"] >= 1

    def test_retry_resumes_without_refetching(self, tiny_prepared):
        spec = ScenarioSpec(
            video="tinytest", abr="abr_star", trace="verizon", seed=3,
            buffer_segments=2, faults=CHAOS_FAULTS,
            request_timeout_s=2.0, retry_budget=2,
        )
        tracer = Tracer()
        stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        retries = [e for e in tracer.events if e.type == ev.RETRY]
        assert retries
        failures = {}
        for event in tracer.events:
            if event.type in (ev.REQUEST_TIMEOUT, ev.CONNECTION_RESET):
                failures[event.fields["segment"]] = event
            elif event.type == ev.RETRY:
                failure = failures.pop(event.fields["segment"])
                # Already-delivered bytes are never re-fetched: the
                # retry resumes exactly where the failure accounted to.
                assert (
                    event.fields["resume_bytes"]
                    == failure.fields["accounted_bytes"]
                )
                assert event.fields["backoff_s"] >= 0.0

    def test_exhausted_budget_degrades_floor_then_skip(
        self, tiny_prepared
    ):
        # A permanent blackout with a tight deadline and a 1-retry
        # budget: every segment times out, floors to quality 0, times
        # out again, and is skipped — the session must still terminate
        # with every segment accounted.
        spec = ScenarioSpec(
            video="tinytest", abr="abr_star", trace="constant:6", seed=0,
            buffer_segments=2,
            faults={"events": [
                {"kind": "blackout", "at": 0.2, "duration": 1000.0},
            ]},
            request_timeout_s=1.0, retry_budget=1, retry_backoff_s=0.1,
        )
        auditor = TraceAuditor()
        tracer = Tracer(observers=[auditor.feed])
        result = stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        report = auditor.finalize()
        assert report.ok, [str(v) for v in report.violations]

        degraded = [e for e in tracer.events if e.type == ev.DEGRADED]
        modes = {e.fields["mode"] for e in degraded}
        assert "floor" in modes and "skip" in modes
        summary = result.summary()
        assert summary["degraded_segments"] >= 1
        assert len(result.metrics.records) == 6
        skipped = [r for r in result.metrics.records if r.degraded == "skip"]
        assert skipped
        for record in skipped:
            assert record.score == 0.0
            assert record.bytes_delivered == 0


class TestChaosSweep:
    def test_chaos_rows_deterministic_across_workers(self, tiny_prepared):
        from repro.experiments.chaos import run_chaos
        from repro.experiments.sweep import rows_to_jsonl

        kwargs = dict(
            profiles=["resets"], seeds=(0, 1),
            base={"video": "tinytest", "buffer_segments": 2},
            prepared_map={"tinytest": tiny_prepared},
        )
        serial = run_chaos(workers=1, **kwargs)
        parallel = run_chaos(workers=2, **kwargs)
        assert rows_to_jsonl(serial) == rows_to_jsonl(parallel)
        for row in serial:
            assert row["audit"]["ok"], row["audit"]["violations"]
            assert row["profile"] == "resets"

    def test_unknown_profile_rejected(self, tiny_prepared):
        from repro.experiments.chaos import run_chaos

        with pytest.raises(KeyError, match="unknown chaos profile"):
            run_chaos(
                profiles=["nope"], seeds=(0,),
                base={"video": "tinytest"},
                prepared_map={"tinytest": tiny_prepared},
            )
