"""Supervised execution layer: crash/hang/corrupt recovery, quarantine,
checkpoint/resume, clean interruption, and the fleet-level goldens.

The fault matrix drives every recovery path of
:func:`repro.experiments.execution.supervised_map` with the test-only
:class:`WorkerFaultInjector` across ``workers in {1, 4}``, and the
fleet goldens pin the headline guarantee: a run whose workers are
SIGKILLed (or that is interrupted and resumed from its checkpoint
spool) produces a ``fleet_hash`` byte-identical to an undisturbed run.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.experiments.execution import (
    CheckpointError,
    CheckpointStore,
    ExecutionError,
    ExecutionInterrupted,
    ExecutionPolicy,
    TaskFailure,
    WorkerFaultInjector,
    active_fault_injector,
    execute,
    fault_injection_active,
    install_worker_fault,
    supervised_map,
    validate_workers,
)
from repro.core.spec import ScenarioSpec
from repro.experiments.chaos import run_chaos
from repro.experiments.fleet import ClientGroup, FleetSpec, run_fleet
from repro.experiments.runner import run_trials
from repro.experiments.sweep import run_sweep
from repro.obs import spans
from repro.obs.metrics import get_registry, scoped_registry

# Mirrors tests/test_fleet.py — an independent anchor for the claim
# that supervision, retry, and resume are invisible in clean output.
GOLDEN_TINY_FLEET_HASH = "2c4fd532f1416772"

#: Retries without sleeps: every recovery path, none of the waiting.
FAST = ExecutionPolicy(
    max_attempts=3, backoff_base_s=0.0, poll_interval_s=0.01
)


def _square(x):
    return x * x


def _sleepy_square(x):
    time.sleep(0.15)
    return x * x


def _counted(x):
    get_registry().counter("probe", task=x).inc(x + 1)
    get_registry().gauge("last").set(x)
    return x


class _Clock:
    now = 0.0


def _spanned(x):
    """Open and close one span named for the task on its profiler."""
    profiler = spans.current()
    if profiler is not None:
        clock = _Clock()
        stack = profiler.stack(clock)
        frame = stack.push(f"task{x}")
        clock.now = x + 1.0
        stack.pop(frame)
    return x


def _sees_a_profiler(x):
    return spans.current() is not None


@pytest.fixture
def fault():
    """Install a worker fault injector; always clear it afterwards."""
    def _install(**kwargs):
        install_worker_fault(WorkerFaultInjector(**kwargs))

    previous = install_worker_fault(None)
    yield _install
    install_worker_fault(previous)


def _tiny_spec(tiny_prepared, clients=12, shards=3, **over):
    over.setdefault("trace", "constant:40")
    groups = tuple(
        ClientGroup(
            abr=abr,
            video=tiny_prepared.name,
            partially_reliable=pr,
            buffer_segments=2,
        )
        for abr, pr in (
            ("abr_star", True), ("bola", True),
            ("abr_star", False), ("bola", False),
        )
    )
    return FleetSpec(
        clients=clients, shards=shards, groups=groups, **over
    )


# ---------------------------------------------------------------------------
# The worker-count contract.
# ---------------------------------------------------------------------------
class TestValidateWorkers:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            validate_workers(bad)

    @pytest.mark.parametrize("bad", [1.5, "2", None, True])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(
            ValueError, match="workers must be a positive integer"
        ):
            validate_workers(bad)

    def test_accepts_positive_integers(self):
        assert validate_workers(1) == 1
        assert validate_workers(64) == 64

    def test_cli_fleet_rejects_zero_workers(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "--clients", "4", "--shards", "2",
            "--workers", "0", "--trace", "constant:40",
        ]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1, got 0" in err
        assert "Traceback" not in err


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = ExecutionPolicy(backoff_base_s=0.5, backoff_max_s=1.6)
        assert policy.backoff_s(1) == 0.5
        assert policy.backoff_s(2) == 1.0
        assert policy.backoff_s(3) == 1.6

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout_s": 0},
        {"max_attempts": 0},
        {"backoff_base_s": -1},
        {"poll_interval_s": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Supervised map: plain operation and order.
# ---------------------------------------------------------------------------
class TestSupervisedMap:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_serial_fold_order(self, workers):
        outcome = supervised_map(
            _square, range(10), workers=workers, policy=FAST
        )
        assert outcome.ok
        assert outcome.results == [i * i for i in range(10)]
        assert outcome.failures == []
        assert outcome.effective_workers == min(workers, 10)

    def test_empty_task_list(self):
        outcome = supervised_map(_square, [], workers=4, policy=FAST)
        assert outcome.ok and outcome.results == []

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels for"):
            supervised_map(
                _square, [1, 2], workers=1, policy=FAST, labels=["a"]
            )


# ---------------------------------------------------------------------------
# The injected fault matrix: every failure class, retried then healed.
# ---------------------------------------------------------------------------
class TestFaultMatrix:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "mode", ["kill", "hang", "corrupt", "error"]
    )
    def test_single_fault_is_retried_and_healed(
        self, fault, mode, workers
    ):
        fault(mode=mode, task=2, attempts=1)
        policy = ExecutionPolicy(
            task_timeout_s=0.5 if mode == "hang" else None,
            max_attempts=3, backoff_base_s=0.0, poll_interval_s=0.01,
        )
        outcome = supervised_map(
            _square, range(6), workers=workers, policy=policy
        )
        assert outcome.ok
        assert outcome.results == [i * i for i in range(6)]
        assert outcome.retries == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_kill_names_the_signal(self, fault, workers):
        fault(mode="kill", task=1, attempts=99)
        outcome = supervised_map(
            _square, range(4), workers=workers, policy=FAST,
            labels=[f"shard {i}" for i in range(4)],
        )
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.index == 1
        assert failure.label == "shard 1"
        assert failure.attempts == FAST.max_attempts
        assert failure.causes == ["crash(signal SIGKILL)"] * 3
        # Unaffected tasks completed; the quarantined slot is a hole.
        assert outcome.results[0] == 0 and outcome.results[2] == 4
        assert outcome.results[1] is None

    def test_hang_is_deadline_killed(self, fault):
        fault(mode="hang", task=0, attempts=99)
        policy = ExecutionPolicy(
            task_timeout_s=0.3, max_attempts=2, backoff_base_s=0.0,
            poll_interval_s=0.01,
        )
        t0 = time.monotonic()
        outcome = supervised_map(
            _square, range(3), workers=2, policy=policy
        )
        assert time.monotonic() - t0 < 10.0
        (failure,) = outcome.failures
        assert failure.causes == ["timeout(0.3s)"] * 2

    def test_corrupt_payload_is_classified(self, fault):
        fault(mode="corrupt", task=1, attempts=99)
        outcome = supervised_map(
            _square, range(3), workers=2,
            policy=ExecutionPolicy(
                max_attempts=1, backoff_base_s=0.0,
                poll_interval_s=0.01,
            ),
        )
        (failure,) = outcome.failures
        assert failure.causes[0].startswith("corrupt-result(")

    def test_worker_exception_carries_type_and_message(self):
        def worker(x):
            if x == 2:
                raise ValueError("poison cell")
            return x

        outcome = supervised_map(
            worker, range(4), workers=2,
            policy=ExecutionPolicy(
                max_attempts=1, backoff_base_s=0.0,
                poll_interval_s=0.01,
            ),
        )
        (failure,) = outcome.failures
        assert failure.causes == ["exception(ValueError: poison cell)"]

    def test_degraded_block_shape(self, fault):
        fault(mode="error", task=0, attempts=99)
        outcome = supervised_map(
            _square, range(3), workers=1, policy=FAST,
            labels=["shard 0", "shard 1", "shard 2"],
        )
        block = outcome.degraded()
        assert block == {
            "missing": [{
                "task": 0,
                "label": "shard 0",
                "attempts": 3,
                "causes": [
                    "exception(RuntimeError: injected worker fault "
                    "(task 0, attempt %d))" % a for a in (1, 2, 3)
                ],
            }],
            "completed": 2,
            "total": 3,
        }

    def test_clean_outcome_has_no_degraded_block(self):
        outcome = supervised_map(
            _square, range(3), workers=1, policy=FAST
        )
        assert outcome.degraded() is None


class TestExecutionError:
    def test_message_names_tasks_never_broken_pool(
        self, fault, tiny_prepared
    ):
        fault(mode="kill", task=0, attempts=99)
        spec = ScenarioSpec(
            video=tiny_prepared.name, trace="constant:40",
            buffer_segments=2, repetitions=3,
        )
        with pytest.raises(ExecutionError) as info:
            run_trials(spec, prepared=tiny_prepared, workers=2)
        message = str(info.value)
        assert "repetition 0" in message
        assert "crash(signal SIGKILL)" in message
        assert "retry budget" in message
        assert "BrokenProcessPool" not in message
        assert info.value.failures[0].index == 0

    @pytest.mark.parametrize("engine", ["sweep", "chaos", "fleet"])
    def test_strict_engines_raise_naming_the_failed_task(
        self, fault, tiny_prepared, engine
    ):
        fault(mode="kill", task=0, attempts=99)
        prepared = {tiny_prepared.name: tiny_prepared}
        with pytest.raises(ExecutionError) as info:
            if engine == "sweep":
                run_sweep(
                    [ScenarioSpec(video=tiny_prepared.name,
                                  trace="constant:40", buffer_segments=2)],
                    prepared_map=prepared, policy=FAST,
                )
            elif engine == "chaos":
                run_chaos(
                    profiles=["resets"], seeds=[0],
                    base={"video": tiny_prepared.name},
                    prepared_map=prepared, policy=FAST,
                )
            else:
                run_fleet(
                    _tiny_spec(tiny_prepared, clients=4, shards=2),
                    workers=2, prepared_map=prepared, policy=FAST,
                )
        expected = {
            "sweep": "cell tinytest/", "chaos": "cell resets/seed0",
            "fleet": "shard 0",
        }[engine]
        message = str(info.value)
        assert expected in message
        assert "crash(signal SIGKILL)" in message
        assert "retry budget" in message
        assert [f.index for f in info.value.failures] == [0]

    def test_describe_joins_causes(self):
        failure = TaskFailure(
            index=3, label="shard 3", attempts=2,
            causes=["crash(exit 1)", "timeout(5s)"],
        )
        assert failure.describe() == (
            "shard 3 failed after 2 attempt(s): "
            "crash(exit 1), timeout(5s)"
        )


# ---------------------------------------------------------------------------
# The fault injector itself.
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            WorkerFaultInjector(mode="explode")

    def test_applies_window(self):
        injector = WorkerFaultInjector(mode="kill", task=2, attempts=2)
        assert injector.applies(2, 1) and injector.applies(2, 2)
        assert not injector.applies(2, 3)
        assert not injector.applies(1, 1)

    def test_from_env_roundtrip(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_EXEC_FAULT",
            json.dumps({"mode": "hang", "task": 1, "attempts": 4}),
        )
        injector = active_fault_injector()
        assert injector == WorkerFaultInjector(
            mode="hang", task=1, attempts=4
        )
        assert fault_injection_active()

    def test_from_env_bad_json_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_FAULT", "{not json")
        with pytest.raises(ValueError, match="unparseable JSON"):
            active_fault_injector()

    def test_from_dict_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault injector"):
            WorkerFaultInjector.from_dict({"mode": "kill", "pid": 1})

    def test_inactive_by_default(self):
        assert active_fault_injector() is None
        assert not fault_injection_active()


# ---------------------------------------------------------------------------
# Checkpoint spool: atomic artifacts, resume, identity binding.
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_then_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"), "run-a", 3)
        store.save(1, {"rows": [1, 2]})
        assert store.load_completed() == {1: {"rows": [1, 2]}}

    def test_spool_layout_is_whole_files_only(self, tmp_path):
        root = tmp_path / "ckpt"
        store = CheckpointStore(str(root), "run-a", 3)
        store.save(0, "x")
        store.save(2, "y")
        assert sorted(os.listdir(root)) == [
            "manifest.json", "task-00000.json", "task-00002.json",
        ]

    def test_run_key_mismatch_rejected(self, tmp_path):
        root = str(tmp_path / "ckpt")
        CheckpointStore(root, "run-a", 3)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(root, "run-b", 3)

    def test_version_mismatch_named(self, tmp_path):
        root = tmp_path / "ckpt"
        CheckpointStore(str(root), "run-a", 3)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["checkpoint_version"] = 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="checkpoint version 1"):
            CheckpointStore(str(root), "run-a", 3)

    def test_task_count_mismatch_rejected(self, tmp_path):
        root = str(tmp_path / "ckpt")
        CheckpointStore(root, "run-a", 3)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(root, "run-a", 4)

    def test_corrupt_entry_is_skipped_not_fatal(self, tmp_path):
        root = tmp_path / "ckpt"
        store = CheckpointStore(str(root), "run-a", 2)
        store.save(0, "good")
        (root / "task-00001.json").write_text("{torn write")
        assert store.load_completed() == {0: "good"}

    def test_unserializable_result_is_a_checkpoint_error(
        self, tmp_path
    ):
        store = CheckpointStore(str(tmp_path / "ckpt"), "run-a", 1)
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            store.save(0, {"bad": {1, 2}})

    def test_preserves_dict_insertion_order(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"), "run-a", 1)
        store.save(0, {"zebra": 1, "alpha": 2})
        assert list(store.load_completed()[0]) == ["zebra", "alpha"]


class TestResume:
    def test_resume_skips_completed_work(self, tmp_path):
        root = str(tmp_path / "ckpt")
        first = supervised_map(
            _square, range(5), workers=2, policy=FAST,
            checkpoint=CheckpointStore(root, "run-a", 5),
        )
        assert first.ok and first.resumed == 0
        # A worker with different output proves nothing re-ran: every
        # value folds from the spool, not from the new function.
        second = supervised_map(
            lambda x: -x, range(5), workers=2, policy=FAST,
            checkpoint=CheckpointStore(root, "run-a", 5),
        )
        assert second.resumed == 5
        assert second.results == first.results

    def test_partial_spool_recomputes_only_the_hole(self, tmp_path):
        root = tmp_path / "ckpt"
        supervised_map(
            _square, range(4), workers=1, policy=FAST,
            checkpoint=CheckpointStore(str(root), "run-a", 4),
        )
        (root / "task-00002.json").unlink()
        outcome = supervised_map(
            lambda x: x + 100, range(4), workers=1, policy=FAST,
            checkpoint=CheckpointStore(str(root), "run-a", 4),
        )
        assert outcome.resumed == 3
        assert outcome.results == [0, 1, 102, 9]


# ---------------------------------------------------------------------------
# Interruption: pool teardown, honest resume hint, valid spool.
# ---------------------------------------------------------------------------
class TestInterrupt:
    def test_serial_interrupt_reports_progress(self):
        def worker(x):
            if x == 2:
                raise KeyboardInterrupt
            return x

        with pytest.raises(ExecutionInterrupted) as info:
            execute(worker, range(5), workers=1)
        assert info.value.completed == 2
        assert info.value.total == 5
        assert "--resume DIR" in info.value.resume_hint

    def test_sigint_mid_flight_leaves_resumable_spool(self, tmp_path):
        root = str(tmp_path / "ckpt")

        def raise_interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, raise_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        try:
            with pytest.raises(ExecutionInterrupted) as info:
                supervised_map(
                    _sleepy_square, range(8), workers=2, policy=FAST,
                    checkpoint=CheckpointStore(root, "run-a", 8),
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        exc = info.value
        assert isinstance(exc, KeyboardInterrupt)
        assert exc.completed < exc.total == 8
        assert f"resume with --resume {root}" in exc.resume_hint
        assert exc.checkpoint_dir == root
        # The spool is valid and the resumed run completes the rest.
        outcome = supervised_map(
            _sleepy_square, range(8), workers=2, policy=FAST,
            checkpoint=CheckpointStore(root, "run-a", 8),
        )
        assert outcome.ok
        assert outcome.resumed == exc.completed
        assert outcome.results == [i * i for i in range(8)]


# ---------------------------------------------------------------------------
# execute(): serial fast path vs supervised dispatch.
# ---------------------------------------------------------------------------
class TestExecuteDispatch:
    def test_serial_fast_path_runs_in_process(self):
        seen = []

        def worker(x):
            seen.append(x)
            return x

        outcome = execute(worker, range(3), workers=1)
        assert outcome.results == [0, 1, 2]
        assert seen == [0, 1, 2]  # parent memory mutated: in-process

    def test_fault_injection_forces_fork_even_serially(self, fault):
        fault(mode="error", task=99, attempts=1)  # never fires
        seen = []

        def worker(x):
            seen.append(x)
            return x

        outcome = execute(worker, range(3), workers=1)
        assert outcome.results == [0, 1, 2]
        assert seen == []  # children mutated copies, not the parent

    def test_policy_forces_supervision(self):
        seen = []

        def worker(x):
            seen.append(x)
            return x

        outcome = execute(worker, range(2), workers=1, policy=FAST)
        assert outcome.results == [0, 1]
        assert seen == []


    def test_fault_spares_the_fan_out_nested_in_a_task(self, fault):
        # The injected error hits task 0's first attempt only; the
        # fan-out inside each task runs serially in that task's process.
        fault(mode="error", task=0, attempts=1)

        def nested(x):
            inner = execute(lambda _: os.getpid(), range(2), workers=1)
            return os.getpid(), inner.results

        outcome = execute(nested, range(2), workers=1, policy=FAST)
        assert outcome.ok and outcome.retries == 1
        for pid, inner in outcome.results:
            assert inner == [pid, pid]


# ---------------------------------------------------------------------------
# execute() folds each task's metrics scope into the caller's registry.
# ---------------------------------------------------------------------------
class TestMetricsFold:
    EXPECTED = {
        "counters": {f"probe{{task={i}}}": float(i + 1) for i in range(4)},
        "gauges": {"last": 3.0},
        "histograms": {},
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_fold_in_task_order(self, workers):
        with scoped_registry() as registry:
            outcome = execute(_counted, range(4), workers=workers)
        assert outcome.results == [0, 1, 2, 3]
        assert registry.dump() == self.EXPECTED

    def test_quarantined_task_folds_nothing(self, fault):
        fault(mode="error", task=1, attempts=99)
        with scoped_registry() as registry:
            outcome = execute(_counted, range(4), workers=2, policy=FAST)
        assert [f.index for f in outcome.failures] == [1]
        assert outcome.results[1] is None
        counters = registry.dump()["counters"]
        assert "probe{task=1}" not in counters
        assert counters["probe{task=2}"] == 3.0

    def test_resumed_run_folds_the_same_metrics(self, tmp_path):
        root = str(tmp_path / "ckpt")
        with scoped_registry() as first:
            execute(
                _counted, range(4), workers=2,
                checkpoint=CheckpointStore(root, "run-a", 4),
            )
        os.unlink(os.path.join(root, "task-00002.json"))
        with scoped_registry() as resumed:
            outcome = execute(
                _counted, range(4), workers=2,
                checkpoint=CheckpointStore(root, "run-a", 4),
            )
        assert outcome.resumed == 3
        assert outcome.results == [0, 1, 2, 3]
        assert resumed.dump() == first.dump() == self.EXPECTED


    def test_every_engine_counts_its_sessions(self, tiny_prepared):
        # StackBuilder.build counts each session it assembles, so the
        # engines that never call run_single count theirs too.
        prepared = {tiny_prepared.name: tiny_prepared}
        with scoped_registry() as chaos:
            run_chaos(
                profiles=["mixed"], seeds=[0],
                base={"video": tiny_prepared.name}, prepared_map=prepared,
            )
        counters = chaos.dump()["counters"]
        assert counters[
            "experiments.sessions{abr=abr_star,trace=verizon}"
        ] == 1.0
        with scoped_registry() as fleet:
            run_fleet(
                _tiny_spec(tiny_prepared, clients=6, shards=2),
                workers=2, prepared_map=prepared,
            )
        sessions = {
            series: value
            for series, value in fleet.dump()["counters"].items()
            if series.startswith("experiments.sessions{")
        }
        assert sum(sessions.values()) == 6.0
        assert set(sessions) == {
            "experiments.sessions{abr=abr_star,trace=constant:40}",
            "experiments.sessions{abr=bola,trace=constant:40}",
        }


# ---------------------------------------------------------------------------
# execute() gives each task its own profiler and folds it like metrics.
# ---------------------------------------------------------------------------
class TestProfilerFold:
    TREE = {
        f"task{i}": {"count": 1, "sim_s": i + 1.0} for i in range(4)
    }

    @staticmethod
    def _paths(profiler):
        return [path for _, path in profiler._walk()]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_fold_in_task_order(self, workers):
        with spans.profiled() as profiler:
            outcome = execute(_spanned, range(4), workers=workers)
        assert outcome.results == [0, 1, 2, 3]
        assert self._paths(profiler) == [(f"task{i}",) for i in range(4)]
        assert profiler.tree_dict()["tree"]["children"] == self.TREE

    def test_quarantined_task_folds_nothing(self, fault):
        fault(mode="error", task=1, attempts=99)
        with spans.profiled() as profiler:
            outcome = execute(_spanned, range(4), workers=2, policy=FAST)
        assert [f.index for f in outcome.failures] == [1]
        assert self._paths(profiler) == [("task0",), ("task2",), ("task3",)]

    def test_resumed_run_folds_the_same_tree(self, tmp_path):
        root = str(tmp_path / "ckpt")
        with spans.profiled() as first:
            execute(
                _spanned, range(4), workers=2,
                checkpoint=CheckpointStore(root, "run-a", 4),
            )
        os.unlink(os.path.join(root, "task-00002.json"))
        with spans.profiled() as resumed:
            outcome = execute(
                _spanned, range(4), workers=2,
                checkpoint=CheckpointStore(root, "run-a", 4),
            )
        assert outcome.resumed == 3
        assert self._paths(resumed) == self._paths(first)
        assert resumed.tree_dict() == first.tree_dict()
        assert first.tree_dict()["tree"]["children"] == self.TREE

    def test_profiled_and_plain_spools_refuse_each_other(self, tmp_path):
        plain = str(tmp_path / "plain")
        execute(
            _spanned, range(2), checkpoint=CheckpointStore(plain, "run-a", 2)
        )
        profiled = str(tmp_path / "profiled")
        with spans.profiled():
            execute(
                _spanned, range(2),
                checkpoint=CheckpointStore(profiled, "run-a", 2),
            )
            with pytest.raises(CheckpointError, match="different run"):
                CheckpointStore(plain, "run-a", 2)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(profiled, "run-a", 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unprofiled_tasks_run_without_a_profiler(self, workers):
        outcome = execute(_sees_a_profiler, range(2), workers=workers)
        assert outcome.results == [False, False]


# ---------------------------------------------------------------------------
# Fleet-level goldens: the headline byte-identity guarantees.
# ---------------------------------------------------------------------------
class TestFleetResilience:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sigkilled_worker_fleet_matches_golden(
        self, fault, tiny_prepared, workers
    ):
        fault(mode="kill", task=1, attempts=2)
        result = run_fleet(
            _tiny_spec(tiny_prepared),
            workers=workers,
            prepared_map={tiny_prepared.name: tiny_prepared},
            policy=FAST,
        )
        assert result.degraded is None
        assert result.fleet_hash() == GOLDEN_TINY_FLEET_HASH

    def test_interrupted_then_resumed_matches_uninterrupted(
        self, fault, tiny_prepared, tmp_path
    ):
        root = str(tmp_path / "ckpt")
        spec = _tiny_spec(tiny_prepared)
        prepared = {tiny_prepared.name: tiny_prepared}
        # First run dies on shard 1 with its budget exhausted: the
        # other shards' artifacts land in the spool, the report is
        # degraded but valid, and the failure names the shard.
        fault(mode="error", task=1, attempts=99)
        broken = run_fleet(
            spec, workers=2, prepared_map=prepared,
            policy=ExecutionPolicy(
                max_attempts=2, backoff_base_s=0.0,
                poll_interval_s=0.01,
            ),
            checkpoint_dir=root, strict=False,
        )
        assert broken.degraded is not None
        assert broken.degraded["completed"] == 2
        assert broken.degraded["total"] == 3
        assert broken.degraded["missing"][0]["label"] == "shard 1"
        assert "degraded" in broken.report()
        # Healed rerun against the same spool: only shard 1 runs, and
        # the merged artifact is byte-identical to a clean campaign.
        install_worker_fault(None)
        resumed = run_fleet(
            spec, workers=2, prepared_map=prepared,
            checkpoint_dir=root,
        )
        assert resumed.resumed == 2
        assert resumed.degraded is None
        assert "degraded" not in resumed.report()
        assert resumed.fleet_hash() == GOLDEN_TINY_FLEET_HASH

    def test_resumed_fleet_folds_the_uninterrupted_metrics(
        self, fault, tiny_prepared, tmp_path
    ):
        root = str(tmp_path / "ckpt")
        spec = _tiny_spec(tiny_prepared, clients=6, shards=2)
        prepared = {tiny_prepared.name: tiny_prepared}
        with scoped_registry() as clean:
            run_fleet(spec, workers=2, prepared_map=prepared)
        fault(mode="kill", task=1, attempts=99)
        run_fleet(
            spec, workers=2, prepared_map=prepared, policy=FAST,
            checkpoint_dir=root, strict=False,
        )
        install_worker_fault(None)
        with scoped_registry() as resumed:
            result = run_fleet(
                spec, workers=2, prepared_map=prepared,
                checkpoint_dir=root,
            )
        assert result.resumed == 1
        assert resumed.dump() == clean.dump()
        assert resumed.dump()["counters"]

    def test_checkpoint_dir_bound_to_spec(
        self, tiny_prepared, tmp_path
    ):
        root = str(tmp_path / "ckpt")
        prepared = {tiny_prepared.name: tiny_prepared}
        run_fleet(
            _tiny_spec(tiny_prepared), prepared_map=prepared,
            checkpoint_dir=root,
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_fleet(
                _tiny_spec(tiny_prepared, seed=99),
                prepared_map=prepared, checkpoint_dir=root,
            )
