"""Crash-tolerant task execution: supervised fork pool + checkpoints.

Every fan-out engine (``run_trials``; ``_run_cells``, under ``run_sweep``
and ``run_chaos``; ``run_fleet``) fans independent tasks out over
fork()ed workers and folds the results back in task order.  A bare
``ProcessPoolExecutor`` makes that fragile: one segfaulted, OOM-killed,
or hung worker aborts the whole campaign with an opaque
``BrokenProcessPool``, and nothing completed so far survives a Ctrl-C.
This module is the resilient execution layer underneath all of them.
Each engine hands :func:`execute` a worker closure that carries its
inputs: the pool forks once per task attempt, so the child reads them
from the fork's memory snapshot.  The layer provides:

* :func:`execute` / :func:`supervised_map` — a supervised pool with
  one fork()ed process per task (at most ``workers`` concurrent):
  per-task wall-clock deadlines, detection of crashed and hung
  workers, bounded retry with exponential backoff, and poison-task
  quarantine once the attempt budget is exhausted.  Failures carry
  the task's *label* ("shard 3", "cell bbb/bola/…"), never a bare
  ``BrokenProcessPool``.  Results fold in task order, and so do each
  task's metrics and profiler, so ``workers=K`` stays byte-identical
  to serial execution, ``--metrics`` and span trees included.
* :class:`CheckpointStore` — a crash-safe spool: each completed task's
  mergeable artifact is written atomically (temp file + ``os.replace``)
  under a content-derived ``run_key``, so an interrupted campaign
  resumes by skipping completed work — and the resumed fold is
  byte-identical to an uninterrupted run.
* :class:`WorkerFaultInjector` — a test-only chaos harness for the
  harness itself: deterministically kill, hang, corrupt, or fail a
  chosen task's first N attempts (installed programmatically or via
  the ``REPRO_EXEC_FAULT`` environment variable), so every recovery
  path above is exercised by ordinary tests and CI.

Determinism: workers are pure functions of their task, retries re-run
the identical task, checkpointed artifacts are JSON round-trips of the
in-process values, and the parent folds in task order regardless of
completion order — so supervision, retry, and resume are all invisible
in the output of a run that succeeds.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ioutil import atomic_write_json
from repro.obs import spans
from repro.obs.metrics import get_registry, scoped_registry

#: Exit code of a CLI run that completed with quarantined (degraded)
#: tasks: partial statistics were produced and reported, but the run
#: is not whole.  Distinct from 1 (audit/regression failure) and 2
#: (usage/input error).
EXIT_DEGRADED = 3

#: Environment variable carrying a JSON :class:`WorkerFaultInjector`
#: spec — the CLI-reachable form of the test-only fault harness.
FAULT_ENV = "REPRO_EXEC_FAULT"

#: How long an injected "hang" sleeps; far beyond any sane deadline.
_HANG_S = 3600.0

#: Grace period for reaping a child that already delivered its result.
_REAP_S = 5.0

#: Backoff before task retry *k* (1-based) is ``TASK_BACKOFF_BASE_S *
#: 2**(k-1)``, capped at ``TASK_BACKOFF_MAX_S``.
TASK_BACKOFF_BASE_S = 0.5
TASK_BACKOFF_MAX_S = 30.0

#: The supervisor's longest wait between checks of its workers.
POLL_INTERVAL_S = 0.05


# ---------------------------------------------------------------------------
# Policy, failures, outcome.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """Supervision knobs for one fan-out.

    ``task_timeout_s`` is a *wall-clock* deadline per attempt (None =
    no deadline; hung workers then only die with the run).
    ``max_attempts`` counts the first try plus retries; a task is
    quarantined after its last attempt fails.
    """

    task_timeout_s: Optional[float] = None
    max_attempts: int = 3

    def __post_init__(self):
        if self.task_timeout_s is not None and not self.task_timeout_s > 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_s(self, failures: int) -> float:
        """Sleep before the retry following the ``failures``-th failure."""
        return min(
            TASK_BACKOFF_BASE_S * (2.0 ** max(failures - 1, 0)),
            TASK_BACKOFF_MAX_S,
        )


DEFAULT_POLICY = ExecutionPolicy()


def validate_workers(workers) -> int:
    """The established worker-count contract: a positive integer."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive integer, got {workers!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass
class TaskFailure:
    """One quarantined task: every attempt failed."""

    index: int
    label: str
    attempts: int
    causes: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.label} failed after {self.attempts} attempt(s): "
            f"{', '.join(self.causes)}"
        )

    def to_dict(self) -> Dict:
        return {
            "task": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "causes": list(self.causes),
        }


class ExecutionError(RuntimeError):
    """Raised in strict mode when tasks exhausted their retry budget.

    Unlike ``BrokenProcessPool`` the message names every failing task
    by label, with the per-attempt causes.
    """

    def __init__(self, failures: Sequence[TaskFailure], total: int):
        self.failures = list(failures)
        self.total = total
        detail = "; ".join(f.describe() for f in self.failures)
        super().__init__(
            f"{len(self.failures)}/{total} task(s) exhausted their "
            f"retry budget — {detail}"
        )


class ExecutionInterrupted(KeyboardInterrupt):
    """Ctrl-C during a supervised fan-out, after pool teardown.

    The pool kills every live worker and leaves the checkpoint spool
    flushed before raising, so ``resume_hint`` (when checkpointing was
    active) is honest: completed work is on disk.
    """

    def __init__(
        self,
        completed: int,
        total: int,
        checkpoint_dir: Optional[str] = None,
    ):
        self.completed = completed
        self.total = total
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_dir is not None:
            self.resume_hint = (
                f"{completed}/{total} task(s) checkpointed; resume "
                f"with --resume {checkpoint_dir}"
            )
        else:
            self.resume_hint = (
                f"{completed}/{total} task(s) finished but not "
                f"checkpointed; use --resume DIR to make runs resumable"
            )
        super().__init__(self.resume_hint)


@dataclass
class MapOutcome:
    """The fold-ready outcome of one supervised fan-out.

    ``results`` is in task order with ``None`` in quarantined slots;
    callers that cannot tolerate holes should check :attr:`ok` (or run
    in strict mode upstream, which raises :class:`ExecutionError`).
    """

    results: List[Any]
    failures: List[TaskFailure]
    resumed: int = 0
    retries: int = 0
    requested_workers: int = 1
    effective_workers: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return len(self.results) - len(self.failures)

    def degraded(self) -> Optional[Dict]:
        """The report-ready ``degraded`` block, or None when whole.

        Absent on clean runs by design: reports (and their content
        hashes) of undisturbed campaigns stay byte-identical to the
        pre-supervision era.
        """
        if not self.failures:
            return None
        return {
            "missing": [f.to_dict() for f in self.failures],
            "completed": self.completed,
            "total": len(self.results),
        }


# ---------------------------------------------------------------------------
# Test-only worker fault injection (chaos for the harness itself).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerFaultInjector:
    """Deterministically break chosen attempts of one task.

    ``mode``: ``kill`` (SIGKILL mid-task), ``hang`` (sleep past any
    deadline), ``corrupt`` (deliver an unpicklable result payload), or
    ``error`` (raise inside the worker).  The fault fires on task
    ``task`` for the first ``attempts`` attempts, so the retry path is
    exercised (``attempts`` < budget) or the quarantine path is
    (``attempts`` >= budget) — deterministically either way.
    """

    mode: str
    task: int = 0
    attempts: int = 1

    MODES = ("kill", "hang", "corrupt", "error")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: "
                f"{', '.join(self.MODES)}"
            )

    def applies(self, index: int, attempt: int) -> bool:
        return index == self.task and attempt <= self.attempts

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkerFaultInjector":
        known = {"mode", "task", "attempts"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault injector field(s) {unknown}; known: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**data)

    @classmethod
    def from_env(cls) -> Optional["WorkerFaultInjector"]:
        raw = os.environ.get(FAULT_ENV)
        if not raw:
            return None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{FAULT_ENV}: unparseable JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError(f"{FAULT_ENV}: must be a JSON object")
        return cls.from_dict(data)


_INSTALLED_FAULT: Optional[WorkerFaultInjector] = None


def install_worker_fault(
    injector: Optional[WorkerFaultInjector],
) -> Optional[WorkerFaultInjector]:
    """Install (or clear, with None) the in-process fault injector.

    Returns the previously installed injector so tests can restore it.
    fork()ed workers inherit the installed injector by memory snapshot.
    """
    global _INSTALLED_FAULT
    previous = _INSTALLED_FAULT
    _INSTALLED_FAULT = injector
    return previous


def active_fault_injector() -> Optional[WorkerFaultInjector]:
    """The in-process injector, else the ``REPRO_EXEC_FAULT`` one."""
    if _INSTALLED_FAULT is not None:
        return _INSTALLED_FAULT
    return WorkerFaultInjector.from_env()


def fault_injection_active() -> bool:
    """True when supervised (forked) execution must be used even at
    ``workers=1`` so kill/hang faults hit a child, not the parent."""
    return active_fault_injector() is not None


# ---------------------------------------------------------------------------
# Crash-safe checkpoint spool.
# ---------------------------------------------------------------------------
#: Version 3: a task file holds the task's result, metrics and profiler state.
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint directory that cannot serve this run (exit 2)."""


class CheckpointStore:
    """Atomic per-task artifact spool keyed by a run identity.

    Layout: ``<root>/manifest.json`` binds the directory to one
    ``run_key`` (a content hash of everything that determines the task
    list and row shape) and task count; ``<root>/task-<i>.json`` holds
    task *i*'s JSON-serializable result (under :func:`execute`, the
    task's result, metrics state and profiler state).  Every file is
    written via temp-file + ``os.replace``, so a file either exists
    whole or not at all — a crashed run leaves a valid spool.

    Opening an existing spool written by another
    :data:`CHECKPOINT_VERSION`, or with a different ``run_key``, task
    count or profiling (the store appends ``:profile=<state version>``
    to the key, 0 without a profiler), raises :class:`CheckpointError`:
    resuming folds stored artifacts into a new run, which is only sound
    when the runs are identical.
    """

    def __init__(self, root: str, run_key: str, tasks: int):
        self.root = os.path.abspath(root)
        profile = spans.SPANS_VERSION if spans.current() is not None else 0
        self.run_key = f"{run_key}:profile={profile}"
        self.tasks = tasks
        os.makedirs(self.root, exist_ok=True)
        manifest_path = os.path.join(self.root, "manifest.json")
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"checkpoint manifest {manifest_path!r} is "
                    f"unreadable: {exc}"
                ) from None
            version = manifest.get("checkpoint_version")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint dir {self.root!r} was written with "
                    f"checkpoint version {version!r}; this run writes "
                    f"version {CHECKPOINT_VERSION} — use a fresh "
                    f"directory"
                )
            if (
                manifest.get("run_key") != self.run_key
                or manifest.get("tasks") != tasks
            ):
                raise CheckpointError(
                    f"checkpoint dir {self.root!r} belongs to a "
                    f"different run (run_key "
                    f"{manifest.get('run_key')!r}, "
                    f"{manifest.get('tasks')!r} tasks; this run is "
                    f"{self.run_key!r}, {tasks} tasks) — use a fresh "
                    f"directory"
                )
        else:
            atomic_write_json(manifest_path, {
                "checkpoint_version": CHECKPOINT_VERSION,
                "run_key": self.run_key,
                "tasks": tasks,
            })

    def _task_path(self, index: int) -> str:
        return os.path.join(self.root, f"task-{index:05d}.json")

    def save(self, index: int, result) -> None:
        """Atomically spool one completed task's artifact.

        ``sort_keys`` is off: dict insertion order is part of some fold
        algebras (e.g. per-group aggregation), and JSON preserves it.
        """
        try:
            atomic_write_json(
                self._task_path(index),
                {"index": index, "run_key": self.run_key,
                 "result": result},
                indent=None,
                sort_keys=False,
            )
        except TypeError as exc:
            raise CheckpointError(
                f"task {index} result is not JSON-serializable "
                f"(checkpointing needs mergeable plain-data "
                f"artifacts): {exc}"
            ) from None

    def load_completed(self) -> Dict[int, Any]:
        """Every valid spooled artifact, keyed by task index.

        Entries that are unreadable or mismatched are skipped — an
        invalid spool entry is equivalent to incomplete work, and the
        deterministic recompute repairs it.
        """
        out: Dict[int, Any] = {}
        for index in range(self.tasks):
            path = self._task_path(index)
            if not os.path.exists(path):
                continue
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(entry, dict)
                and entry.get("run_key") == self.run_key
                and entry.get("index") == index
            ):
                out[index] = entry.get("result")
        return out


# ---------------------------------------------------------------------------
# The supervised pool.
# ---------------------------------------------------------------------------
def _child_main(worker, task, index: int, attempt: int, conn) -> None:
    """Entry point of one fork()ed task attempt.

    Sends ``("ok", result)`` or ``("error", message)`` over the pipe
    and exits; crashes and kills surface to the parent as EOF plus the
    process exit code.  The test-only fault injector hooks in here —
    the only place it exists at runtime.
    """
    # The inherited heap (a prepared video is a few hundred thousand
    # tracked objects) is never garbage here.  Freezing it keeps the
    # task's collections from traversing it, which would also copy
    # every page it sits on; how soon the first full collection comes
    # depends only on the parent's allocation history.
    gc.freeze()
    injector = active_fault_injector()
    inject = injector is not None and injector.applies(index, attempt)
    # The fault targets this task, not a fan-out nested in it (a sweep
    # cell's repetitions): that one runs serially here, as it would
    # under a serial parent.
    install_worker_fault(None)
    os.environ.pop(FAULT_ENV, None)
    if inject and injector.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if inject and injector.mode == "hang":
        time.sleep(_HANG_S)
    try:
        if inject and injector.mode == "error":
            raise RuntimeError(
                f"injected worker fault (task {index}, "
                f"attempt {attempt})"
            )
        result = worker(task)
    except BaseException as exc:  # report, then die quietly
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            conn.close()
        finally:
            os._exit(1)
    if inject and injector.mode == "corrupt":
        # A payload the parent's unpickler rejects: torn/garbled IPC.
        conn.send_bytes(b"\x00not-a-pickle\x00")
    else:
        conn.send(("ok", result))
    conn.close()


class _Attempt:
    """Parent-side state of one running task attempt."""

    __slots__ = ("index", "attempt", "proc", "conn", "deadline")

    def __init__(self, index, attempt, proc, conn, deadline):
        self.index = index
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.deadline = deadline


def _spawn(ctx, worker, task, index, attempt, policy) -> _Attempt:
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_main,
        args=(worker, task, index, attempt, send_conn),
        daemon=True,
    )
    proc.start()
    # Close the parent's copy of the write end: the read end then sees
    # EOF the moment the child dies, delivering crash detection for
    # free through the same wait() that delivers results.
    send_conn.close()
    deadline = None
    if policy.task_timeout_s is not None:
        deadline = time.monotonic() + policy.task_timeout_s
    return _Attempt(index, attempt, proc, conn=recv_conn,
                    deadline=deadline)


def _reap(child: _Attempt, kill: bool = False) -> Optional[int]:
    """Tear one attempt down; returns the exit code if known."""
    if kill and child.proc.is_alive():
        child.proc.kill()
    child.proc.join(timeout=_REAP_S)
    if child.proc.is_alive():  # refused to die in time: force it
        child.proc.kill()
        child.proc.join(timeout=_REAP_S)
    exitcode = child.proc.exitcode
    try:
        child.proc.close()
    except ValueError:
        pass
    try:
        child.conn.close()
    except OSError:
        pass
    return exitcode


def supervised_map(
    worker: Callable,
    tasks: Sequence,
    *,
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    checkpoint: Optional[CheckpointStore] = None,
) -> MapOutcome:
    """Fan ``tasks`` out over supervised fork()ed workers.

    One process per task attempt, at most ``min(workers, len(tasks))``
    concurrent.  Crashed workers (any death without a delivered
    result: segfault, OOM kill, ``os._exit``), hung workers (attempt
    deadline exceeded), corrupt result payloads, and in-worker
    exceptions are each retried with exponential backoff up to
    ``policy.max_attempts``, then quarantined as :class:`TaskFailure`
    — other tasks keep running either way.  Results return in task
    order, byte-identical at any worker count.

    With ``checkpoint``, completed artifacts are spooled atomically as
    they land and already-spooled tasks are folded from disk instead
    of re-running — the resume path.  Ctrl-C kills every live worker
    and raises :class:`ExecutionInterrupted` (the spool stays valid).
    """
    workers = validate_workers(workers)
    tasks = list(tasks)
    total = len(tasks)
    policy = policy or DEFAULT_POLICY
    if labels is None:
        labels = [f"task {i}" for i in range(total)]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != total:
            raise ValueError(
                f"{len(labels)} labels for {total} tasks"
            )
    effective = min(workers, total)
    results: List[Any] = [None] * total
    done = [False] * total
    causes: Dict[int, List[str]] = {}
    failures: Dict[int, TaskFailure] = {}
    resumed = 0
    retries = 0

    if checkpoint is not None:
        for index, value in checkpoint.load_completed().items():
            if 0 <= index < total:
                results[index] = value
                done[index] = True
                resumed += 1

    #: (index, attempt, not_before) — attempt is 1-based.
    pending = deque(
        (i, 1, 0.0) for i in range(total) if not done[i]
    )
    active: Dict[int, _Attempt] = {}
    ctx = multiprocessing.get_context("fork")

    def record_failure(child: _Attempt, cause: str) -> None:
        nonlocal retries
        causes.setdefault(child.index, []).append(cause)
        if child.attempt < policy.max_attempts:
            retries += 1
            not_before = (
                time.monotonic() + policy.backoff_s(child.attempt)
            )
            pending.append((child.index, child.attempt + 1, not_before))
        else:
            failures[child.index] = TaskFailure(
                index=child.index,
                label=labels[child.index],
                attempts=child.attempt,
                causes=causes.pop(child.index),
            )

    def finish(child: _Attempt) -> None:
        """Classify a readable pipe: result, error, corrupt, crash."""
        try:
            message = child.conn.recv()
        except EOFError:
            exitcode = _reap(child)
            if exitcode is not None and exitcode < 0:
                try:
                    name = signal.Signals(-exitcode).name
                except ValueError:
                    name = str(-exitcode)
                record_failure(child, f"crash(signal {name})")
            else:
                record_failure(child, f"crash(exit {exitcode})")
            return
        except Exception as exc:  # unpicklable / truncated payload
            _reap(child, kill=True)
            record_failure(
                child, f"corrupt-result({type(exc).__name__})"
            )
            return
        _reap(child, kill=True)
        if (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == "ok"
        ):
            index = child.index
            results[index] = message[1]
            done[index] = True
            causes.pop(index, None)
            if checkpoint is not None:
                checkpoint.save(index, message[1])
        elif (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == "error"
        ):
            record_failure(child, f"exception({message[1]})")
        else:
            record_failure(child, "corrupt-result(protocol)")

    try:
        while pending or active:
            now = time.monotonic()
            # Launch every ready pending attempt while capacity lasts.
            launched = True
            while launched and pending and len(active) < effective:
                launched = False
                for slot in range(len(pending)):
                    index, attempt, not_before = pending[slot]
                    if not_before <= now:
                        del pending[slot]
                        active[index] = _spawn(
                            ctx, worker, tasks[index], index, attempt,
                            policy,
                        )
                        launched = True
                        break

            # How long to wait: the nearest deadline, the nearest
            # backoff expiry (when a slot is free for it), or a poll
            # tick — whichever comes first.
            waits = [POLL_INTERVAL_S]
            deadlines = [
                child.deadline for child in active.values()
                if child.deadline is not None
            ]
            if deadlines:
                waits.append(max(min(deadlines) - now, 0.0))
            if pending and len(active) < effective:
                soonest = min(item[2] for item in pending)
                waits.append(max(soonest - now, 0.0))
            timeout = min(waits)

            if active:
                ready = mp_connection.wait(
                    [child.conn for child in active.values()], timeout
                )
                ready_set = set(ready)
                # Results and deaths first (a delivered result always
                # beats a deadline that expired during delivery) ...
                for child in list(active.values()):
                    if child.conn in ready_set:
                        del active[child.index]
                        finish(child)
                # ... then hung-worker deadlines.
                now = time.monotonic()
                for child in list(active.values()):
                    if child.deadline is not None and now >= child.deadline:
                        del active[child.index]
                        _reap(child, kill=True)
                        record_failure(
                            child,
                            f"timeout({policy.task_timeout_s:g}s)",
                        )
            elif timeout > 0:
                time.sleep(timeout)
    except KeyboardInterrupt:
        raise ExecutionInterrupted(
            completed=sum(done),
            total=total,
            checkpoint_dir=(
                checkpoint.root if checkpoint is not None else None
            ),
        )
    finally:
        for child in active.values():
            _reap(child, kill=True)
        active.clear()

    return MapOutcome(
        results=results,
        failures=[failures[i] for i in sorted(failures)],
        resumed=resumed,
        retries=retries,
        requested_workers=workers,
        effective_workers=effective,
    )


def execute(
    worker: Callable,
    tasks: Sequence,
    *,
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    checkpoint: Optional[CheckpointStore] = None,
) -> MapOutcome:
    """The engines' single entry point: serial in-process or supervised.

    ``workers=1`` with no supervision request (no policy, no
    checkpoint, no fault injector) runs tasks serially in-process —
    the degenerate case every byte-identity claim is anchored to, and
    the only mode where in-process observers can be fed directly.
    Anything else goes through :func:`supervised_map`.

    Either way each task runs in its own metrics scope and, when the
    caller has a profiler installed, under its own profiler; both
    states travel with the task's result (and into the checkpoint
    spool).  After the map they fold into the caller's registry and
    profiler in task order — quarantined tasks fold nothing — and
    ``results`` holds the bare results, so both end the same at any
    worker count, and after a resume.
    """
    workers = validate_workers(workers)
    profiler = spans.current()

    def scoped(task):
        with scoped_registry(merge=False) as registry:
            if profiler is None:
                return worker(task), registry.state(), None
            # A session captures the installed profiler when it is built.
            with spans.profiled() as task_profiler:
                result = worker(task)
            return result, registry.state(), task_profiler.to_dict()

    if (
        workers == 1
        and policy is None
        and checkpoint is None
        and not fault_injection_active()
    ):
        tasks = list(tasks)
        results: List[Any] = []
        try:
            for task in tasks:
                results.append(scoped(task))
        except KeyboardInterrupt:
            raise ExecutionInterrupted(
                completed=len(results), total=len(tasks)
            )
        outcome = MapOutcome(
            results=results,
            failures=[],
            requested_workers=workers,
            effective_workers=min(workers, len(tasks)),
        )
    else:
        outcome = supervised_map(
            scoped, tasks, workers=workers, policy=policy, labels=labels,
            checkpoint=checkpoint,
        )
    registry = get_registry()
    for index, entry in enumerate(outcome.results):
        if entry is not None:  # None: a quarantined task
            result, state, profile = entry
            registry.merge_state(state)
            if profiler is not None:
                profiler.merge_dict(profile)
            outcome.results[index] = result
    return outcome


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_POLICY",
    "EXIT_DEGRADED",
    "ExecutionError",
    "ExecutionInterrupted",
    "ExecutionPolicy",
    "FAULT_ENV",
    "MapOutcome",
    "TaskFailure",
    "WorkerFaultInjector",
    "active_fault_injector",
    "execute",
    "fault_injection_active",
    "install_worker_fault",
    "supervised_map",
    "validate_workers",
]
