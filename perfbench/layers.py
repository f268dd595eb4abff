"""Per-layer tracing applied from outside the program.

:func:`install` wraps each layer's public boundary and returns an
:class:`Installation` whose :meth:`~Installation.undo` restores every
original binding.  Three kinds of boundary are wrapped:

* module functions: the defining module's attribute *and* every
  ``from ... import`` alias of it found in ``sys.modules`` are rebound,
  so ``decode_segment`` is caught whether prep, the player or an ABR
  calls it;
* class methods, patched on the class itself before any stack is built
  (hot paths capture bound methods at construction time);
* generator functions, whose generators are timed per resumption.

Spans stay in memory in a :class:`Recorder`: a count per metric and the
self time per layer, where a span's self time is its duration minus the
spans it encloses.  Summing self times therefore partitions the traced
wall time between layers without double counting.

Process-pool children are forked from a patched parent.  The recorder
zeroes itself in each child, and the task function handed to
``execution.execute`` writes the child's record to a spool directory
when the task returns: pool children leave through ``os._exit``, so
``atexit`` would never run.  The parent folds the spool when the
fan-out returns.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import pkgutil
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer metrics the traced run reports, with their units, in output
#: order.  ``BENCHMARK.json`` lists exactly these.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("video.encode_calls", "count"),
    ("video.encode_s", "s"),
    ("prep.prepare_calls", "count"),
    ("prep.self_s", "s"),
    ("prep.drop_curve_calls", "count"),
    ("prep.order_calls", "count"),
    ("qoe.decode_calls", "count"),
    ("qoe.decode_s", "s"),
    ("kernel.events", "count"),
    ("kernel.resumptions", "count"),
    ("link.offer_round_calls", "count"),
    ("link.self_s", "s"),
    ("traces.get_calls", "count"),
    ("traces.memo_hit_ratio", "ratio"),
    ("traces.gen_s", "s"),
    ("transport.fetch_calls", "count"),
    ("transport.self_s", "s"),
    ("transport.cwnd_rounds", "count"),
    ("transport.retries", "count"),
    ("transport.timeouts", "count"),
    ("transport.resets", "count"),
    ("abr.choose_calls", "count"),
    ("abr.choose_s", "s"),
    ("abr.candidate_hit_ratio", "ratio"),
    ("player.sessions", "count"),
    ("player.segments", "count"),
    ("player.self_s", "s"),
    ("core.build_s", "s"),
    ("faults.plan_queries", "count"),
    ("faults.self_s", "s"),
    ("obs.events_fed", "count"),
    ("obs.feed_s", "s"),
    ("execution.tasks", "count"),
    ("execution.attempts", "count"),
    ("execution.parent_cpu_s", "s"),
    ("execution.child_cpu_s", "s"),
    ("execution.child_page_faults", "count"),
    ("execution.cpu_overhead_pct", "%"),
    ("execution.speedup", "x"),
    ("fleet.fold_s", "s"),
    ("multiclient.build_shard_s", "s"),
    ("gc.collections", "count"),
    ("gc.s", "s"),
    ("op.p90_ms", "ms"),
    ("op.samples", "count"),
    ("trace.overhead_pct", "%"),
)

#: Raw recorder values that are not reported as they are but feed a
#: ratio: memo hits, and candidate-cache lookups versus rebuilds.
_RAW_ONLY = ("traces.memo_hits", "abr.candidate_lookups",
             "abr.candidate_builds")

#: Metrics the recorder accumulates directly (counts and self times).
RECORDED = tuple(
    name for name, _ in PER_LAYER_METRICS
    if name not in (
        "traces.memo_hit_ratio", "abr.candidate_hit_ratio",
        "execution.parent_cpu_s", "execution.child_cpu_s",
        "execution.child_page_faults", "execution.cpu_overhead_pct",
        "execution.speedup", "op.p90_ms", "op.samples",
        "trace.overhead_pct",
    )
) + _RAW_ONLY

# Boundaries timed as plain spans: (module, class or None, attribute,
# self-time metric, call-count metric or None).
_SPANS = (
    ("repro.video.encoder", None, "encode_video",
     "video.encode_s", "video.encode_calls"),
    ("repro.prep.prepare", None, "prepare",
     "prep.self_s", "prep.prepare_calls"),
    ("repro.prep.analysis", None, "compute_drop_curve",
     "prep.self_s", "prep.drop_curve_calls"),
    ("repro.prep.ranking", None, "build_order",
     "prep.self_s", "prep.order_calls"),
    ("repro.qoe.model", None, "decode_segment",
     "qoe.decode_s", "qoe.decode_calls"),
    ("repro.network.link", "BottleneckLink", "offer_round",
     "link.self_s", "link.offer_round_calls"),
    ("repro.transport.cubic", "CubicController", "on_round",
     "transport.self_s", "transport.cwnd_rounds"),
    ("repro.core.build", "StackBuilder", "build", "core.build_s", None),
    ("repro.faults.plan", None, "build_plan", "faults.self_s", None),
    ("repro.faults.plan", "FaultedTrace", "bandwidth_mbps",
     "faults.self_s", None),
    ("repro.obs.rollup", "TraceRollup", "feed",
     "obs.feed_s", "obs.events_fed"),
    ("repro.obs.attribution", "FleetAttributor", "feed",
     "obs.feed_s", "obs.events_fed"),
    ("repro.obs.rollup", "TraceRollup", "merge", "fleet.fold_s", None),
    ("repro.obs.attribution", "FleetAttributor", "merge",
     "fleet.fold_s", None),
    ("repro.experiments.multiclient", None, "build_shard",
     "multiclient.build_shard_s", None),
)

_TRANSPORT = "transport.self_s"

# Generator boundaries, timed per resumption: (module, class or None,
# attribute, call-count metric or None).  All are transport.
_GENERATORS = (
    ("repro.transport.http", "VoxelHttp", "fetch_segment_iter",
     "transport.fetch_calls"),
    ("repro.transport.connection", "QuicConnection", "download_iter", None),
    ("repro.transport.resilience", None, "resilient_download_iter", None),
)


class Recorder:
    """In-memory counts and self times of one process.

    Args:
        spool: directory where forked pool children leave their records
            (must exist; only needed when the traced code fans out).
    """

    def __init__(self, spool: Optional[str] = None):
        self.values: Dict[str, float] = dict.fromkeys(RECORDED, 0.0)
        #: Open spans, innermost last: ``[child seconds, time metric]``.
        self.stack: List[list] = []
        self.spool = spool
        self.active = False
        self._fork_hook = False

    def reset(self) -> None:
        for key in self.values:
            self.values[key] = 0.0
        del self.stack[:]

    def after_fork_in_child(self) -> None:
        if self.active:
            self.reset()

    def dump(self) -> None:
        """Write this (child) process's record to the spool, then zero it."""
        path = os.path.join(
            self.spool, f"child-{os.getpid()}-{perf_counter():.9f}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(self.values, handle)
        os.replace(path + ".tmp", path)
        self.reset()

    def absorb(self) -> None:
        """Fold every child record in the spool into this recorder."""
        for name in sorted(os.listdir(self.spool)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.spool, name)
            with open(path) as handle:
                child = json.load(handle)
            for key, value in child.items():
                self.values[key] += value
            os.remove(path)

    def metrics(self) -> Dict[str, float]:
        """Recorded per-layer metrics, with the two ratios derived."""
        values = self.values
        out = {key: values[key] for key in RECORDED if key not in _RAW_ONLY}
        calls = values["traces.get_calls"]
        out["traces.memo_hit_ratio"] = (
            values["traces.memo_hits"] / calls if calls else 0.0
        )
        lookups = values["abr.candidate_lookups"]
        out["abr.candidate_hit_ratio"] = (
            max(lookups - values["abr.candidate_builds"], 0.0) / lookups
            if lookups else 0.0
        )
        return out


def _timed(values, stack, key: str, call, *args, **kwargs):
    """Run ``call`` as one span of ``key``'s layer."""
    frame = [0.0, key]
    stack.append(frame)
    t0 = perf_counter()
    try:
        return call(*args, **kwargs)
    finally:
        dt = perf_counter() - t0
        stack.pop()
        values[key] += dt - frame[0]
        if stack:
            stack[-1][0] += dt


class _TimedGenerator:
    """Generator proxy timing each resumption as one span.

    Supports the full generator protocol, so ``yield from`` delegates
    ``send``/``throw``/``close`` and receives the return value.
    """

    __slots__ = ("_gen", "_send", "_values", "_stack", "_key")

    def __init__(self, gen, values, stack, key):
        self._gen = gen
        self._send = gen.send
        self._values = values
        self._stack = stack
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return _timed(self._values, self._stack, self._key, self._send, value)

    def throw(self, *args):
        return _timed(self._values, self._stack, self._key, self._gen.throw,
                      *args)

    def close(self):
        return self._gen.close()


def _span(fn, rec: Recorder, time_key: str, count_key: Optional[str],
          after: Optional[Callable] = None, outer_key: Optional[str] = None):
    """Wrap ``fn`` as one span.

    ``count_key`` counts every call, ``outer_key`` only calls not made
    inside a span of the same layer, and ``after(result, args, kwargs)``
    runs outside the span, for counts read off the result.  A call made
    inside a span of the same layer is not timed again: its time already
    belongs to the enclosing span's self time.
    """
    values = rec.values
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count_key is not None:
            values[count_key] += 1
        if stack and stack[-1][1] == time_key:
            result = fn(*args, **kwargs)
        else:
            if outer_key is not None:
                values[outer_key] += 1
            result = _timed(values, stack, time_key, fn, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _generator(fn, rec: Recorder, count_key: Optional[str]):
    """Wrap a transport generator function so each resumption is a span.

    A generator created inside a transport span (``download_iter``
    delegated to by ``fetch_segment_iter``) is returned bare: it only
    ever runs inside the enclosing generator's timed resumptions.
    """
    values = rec.values
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count_key is not None:
            values[count_key] += 1
        gen = fn(*args, **kwargs)
        if stack and stack[-1][1] == _TRANSPORT:
            return gen
        return _TimedGenerator(gen, values, stack, _TRANSPORT)

    return wrapper


class _CountedGenerator:
    """Generator proxy counting resumptions under ``kernel.resumptions``."""

    __slots__ = ("_gen", "_send", "_values")

    def __init__(self, gen, values):
        self._gen = gen
        self._send = gen.send
        self._values = values

    def __iter__(self):
        return self

    def __next__(self):
        self._values["kernel.resumptions"] += 1
        return self._send(None)

    def send(self, value):
        self._values["kernel.resumptions"] += 1
        return self._send(value)

    def throw(self, *args):
        self._values["kernel.resumptions"] += 1
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()


def _session_counts(values: Dict[str, float], metrics) -> None:
    """Player and transport-resilience counts of one finished session."""
    values["player.sessions"] += 1
    values["player.segments"] += len(metrics.records)
    summary = metrics.summary()
    values["transport.retries"] += summary.get("retries", 0.0)
    values["transport.timeouts"] += summary.get("request_timeouts", 0.0)
    values["transport.resets"] += summary.get("connection_resets", 0.0)


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro"
                                   or name.startswith("repro."))
    ]


def _import_program() -> None:
    """Import every module of the program, so all aliases exist now."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Installation:
    """The wrappers installed by :func:`install`; :meth:`undo` removes them."""

    def __init__(self, rec: Recorder):
        self.recorder = rec
        self._restore: List[Callable[[], None]] = []

    # -- binding helpers ------------------------------------------------
    def function(self, module_name: str, attr: str, make) -> None:
        """Wrap a module function and rebind every alias of it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, key, original)
                    )

    def method(self, cls, attr: str, make) -> None:
        """Wrap the method ``cls`` itself defines (not an inherited one)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def boundary(self, module_name, cls_name, attr, make) -> None:
        if cls_name is None:
            self.function(module_name, attr, make)
        else:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self.method(cls, attr, make)

    def undo(self) -> None:
        while self._restore:
            self._restore.pop()()
        self.recorder.active = False


def install(rec: Recorder) -> Installation:
    """Wrap every layer boundary of the program; returns the undo handle."""
    _import_program()
    from repro.abr.base import ABRAlgorithm
    from repro.abr.bola import Bola
    from repro.faults.plan import FaultPlan
    from repro.network.events import EventScheduler
    from repro.player.session import StreamingSession

    inst = Installation(rec)
    values = rec.values
    stack = rec.stack

    for module_name, cls_name, attr, time_key, count_key in _SPANS:
        inst.boundary(
            module_name, cls_name, attr,
            functools.partial(_span, rec=rec, time_key=time_key,
                              count_key=count_key),
        )
    for module_name, cls_name, attr, count_key in _GENERATORS:
        inst.boundary(
            module_name, cls_name, attr,
            functools.partial(_generator, rec=rec, count_key=count_key),
        )
    for attr, value in list(vars(FaultPlan).items()):
        if inspect.isfunction(value) and not attr.startswith("_"):
            inst.method(
                FaultPlan, attr,
                functools.partial(_span, rec=rec, time_key="faults.self_s",
                                  count_key="faults.plan_queries"),
            )

    # Kernel: events posted through the public scheduling calls.
    def count_schedule(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values["kernel.events"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_schedule_many(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ids = fn(*args, **kwargs)
            values["kernel.events"] += len(ids)
            return ids
        return wrapper

    inst.method(EventScheduler, "schedule", count_schedule)
    inst.method(EventScheduler, "schedule_many", count_schedule_many)

    # Kernel: every resumption of a session process, whether the solo
    # ``drive()`` loop or a shared-bottleneck SimKernel resumes it.
    def count_resumptions(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _CountedGenerator(fn(*args, **kwargs), values)
        return wrapper

    inst.method(StreamingSession, "steps", count_resumptions)

    # Traces: a call returning the very object an earlier call with the
    # same arguments returned was served by the memo.
    served: Dict[tuple, object] = {}

    def trace_hit(result, args, kwargs):
        extra = {k: v for k, v in kwargs.items()
                 if k not in ("seed", "use_cache")}
        seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
        try:
            key = (str(args[0]).lower(), seed,
                   tuple(sorted(extra.items())))
            hash(key)
        except TypeError:
            return
        if served.get(key) is result:
            values["traces.memo_hits"] += 1
        else:
            served[key] = result

    inst.function(
        "repro.network.traces", "get_trace",
        lambda fn: _span(fn, rec, "traces.gen_s", "traces.get_calls",
                         after=trace_hit),
    )

    # ABR: decisions are outermost ``choose`` calls (AbrStar.choose
    # delegates to Bola.choose); every Bola.choose consults the
    # candidate cache once, and ``candidates`` runs only on a miss.
    pending = list(ABRAlgorithm.__subclasses__())
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "choose" in cls.__dict__:
            inst.method(cls, "choose", functools.partial(
                _span, rec=rec, time_key="abr.choose_s",
                count_key="abr.candidate_lookups" if cls is Bola else None,
                outer_key="abr.choose_calls"))
        if "candidates" in cls.__dict__:
            inst.method(cls, "candidates", functools.partial(
                _span, rec=rec, time_key="abr.choose_s",
                count_key="abr.candidate_builds"))

    # Player: whole sessions, solo or on a shared bottleneck.
    inst.method(
        StreamingSession, "run",
        lambda fn: _span(fn, rec, "player.self_s", None,
                         after=lambda m, a, k: _session_counts(values, m)),
    )

    def multiclient_counts(result, args, kwargs):
        for client in result.clients:
            _session_counts(values, client.metrics)

    inst.function(
        "repro.experiments.multiclient", "run_multiclient",
        lambda fn: _span(fn, rec, "player.self_s", None,
                         after=multiclient_counts),
    )

    # Experiments: the fan-out engine.  Children write their records
    # when their task returns; the parent folds them afterwards.
    def make_execute(fn):
        @functools.wraps(fn)
        def wrapper(worker, tasks, *args, **kwargs):
            tasks = list(tasks)
            parent = os.getpid()

            def traced_worker(task):
                try:
                    return worker(task)
                finally:
                    if os.getpid() != parent:
                        rec.dump()

            try:
                outcome = fn(traced_worker, tasks, *args, **kwargs)
            finally:
                if rec.spool is not None:
                    rec.absorb()
            values["execution.tasks"] += len(tasks)
            values["execution.attempts"] += (
                len(tasks) - outcome.resumed + outcome.retries
            )
            return outcome
        return wrapper

    inst.function("repro.experiments.execution", "execute", make_execute)

    # Runtime: garbage-collector pauses, wherever they land.
    gc_start = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            gc_start[0] = perf_counter()
        else:
            values["gc.collections"] += 1
            values["gc.s"] += perf_counter() - gc_start[0]

    gc.callbacks.append(on_gc)
    inst._restore.append(functools.partial(gc.callbacks.remove, on_gc))

    if not rec._fork_hook:  # fork hooks cannot be unregistered
        os.register_at_fork(after_in_child=rec.after_fork_in_child)
        rec._fork_hook = True
    rec.active = True
    return inst
