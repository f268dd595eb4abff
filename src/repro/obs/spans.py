"""Cross-layer profiler: simulated time from spans, CPU time from samples.

A :class:`SpanProfiler` answers two questions, each on its own plane:

* **Where simulated time goes** — a tree of named spans (session →
  segment → request, idle, repair, manifest) that the player opens and
  closes on its kernel's clock.  Each
  :class:`~repro.player.session.StreamingSession` records on a
  :class:`SpanStack` of its own, so the sessions of a shard interleave
  without nesting in each other.  The tree is a pure function of the
  scenario: byte-identical across runs and worker counts, mergeable
  (per-task profilers fold in task order), and golden-pinnable
  (:meth:`SpanProfiler.tree_hash`).
* **Where CPU time goes** — samples.  While a profiler is installed, an
  ``ITIMER_PROF`` timer raises ``SIGPROF`` every
  :data:`SAMPLE_INTERVAL_S` of process CPU time, and the handler charges
  the CPU time since the previous sample to the collapsed stack of the
  interrupted ``repro`` frames.  Subsystems follow from module paths
  (:func:`subsystem_of`): self time goes to the innermost frame's,
  cumulative time once to each subsystem on the stack.

No layer below the player carries profiler code, so an unprofiled run
pays nothing.  Install a profiler *before* building the stack
(:func:`~repro.experiments.execution.execute` installs one per task): a
session captures it at construction.  Samples differ from run to run
and never enter the hashed tree.  The kernel rounds the timer up to its
tick (4 ms at the common ``HZ=250``); a share ``p`` read from ``n``
samples is good to about ±√(p(1−p)/n).
"""

from __future__ import annotations

import functools
import hashlib
import json
import signal
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Version of the serialized profiler state (span tree + samples).
SPANS_VERSION = 2

#: Seconds of process CPU time between samples, as requested; each
#: sample is charged the CPU time that really passed.
SAMPLE_INTERVAL_S = 0.001

#: Module prefix → subsystem; the first matching prefix wins.
#: ``repro.prep.manifest`` maps to None, which charges its frames to
#: their caller's subsystem: prep builds the manifest offline, but the
#: player and every ABR read it online (manifest lookups are most of an
#: MPC session's CPU), so an ABR's reads count as abr and prep's build
#: as prep.  ``repro profile``'s driver sits under each of its samples
#: and is not tracing.
_MODULE_SUBSYSTEMS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("repro.network.events", "kernel"),
    ("repro.network", "link"),
    ("repro.transport", "transport"),
    ("repro.abr", "abr"),
    ("repro.qoe", "qoe"),
    ("repro.player", "player"),
    ("repro.obs.ledger", "other"),
    ("repro.obs", "tracing"),
    ("repro.prep.manifest", None),
    ("repro.prep", "prep"),
    ("repro.video", "prep"),
    ("repro.experiments.execution", "pool"),
)

#: The subsystems CPU time is attributed to: the table's, then other.
SUBSYSTEMS = tuple(dict.fromkeys(
    subsystem for _, subsystem in _MODULE_SUBSYSTEMS
    if subsystem not in (None, "other")
)) + ("other",)

#: The code attribute naming a sampled frame's function:
#: ``Class.method`` from Python 3.11, the bare function name before.
_CODE_NAME = "co_qualname" if sys.version_info >= (3, 11) else "co_name"

#: Collapsed stack of a sample taken outside every repro frame.
_OUTSIDE = "(outside repro)"

_PROFILER: Optional["SpanProfiler"] = None
#: ``(handler, itimer)`` found when the sampler started; None while off.
_saved: Optional[tuple] = None
#: Process CPU time at the previous sample (or when the timer started).
_cpu_mark = 0.0


@functools.lru_cache(maxsize=None)
def subsystem_of(module: str) -> Optional[str]:
    """The subsystem a module's frames are charged to (None = caller's)."""
    for prefix, subsystem in _MODULE_SUBSYSTEMS:
        if module == prefix or module.startswith(prefix + "."):
            return subsystem
    return "other"


def current() -> Optional["SpanProfiler"]:
    """The installed profiler, or None when profiling is off."""
    return _PROFILER


def install(profiler: Optional["SpanProfiler"]) -> Optional["SpanProfiler"]:
    """Install ``profiler`` as the process-wide profiler (None = off).

    A profiler starts the sampler unless it runs; None stops it and
    restores the signal state found when it started.  Returns the
    previous profiler; prefer the :func:`profiled` context manager.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    if profiler is None:
        _disarm()
    else:
        _arm()
    return previous


@contextmanager
def profiled() -> Iterator["SpanProfiler"]:
    """Run a block under a fresh installed :class:`SpanProfiler`."""
    profiler = SpanProfiler()
    previous = install(profiler)
    try:
        yield profiler
    finally:
        install(previous)


def _on_sigprof(signum, frame) -> None:
    global _cpu_mark
    now = time.process_time()
    seconds = now - _cpu_mark
    _cpu_mark = now
    profiler = _PROFILER
    if profiler is not None:
        profiler.sample(frame, seconds)


def _arm() -> None:
    """Start the timer unless it runs.

    Every install calls this: a fork()ed child inherits the installed
    profiler and the handler, but not the interval timer.
    """
    global _saved, _cpu_mark
    if _saved is None:
        _saved = (
            signal.getsignal(signal.SIGPROF),
            signal.getitimer(signal.ITIMER_PROF),
        )
        signal.signal(signal.SIGPROF, _on_sigprof)
    elif signal.getitimer(signal.ITIMER_PROF)[1] > 0.0:
        return
    _cpu_mark = time.process_time()
    signal.setitimer(
        signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
    )


def _disarm() -> None:
    """Stop the timer, then restore the handler (the default action of
    ``SIGPROF`` ends the process) and any timer found before."""
    global _saved
    if _saved is None:
        return
    handler, (delay, interval) = _saved
    _saved = None
    signal.setitimer(signal.ITIMER_PROF, 0.0)
    signal.signal(signal.SIGPROF, handler)
    if delay or interval:
        signal.setitimer(signal.ITIMER_PROF, delay, interval)


class SpanNode:
    """One node of the span tree: aggregates of every visit to a path."""

    __slots__ = ("name", "count", "sim_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sim_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}


class SpanStack:
    """One session's open spans, timed on its clock.

    :meth:`push` opens a span (returning its frame handle) under the
    innermost open one; :meth:`pop` closes it, first unwinding any span
    left open above it, so error paths cannot corrupt the stack.  A span
    may stay open across ``yield``s: it is charged the simulated time
    that passed while it was open.
    """

    __slots__ = ("_root", "_clock", "_open")

    def __init__(self, root: SpanNode, clock):
        self._root = root
        self._clock = clock
        self._open: List[list] = []

    def push(self, name: str) -> list:
        open_spans = self._open
        parent = open_spans[-1][0] if open_spans else self._root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = SpanNode(name)
        frame = [node, self._clock.now]
        open_spans.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        node, start = frame
        node.count += 1
        node.sim_s += self._clock.now - start

    def pop(self, handle: list) -> None:
        """Close ``handle`` and every span above it (no-op if absent)."""
        open_spans = self._open
        for i in range(len(open_spans) - 1, -1, -1):
            if open_spans[i] is handle:
                while len(open_spans) > i:
                    self._close(open_spans.pop())
                return


class SpanProfiler:
    """The player's span tree and the sampled CPU time.

    Sessions record spans through :meth:`stack`, the sampler through
    :meth:`sample`.  One table maps each collapsed stack of
    ``module:function`` entries (outermost first) to its
    ``[samples, seconds]``; :meth:`subsystem_table` and
    :meth:`hotspots` are views of it.
    """

    def __init__(self):
        self._root = SpanNode("")
        self._samples: Dict[str, list] = {}

    # -- recording ------------------------------------------------------
    def stack(self, clock) -> SpanStack:
        """A span stack of its own for one session, timed on ``clock``."""
        return SpanStack(self._root, clock)

    def sample(self, frame, seconds: float) -> None:
        """Charge ``seconds`` of CPU time to the stack ending at ``frame``.

        The body of the ``SIGPROF`` handler; tests drive it directly.
        """
        path = []
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                path.append(f"{module}:{getattr(frame.f_code, _CODE_NAME)}")
            frame = frame.f_back
        key = ";".join(reversed(path)) if path else _OUTSIDE
        entry = self._samples.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- aggregates -----------------------------------------------------
    @property
    def total_sim_s(self) -> float:
        """Simulated seconds covered by top-level spans."""
        return sum(c.sim_s for c in self._root.children.values())

    @property
    def total_spans(self) -> int:
        return sum(node.count for node, _ in self._walk())

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    @property
    def sample_count(self) -> int:
        return sum(n for n, _ in list(self._samples.values()))

    @property
    def cpu_s(self) -> float:
        """Sampled CPU seconds."""
        return sum(s for _, s in list(self._samples.values()))

    def _walk(self) -> Iterator[Tuple[SpanNode, Tuple[str, ...]]]:
        def visit(node: SpanNode, path: Tuple[str, ...]):
            path = path + (node.name,)
            yield node, path
            for child in node.children.values():
                yield from visit(child, path)

        for child in self._root.children.values():
            yield from visit(child, ())

    def _charged(self) -> Iterator[Tuple[str, str, List[str], list]]:
        """``(path, self subsystem, subsystems on the stack, entry)``."""
        for path, entry in list(self._samples.items()):
            found = [
                subsystem
                for subsystem in (
                    subsystem_of(name.partition(":")[0])
                    for name in path.split(";")
                )
                if subsystem is not None
            ] or ["other"]
            yield path, found[-1], list(dict.fromkeys(found)), entry

    def subsystem_table(self) -> Dict[str, Dict[str, float]]:
        """Per-subsystem CPU samples, and the spans' simulated time.

        ``self_s`` partitions the sampled CPU time (each sample counts
        toward the subsystem of its innermost frame, ``samples`` counts
        them); ``cum_s`` counts a sample once for each distinct
        subsystem on its stack.  The spans are the player's:
        ``sim_s`` is the simulated time of the top-level spans and
        ``count`` every span visit.  Only subsystems with samples or
        spans are listed.
        """
        table: Dict[str, Dict[str, float]] = {}

        def row(name: str) -> Dict[str, float]:
            return table.setdefault(name, {
                "self_s": 0.0, "cum_s": 0.0, "samples": 0,
                "sim_s": 0.0, "count": 0,
            })

        for _, innermost, on_stack, (n, seconds) in self._charged():
            row(innermost)["self_s"] += seconds
            row(innermost)["samples"] += n
            for name in on_stack:
                row(name)["cum_s"] += seconds
        if self._root.children:
            row("player")["sim_s"] = self.total_sim_s
            row("player")["count"] = self.total_spans
        return dict(sorted(table.items()))

    def hotspots(self, top: int = 12) -> List[Dict[str, object]]:
        """The ``top`` sampled functions by self CPU time."""
        spots: Dict[Tuple[str, str], list] = {}
        for path, innermost, _, (n, seconds) in self._charged():
            spot = spots.setdefault(
                (path.rpartition(";")[2], innermost), [0, 0.0]
            )
            spot[0] += n
            spot[1] += seconds
        rows = [
            {"function": function, "subsystem": subsystem,
             "samples": n, "self_s": seconds}
            for (function, subsystem), (n, seconds) in spots.items()
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["function"]))
        return rows[:top]

    # -- merge / serialize ---------------------------------------------
    def merge(self, other: "SpanProfiler") -> None:
        """Fold another profiler in (matching paths and stacks add)."""
        self._merge_node(self._root, other._root)
        for path, (n, seconds) in other._samples.items():
            entry = self._samples.setdefault(path, [0, 0.0])
            entry[0] += n
            entry[1] += seconds

    def merge_dict(self, state: Dict) -> None:
        """Fold a serialized profiler in (forked-worker results)."""
        self.merge(SpanProfiler.from_dict(state))

    @staticmethod
    def _merge_node(dst: SpanNode, src: SpanNode) -> None:
        dst.count += src.count
        dst.sim_s += src.sim_s
        for name, child in src.children.items():
            mine = dst.children.get(name)
            if mine is None:
                mine = dst.children[name] = SpanNode(name)
            SpanProfiler._merge_node(mine, child)

    def _node_dict(self, node: SpanNode) -> Dict:
        out: Dict[str, object] = {"count": node.count, "sim_s": node.sim_s}
        if node.children:
            out["children"] = {
                name: self._node_dict(node.children[name])
                for name in sorted(node.children)
            }
        return out

    def tree_dict(self) -> Dict:
        """The JSON-ready span tree, safe to hash or golden-pin."""
        return {
            "spans_version": SPANS_VERSION,
            "tree": self._node_dict(self._root),
        }

    def to_dict(self) -> Dict:
        """JSON-ready state: the span tree and the sampled stacks."""
        state = self.tree_dict()
        state["samples"] = {
            path: list(entry)
            for path, entry in sorted(self._samples.items())
        }
        return state

    @classmethod
    def from_dict(cls, state: Dict) -> "SpanProfiler":
        version = state.get("spans_version")
        if version != SPANS_VERSION:
            raise ValueError(
                f"unsupported span-tree version {version!r} "
                f"(expected {SPANS_VERSION})"
            )
        profiler = cls()

        def build(data: Dict, node: SpanNode) -> None:
            node.count = int(data.get("count", 0))
            node.sim_s = float(data.get("sim_s", 0.0))
            for name, child in data.get("children", {}).items():
                node.children[name] = SpanNode(name)
                build(child, node.children[name])

        build(state["tree"], profiler._root)
        for path, (n, seconds) in state.get("samples", {}).items():
            profiler._samples[path] = [int(n), float(seconds)]
        return profiler

    def tree_hash(self) -> str:
        """sha256 of the canonical span tree."""
        text = json.dumps(
            self.tree_dict(), sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = [
    "SAMPLE_INTERVAL_S",
    "SPANS_VERSION",
    "SUBSYSTEMS",
    "SpanNode",
    "SpanProfiler",
    "SpanStack",
    "current",
    "install",
    "profiled",
    "subsystem_of",
]
