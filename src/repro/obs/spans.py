"""Cross-layer span profiler: hierarchical spans on two time planes.

A :class:`SpanProfiler` records a tree of named spans (segment →
request → transport round), each attributed to one *subsystem*
(kernel/transport/link/abr/qoe/player/tracing), on two planes at once:

* **sim plane** — span durations measured on the simulation clock.
  Pure function of the scenario: byte-identical across runs and worker
  counts, mergeable like :class:`~repro.obs.rollup.TraceRollup`
  (per-repetition profilers fold in repetition order), and excluded
  wall-time noise, so :meth:`SpanProfiler.to_dict` with
  ``deterministic=True`` is golden-pinnable.
* **wall plane** — self and cumulative wall time per span (and per
  subsystem via :meth:`SpanProfiler.subsystem_table`), the "where does
  the simulator spend its cycles" answer ``repro profile`` renders.

The profiler is **off** by default.  Instrumented components capture
:func:`current` once at construction (the same pattern the metrics
registry uses), so a disabled span site costs one attribute read.
Where a span covers a whole method call (the link's round, the
router's enqueue, the tracer's emit), the component instead binds a
:func:`metered` wrapper onto the instance, so the method carries no
profiler test at all.  Install a profiler *before* building the stack
(the experiment runner does this per repetition) so every layer
records into it.

This is the one recorder of the layers' wall time: ``repro profile``
(or ``--profile`` on ``fleet``, ``sweep`` and ``faults``) renders it,
and the metrics registry holds no timings.

Wall self-time is exact for strictly nested spans — the solo-session
execution mode every ``repro profile`` run uses.  Interleaved
multi-session kernels keep working (the span stack unwinds
defensively) but attribute wall time to whichever session's span is
innermost; profile one session at a time for exact numbers.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Version of the serialized span-tree layout.
SPANS_VERSION = 1

#: The cross-layer subsystems wall time is attributed to.
SUBSYSTEMS = (
    "kernel", "transport", "link", "abr", "qoe", "player", "tracing",
    "other",
)

_PROFILER: Optional["SpanProfiler"] = None


def current() -> Optional["SpanProfiler"]:
    """The installed span profiler, or None when span profiling is off."""
    return _PROFILER


def install(profiler: Optional["SpanProfiler"]) -> Optional["SpanProfiler"]:
    """Install ``profiler`` as the process-wide profiler (None = off).

    Returns the previously installed profiler so callers can restore
    it; prefer the :func:`profiled` context manager.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


@contextmanager
def profiled(clock=None) -> Iterator["SpanProfiler"]:
    """Run a block under a fresh installed :class:`SpanProfiler`."""
    profiler = SpanProfiler(clock=clock)
    previous = install(profiler)
    try:
        yield profiler
    finally:
        profiler.finalize()
        install(previous)


def metered(profiler: "SpanProfiler", name: str, subsystem: str,
            fn: Callable) -> Callable:
    """``fn`` with every call recorded as the span ``name`` on ``profiler``.

    Hot objects bind the result onto the instance in ``__init__`` when a
    profiler is current, in place of the method, so the method itself is
    the one unmetered body and an unprofiled call pays nothing.
    """
    push = profiler.push
    pop = profiler.pop

    def wrapper(*args, **kwargs):
        frame = push(name, subsystem)
        try:
            return fn(*args, **kwargs)
        finally:
            pop(frame)

    return wrapper


class SpanNode:
    """One node of the span tree: aggregates of every visit to a path."""

    __slots__ = (
        "name", "subsystem", "count", "sim_s", "wall_s", "self_wall_s",
        "children",
    )

    def __init__(self, name: str, subsystem: str = "other"):
        self.name = name
        self.subsystem = subsystem
        self.count = 0
        self.sim_s = 0.0
        self.wall_s = 0.0
        self.self_wall_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}


class SpanProfiler:
    """Hierarchical sim-clock + wall-clock span recorder.

    Spans open with :meth:`push` (returning a frame handle) and close
    with :meth:`pop`.  Closing a handle unwinds any spans left open
    above it, so error paths (transport faults, aborted generators)
    cannot corrupt the stack.  Generator code may hold a span open
    across ``yield``s: the sim plane charges the simulated time that
    passed (that is the *point* — a transport round's span covers its
    RTT), and the wall plane charges whatever computation ran, which is
    exact while one session drives the process (the profile mode).
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._root = SpanNode("", "other")
        self._stack: List[list] = []

    # -- recording ------------------------------------------------------
    def bind_clock(self, clock) -> None:
        """Source sim-plane timestamps from ``clock`` from now on."""
        self._clock = clock

    def push(self, name: str, subsystem: str = "other") -> list:
        """Open a span under the innermost open span; returns its frame."""
        stack = self._stack
        parent = stack[-1][0] if stack else self._root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = SpanNode(name, subsystem)
        clock = self._clock
        frame = [
            node,
            time.perf_counter(),
            0.0,  # wall seconds spent in closed children
            clock.now if clock is not None else None,
        ]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        node, t0, child_wall, sim0 = frame
        wall = time.perf_counter() - t0
        node.count += 1
        node.wall_s += wall
        self_wall = wall - child_wall
        if self_wall > 0.0:
            node.self_wall_s += self_wall
        if sim0 is not None and self._clock is not None:
            node.sim_s += self._clock.now - sim0
        if self._stack:
            self._stack[-1][2] += wall

    def pop(self, handle: Optional[list] = None) -> None:
        """Close a span.

        With no ``handle``, closes the innermost open span.  With one,
        unwinds (closing) every span opened above it, then closes it —
        and is a safe no-op if the handle is not on this profiler's
        stack (a stale frame from an already-finalized scope).
        """
        stack = self._stack
        if not stack:
            return
        if handle is None or stack[-1] is handle:
            self._close(stack.pop())
            return
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is handle:
                while len(stack) > i:
                    self._close(stack.pop())
                return

    @contextmanager
    def span(self, name: str, subsystem: str = "other") -> Iterator[None]:
        frame = self.push(name, subsystem)
        try:
            yield
        finally:
            self.pop(frame)

    def add_flat(self, name: str, subsystem: str, wall_s: float,
                 count: int = 1) -> None:
        """Accumulate a top-level leaf outside the span stack.

        The kernel's dispatch overhead is metered this way: the event
        loop cannot hold a stack span open across a callback (the
        callback resumes processes that open and close their own
        spans), so it measures its pre-callback heap work and adds it
        here.  Flat nodes carry no sim time.
        """
        node = self._root.children.get(name)
        if node is None:
            node = self._root.children[name] = SpanNode(name, subsystem)
        node.count += count
        node.wall_s += wall_s
        node.self_wall_s += wall_s

    def finalize(self) -> None:
        """Close every span still open (aborted runs, error paths)."""
        while self._stack:
            self._close(self._stack.pop())

    # -- aggregates -----------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        """Wall seconds covered by top-level spans."""
        return sum(c.wall_s for c in self._root.children.values())

    @property
    def total_sim_s(self) -> float:
        """Simulated seconds covered by top-level spans."""
        return sum(c.sim_s for c in self._root.children.values())

    @property
    def total_spans(self) -> int:
        total = 0
        for node, _ in self._walk():
            total += node.count
        return total

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    def _walk(self) -> Iterator[Tuple[SpanNode, Tuple[str, ...]]]:
        def visit(node: SpanNode, path: Tuple[str, ...]):
            path = path + (node.name,)
            yield node, path
            for child in node.children.values():
                yield from visit(child, path)

        for child in self._root.children.values():
            yield from visit(child, ())

    def subsystem_table(self) -> Dict[str, Dict[str, float]]:
        """Per-subsystem self/cumulative attribution.

        ``self_wall_s`` partitions the profiled wall time (every span's
        self time counts toward its own subsystem exactly once);
        ``wall_s`` is cumulative — a node's whole duration counts when
        no ancestor already belongs to the same subsystem, so nested
        same-subsystem spans are not double-counted.
        """
        table: Dict[str, Dict[str, float]] = {}

        def visit(node: SpanNode, seen: frozenset) -> None:
            entry = table.get(node.subsystem)
            if entry is None:
                entry = table[node.subsystem] = {
                    "self_wall_s": 0.0, "wall_s": 0.0, "sim_s": 0.0,
                    "count": 0,
                }
            entry["self_wall_s"] += node.self_wall_s
            entry["count"] += node.count
            if node.subsystem not in seen:
                entry["wall_s"] += node.wall_s
                entry["sim_s"] += node.sim_s
                seen = seen | {node.subsystem}
            for child in node.children.values():
                visit(child, seen)

        for child in self._root.children.values():
            visit(child, frozenset())
        return dict(sorted(table.items()))

    def hotspots(self, top: int = 12) -> List[Dict[str, object]]:
        """The ``top`` spans by self wall time (semicolon-joined paths)."""
        rows = [
            {
                "path": ";".join(path),
                "subsystem": node.subsystem,
                "count": node.count,
                "self_wall_s": node.self_wall_s,
                "wall_s": node.wall_s,
                "sim_s": node.sim_s,
            }
            for node, path in self._walk()
        ]
        rows.sort(key=lambda r: (-r["self_wall_s"], r["path"]))
        return rows[:top]

    def collapsed(self) -> str:
        """Collapsed-stack export (speedscope / flamegraph compatible).

        One line per span path, ``a;b;c <self-microseconds>`` — the
        format ``flamegraph.pl`` and speedscope's importer both read.
        """
        lines = []
        for node, path in self._walk():
            micros = int(round(node.self_wall_s * 1e6))
            if micros > 0:
                lines.append(";".join(path) + f" {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- merge / serialize ---------------------------------------------
    def merge(self, other: "SpanProfiler") -> None:
        """Fold another profiler's tree in (matching paths add)."""
        self._merge_node(self._root, other._root)

    def merge_dict(self, state: Dict) -> None:
        """Fold a serialized tree in (forked-worker results)."""
        self.merge(SpanProfiler.from_dict(state))

    @staticmethod
    def _merge_node(dst: SpanNode, src: SpanNode) -> None:
        dst.count += src.count
        dst.sim_s += src.sim_s
        dst.wall_s += src.wall_s
        dst.self_wall_s += src.self_wall_s
        for name, child in src.children.items():
            mine = dst.children.get(name)
            if mine is None:
                mine = dst.children[name] = SpanNode(name, child.subsystem)
            SpanProfiler._merge_node(mine, child)

    def _node_dict(self, node: SpanNode, deterministic: bool) -> Dict:
        out: Dict[str, object] = {
            "subsystem": node.subsystem,
            "count": node.count,
            "sim_s": node.sim_s,
        }
        if not deterministic:
            out["wall_s"] = node.wall_s
            out["self_wall_s"] = node.self_wall_s
        if node.children:
            out["children"] = {
                name: self._node_dict(node.children[name], deterministic)
                for name in sorted(node.children)
            }
        return out

    def to_dict(self, deterministic: bool = False) -> Dict:
        """JSON-ready span tree.

        ``deterministic=True`` drops every wall-time field, leaving the
        sim plane (names, subsystems, counts, sim seconds) — the view
        that is byte-identical across runs and worker counts and safe
        to hash or golden-pin.
        """
        return {
            "spans_version": SPANS_VERSION,
            "tree": self._node_dict(self._root, deterministic),
        }

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
            node.subsystem = data.get("subsystem", "other")
            node.count = int(data.get("count", 0))
            node.sim_s = float(data.get("sim_s", 0.0))
            node.wall_s = float(data.get("wall_s", 0.0))
            node.self_wall_s = float(data.get("self_wall_s", 0.0))
            for name, child in data.get("children", {}).items():
                node.children[name] = SpanNode(name)
                build(child, node.children[name])

        build(state["tree"], profiler._root)
        return profiler

    def tree_hash(self) -> str:
        """sha256 of the canonical deterministic (sim-plane) tree."""
        text = json.dumps(
            self.to_dict(deterministic=True),
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = [
    "SPANS_VERSION",
    "SUBSYSTEMS",
    "SpanNode",
    "SpanProfiler",
    "current",
    "install",
    "metered",
    "profiled",
]
