"""Session tracer: a ring buffer of structured events with JSONL export.

Three implementations share one interface:

* :class:`Tracer` — records events; timestamps are the ``now`` of the
  simulation kernel the session binds, so a seeded run replays to a
  byte-identical trace.
* :class:`StreamingTracer` — hands every event to its observers and
  keeps none.  :class:`Tracer` is a streaming tracer whose first
  observer is its ring buffer, so both run one emit body.
* :class:`NullTracer` — the default; every operation is a no-op.  Call
  sites guard event construction with ``if tracer.enabled:`` so disabled
  tracing costs one attribute read per site.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Callable, Iterable, Iterator, List, Optional, Union

from repro.obs.events import CHECK_SETS as _CHECK_SETS
from repro.obs.events import TraceEvent, iter_trace_events

DEFAULT_CAPACITY = 262_144

#: Slot-direct event allocation for the emit hot paths: skips the
#: dataclass ``__init__`` call (the four stores below are the entire
#: constructor body).
_EVENT_NEW = object.__new__


class NullTracer:
    """No-op tracer: keeps the instrumented call sites branch-cheap."""

    enabled = False

    def bind_clock(self, clock) -> None:
        pass

    def add_observer(self, observer) -> None:
        pass

    def emit(self, type_: str, **fields) -> None:
        pass

    def emit_fields(self, t, type_: str, fields) -> None:
        pass

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def write_jsonl(self, destination) -> int:
        return 0


#: Shared no-op instance (the tracer has no state, one suffices).
NULL_TRACER = NullTracer()


class StreamingTracer:
    """A tracer that dispatches to observers without buffering events.

    The fleet-scale record path: sessions emit through the usual tracer
    interface, every event reaches the observers (rollups, attributors,
    auditors), and nothing is retained — memory stays O(1) in trace
    length.  ``events`` is always empty and ``write_jsonl`` writes
    nothing; use :class:`Tracer` when the raw stream itself is wanted.
    """

    enabled = True
    dropped = 0

    def __init__(
        self,
        validate: bool = True,
        observers: Optional[Iterable[Callable[[TraceEvent], None]]] = None,
    ):
        self.clock = None
        self.validate = validate
        self._seq = 0
        self._observers: List[Callable[[TraceEvent], None]] = list(
            observers or ()
        )

    def add_observer(self, observer: Callable[[TraceEvent], None]) -> None:
        """Subscribe ``observer`` to every subsequently emitted event."""
        self._observers.append(observer)

    def bind_clock(self, clock) -> None:
        """Stamp events with ``clock.now`` (a session binds its kernel)."""
        self.clock = clock

    def emit(self, type_: str, **fields) -> TraceEvent:
        """Record one event, stamped with the current simulation time."""
        return self.emit_fields(None, type_, fields)

    def emit_fields(self, t, type_: str, fields) -> TraceEvent:
        """Record one event taking ownership of an already-built dict.

        The single emission path: ``emit`` and the per-session wrapper
        funnel here, so one payload dict is built per event regardless of
        how many wrappers the call went through.  ``t=None`` stamps the
        bound clock's time; an explicit ``t`` builds timed traces without
        a kernel (analysis fixtures, replayed streams).
        """
        if t is None:
            clock = self.clock
            t = clock.now if clock is not None else 0.0
        event = _EVENT_NEW(TraceEvent)
        event.seq = self._seq
        event.t = t
        event.type = type_
        event.fields = fields
        if self.validate:
            # Inlined schema check (one lookup, two subset tests); the
            # method call reconstructs full diagnostics on any failure.
            sets = _CHECK_SETS.get(type_)
            keys = fields.keys()
            if sets is None or not (sets[0] <= keys <= sets[1]):
                event.validate()
        self._seq += 1
        for observer in self._observers:
            observer(event)
        return event

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def write_jsonl(self, destination) -> int:
        return 0


class Tracer(StreamingTracer):
    """Collects typed events in a bounded ring buffer.

    The ring buffer is the first observer, so every event is stored
    before any other observer sees it.

    Timestamps come from the clock bound with :meth:`bind_clock` (a
    streaming session binds its kernel).

    Args:
        capacity: ring-buffer size; the oldest events are dropped once
            exceeded (``dropped`` counts them).
        validate: check each event against the schema on emission
            (cheap; disable only in micro-benchmarks).
        observers: callables invoked with every emitted event *before*
            it can be evicted from the ring buffer — how the inline
            invariant auditor sees the full stream of a long session.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        validate: bool = True,
        observers: Optional[Iterable[Callable[[TraceEvent], None]]] = None,
    ):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        super().__init__(
            validate, [self._buffer.append, *(observers or ())]
        )

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer since the last clear."""
        return max(self._seq - self.capacity, 0)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)

    def select(self, type_: str) -> List[TraceEvent]:
        return [e for e in self._buffer if e.type == type_]

    def clear(self) -> None:
        self._buffer.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole buffer as JSONL (one event per line)."""
        return "\n".join(e.to_json() for e in self._buffer)

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the buffer to a path or file object; returns event count."""
        text = self.to_jsonl()
        if text:
            text += "\n"
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        return len(self._buffer)


class SessionTracer:
    """A per-session view onto a shared :class:`Tracer`.

    Multi-client runs record every session into one tracer (one globally
    ordered stream, one seq space); each session gets a ``SessionTracer``
    that stamps its ``session_id`` onto everything it emits, so auditors
    and analyses can partition the interleaved stream afterwards.
    """

    def __init__(self, tracer, session_id: str):
        self._tracer = tracer
        self.session_id = session_id
        # Bound forward target: one attribute hop less per emission.
        self._forward = tracer.emit_fields

    @property
    def enabled(self) -> bool:
        return self._tracer.enabled

    def bind_clock(self, clock) -> None:
        self._tracer.bind_clock(clock)

    def add_observer(self, observer) -> None:
        self._tracer.add_observer(observer)

    def emit(self, type_: str, **fields):
        fields.setdefault("session_id", self.session_id)
        return self._forward(None, type_, fields)

    def emit_fields(self, t, type_: str, fields):
        fields.setdefault("session_id", self.session_id)
        return self._forward(t, type_, fields)

    @property
    def events(self) -> List[TraceEvent]:
        return self._tracer.events

    def __len__(self) -> int:
        return len(self._tracer)

    def write_jsonl(self, destination) -> int:
        return self._tracer.write_jsonl(destination)


def read_jsonl(source: Union[str, IO[str], Iterable[str]]) -> List[TraceEvent]:
    """Read a JSONL trace from a path, file object, or iterable of lines."""
    return list(iter_trace_events(source))
