"""Shared transport contract: types and constants both backends honour.

The round-based (:mod:`repro.transport.connection`) and packet-level
(:mod:`repro.transport.packet_connection`) backends implement the same
download interface against the same byte-accounting types.  This module
is the single home of that contract, so the two implementations cannot
drift apart on the meaning of a :class:`DownloadResult` or the cost of a
request round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

ByteInterval = Tuple[int, int]  # (start, end), end exclusive

# Idle gap after which QUIC collapses the congestion window.
IDLE_TIMEOUT = 1.0  # seconds
# One round trip of request latency per HTTP request.
REQUEST_RTT_COST = 1.0
# Per-packet header overhead (QUIC + UDP + IP over a 1500-byte MTU): only
# this fraction of every packet carries application payload.
PAYLOAD_FRACTION = 0.94


@dataclass(slots=True)
class DownloadResult:
    """Outcome of one stream download.

    Attributes:
        requested: bytes the request asked for (after any truncation).
        delivered: bytes that actually arrived.
        lost: byte intervals (offsets within the request) lost in transit
            on an unreliable stream.  Always empty for reliable streams.
        elapsed: wall-clock seconds the download took.
        truncated_at: if the progress callback cut the request short, the
            byte offset where it stopped; ``None`` otherwise.
        rounds: number of congestion rounds used.
    """

    requested: int
    delivered: int
    lost: List[ByteInterval]
    elapsed: float
    truncated_at: Optional[int] = None
    rounds: int = 0
    request_latency: float = 0.0

    @property
    def complete(self) -> bool:
        return self.truncated_at is None and not self.lost


# Progress callback: (elapsed_seconds, bytes_sent_so_far) -> new byte limit
# for the request, or None to continue unchanged.
ProgressFn = Callable[[float, int], Optional[int]]


class TransportFault(Exception):
    """A download died mid-flight (deadline expired or connection reset).

    Carries the partial :class:`DownloadResult` accumulated before the
    failure so the resilience layer can resume from
    ``partial.delivered + deliberately-lost`` bytes without re-fetching
    or double-counting anything.

    Attributes:
        kind: ``"timeout"`` or ``"reset"``.
        partial: byte accounting up to the failure point.
        at: sim-clock time of the injected reset (``None`` for timeouts).
    """

    def __init__(self, kind: str, partial: DownloadResult,
                 at: Optional[float] = None):
        super().__init__(f"transport {kind}")
        self.kind = kind
        self.partial = partial
        self.at = at

    @property
    def accounted_bytes(self) -> int:
        """Bytes of this attempt that must NOT be re-requested: delivered
        plus deliberately-lost (unreliable sends are in-order, so the
        accounted region is a prefix of the request)."""
        lost = sum(end - start for start, end in self.partial.lost)
        return self.partial.delivered + lost


class RetryBudgetExhausted(Exception):
    """The per-segment retry budget ran out; degradation policy applies.

    Attributes:
        last: the final :class:`TransportFault`.
        attempts: total attempts made (initial + retries).
        kept_bytes: bytes accounted across the whole retry chain (already
            delivered or deliberately lost; never re-fetched).
        delivered_bytes: usable subset of ``kept_bytes``.
        elapsed: sim-clock seconds burned across the chain, including
            backoff waits.
    """

    def __init__(self, last: TransportFault, attempts: int, kept_bytes: int,
                 delivered_bytes: int, elapsed: float):
        super().__init__(
            f"retry budget exhausted after {attempts} attempts"
        )
        self.last = last
        self.attempts = attempts
        self.kept_bytes = kept_bytes
        self.delivered_bytes = delivered_bytes
        self.elapsed = elapsed


def merge_intervals(intervals: List[ByteInterval]) -> List[ByteInterval]:
    """Merge overlapping/adjacent byte intervals (kept sorted)."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
