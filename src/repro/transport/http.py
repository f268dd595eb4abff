"""HTTP layer tying the application to QUIC* streams (§4.2).

The paper interfaces the layers with HTTP semantics: a VOXEL-aware client
sends an ``x-voxel-unreliable`` header on range requests it is willing to
receive over an unreliable stream; a VOXEL-aware server then opens one.
If either side is unaware, everything falls back to reliable streams and
the plain (decode-order) segment layout — full backward compatibility.

:class:`VoxelHttp` models a client endpoint talking to a server about one
video.  Its central operation is :meth:`VoxelHttp.fetch_segment`: fetch
the reliable part (I-frame + all frame headers) over a reliable stream,
then the prioritized frame payloads over an unreliable stream up to a
byte target, and report exactly which frames arrived, were damaged, or
were skipped — the bookkeeping the QoE model and the selective
retransmission machinery run on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.prep.manifest import SegmentEntry
from repro.transport.connection import (
    ByteInterval,
    DownloadResult,
    ProgressFn,
    QuicConnection,
)
from repro.transport.resilience import RetryContext, resilient_download_iter

UNRELIABLE_HEADER = "x-voxel-unreliable"

def _wire_layout(entry: SegmentEntry) -> Tuple[List[int], List[int]]:
    """Wire-stream layout of a manifest entry: the payload sizes in
    priority order and their cumulative offsets.

    Entries are immutable manifest rows fetched many times (initial
    fetch, refetch repairs, wait-loop re-decides), so the layout is
    derived once and cached on the entry itself — a table keyed by
    ``id()`` would serve a freed entry's layout to the next object
    allocated at that address.  A hit is one attribute read (not a
    ``__dict__`` lookup, which would materialize the instance dict and
    slow every other attribute read on the entry).
    """
    try:
        return entry._wire_layout
    except AttributeError:
        pass
    payload_sizes = [end - start for start, end in entry.unreliable_ranges]
    cumulative = [0]
    for size in payload_sizes:
        cumulative.append(cumulative[-1] + size)
    layout = entry._wire_layout = (payload_sizes, cumulative)
    return layout


@dataclass(slots=True)
class SegmentDelivery:
    """What actually arrived for one segment.

    The wire stream of the unreliable request is the concatenation of the
    frame payloads in manifest priority order; ``lost_intervals`` are
    offsets in that stream.

    Attributes:
        entry: the manifest entry that was fetched.
        bytes_requested: total bytes requested (reliable + unreliable).
        bytes_delivered: total bytes that arrived.
        skipped_frames: frames whose payload was never requested (the
            virtual-quality decision or a truncation cut them off).
        corruption: frame index -> fraction of its payload lost in
            transit (1.0 = payload fully lost).
        elapsed: seconds spent downloading.
        unreliable: whether the payload used an unreliable stream.
        lost_intervals: residual lost intervals in wire-stream space
            (shrinks as selective retransmissions repair them).
    """

    entry: SegmentEntry
    bytes_requested: int
    bytes_delivered: int
    skipped_frames: List[int]
    corruption: Dict[int, float]
    elapsed: float
    unreliable: bool
    lost_intervals: List[ByteInterval] = field(default_factory=list)
    request_latency: float = 0.0  # RTTs spent on request round trips

    @property
    def dropped_frames(self) -> List[int]:
        """Frames with no usable payload at all (skipped or fully lost)."""
        dropped = set(self.skipped_frames)
        dropped.update(
            idx for idx, frac in self.corruption.items() if frac >= 0.999
        )
        return sorted(dropped)

    @property
    def partial_frames(self) -> Dict[int, float]:
        """Frames with partially lost payload (0 < fraction < 1)."""
        return {
            idx: frac
            for idx, frac in self.corruption.items()
            if 0.0 < frac < 0.999
        }

    @property
    def skipped_bytes(self) -> int:
        """Payload bytes deliberately not requested ("data skipped")."""
        return self.entry.total_bytes - self.bytes_requested

    def residual_loss_bytes(self) -> int:
        return sum(end - start for start, end in self.lost_intervals)


class VoxelHttp:
    """Client HTTP endpoint for one video over one QUIC(*) connection.

    Args:
        connection: the transport connection.
        server_voxel_aware: the server honours ``x-voxel-unreliable``.
        client_voxel_aware: the client sends the header and understands
            the enriched manifest.
    """

    def __init__(
        self,
        connection: QuicConnection,
        server_voxel_aware: bool = True,
        client_voxel_aware: bool = True,
    ):
        self.connection = connection
        self.server_voxel_aware = server_voxel_aware
        self.client_voxel_aware = client_voxel_aware

    @property
    def voxel_capable(self) -> bool:
        """Unreliable delivery usable end to end."""
        return (
            self.server_voxel_aware
            and self.client_voxel_aware
            and self.connection.partially_reliable
        )

    # ------------------------------------------------------------------
    def fetch_segment(
        self,
        entry: SegmentEntry,
        target_bytes: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        force_reliable: bool = False,
        retry: Optional[RetryContext] = None,
    ) -> SegmentDelivery:
        """Fetch a segment, VOXEL-style when both endpoints support it.

        Args:
            entry: manifest entry to fetch.
            target_bytes: total byte budget (reliable part included);
                ``None`` or anything >= the segment size fetches all
                frames.  Ignored without VOXEL support (the full segment
                is fetched reliably, like DASH-over-QUIC).
            progress: forwarded to the unreliable download (VOXEL mode)
                or the single reliable download (fallback mode); lets the
                ABR truncate mid-flight.
            force_reliable: fetch everything over reliable streams even
                if VOXEL is available (the "VOXEL rel" ablation of §D).
            retry: per-segment resilience context (deadline, backoff,
                shared retry budget); ``None`` keeps the legacy
                fail-free path.

        Returns:
            The realized :class:`SegmentDelivery`.
        """
        return self.connection.kernel.run_process(
            self.fetch_segment_iter(
                entry,
                target_bytes=target_bytes,
                progress=progress,
                force_reliable=force_reliable,
                retry=retry,
            )
        )

    def fetch_segment_iter(
        self,
        entry: SegmentEntry,
        target_bytes: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        force_reliable: bool = False,
        retry: Optional[RetryContext] = None,
    ):
        """Kernel process form of :meth:`fetch_segment` (same contract).

        Both requests of a VOXEL fetch (reliable prefix + payload) share
        the one ``retry`` context, so the segment's retry budget covers
        the segment, not each request separately.
        """
        if not self.voxel_capable:
            result = yield from self._fetch_plain_iter(
                entry, progress, retry=retry
            )
            return result

        reliable_result = yield from resilient_download_iter(
            self.connection, entry.reliable_size, reliable=True,
            retry=retry,
        )

        payload_sizes, cumulative = _wire_layout(entry)
        total_payload = cumulative[-1]
        if target_bytes is None:
            payload_budget = total_payload
        else:
            payload_budget = max(min(target_bytes - entry.reliable_size,
                                     total_payload), 0)

        unreliable_result = yield from resilient_download_iter(
            self.connection,
            payload_budget,
            reliable=force_reliable,
            progress=progress,
            retry=retry,
        )

        requested = unreliable_result.requested
        skipped, corruption = self._map_wire_to_frames(
            entry, payload_sizes, requested, unreliable_result.lost
        )
        return SegmentDelivery(
            entry=entry,
            bytes_requested=entry.reliable_size + requested,
            bytes_delivered=reliable_result.delivered
            + unreliable_result.delivered,
            skipped_frames=skipped,
            corruption=corruption,
            elapsed=reliable_result.elapsed + unreliable_result.elapsed,
            unreliable=not force_reliable,
            lost_intervals=list(unreliable_result.lost),
        )

    def _fetch_plain_iter(
        self,
        entry: SegmentEntry,
        progress: Optional[ProgressFn],
        retry: Optional[RetryContext] = None,
    ):
        """Classic DASH fetch: whole segment, reliable, decode order."""
        result = yield from resilient_download_iter(
            self.connection, entry.total_bytes, reliable=True,
            progress=progress, retry=retry,
        )
        # A truncated reliable fetch means the tail of the segment in
        # decode order is missing entirely (no headers either — but the
        # decoder's previous-frame concealment behaves the same way).
        skipped: List[int] = []
        if result.truncated_at is not None:
            skipped = _frames_beyond_offset(entry, result.truncated_at)
        return SegmentDelivery(
            entry=entry,
            bytes_requested=result.requested,
            bytes_delivered=result.delivered,
            skipped_frames=skipped,
            corruption={},
            elapsed=result.elapsed,
            unreliable=False,
            lost_intervals=[],
            request_latency=result.request_latency,
        )

    # ------------------------------------------------------------------
    def refetch_lost(
        self,
        delivery: SegmentDelivery,
        budget_bytes: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
    ) -> int:
        """Selectively retransmit lost ranges of a delivered segment.

        VOXEL exploits buffer-full idle periods to re-request data lost
        on the unreliable stream via plain HTTP range requests (§4.2).
        Repairs happen in priority order.  Returns the number of bytes
        repaired; ``delivery`` is updated in place.
        """
        return self.connection.kernel.run_process(
            self.refetch_lost_iter(
                delivery, budget_bytes=budget_bytes, progress=progress
            )
        )

    def refetch_lost_iter(
        self,
        delivery: SegmentDelivery,
        budget_bytes: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
    ):
        """Kernel process form of :meth:`refetch_lost`."""
        if not delivery.lost_intervals:
            return 0
        to_repair = delivery.lost_intervals
        if budget_bytes is not None:
            clipped: List[ByteInterval] = []
            left = budget_bytes
            for start, end in to_repair:
                if left <= 0:
                    break
                take = min(end - start, left)
                clipped.append((start, start + take))
                left -= take
            to_repair = clipped
        repair_bytes = sum(end - start for start, end in to_repair)
        if repair_bytes == 0:
            return 0

        result = yield from self.connection.download_iter(
            repair_bytes, reliable=True, progress=progress
        )
        repaired = result.requested if result.truncated_at is None else result.truncated_at

        # Remove the repaired prefix of the repair plan from the lost set.
        repaired_left = repaired
        still_lost: List[ByteInterval] = []
        for start, end in delivery.lost_intervals:
            size = end - start
            take = min(size, repaired_left)
            repaired_left -= take
            if take < size:
                still_lost.append((start + take, end))
        delivery.lost_intervals = still_lost
        delivery.bytes_delivered += repaired

        payload_sizes, _ = _wire_layout(delivery.entry)
        _, corruption = self._map_wire_to_frames(
            delivery.entry,
            payload_sizes,
            delivery.bytes_requested - delivery.entry.reliable_size,
            delivery.lost_intervals,
        )
        delivery.corruption = corruption
        return repaired

    # ------------------------------------------------------------------
    @staticmethod
    def _map_wire_to_frames(
        entry: SegmentEntry,
        payload_sizes: List[int],
        requested: int,
        lost: List[ByteInterval],
    ) -> Tuple[List[int], Dict[int, float]]:
        """Translate wire-stream byte accounting into per-frame damage."""
        order = entry.frame_order
        cached_sizes, cached_cumulative = _wire_layout(entry)
        if payload_sizes is cached_sizes:
            cumulative = cached_cumulative
        else:
            cumulative = [0]
            for size in payload_sizes:
                cumulative.append(cumulative[-1] + size)

        skipped: List[int] = []
        corruption: Dict[int, float] = {}
        for pos, frame_idx in enumerate(order):
            start, end = cumulative[pos], cumulative[pos + 1]
            if start >= requested:
                skipped.append(frame_idx)
                continue
            if end > requested:
                # Truncation fell inside this frame: the tail of its
                # payload is missing.
                frac = (end - requested) / max(end - start, 1)
                corruption[frame_idx] = min(frac, 1.0)

        for loss_start, loss_end in lost:
            loss_end = min(loss_end, requested)
            if loss_end <= loss_start:
                continue
            pos = bisect.bisect_right(cumulative, loss_start) - 1
            while pos < len(order) and cumulative[pos] < loss_end:
                start, end = cumulative[pos], cumulative[pos + 1]
                overlap = min(end, loss_end) - max(start, loss_start)
                if overlap > 0 and end > start:
                    frame_idx = order[pos]
                    frac = corruption.get(frame_idx, 0.0) + overlap / (end - start)
                    corruption[frame_idx] = min(frac, 1.0)
                pos += 1
        skipped.sort()
        return skipped, corruption


def _frames_beyond_offset(entry: SegmentEntry, offset: int) -> List[int]:
    """Frames entirely beyond ``offset`` in a decode-order (plain) fetch."""
    base = entry.media_range[0]
    skipped = []
    # Without the enriched manifest we only know the media range; frames
    # are assumed laid out in decode order with the I-frame first, so a
    # pro-rata estimate over the remaining bytes stands in for the exact
    # frame map.  The plain client never uses frame-level data anyway;
    # this only feeds the QoE evaluation of truncated plain fetches.
    remaining = entry.total_bytes - offset
    if remaining <= 0:
        return []
    # Estimate frames from the tail: payload beyond the offset.
    frac_missing = remaining / entry.total_bytes
    num_frames = max(int(round(entry.duration * 24)), 1)  # 24 fps catalog
    missing = int(round(frac_missing * num_frames))
    del base
    return list(range(max(num_frames - missing, 1), num_frames))
