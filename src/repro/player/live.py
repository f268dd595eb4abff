"""Live / low-latency streaming session.

The paper motivates VOXEL with "the emerging use case of low-latency and
live streaming" (§1, §5): tiny playback buffers because every buffered
second is a second of latency behind the live edge.  This module adds
the live constraint to the streaming session:

* segment ``i`` only becomes *available* at ``(i + 1) * segment_duration
  + encoder_delay`` — it cannot be produced before its content happens,
* the client therefore cannot build arbitrary buffer: it is gated by the
  live edge,
* the headline metric is the **end-to-end latency**: how far behind the
  live edge each segment plays, plus how much latency stalls add over
  the session.

The ABR algorithms are unchanged — exactly the paper's point that VOXEL's
partial-segment machinery is what makes tiny-buffer streaming viable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.spec import ScenarioSpec
from repro.player.metrics import SegmentRecord, SessionMetrics
from repro.player.session import StreamingSession


@dataclass
class LiveMetrics:
    """Latency-side metrics of a live session.

    Attributes:
        session: the underlying VoD-style metrics (bufRatio, SSIM, ...).
        encoder_delay: configured production delay in seconds.
        segment_latencies: per segment, the wall-clock lag between the
            moment the segment was produced (available at the server)
            and the moment it started playing at the client.
    """

    session: SessionMetrics
    encoder_delay: float
    segment_latencies: List[float]

    @property
    def mean_latency(self) -> float:
        if not self.segment_latencies:
            return 0.0
        return float(np.mean(self.segment_latencies))

    @property
    def p95_latency(self) -> float:
        if not self.segment_latencies:
            return 0.0
        return float(np.percentile(self.segment_latencies, 95))

    @property
    def final_latency(self) -> float:
        """Lag behind the live edge at the end of the session."""
        return self.segment_latencies[-1] if self.segment_latencies else 0.0


class LiveStreamingSession(StreamingSession):
    """A streaming session gated by a live edge.

    Args:
        encoder_delay: seconds between a segment's content happening and
            the coded segment (plus manifest update) being available.
        Everything else as :class:`StreamingSession`; buffers of 1-2
        segments are the sensible range here.
    """

    def __init__(self, *args, encoder_delay: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        if encoder_delay < 0:
            raise ValueError("encoder delay cannot be negative")
        self.encoder_delay = encoder_delay
        self._latencies: List[float] = []
        # The broadcast starts when the session starts: segment i covers
        # media time [i*d, (i+1)*d) and is available at (i+1)*d + delay.
        self._broadcast_start = self.kernel.now

    # ------------------------------------------------------------------
    def availability_time(self, index: int) -> float:
        """Wall-clock time segment ``index`` appears on the server."""
        d = self.segment_duration
        return self._broadcast_start + (index + 1) * d + self.encoder_delay

    def _before_segment(self, index: int):
        """Wait for the live edge: the segment must exist to be fetched."""
        wait = self.availability_time(index) - self.kernel.now
        if wait > 0:
            yield from self._idle(wait)

    def _after_segment(self, index: int, record: SegmentRecord):
        """Record how far behind the live edge this segment will play.

        The segment starts playing once everything buffered ahead of it
        drains: ``kernel.now + buffer_level - segment_duration`` (the
        segment itself was just pushed).  Latency is measured against the
        moment its *content happened* at the live source, i.e. the start
        of its media window.
        """
        play_start = (
            self.kernel.now + self.buffer.level_s - self.segment_duration
        )
        media_start = self._broadcast_start + index * self.segment_duration
        self._latencies.append(play_start - media_start)
        return
        yield  # pragma: no cover - makes the hook a kernel process

    # ------------------------------------------------------------------
    def run_live(self) -> LiveMetrics:
        """Stream the live session and return latency + QoE metrics."""
        session_metrics = super().run()
        return LiveMetrics(
            session=session_metrics,
            encoder_delay=self.encoder_delay,
            segment_latencies=list(self._latencies),
        )


def stream_live(
    prepared,
    abr,
    trace,
    buffer_segments: int = 1,
    encoder_delay: float = 1.0,
    **spec_fields,
) -> LiveMetrics:
    """Convenience wrapper: run one live session.

    Args:
        prepared: a :class:`~repro.prep.prepare.PreparedVideo` (the live
            encoder's output, analyzed on the fly segment by segment).
        abr: an ABR algorithm instance.
        trace: the network trace.
        buffer_segments: client buffer (1 = lowest latency).
        encoder_delay: production pipeline delay in seconds.
        **spec_fields: further :class:`~repro.core.spec.ScenarioSpec`
            fields, e.g. ``reliability="quic"`` for plain QUIC or
            ``backend="packet"``.
    """
    spec = ScenarioSpec(buffer_segments=buffer_segments, **spec_fields)
    session = LiveStreamingSession(
        prepared, abr, trace, spec, encoder_delay=encoder_delay
    )
    return session.run_live()
