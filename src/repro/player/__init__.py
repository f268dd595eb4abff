"""Playback client: buffer, streaming session, metrics."""

from repro.player.buffer import PlaybackBuffer
from repro.player.live import LiveMetrics, LiveStreamingSession, stream_live
from repro.player.metrics import (
    SegmentRecord,
    SessionMetrics,
    percentile_across,
    stderr_across,
)
from repro.player.session import StreamingSession

__all__ = [
    "PlaybackBuffer",
    "LiveMetrics",
    "LiveStreamingSession",
    "stream_live",
    "SegmentRecord",
    "SessionMetrics",
    "percentile_across",
    "stderr_across",
    "StreamingSession",
]
