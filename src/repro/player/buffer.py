"""Playback buffer accounting.

The buffer holds downloaded-but-unplayed media, measured in seconds.
Playback drains it in real time; a new segment download may only start
when there is room for the whole segment (§5: "a new segment download can
start only if the buffer is not full").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class PlaybackBuffer:
    """Seconds-denominated playback buffer.

    Attributes:
        capacity_s: maximum media the buffer may hold.
        level_s: media currently buffered.
        played_s: total media played out so far.
    """

    capacity_s: float
    level_s: float = 0.0
    played_s: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_s <= 0:
            raise ValueError("buffer capacity must be positive")

    def room_for(self, duration_s: float) -> bool:
        """Whether a segment of ``duration_s`` fits right now."""
        return self.level_s + duration_s <= self.capacity_s + 1e-9

    def time_until_room(self, duration_s: float) -> float:
        """Playback time needed before a segment of ``duration_s`` fits."""
        overhang = self.level_s + duration_s - self.capacity_s
        return max(overhang, 0.0)

    def drain(self, dt: float) -> float:
        """Play for ``dt`` seconds; returns the stall time incurred.

        If the buffer runs dry before ``dt`` elapses, the remainder is a
        stall (playback frozen while the wall clock keeps running).
        """
        if dt < 0:
            raise ValueError(f"cannot drain {dt} seconds")
        played = min(self.level_s, dt)
        self.level_s -= played
        self.played_s += played
        return dt - played

    def push_segment(self, duration_s: float) -> None:
        """Append a downloaded segment."""
        if duration_s < 0:
            raise ValueError("segment duration must be non-negative")
        self.level_s += duration_s

    def media_time(self) -> float:
        """Playhead position in media time."""
        return self.played_s
