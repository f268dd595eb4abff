"""The 13-level bitrate ladder used throughout the paper (Tab. 2).

Quality levels Q0..Q12 span 144p at 0.16 Mbps to 2160p (4K) at 10 Mbps.
The levels are based on common 16x9 resolutions with bitrates drawn from a
combination of the YouTube and Netflix bitrate ladders, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class QualityLevel:
    """One rung of the bitrate ladder."""

    index: int  # Q0 .. Q12
    resolution: Tuple[int, int]  # (width, height)
    avg_bitrate_mbps: float

    @property
    def name(self) -> str:
        return f"Q{self.index}"

    @property
    def avg_bitrate_bps(self) -> float:
        return self.avg_bitrate_mbps * 1e6

    @property
    def height(self) -> int:
        return self.resolution[1]

    def avg_segment_bytes(self, segment_duration: float) -> float:
        """Average coded segment size at this level."""
        return self.avg_bitrate_bps * segment_duration / 8.0


# (height, avg bitrate Mbps) per Tab. 2 of the paper.
_LADDER_SPEC: List[Tuple[int, float]] = [
    (144, 0.16),
    (240, 0.23),
    (240, 0.37),
    (360, 0.56),
    (360, 0.75),
    (480, 1.05),
    (480, 1.75),
    (720, 2.35),
    (720, 3.0),
    (1080, 4.3),
    (1080, 5.8),
    (1440, 7.4),
    (2160, 10.0),
]


def default_ladder() -> List[QualityLevel]:
    """The paper's 13-level Q0..Q12 ladder (Tab. 2)."""
    levels = []
    for index, (height, mbps) in enumerate(_LADDER_SPEC):
        width = height * 16 // 9
        levels.append(QualityLevel(index, (width, height), mbps))
    return levels


# Convenience constants mirroring the paper's prose.
TOP_QUALITY = 12
NUM_LEVELS = len(_LADDER_SPEC)
SEGMENT_DURATION = 4.0  # seconds, "a good balance" per §5
FRAMES_PER_SECOND = 24.0
FRAMES_PER_SEGMENT = int(SEGMENT_DURATION * FRAMES_PER_SECOND)  # 96
SEGMENTS_PER_VIDEO = 75  # five-minute sections
VBR_PEAK_CAP = 2.0  # "2x capped" VBR encoding
