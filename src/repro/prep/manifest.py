"""DASH manifest model with VOXEL's frame-level extension (§4.1).

A standard DASH manifest lists, per representation (quality level), the
byte range of every segment.  VOXEL enriches each segment entry with:

* ``ssims`` — tuples ``score:frames:bytes``: downloading ``bytes`` bytes
  (in the prioritized frame order) delivers ``frames`` full frames and an
  expected QoE of ``score``,
* ``reliable`` — byte ranges that must be fetched over a reliable stream
  (the I-frame and every frame header),
* ``unreliable`` — byte ranges (in priority order!) for the unreliable
  stream,
* ``reliableSize`` — total size of the reliable part.

The video files themselves are untouched; the manifest merely tells a
VOXEL-aware client in which order to issue HTTP range requests.  A
VOXEL-unaware client ignores the extra attributes and downloads the
``mediaRange`` sequentially — exactly the backward-compatibility story of
the paper (:meth:`SegmentEntry.basic_view`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.prep.ranking import Ordering


@dataclass(frozen=True)
class QualityPoint:
    """One ``score:frames:bytes`` tuple of the ``ssims`` attribute."""

    score: float
    frames: int
    bytes: int

    def serialize(self) -> str:
        return f"{self.score:.4f}:{self.frames}:{self.bytes}"

    @classmethod
    def parse(cls, text: str) -> "QualityPoint":
        score, frames, nbytes = text.split(":")
        return cls(score=float(score), frames=int(frames), bytes=int(nbytes))


ByteRange = Tuple[int, int]  # (start, end) — end exclusive


def _ranges_to_str(ranges: Sequence[ByteRange]) -> str:
    return ",".join(f"{start}-{end - 1}" for start, end in ranges)


def _ranges_from_str(text: str) -> List[ByteRange]:
    if not text:
        return []
    out = []
    for part in text.split(","):
        start, end = part.split("-")
        out.append((int(start), int(end) + 1))
    return out


@dataclass
class SegmentEntry:
    """Manifest entry of one segment at one quality level.

    Byte offsets are absolute within the representation's media file,
    mirroring Listing 1 of the paper.
    """

    index: int
    quality: int
    media_range: ByteRange
    duration: float
    reliable_size: int
    ordering: Ordering
    frame_order: Tuple[int, ...]  # download order of frames 1..N-1
    quality_points: Tuple[QualityPoint, ...]  # best score first
    reliable_ranges: Tuple[ByteRange, ...]
    unreliable_ranges: Tuple[ByteRange, ...]  # in download-priority order

    @property
    def total_bytes(self) -> int:
        start, end = self.media_range
        return end - start

    @property
    def pristine_score(self) -> float:
        return self.quality_points[0].score if self.quality_points else 1.0

    def score_for_bytes(self, byte_budget: int) -> float:
        """Best expected score within ``byte_budget`` bytes.

        A client uses this to judge a partial download: the quality points
        are sorted best-first (and, equivalently, largest-bytes first), so
        the first fitting entry is the answer.  If even the smallest point
        does not fit (the budget can't cover the reliable part plus the
        minimum payload), the worst point's score is returned as a
        pessimistic estimate.
        """
        for point in self.quality_points:
            if point.bytes <= byte_budget:
                return point.score
        return self.quality_points[-1].score if self.quality_points else 0.0

    def bytes_for_score(self, target_score: float) -> Optional[int]:
        """Smallest download achieving ``target_score``, if possible."""
        fitting = [p for p in self.quality_points if p.score >= target_score]
        if not fitting:
            return None
        return min(p.bytes for p in fitting)

    def basic_view(self) -> "SegmentEntry":
        """What a VOXEL-unaware client effectively sees.

        The frame-level metadata is dropped; the whole segment is a single
        reliable range in decode order.
        """
        return SegmentEntry(
            index=self.index,
            quality=self.quality,
            media_range=self.media_range,
            duration=self.duration,
            reliable_size=self.total_bytes,
            ordering=Ordering.ORIGINAL,
            frame_order=(),
            quality_points=(
                QualityPoint(self.pristine_score, -1, self.total_bytes),
            ),
            reliable_ranges=(self.media_range,),
            unreliable_ranges=(),
        )

    def serialize(self) -> str:
        ssims = ",".join(p.serialize() for p in self.quality_points)
        order = " ".join(str(i) for i in self.frame_order)
        return (
            f'<SegmentURL index="{self.index}" '
            f'mediaRange="{self.media_range[0]}-{self.media_range[1] - 1}" '
            f'duration="{self.duration}" '
            f'ordering="{self.ordering.value}" '
            f'frameOrder="{order}" '
            f'ssims="{ssims}" '
            f'reliable="{_ranges_to_str(self.reliable_ranges)}" '
            f'unreliable="{_ranges_to_str(self.unreliable_ranges)}" '
            f'reliableSize="{self.reliable_size}"/>'
        )

    @classmethod
    def parse(cls, line: str, quality: int) -> "SegmentEntry":
        attrs = _parse_attrs(line)
        start, end = attrs["mediaRange"].split("-")
        points = tuple(
            QualityPoint.parse(part) for part in attrs["ssims"].split(",") if part
        )
        order = tuple(
            int(tok) for tok in attrs.get("frameOrder", "").split() if tok
        )
        return cls(
            index=int(attrs["index"]),
            quality=quality,
            media_range=(int(start), int(end) + 1),
            duration=float(attrs["duration"]),
            reliable_size=int(attrs["reliableSize"]),
            ordering=Ordering(attrs["ordering"]),
            frame_order=order,
            quality_points=points,
            reliable_ranges=tuple(_ranges_from_str(attrs["reliable"])),
            unreliable_ranges=tuple(_ranges_from_str(attrs["unreliable"])),
        )


@dataclass
class Representation:
    """One quality level of the manifest."""

    quality: int
    avg_bitrate_bps: float
    resolution: Tuple[int, int]
    segments: List[SegmentEntry]

    @property
    def total_bytes(self) -> int:
        return sum(entry.total_bytes for entry in self.segments)

    def serialize(self) -> str:
        buf = io.StringIO()
        buf.write(
            f'<Representation quality="{self.quality}" '
            f'bandwidth="{self.avg_bitrate_bps:.0f}" '
            f'width="{self.resolution[0]}" height="{self.resolution[1]}">\n'
        )
        for entry in self.segments:
            buf.write("  " + entry.serialize() + "\n")
        buf.write("</Representation>")
        return buf.getvalue()


@dataclass
class VoxelManifest:
    """A VOXEL-extended DASH manifest (MPD)."""

    video: str
    segment_duration: float
    representations: List[Representation]

    def __post_init__(self) -> None:
        # Derived-view memos.  The manifest is immutable after
        # construction (nothing in the codebase appends or rewrites
        # entries), so per-index rows and the basic view are computed
        # once and shared by every session streaming this video.
        self._entry_rows: Dict[int, List[SegmentEntry]] = {}
        self._basic: Optional["VoxelManifest"] = None

    @property
    def num_segments(self) -> int:
        return len(self.representations[0].segments)

    @property
    def num_levels(self) -> int:
        return len(self.representations)

    @property
    def duration(self) -> float:
        return self.num_segments * self.segment_duration

    def entry(self, quality: int, index: int) -> SegmentEntry:
        return self.representations[quality].segments[index]

    def entry_row(self, index: int) -> List[SegmentEntry]:
        """Per-quality entries of one segment index, computed once.

        The returned list has stable identity per index, so decision
        caches keyed on the row object hold across every session (and
        every client of a fleet) sharing this manifest.
        """
        row = self._entry_rows.get(index)
        if row is None:
            row = [rep.segments[index] for rep in self.representations]
            self._entry_rows[index] = row
        return row

    def segment_sizes(self, quality: int) -> List[int]:
        return [e.total_bytes for e in self.representations[quality].segments]

    def metadata_bytes(self) -> int:
        """Serialized manifest size — the paper's ~16 %-of-a-Q12-segment
        overhead discussion (§4.1)."""
        return len(self.serialize().encode("utf-8"))

    def basic_view(self) -> "VoxelManifest":
        """Manifest as consumed by a VOXEL-unaware client (memoized)."""
        view = self._basic
        if view is None:
            reps = [
                Representation(
                    quality=rep.quality,
                    avg_bitrate_bps=rep.avg_bitrate_bps,
                    resolution=rep.resolution,
                    segments=[entry.basic_view() for entry in rep.segments],
                )
                for rep in self.representations
            ]
            view = VoxelManifest(
                video=self.video,
                segment_duration=self.segment_duration,
                representations=reps,
            )
            self._basic = view
        return view

    def serialize(self) -> str:
        buf = io.StringIO()
        buf.write(
            f'<MPD video="{self.video}" '
            f'segmentDuration="{self.segment_duration}">\n'
        )
        for rep in self.representations:
            buf.write(rep.serialize() + "\n")
        buf.write("</MPD>")
        return buf.getvalue()

    @classmethod
    def parse(cls, text: str) -> "VoxelManifest":
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        header = _parse_attrs(lines[0])
        video = header["video"]
        seg_dur = float(header["segmentDuration"])
        reps: List[Representation] = []
        current: Optional[Representation] = None
        for line in lines[1:]:
            if line.startswith("<Representation"):
                attrs = _parse_attrs(line)
                current = Representation(
                    quality=int(attrs["quality"]),
                    avg_bitrate_bps=float(attrs["bandwidth"]),
                    resolution=(int(attrs["width"]), int(attrs["height"])),
                    segments=[],
                )
            elif line.startswith("<SegmentURL"):
                if current is None:
                    raise ValueError("SegmentURL outside Representation")
                current.segments.append(
                    SegmentEntry.parse(line, quality=current.quality)
                )
            elif line.startswith("</Representation"):
                if current is None:
                    raise ValueError("unbalanced Representation close tag")
                reps.append(current)
                current = None
        reps.sort(key=lambda rep: rep.quality)
        return cls(video=video, segment_duration=seg_dur, representations=reps)


def _parse_attrs(line: str) -> Dict[str, str]:
    """Parse ``key="value"`` attributes out of a single-tag line."""
    attrs: Dict[str, str] = {}
    rest = line
    while '="' in rest:
        key_part, rest = rest.split('="', 1)
        key = key_part.rsplit(" ", 1)[-1].lstrip("<")
        value, rest = rest.split('"', 1)
        attrs[key] = value
    return attrs
