"""Frame-level model of an H.264-like coded video segment.

The H.264 codec defines three frame types: intra-coded (I), predicted (P)
and bi-directionally predicted (B).  P- and B-frames carry only the
difference with respect to their *reference* frames; losing a referenced
frame therefore corrupts every frame that refers to it, directly or
transitively.  VOXEL's offline analysis operates purely on this structural
information — frame types, sizes, and the reference graph — plus a measure
of how much visual change each frame carries.  This module defines those
data structures.

Frames in a segment are identified by their *display index* (0-based).
Frame 0 of every segment is the I-frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class FrameType(enum.Enum):
    """The three H.264 frame types."""

    I = "I"  # noqa: E741 - conventional codec name
    P = "P"
    B = "B"

    def __str__(self) -> str:
        return self.value


# Size of the frame header (NAL unit header, slice header) that VOXEL always
# delivers reliably so the decoder can locate and conceal damaged frames.
FRAME_HEADER_BYTES = 32


@dataclass(frozen=True, slots=True)
class Frame:
    """A single coded frame within a segment.

    Attributes:
        index: display-order position within the segment (0-based).
        ftype: I, P or B.
        size: coded size in bytes, including the header.
        references: display indices of the frames this frame predicts from,
            paired with the fraction of this frame's macroblocks that
            reference each of them.  I-frames have no references.
        motion: normalized (0..1) measure of visual change this frame
            carries relative to its temporal neighbours.  Dropping a frame
            in a high-motion scene is far more visible than in a static
            scene; the QoE model uses this to cost frame drops.
    """

    index: int
    ftype: FrameType
    size: int
    references: Tuple[Tuple[int, float], ...] = ()
    motion: float = 0.1

    @property
    def header_bytes(self) -> int:
        """Bytes of this frame that must always arrive reliably."""
        return min(FRAME_HEADER_BYTES, self.size)

    @property
    def payload_bytes(self) -> int:
        """Bytes of this frame that may travel on an unreliable stream."""
        return self.size - self.header_bytes

    def references_frame(self, index: int) -> bool:
        """Whether this frame directly references frame ``index``."""
        return any(ref == index for ref, _ in self.references)


@dataclass
class SegmentFrames:
    """The complete frame structure of one coded segment.

    The segment's byte layout (in decode order, which for this model equals
    display order) is ``frames[0], frames[1], ...`` laid out back to back;
    :meth:`frame_offsets` exposes the resulting byte ranges.
    """

    frames: List[Frame]
    duration: float  # seconds
    fps: float

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a segment must contain at least one frame")
        if self.frames[0].ftype is not FrameType.I:
            raise ValueError("segment frame 0 must be the I-frame")
        for pos, frame in enumerate(self.frames):
            if frame.index != pos:
                raise ValueError(
                    f"frame at position {pos} has index {frame.index}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    @property
    def total_bytes(self) -> int:
        """Total coded size of the segment."""
        return sum(frame.size for frame in self.frames)

    @property
    def i_frame(self) -> Frame:
        return self.frames[0]

    def frames_of_type(self, ftype: FrameType) -> List[Frame]:
        return [frame for frame in self.frames if frame.ftype is ftype]

    def frame_offsets(self) -> List[Tuple[int, int]]:
        """Byte range ``(start, end)`` of each frame, end exclusive."""
        ranges = []
        offset = 0
        for frame in self.frames:
            ranges.append((offset, offset + frame.size))
            offset += frame.size
        return ranges

    def inbound_references(self) -> Dict[int, List[Tuple[int, float]]]:
        """Map frame index -> list of (referrer index, weight)."""
        inbound: Dict[int, List[Tuple[int, float]]] = {
            frame.index: [] for frame in self.frames
        }
        for frame in self.frames:
            for ref, weight in frame.references:
                inbound[ref].append((frame.index, weight))
        return inbound

    def referenced_indices(self) -> List[int]:
        """Indices of frames that at least one other frame references."""
        inbound = self.inbound_references()
        return sorted(idx for idx, refs in inbound.items() if refs)

    def referenced_set(self) -> frozenset:
        """:meth:`referenced_indices` as a set, computed once per segment.

        The reference graph is immutable after construction, so the hot
        per-delivery membership checks share one cached set.  A hit is
        one attribute read; reading ``__dict__`` instead would
        materialize the instance dict and slow every other attribute
        read on the object.
        """
        try:
            return self._referenced_set
        except AttributeError:
            cached = self._referenced_set = frozenset(
                self.referenced_indices()
            )
            return cached

    def unreferenced_indices(self) -> List[int]:
        """Indices of frames no other frame references (droppable leaves)."""
        inbound = self.inbound_references()
        return sorted(idx for idx, refs in inbound.items() if not refs)

    def transitive_reference_weight(self) -> Dict[int, float]:
        """Weighted count of direct + transitive inbound references.

        This is the importance measure behind VOXEL's "order by inbound
        references" (ordering 3 in §4.1): a frame's weight is the sum over
        all frames that depend on it — directly or through a chain of
        predictions — of the product of macroblock-reference fractions
        along the dependency path.  The I-frame always dominates.
        """
        # influence[f] = 1 (itself) + sum over referrers of w * influence
        # Process in reverse topological order.  References always point
        # from later-decoded to earlier-decoded frames in this model for P,
        # but B-frames reference *future* anchors too, so we do a proper
        # topological pass over the DAG.
        order = self._topological_order()
        influence: Dict[int, float] = {frame.index: 0.0 for frame in self.frames}
        inbound = self.inbound_references()
        # Walk referrers before referees so each node's influence is final
        # when it is propagated downwards.
        for idx in order:
            for referee, weight in self.frames[idx].references:
                influence[referee] += weight * (1.0 + influence[idx])
        del inbound
        return influence

    def _topological_order(self) -> List[int]:
        """Order with every frame before all frames it references.

        Equivalently: referrers first.  The reference graph is a DAG
        (a frame cannot reference itself or form cycles), so Kahn's
        algorithm over outbound edges suffices.
        """
        outdeg = {frame.index: len(frame.references) for frame in self.frames}
        inbound = self.inbound_references()
        # Start from frames nobody waits on being processed: frames with all
        # referrers already emitted.  We invert: process frames whose
        # referrer set is exhausted.
        pending = {idx: len(refs) for idx, refs in inbound.items()}
        ready = [idx for idx, count in pending.items() if count == 0]
        out: List[int] = []
        while ready:
            idx = ready.pop()
            out.append(idx)
            for referee, _ in self.frames[idx].references:
                pending[referee] -= 1
                if pending[referee] == 0:
                    ready.append(referee)
        if len(out) != len(self.frames):
            raise ValueError("reference graph contains a cycle")
        del outdeg
        return out


def validate_reference_graph(frames: Sequence[Frame]) -> None:
    """Raise ``ValueError`` if the reference structure is malformed.

    Checks: I-frames reference nothing, non-I frames reference at least one
    existing frame, no self references, and weights lie in (0, 1].
    """
    count = len(frames)
    for frame in frames:
        if frame.ftype is FrameType.I:
            if frame.references:
                raise ValueError(f"I-frame {frame.index} has references")
            continue
        if not frame.references:
            raise ValueError(f"{frame.ftype}-frame {frame.index} has no references")
        for ref, weight in frame.references:
            if ref == frame.index:
                raise ValueError(f"frame {frame.index} references itself")
            if not 0 <= ref < count:
                raise ValueError(
                    f"frame {frame.index} references missing frame {ref}"
                )
            if not 0.0 < weight <= 1.0:
                raise ValueError(
                    f"frame {frame.index} has reference weight {weight}"
                )
