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
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


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


class SegmentFrames:
    """The complete frame structure of one coded segment.

    The segment's byte layout (in decode order, which for this model equals
    display order) is ``frames[0], frames[1], ...`` laid out back to back;
    :meth:`frame_offsets` exposes the resulting byte ranges.

    Frames are stored by column: ``types`` and ``references`` are tuples
    and ``motion`` a read-only float array, all three shared by every
    rung of a segment, and ``sizes`` is a read-only int32 array.
    Indexing and iteration build :class:`Frame` views on demand, so a
    retained encode holds one small array per (segment, rung) instead of
    a :class:`Frame` per frame.
    """

    __slots__ = (
        "types",
        "sizes",
        "references",
        "motion",
        "duration",
        "fps",
        "total_bytes",
        "_decode_context",
        "_referenced_set",
    )

    def __init__(self, frames: Sequence[Frame], duration: float, fps: float):
        frames = list(frames)
        if not frames:
            raise ValueError("a segment must contain at least one frame")
        for pos, frame in enumerate(frames):
            if frame.index != pos:
                raise ValueError(
                    f"frame at position {pos} has index {frame.index}"
                )
        self._assign(
            tuple(frame.ftype for frame in frames),
            [frame.size for frame in frames],
            tuple(frame.references for frame in frames),
            [frame.motion for frame in frames],
            duration,
            fps,
        )

    @classmethod
    def from_columns(
        cls,
        types: Tuple[FrameType, ...],
        sizes: Sequence[int],
        references: Tuple[Tuple[Tuple[int, float], ...], ...],
        motion: Sequence[float],
        duration: float,
        fps: float,
    ) -> "SegmentFrames":
        """A segment from per-frame columns.

        The tuples, and a read-only float64 ``motion`` array, are kept as
        given, so rungs built from one structure share them.
        """
        if not len(types) == len(sizes) == len(references) == len(motion):
            raise ValueError("frame columns differ in length")
        if not types:
            raise ValueError("a segment must contain at least one frame")
        frames = cls.__new__(cls)
        frames._assign(types, sizes, references, motion, duration, fps)
        return frames

    def _assign(self, types, sizes, references, motion, duration, fps):
        if types[0] is not FrameType.I:
            raise ValueError("segment frame 0 must be the I-frame")
        sizes = np.asarray(sizes)
        if sizes.min() < 0 or sizes.max() > np.iinfo(np.int32).max:
            raise ValueError("frame sizes must lie in [0, 2**31)")
        self.types = types
        self.sizes = _frozen(sizes, np.int32)
        self.references = references
        self.motion = _frozen(motion, np.float64)
        self.duration = duration
        self.fps = fps
        #: Total coded size of the segment.
        self.total_bytes = int(sizes.sum())

    def _frame(self, index: int) -> Frame:
        return Frame(
            index,
            self.types[index],
            int(self.sizes[index]),
            self.references[index],
            float(self.motion[index]),
        )

    @property
    def frames(self) -> List[Frame]:
        """Every frame, in display order (a new list of views)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[Frame]:
        columns = zip(
            self.types,
            self.sizes.tolist(),
            self.references,
            self.motion.tolist(),
        )
        for index, (ftype, size, refs, motion) in enumerate(columns):
            yield Frame(index, ftype, size, refs, motion)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._frame(i) for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("frame index out of range")
        return self._frame(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentFrames):
            return NotImplemented
        return (
            self.types == other.types
            and np.array_equal(self.sizes, other.sizes)
            and self.references == other.references
            and np.array_equal(self.motion, other.motion)
            and self.duration == other.duration
            and self.fps == other.fps
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"SegmentFrames({len(self)} frames, {self.total_bytes} bytes, "
            f"duration={self.duration}, fps={self.fps})"
        )

    def header_sizes(self) -> np.ndarray:
        """Every frame's :attr:`Frame.header_bytes`, in display order."""
        return np.minimum(self.sizes, FRAME_HEADER_BYTES)

    def payload_sizes(self) -> np.ndarray:
        """Every frame's :attr:`Frame.payload_bytes`, in display order."""
        return self.sizes - self.header_sizes()

    @property
    def i_frame(self) -> Frame:
        return self._frame(0)

    def frame_offsets(self) -> List[Tuple[int, int]]:
        """Byte range ``(start, end)`` of each frame, end exclusive."""
        ranges = []
        offset = 0
        for size in self.sizes.tolist():
            ranges.append((offset, offset + size))
            offset += size
        return ranges

    def inbound_references(self) -> Dict[int, List[Tuple[int, float]]]:
        """Map frame index -> list of (referrer index, weight)."""
        inbound: Dict[int, List[Tuple[int, float]]] = {
            index: [] for index in range(len(self))
        }
        for index, refs in enumerate(self.references):
            for ref, weight in refs:
                inbound[ref].append((index, weight))
        return inbound

    def _referrer_counts(self) -> List[int]:
        """How many frames reference each frame, in display order."""
        counts = [0] * len(self)
        for refs in self.references:
            for ref, _ in refs:
                counts[ref] += 1
        return counts

    def referenced_indices(self) -> List[int]:
        """Indices of frames that at least one other frame references."""
        counts = self._referrer_counts()
        return [idx for idx, count in enumerate(counts) if count]

    def referenced_set(self) -> frozenset:
        """:meth:`referenced_indices` as a set, computed once per segment.

        The reference graph is immutable after construction, so the hot
        per-delivery membership checks share one cached set.
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
        counts = self._referrer_counts()
        return [idx for idx, count in enumerate(counts) if not count]

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
        influence: Dict[int, float] = dict.fromkeys(range(len(self)), 0.0)
        # Walk referrers before referees so each node's influence is final
        # when it is propagated downwards.
        for idx in self._topological_order():
            for referee, weight in self.references[idx]:
                influence[referee] += weight * (1.0 + influence[idx])
        return influence

    def _topological_order(self) -> List[int]:
        """Order with every frame before all frames it references.

        Equivalently: referrers first.  The reference graph is a DAG
        (a frame cannot reference itself or form cycles), so Kahn's
        algorithm over outbound edges suffices.
        """
        # Start from frames nobody waits on being processed: frames with all
        # referrers already emitted.  We invert: process frames whose
        # referrer set is exhausted.
        pending = self._referrer_counts()
        ready = [idx for idx, count in enumerate(pending) if count == 0]
        out: List[int] = []
        while ready:
            idx = ready.pop()
            out.append(idx)
            for referee, _ in self.references[idx]:
                pending[referee] -= 1
                if pending[referee] == 0:
                    ready.append(referee)
        if len(out) != len(self):
            raise ValueError("reference graph contains a cycle")
        return out


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array; a read-only one is shared."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and not values.flags.writeable
    ):
        return values
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def validate_reference_graph(frames: Sequence[Frame]) -> None:
    """Raise ``ValueError`` if the reference structure is malformed.

    Checks: I-frames reference nothing, non-I frames reference at least one
    existing frame, no self references, and weights lie in (0, 1].
    """
    validate_structure(
        [frame.ftype for frame in frames],
        [frame.references for frame in frames],
    )


def validate_structure(
    types: Sequence[FrameType],
    references: Sequence[Tuple[Tuple[int, float], ...]],
) -> None:
    """:func:`validate_reference_graph` on per-frame columns."""
    count = len(types)
    for index, (ftype, refs) in enumerate(zip(types, references)):
        if ftype is FrameType.I:
            if refs:
                raise ValueError(f"I-frame {index} has references")
            continue
        if not refs:
            raise ValueError(f"{ftype}-frame {index} has no references")
        for ref, weight in refs:
            if ref == index:
                raise ValueError(f"frame {index} references itself")
            if not 0 <= ref < count:
                raise ValueError(
                    f"frame {index} references missing frame {ref}"
                )
            if not 0.0 < weight <= 1.0:
                raise ValueError(
                    f"frame {index} has reference weight {weight}"
                )
