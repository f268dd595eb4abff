"""Offline video preparation: frame ranking, drop analysis, manifests."""

from repro.prep.analysis import (
    DropCurve,
    DropPoint,
    compute_drop_curve,
    droppable_positions,
    reliable_bytes,
    virtual_levels,
)
from repro.prep.manifest import (
    QualityPoint,
    Representation,
    SegmentEntry,
    VoxelManifest,
)
from repro.prep.prepare import (
    DEFAULT_ORDERINGS,
    PreparedSegment,
    PreparedVideo,
    clear_prepared_cache,
    get_prepared,
)
from repro.prep.ranking import (
    Ordering,
    build_order,
    original_order,
    qoe_rank_order,
    reference_rank_order,
    unreferenced_tail_order,
    validate_order,
)

__all__ = [
    "DropCurve",
    "DropPoint",
    "compute_drop_curve",
    "droppable_positions",
    "reliable_bytes",
    "virtual_levels",
    "QualityPoint",
    "Representation",
    "SegmentEntry",
    "VoxelManifest",
    "DEFAULT_ORDERINGS",
    "PreparedSegment",
    "PreparedVideo",
    "clear_prepared_cache",
    "get_prepared",
    "Ordering",
    "build_order",
    "original_order",
    "qoe_rank_order",
    "reference_rank_order",
    "unreferenced_tail_order",
    "validate_order",
]
