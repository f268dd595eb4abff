"""Per-figure/table reproduction functions.

Every table and figure of the paper's evaluation has a function here that
regenerates its data: the same workloads, parameter sweeps, baselines and
aggregation, returning the rows/series the paper plots.  Benchmarks in
``benchmarks/`` call these with reduced repetition counts; passing
``repetitions=30`` reproduces the paper's full protocol.

The functions return plain dictionaries (series name -> numbers) so they
are equally usable from tests, benchmarks, and the examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.spec import ScenarioSpec, reliability_mode
from repro.experiments.runner import run_trials
from repro.network.traces import (
    constant_trace,
    riiser_3g_corpus,
    step_trace,
)
from repro.player.session import SessionConfig, StreamingSession
from repro.prep.analysis import compute_drop_curve, droppable_positions
from repro.prep.prepare import get_prepared
from repro.prep.ranking import Ordering
from repro.qoe.metrics import PSNR, SSIM, VMAF
from repro.qoe.model import pristine_score
from repro.video.library import get_video
from repro.abr import make_abr

# The four canonical videos of Tab. 1 and the showcased YouTube videos.
CANONICAL = ("bbb", "ed", "sintel", "tos")
SHOWCASED_YOUTUBE = ("p2", "p4")
ALL_YOUTUBE = tuple(f"p{i}" for i in range(1, 11))


def _cdf(values: Sequence[float]) -> Dict[str, np.ndarray]:
    array = np.sort(np.asarray(values, dtype=float))
    return {
        "x": array,
        "y": np.arange(1, len(array) + 1) / max(len(array), 1),
    }


# ----------------------------------------------------------------------
# Tables 1-3: video characterization.
# ----------------------------------------------------------------------

def table1_videos(videos: Sequence[str] = CANONICAL) -> List[Dict]:
    """Tab. 1: per-video genre and segment-bitrate standard deviation."""
    rows = []
    for name in videos:
        video = get_video(name)
        rows.append(
            {
                "video": name,
                "title": video.profile.title,
                "genre": video.profile.genre,
                "std_mbps": video.size_std_mbps(12),
                "segments": video.num_segments,
            }
        )
    return rows


def table2_ladder(video: str = "bbb") -> List[Dict]:
    """Tab. 2: quality levels with realized average sizes."""
    encoded = get_video(video)
    rows = []
    for level in encoded.ladder:
        total_mb = encoded.total_size_bytes(level.index) / 1e6
        rows.append(
            {
                "quality": level.name,
                "resolution": f"{level.height}p",
                "avg_bitrate_mbps": level.avg_bitrate_mbps,
                "total_size_mb": total_mb,
            }
        )
    return rows


def table3_youtube() -> List[Dict]:
    """Tab. 3: the ten public YouTube videos."""
    return table1_videos(ALL_YOUTUBE)


# ----------------------------------------------------------------------
# Fig. 1: frame-drop tolerance and low-quality SSIM.
# ----------------------------------------------------------------------

def fig1_drop_tolerance(
    videos: Sequence[str] = CANONICAL + SHOWCASED_YOUTUBE,
    cases: Sequence[Tuple[int, float]] = ((12, 0.99), (9, 0.99), (9, 0.95)),
    segment_stride: int = 1,
    ordering: Ordering = Ordering.QOE_RANK,
) -> Dict[str, Dict[str, Dict]]:
    """Fig. 1a-c: CDFs of tolerable frame-drop percentage per segment.

    Returns ``{f"Q{q}/{target}": {video: cdf}}``.
    """
    out: Dict[str, Dict[str, Dict]] = {}
    for quality, target in cases:
        key = f"Q{quality}/{target}"
        out[key] = {}
        for name in videos:
            video = get_video(name)
            tolerances = []
            for index in range(0, video.num_segments, segment_stride):
                curve = compute_drop_curve(
                    video.segment(quality, index), ordering
                )
                tolerances.append(curve.tolerance(target) * 100.0)
            out[key][name] = _cdf(tolerances)
    return out


def fig1d_low_quality_ssim(
    videos: Sequence[str] = ("tos", "bbb"),
    qualities: Sequence[int] = (6, 9),
) -> Dict[str, Dict]:
    """Fig. 1d: CDF of pristine segment SSIM at low quality levels."""
    out = {}
    for name in videos:
        video = get_video(name)
        for quality in qualities:
            scores = [
                pristine_score(video.segment(quality, index))
                for index in range(video.num_segments)
            ]
            out[f"{name}/Q{quality}"] = _cdf(scores)
    return out


# ----------------------------------------------------------------------
# Fig. 2: frame positions, orderings, virtual quality levels.
# ----------------------------------------------------------------------

def fig2a_droppable_positions(
    videos: Sequence[str] = ("bbb", "tos"),
    quality: int = 12,
    target: float = 0.99,
    segment_stride: int = 1,
) -> Dict[str, np.ndarray]:
    """Fig. 2a: per-position fraction of segments allowing that drop."""
    out = {}
    for name in videos:
        video = get_video(name)
        n_frames = len(video.segment(quality, 0).frames)
        counts = np.zeros(n_frames)
        total = 0
        for index in range(0, video.num_segments, segment_stride):
            positions = droppable_positions(
                video.segment(quality, index), target
            )
            for pos in positions:
                counts[pos] += 1
            total += 1
        out[name] = counts / max(total, 1)
    return out


def fig2b_ordering_comparison(
    videos: Sequence[str] = ("bbb", "tos"),
    quality: int = 12,
    target: float = 0.99,
    segment_stride: int = 1,
) -> Dict[str, Dict]:
    """Fig. 2b: rank ordering vs naive tail-only drops.

    Returns per video the tolerance CDF under the QoE ranking and under
    the original (temporal tail) order, plus the fraction of dropped
    frames that are referenced under each.
    """
    out: Dict[str, Dict] = {}
    for name in videos:
        video = get_video(name)
        ranked, tail = [], []
        ranked_ref, tail_ref = [], []
        for index in range(0, video.num_segments, segment_stride):
            segment = video.segment(quality, index)
            referenced = set(segment.frames.referenced_indices())
            for ordering, sink, ref_sink in (
                (Ordering.QOE_RANK, ranked, ranked_ref),
                (Ordering.ORIGINAL, tail, tail_ref),
            ):
                curve = compute_drop_curve(segment, ordering)
                sink.append(curve.tolerance(target) * 100.0)
                k = curve.max_drops(target)
                if k:
                    dropped = curve.order[len(curve.order) - k:]
                    ref_sink.append(
                        sum(1 for f in dropped if f in referenced) / k
                    )
        out[name] = {
            "ranked": _cdf(ranked),
            "tail": _cdf(tail),
            "ranked_referenced_fraction": float(np.mean(ranked_ref))
            if ranked_ref else 0.0,
            "tail_referenced_fraction": float(np.mean(tail_ref))
            if tail_ref else 0.0,
        }
    return out


def fig2cd_virtual_levels(
    videos: Sequence[str] = ("bbb", "tos"),
    quality: int = 12,
    targets: Sequence[float] = (0.99, 0.95),
) -> Dict[str, Dict[str, Dict]]:
    """Fig. 2c/d: bitrate CDFs of virtual quality levels Q12/<target>.

    For each segment the smallest byte count achieving the target SSIM
    (under the QoE ranking) defines the virtual level's bitrate; the
    pristine Q12/Q11/Q10 distributions frame the comparison.
    """
    out: Dict[str, Dict[str, Dict]] = {}
    for name in videos:
        video = get_video(name)
        series: Dict[str, Dict] = {}
        for q in (quality, quality - 1, quality - 2):
            series[f"Q{q}"] = _cdf(
                [seg.bitrate_mbps for seg in video.segments[q]]
            )
        for target in targets:
            rates = []
            for index in range(video.num_segments):
                segment = video.segment(quality, index)
                curve = compute_drop_curve(segment, Ordering.QOE_RANK)
                needed = curve.bytes_for_score(target)
                if needed is None:
                    needed = curve.points[0].bytes_needed
                rates.append(needed * 8.0 / segment.duration / 1e6)
            series[f"Q{quality}/{target}"] = _cdf(rates)
        out[name] = series
    return out


# ----------------------------------------------------------------------
# Fig. 3/4/5: vanilla ABR algorithms over QUIC vs QUIC*.
# ----------------------------------------------------------------------

def fig3_fig4_vanilla_quicstar(
    videos: Sequence[str] = CANONICAL,
    abrs: Sequence[str] = ("mpc", "bola"),
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (5, 6, 7),
    repetitions: int = 30,
) -> List[Dict]:
    """Fig. 3 (bufRatio) and Fig. 4 (bitrate): ABRs on QUIC vs QUIC*."""
    rows = []
    for video in videos:
        prepared = get_prepared(video)
        for abr in abrs:
            for trace in traces:
                for buffer_segments in buffers:
                    for partially_reliable in (False, True):
                        spec = ScenarioSpec(
                            video=video, abr=abr, trace=trace,
                            buffer_segments=buffer_segments,
                            reliability=reliability_mode(partially_reliable),
                            repetitions=repetitions,
                        )
                        summary = run_trials(spec, prepared=prepared)
                        rows.append(
                            {
                                "video": video,
                                "abr": abr,
                                "trace": trace,
                                "buffer": buffer_segments,
                                "transport": "Q*" if partially_reliable else "Q",
                                **summary.row(),
                            }
                        )
    return rows


def fig5_cross_traffic_vanilla(
    videos: Sequence[str] = CANONICAL,
    abrs: Sequence[str] = ("bola", "mpc"),
    cross_mbps: float = 20.0,
    buffers: Sequence[int] = (5, 6, 7),
    repetitions: int = 5,
) -> List[Dict]:
    """Fig. 5: vanilla ABRs with QUIC* under Harpoon-style cross traffic."""
    rows = []
    for video in videos:
        prepared = get_prepared(video)
        for abr in abrs:
            for buffer_segments in buffers:
                for partially_reliable in (False, True):
                    spec = ScenarioSpec(
                        video=video, abr=abr, trace="constant:20",
                        buffer_segments=buffer_segments,
                        reliability=reliability_mode(partially_reliable),
                        repetitions=repetitions,
                        cross_traffic_mbps=cross_mbps,
                    )
                    summary = run_trials(spec, prepared=prepared)
                    rows.append(
                        {
                            "video": video,
                            "abr": abr,
                            "buffer": buffer_segments,
                            "cross_mbps": cross_mbps,
                            "transport": "Q*" if partially_reliable else "Q",
                            **summary.row(),
                        }
                    )
    return rows


# ----------------------------------------------------------------------
# Fig. 6-9 and 17/18: VOXEL vs BOLA vs BETA across traces.
# ----------------------------------------------------------------------

_VOXEL_TUNED_TRACES = {"tmobile"}  # Fig. 6d: safety factor tuned to 0.9


def _abr_variants(trace: str, tuned_voxel: bool = True) -> Dict[str, Dict]:
    voxel_kwargs = (
        {"bandwidth_safety": 0.9}
        if tuned_voxel and trace in _VOXEL_TUNED_TRACES
        else {}
    )
    return {
        "BOLA": {"abr": "bola", "reliability": "quic"},
        "BETA": {"abr": "beta", "reliability": "quic"},
        "VOXEL": {
            "abr": "abr_star",
            "reliability": "quic*",
            "abr_kwargs": voxel_kwargs,
        },
    }


def fig6_bufratio(
    videos: Sequence[str] = CANONICAL,
    traces: Sequence[str] = ("att", "3g", "verizon", "tmobile"),
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 30,
    tuned_voxel: bool = True,
) -> List[Dict]:
    """Fig. 6 (and 18a, 17c): 90th-pct bufRatio of BOLA/BETA/VOXEL."""
    rows = []
    for trace in traces:
        variants = _abr_variants(trace, tuned_voxel=tuned_voxel)
        for video in videos:
            prepared = get_prepared(video)
            for buffer_segments in buffers:
                for label, overrides in variants.items():
                    spec = ScenarioSpec(
                        video=video, trace=trace,
                        buffer_segments=buffer_segments,
                        repetitions=repetitions,
                        **{k: v for k, v in overrides.items()},
                    )
                    summary = run_trials(spec, prepared=prepared)
                    rows.append(
                        {
                            "video": video,
                            "trace": trace,
                            "buffer": buffer_segments,
                            "system": label,
                            **summary.row(),
                        }
                    )
    return rows


def fig7_metric_agnostic(
    video: str = "bbb",
    trace: str = "verizon",
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 10,
) -> Dict[str, object]:
    """Fig. 7a-c: VOXEL optimizing SSIM, VMAF and PSNR vs BOLA.

    Returns bufRatio rows per metric plus the SSIM and VMAF CDFs of the
    BOLA and VOXEL(SSIM) runs.
    """
    prepared = get_prepared(video)
    rows = []
    cdfs: Dict[str, Dict] = {}
    metric_objects = {"ssim": SSIM, "vmaf": VMAF, "psnr": PSNR}
    for buffer_segments in buffers:
        bola = run_trials(
            ScenarioSpec(
                video=video, abr="bola", trace=trace,
                buffer_segments=buffer_segments,
                reliability="quic", repetitions=repetitions,
            ),
            prepared=prepared,
        )
        rows.append(
            {"system": "BOLA", "buffer": buffer_segments, **bola.row()}
        )
        for metric_name, metric in metric_objects.items():
            summary = run_trials(
                ScenarioSpec(
                    video=video, abr="abr_star", trace=trace,
                    buffer_segments=buffer_segments, repetitions=repetitions,
                    abr_kwargs={"metric": metric},
                ),
                prepared=prepared,
            )
            rows.append(
                {
                    "system": f"VOXEL/{metric_name.upper()}",
                    "buffer": buffer_segments,
                    **summary.row(),
                }
            )
            if buffer_segments == buffers[0]:
                ssims = summary.ssim_samples()
                if metric_name == "ssim":
                    cdfs["VOXEL/ssim"] = _cdf(ssims)
                    cdfs["VOXEL/vmaf"] = _cdf(
                        [VMAF.from_ssim(s) for s in ssims]
                    )
        if buffer_segments == buffers[0]:
            ssims = bola.ssim_samples()
            cdfs["BOLA/ssim"] = _cdf(ssims)
            cdfs["BOLA/vmaf"] = _cdf([VMAF.from_ssim(s) for s in ssims])
    return {"rows": rows, "cdfs": cdfs}


def fig7d_data_skipped(
    videos: Sequence[str] = CANONICAL,
    trace: str = "verizon",
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 10,
) -> List[Dict]:
    """Fig. 7d: percent of segment data skipped by VOXEL vs buffer size."""
    rows = []
    for video in videos:
        prepared = get_prepared(video)
        for buffer_segments in buffers:
            summary = run_trials(
                ScenarioSpec(
                    video=video, abr="abr_star", trace=trace,
                    buffer_segments=buffer_segments, repetitions=repetitions,
                ),
                prepared=prepared,
            )
            rows.append(
                {
                    "video": video,
                    "buffer": buffer_segments,
                    "data_skipped_pct": summary.mean_data_skipped * 100.0,
                }
            )
    return rows


def fig8_bitrates(
    videos: Sequence[str] = CANONICAL,
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 30,
) -> List[Dict]:
    """Fig. 8 (and 17a/b, 18b): average bitrates, VOXEL vs BOLA."""
    rows = []
    for trace in traces:
        for video in videos:
            prepared = get_prepared(video)
            for buffer_segments in buffers:
                for label, overrides in _abr_variants(trace).items():
                    if label == "BETA":
                        continue
                    spec = ScenarioSpec(
                        video=video, trace=trace,
                        buffer_segments=buffer_segments,
                        repetitions=repetitions, **overrides,
                    )
                    summary = run_trials(spec, prepared=prepared)
                    rows.append(
                        {
                            "video": video,
                            "trace": trace,
                            "buffer": buffer_segments,
                            "system": label,
                            **summary.row(),
                        }
                    )
    return rows


def fig9_ssim_cdfs(
    combos: Sequence[Tuple[str, str, int]] = (
        ("tos", "att", 2),
        ("sintel", "3g", 1),
        ("ed", "verizon", 1),
        ("bbb", "tmobile", 1),
    ),
    repetitions: int = 10,
    tuned_voxel: bool = True,
) -> Dict[str, Dict[str, Dict]]:
    """Fig. 9 (and 17d): per-segment SSIM CDFs of BOLA/BETA/VOXEL."""
    out: Dict[str, Dict[str, Dict]] = {}
    for video, trace, buffer_segments in combos:
        prepared = get_prepared(video)
        series = {}
        for label, overrides in _abr_variants(
            trace, tuned_voxel=tuned_voxel
        ).items():
            summary = run_trials(
                ScenarioSpec(
                    video=video, trace=trace,
                    buffer_segments=buffer_segments,
                    repetitions=repetitions, **overrides,
                ),
                prepared=prepared,
            )
            series[label] = _cdf(summary.ssim_samples())
        out[f"{video}-{trace}"] = series
    return out


# ----------------------------------------------------------------------
# Fig. 10: component isolation over the 86-trace 3G corpus.
# ----------------------------------------------------------------------

def fig10_components(
    video: str = "bbb",
    buffer_segments: int = 1,
    trace_count: int = 86,
) -> Dict[str, Dict]:
    """Fig. 10: BOLA vs BOLA-SSIM vs VOXEL over the 3G commute corpus."""
    prepared = get_prepared(video)
    corpus = riiser_3g_corpus(count=trace_count)
    systems = {
        "BOLA": ("bola", False, {}),
        "BOLA-SSIM": ("bola_ssim", True, {}),
        "VOXEL": ("abr_star", True, {}),
    }
    out: Dict[str, Dict] = {}
    for label, (abr, partially_reliable, kwargs) in systems.items():
        sessions = []
        for trace in corpus:
            spec = ScenarioSpec(
                video=video, abr=abr,
                buffer_segments=buffer_segments,
                reliability=reliability_mode(partially_reliable),
                repetitions=1, abr_kwargs=kwargs,
            )
            from repro.experiments.runner import run_single

            sessions.append(
                run_single(spec, prepared=prepared, trace=trace)
            )
        buf_ratios = [s.buf_ratio for s in sessions]
        ssims = [s.mean_ssim for s in sessions]
        out[label] = {
            "buf_ratio_cdf": _cdf(np.asarray(buf_ratios) * 100.0),
            "ssim_cdf": _cdf(ssims),
            "mean_buf_ratio": float(np.mean(buf_ratios)),
            "mean_ssim": float(np.mean(ssims)),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 11: synthetic constant/step traces.
# ----------------------------------------------------------------------

def fig11_synthetic(
    video: str = "bbb",
    buffer_segments: int = 7,
    repetitions: int = 3,
) -> Dict[str, Dict]:
    """Fig. 11a-c: SSIM progression and distribution on synthetic traces."""
    prepared = get_prepared(video)
    out: Dict[str, Dict] = {}
    for trace_label, trace in (
        ("const", constant_trace(10.5)),
        ("step", step_trace()),
    ):
        for system, (abr, partially_reliable) in {
            "BOLA": ("bola", False),
            "VOXEL": ("abr_star", True),
        }.items():
            spec = ScenarioSpec(
                video=video, abr=abr, buffer_segments=buffer_segments,
                reliability=reliability_mode(partially_reliable),
                repetitions=repetitions,
            )
            from repro.experiments.runner import run_single

            sessions = [
                run_single(spec, shift_s=i * 7.0, prepared=prepared,
                           trace=trace)
                for i in range(repetitions)
            ]
            scores = sessions[0].scores
            # Accumulated average SSIM over playback (Fig. 11a).
            progression = np.cumsum(scores) / np.arange(1, len(scores) + 1)
            all_scores = np.concatenate([s.scores for s in sessions])
            out[f"{system}/{trace_label}"] = {
                "progression": progression,
                "cdf": _cdf(all_scores),
                "perfect_fraction": float(np.mean(all_scores >= 0.9999)),
            }
    return out


# ----------------------------------------------------------------------
# Fig. 11d/13: in-the-wild trials.
# ----------------------------------------------------------------------

def fig11d_fig13_wild(
    videos: Sequence[str] = CANONICAL,
    buffers: Sequence[int] = (1, 7),
    repetitions: int = 10,
) -> Dict[str, object]:
    """Fig. 11d and Fig. 13: in-the-wild-like trials (WiFi path)."""
    rows = []
    cdfs: Dict[str, Dict] = {}
    for video in videos:
        prepared = get_prepared(video)
        for buffer_segments in buffers:
            for label, overrides in {
                "BOLA": {"abr": "bola", "reliability": "quic"},
                "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
            }.items():
                summary = run_trials(
                    ScenarioSpec(
                        video=video, trace="wild",
                        buffer_segments=buffer_segments,
                        repetitions=repetitions, **overrides,
                    ),
                    prepared=prepared,
                )
                rows.append(
                    {
                        "video": video,
                        "buffer": buffer_segments,
                        "system": label,
                        **summary.row(),
                    }
                )
                if buffer_segments == 1 and video in ("bbb", "tos"):
                    cdfs[f"{video}/{label}"] = _cdf(summary.ssim_samples())
    return {"rows": rows, "cdfs": cdfs}


# ----------------------------------------------------------------------
# Fig. 12: VOXEL vs BOLA under cross traffic.
# ----------------------------------------------------------------------

def fig12_cross_traffic(
    videos: Sequence[str] = CANONICAL,
    buffers: Sequence[int] = (1, 2, 3, 7),
    cross_mbps: float = 20.0,
    repetitions: int = 5,
) -> List[Dict]:
    """Fig. 12: bufRatio and bitrate with 20 Mbps competing traffic."""
    rows = []
    for video in videos:
        prepared = get_prepared(video)
        for buffer_segments in buffers:
            for label, overrides in {
                "BOLA": {"abr": "bola", "reliability": "quic"},
                "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
            }.items():
                summary = run_trials(
                    ScenarioSpec(
                        video=video, trace="constant:20",
                        buffer_segments=buffer_segments,
                        repetitions=repetitions,
                        cross_traffic_mbps=cross_mbps,
                        **overrides,
                    ),
                    prepared=prepared,
                )
                rows.append(
                    {
                        "video": video,
                        "buffer": buffer_segments,
                        "system": label,
                        **summary.row(),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 16: long (750-packet) network queues.
# ----------------------------------------------------------------------

def fig16_long_queue(
    videos: Sequence[str] = CANONICAL,
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (1, 2, 3, 7),
    queue_packets: int = 750,
    repetitions: int = 10,
) -> List[Dict]:
    """Fig. 16: BOLA vs VOXEL behind a 750-packet droptail queue."""
    rows = []
    for trace in traces:
        for video in videos:
            prepared = get_prepared(video)
            for buffer_segments in buffers:
                for label, overrides in {
                    "BOLA": {"abr": "bola", "reliability": "quic"},
                    "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
                }.items():
                    summary = run_trials(
                        ScenarioSpec(
                            video=video, trace=trace,
                            buffer_segments=buffer_segments,
                            queue_packets=queue_packets,
                            repetitions=repetitions, **overrides,
                        ),
                        prepared=prepared,
                    )
                    rows.append(
                        {
                            "video": video,
                            "trace": trace,
                            "buffer": buffer_segments,
                            "system": label,
                            **summary.row(),
                        }
                    )
    return rows


# ----------------------------------------------------------------------
# Fig. 18c/d: partial-reliability ablation ("VOXEL rel").
# ----------------------------------------------------------------------

def fig18cd_reliability_ablation(
    videos: Sequence[str] = CANONICAL,
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 10,
) -> List[Dict]:
    """Fig. 18c/d: VOXEL with unreliable streams disabled ("VOXEL rel")."""
    rows = []
    for trace in traces:
        for video in videos:
            prepared = get_prepared(video)
            for buffer_segments in buffers:
                for label, force_reliable in (
                    ("VOXEL", False),
                    ("VOXEL rel", True),
                ):
                    summary = run_trials(
                        ScenarioSpec(
                            video=video, abr="abr_star", trace=trace,
                            buffer_segments=buffer_segments,
                            reliability=reliability_mode(
                                True, force_reliable
                            ),
                            repetitions=repetitions,
                        ),
                        prepared=prepared,
                    )
                    rows.append(
                        {
                            "video": video,
                            "trace": trace,
                            "buffer": buffer_segments,
                            "system": label,
                            **summary.row(),
                        }
                    )
    return rows


# ----------------------------------------------------------------------
# §4.2: residual loss after selective retransmission.
# ----------------------------------------------------------------------

def selective_retransmission_residual(
    video: str = "bbb",
    trace: str = "verizon",
    buffers: Sequence[int] = (2, 3, 7),
    repetitions: int = 10,
) -> List[Dict]:
    """§4.2: remaining loss per buffer size after selective retx."""
    prepared = get_prepared(video)
    rows = []
    for buffer_segments in buffers:
        summary = run_trials(
            ScenarioSpec(
                video=video, abr="abr_star", trace=trace,
                buffer_segments=buffer_segments, repetitions=repetitions,
            ),
            prepared=prepared,
        )
        rows.append(
            {
                "buffer": buffer_segments,
                "residual_loss_pct": summary.mean_residual_loss * 100.0,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 19: YouTube-video drop tolerance.
# ----------------------------------------------------------------------

def fig19_youtube_tolerance(
    videos: Sequence[str] = ("p1", "p5", "p6", "p7", "p9", "p10"),
    segment_stride: int = 1,
) -> Dict[str, Dict[str, Dict]]:
    """Fig. 19: the §3 insights on the public YouTube videos."""
    return fig1_drop_tolerance(videos=videos, segment_stride=segment_stride)


# ----------------------------------------------------------------------
# Fig. 15: VBR segment-size variation.
# ----------------------------------------------------------------------

def fig15_vbr_variation(
    videos: Sequence[str] = ("ed", "sintel"),
    qualities: Sequence[int] = (12, 11, 10, 8, 6, 4),
) -> Dict[str, Dict[str, np.ndarray]]:
    """Fig. 15: per-segment bitrate by quality level."""
    out = {}
    for name in videos:
        video = get_video(name)
        out[name] = {
            f"Q{q}": np.asarray(video.segment_bitrates_mbps(q))
            for q in qualities
        }
    return out
