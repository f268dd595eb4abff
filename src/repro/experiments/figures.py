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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.spec import ScenarioSpec
from repro.experiments.runner import run_trials
from repro.experiments.survey import (
    DIMENSIONS, SurveyResult, check_participants, run_survey,
)
from repro.experiments.sweep import _run_cells
from repro.prep.analysis import compute_drop_curve, droppable_positions
from repro.prep.prepare import PreparedVideo
from repro.prep.ranking import Ordering
from repro.qoe.metrics import PSNR, SSIM, VMAF
from repro.qoe.model import pristine_score
from repro.video.library import get_video

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
# Session figures: (keys, spec) cells on the sweep's cell engine.
# ----------------------------------------------------------------------

def _figure_cell(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo],
    observers: List,
) -> Dict:
    """A figure cell's body: its repetitions, reduced to what figures fold."""
    summary = run_trials(spec, prepared=prepared, observers=observers)
    return {
        "row": summary.row(),
        "ssim": summary.ssim_samples().tolist(),
        "residual_loss": summary.mean_residual_loss,
    }


def _run_figure(
    cells: Sequence[Tuple[Dict, ScenarioSpec]],
    body: Callable[..., Dict] = _figure_cell,
) -> List[Tuple[Dict, Dict]]:
    """Run ``(keys, spec)`` cells in order; ``(keys, result)`` pairs.

    ``body(spec, prepared, observers)`` runs one cell (default: its
    repetitions, reduced to what figures fold).
    """
    specs = [spec for _, spec in cells]
    results = _run_cells(
        specs, body, kind="figure",
        identities=[{}] * len(specs),
        labels=[f"cell {spec.label()}" for spec in specs],
    )
    return [(keys, result) for (keys, _), result in zip(cells, results)]


def _rows(cells: Sequence[Tuple[Dict, ScenarioSpec]]) -> List[Dict]:
    """One table row per cell: its keys, then its summary row."""
    return [
        dict(keys, **result["row"]) for keys, result in _run_figure(cells)
    ]


def _system_rows(
    traces: Sequence[str],
    videos: Sequence[str],
    buffers: Sequence[int],
    systems: Callable[[str], Dict[str, Dict]],
    **fields,
) -> List[Dict]:
    """Rows over (trace, video, buffer, system), in that nesting.

    ``systems(trace)`` maps each system label to its spec overrides;
    ``fields`` apply to every cell.
    """
    return _rows([
        (
            {"video": video, "trace": trace, "buffer": buffer_segments,
             "system": label},
            ScenarioSpec(
                video=video, trace=trace, buffer_segments=buffer_segments,
                **fields, **overrides,
            ),
        )
        for trace in traces
        for video in videos
        for buffer_segments in buffers
        for label, overrides in systems(trace).items()
    ])


#: The two systems of Figs. 11-13 and 16.
_BOLA_VS_VOXEL = {
    "BOLA": {"abr": "bola", "reliability": "quic"},
    "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
}


# ----------------------------------------------------------------------
# Fig. 3/4/5: vanilla ABR algorithms over QUIC vs QUIC*.
# ----------------------------------------------------------------------

#: Row label and reliability mode of the two transports, QUIC first.
_TRANSPORTS = (("Q", "quic"), ("Q*", "quic*"))

def fig3_fig4_vanilla_quicstar(
    videos: Sequence[str] = CANONICAL,
    abrs: Sequence[str] = ("mpc", "bola"),
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (5, 6, 7),
    repetitions: int = 30,
) -> List[Dict]:
    """Fig. 3 (bufRatio) and Fig. 4 (bitrate): ABRs on QUIC vs QUIC*."""
    return _rows([
        (
            {"video": video, "abr": abr, "trace": trace,
             "buffer": buffer_segments, "transport": transport},
            ScenarioSpec(
                video=video, abr=abr, trace=trace,
                buffer_segments=buffer_segments,
                reliability=reliability,
                repetitions=repetitions,
            ),
        )
        for video in videos
        for abr in abrs
        for trace in traces
        for buffer_segments in buffers
        for transport, reliability in _TRANSPORTS
    ])


def fig5_cross_traffic_vanilla(
    videos: Sequence[str] = CANONICAL,
    abrs: Sequence[str] = ("bola", "mpc"),
    cross_mbps: float = 20.0,
    buffers: Sequence[int] = (5, 6, 7),
    repetitions: int = 5,
) -> List[Dict]:
    """Fig. 5: vanilla ABRs with QUIC* under Harpoon-style cross traffic."""
    return _rows([
        (
            {"video": video, "abr": abr, "buffer": buffer_segments,
             "cross_mbps": cross_mbps, "transport": transport},
            ScenarioSpec(
                video=video, abr=abr, trace="constant:20",
                buffer_segments=buffer_segments,
                reliability=reliability,
                repetitions=repetitions,
                cross_traffic_mbps=cross_mbps,
            ),
        )
        for video in videos
        for abr in abrs
        for buffer_segments in buffers
        for transport, reliability in _TRANSPORTS
    ])


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
    return _system_rows(
        traces, videos, buffers,
        lambda trace: _abr_variants(trace, tuned_voxel=tuned_voxel),
        repetitions=repetitions,
    )


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
    systems = {"BOLA": {"abr": "bola", "reliability": "quic"}}
    for name, metric in (("ssim", SSIM), ("vmaf", VMAF), ("psnr", PSNR)):
        systems[f"VOXEL/{name.upper()}"] = {
            "abr": "abr_star", "abr_kwargs": {"metric": metric},
        }
    results = _run_figure([
        (
            {"system": label, "buffer": buffer_segments},
            ScenarioSpec(
                video=video, trace=trace, buffer_segments=buffer_segments,
                repetitions=repetitions, **overrides,
            ),
        )
        for buffer_segments in buffers
        for label, overrides in systems.items()
    ])
    first = {
        keys["system"]: result["ssim"]
        for keys, result in results
        if keys["buffer"] == buffers[0]
    }
    cdfs: Dict[str, Dict] = {}
    for label, system in (("VOXEL", "VOXEL/SSIM"), ("BOLA", "BOLA")):
        if system in first:
            cdfs[f"{label}/ssim"] = _cdf(first[system])
            cdfs[f"{label}/vmaf"] = _cdf(
                [VMAF.from_ssim(s) for s in first[system]]
            )
    rows = [dict(keys, **result["row"]) for keys, result in results]
    return {"rows": rows, "cdfs": cdfs}


def fig7d_data_skipped(
    videos: Sequence[str] = CANONICAL,
    trace: str = "verizon",
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 10,
) -> List[Dict]:
    """Fig. 7d: percent of segment data skipped by VOXEL vs buffer size."""
    results = _run_figure([
        (
            {"video": video, "buffer": buffer_segments},
            ScenarioSpec(
                video=video, abr="abr_star", trace=trace,
                buffer_segments=buffer_segments, repetitions=repetitions,
            ),
        )
        for video in videos
        for buffer_segments in buffers
    ])
    return [
        dict(keys, data_skipped_pct=result["row"]["data_skipped"] * 100.0)
        for keys, result in results
    ]


def fig8_bitrates(
    videos: Sequence[str] = CANONICAL,
    traces: Sequence[str] = ("tmobile", "verizon"),
    buffers: Sequence[int] = (1, 2, 3, 7),
    repetitions: int = 30,
) -> List[Dict]:
    """Fig. 8 (and 17a/b, 18b): average bitrates, VOXEL vs BOLA."""
    return _system_rows(
        traces, videos, buffers,
        lambda trace: {
            label: overrides
            for label, overrides in _abr_variants(trace).items()
            if label != "BETA"
        },
        repetitions=repetitions,
    )


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
    results = _run_figure([
        (
            {"combo": f"{video}-{trace}", "system": label},
            ScenarioSpec(
                video=video, trace=trace, buffer_segments=buffer_segments,
                repetitions=repetitions, **overrides,
            ),
        )
        for video, trace, buffer_segments in combos
        for label, overrides in _abr_variants(
            trace, tuned_voxel=tuned_voxel
        ).items()
    ])
    out: Dict[str, Dict[str, Dict]] = {}
    for keys, result in results:
        out.setdefault(keys["combo"], {})[keys["system"]] = _cdf(
            result["ssim"]
        )
    return out


# ----------------------------------------------------------------------
# Fig. 10: component isolation over the 86-trace 3G corpus.
# ----------------------------------------------------------------------

def _corpus_cells(
    video: str,
    systems: Dict[str, Dict],
    count: int,
    buffer_segments: int,
    seed: int = 0,
    body: Callable[..., Dict] = _figure_cell,
) -> Dict[str, List[Dict]]:
    """``{label: [cell result, ...]}``: each system (label -> spec
    overrides) streams ``3g-corpus`` traces 0 to ``count - 1`` at corpus
    seed ``seed``, one ``body`` cell each (see :func:`_run_figure`)."""
    results: Dict[str, List[Dict]] = {label: [] for label in systems}
    for keys, result in _run_figure(
        [
            (
                {"system": label},
                ScenarioSpec(
                    video=video, trace="3g-corpus", seed=seed,
                    trace_kwargs={"index": i},
                    buffer_segments=buffer_segments, **overrides,
                ),
            )
            for label, overrides in systems.items()
            for i in range(count)
        ],
        body=body,
    ):
        results[keys["system"]].append(result)
    return results


def fig10_components(
    video: str = "bbb",
    buffer_segments: int = 1,
    trace_count: int = 86,
) -> Dict[str, Dict]:
    """Fig. 10: BOLA vs BOLA-SSIM vs VOXEL over the 3G commute corpus.

    Each system streams ``3g-corpus`` traces 0 to ``trace_count - 1``
    once.
    """
    results = _corpus_cells(
        video,
        {
            "BOLA": {"abr": "bola", "reliability": "quic"},
            "BOLA-SSIM": {"abr": "bola_ssim", "reliability": "quic*"},
            "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
        },
        trace_count, buffer_segments,
    )
    out: Dict[str, Dict] = {}
    for label, cells in results.items():
        # One repetition per cell: the row's means are the session's.
        buf_ratios = [cell["row"]["buf_ratio_mean"] for cell in cells]
        ssims = [cell["row"]["ssim"] for cell in cells]
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
    """Fig. 11a-c: SSIM progression and distribution on synthetic traces.

    Session ``i`` of a series runs the trace shifted by ``7 * i`` s.
    """
    results = _run_figure([
        (
            {"series": f"{system}/{label}"},
            ScenarioSpec(
                video=video, trace=trace, buffer_segments=buffer_segments,
                trace_shift_s=7.0 * i, **overrides,
            ),
        )
        for label, trace in (("const", "constant:10.5"), ("step", "step"))
        for system, overrides in _BOLA_VS_VOXEL.items()
        for i in range(repetitions)
    ])
    sessions: Dict[str, List[List[float]]] = {}
    for keys, result in results:
        sessions.setdefault(keys["series"], []).append(result["ssim"])
    out: Dict[str, Dict] = {}
    for series, scores in sessions.items():
        # Accumulated average SSIM over playback (Fig. 11a).
        progression = np.cumsum(scores[0]) / np.arange(1, len(scores[0]) + 1)
        all_scores = np.concatenate(scores)
        out[series] = {
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
    results = _run_figure([
        (
            {"video": video, "buffer": buffer_segments, "system": label},
            ScenarioSpec(
                video=video, trace="wild", buffer_segments=buffer_segments,
                repetitions=repetitions, **overrides,
            ),
        )
        for video in videos
        for buffer_segments in buffers
        for label, overrides in _BOLA_VS_VOXEL.items()
    ])
    cdfs: Dict[str, Dict] = {
        f"{keys['video']}/{keys['system']}": _cdf(result["ssim"])
        for keys, result in results
        if keys["buffer"] == 1 and keys["video"] in ("bbb", "tos")
    }
    rows = [dict(keys, **result["row"]) for keys, result in results]
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
    return _rows([
        (
            {"video": video, "buffer": buffer_segments, "system": label},
            ScenarioSpec(
                video=video, trace="constant:20",
                buffer_segments=buffer_segments, repetitions=repetitions,
                cross_traffic_mbps=cross_mbps, **overrides,
            ),
        )
        for video in videos
        for buffer_segments in buffers
        for label, overrides in _BOLA_VS_VOXEL.items()
    ])


# ----------------------------------------------------------------------
# Fig. 14: the simulated user survey (§5.3).
# ----------------------------------------------------------------------

def _clip_cell(spec, prepared, observers) -> Dict:
    """A survey clip's figure cell: the one session it streams."""
    summary = run_trials(spec, prepared=prepared, observers=observers)
    return {"session": summary.sessions[0]}


def fig14_survey(
    video: str = "bbb",
    buffer_segments: int = 1,
    clips: int = 8,
    participants: int = 54,
    seed: int = 0,
) -> SurveyResult:
    """Fig. 14: MOS along four dimensions from simulated participants.

    The clips come from challenging low-bandwidth 3G sessions ("network
    throughput as low as 0.3 Mbps", §5.3): ``3g-corpus`` traces 0 to
    ``clips - 1`` at corpus seed ``seed``, each streamed once with VOXEL
    and once with BOLA over plain QUIC.  The sessions feed the survey
    model, :func:`~repro.experiments.survey.run_survey`.
    """
    check_participants(participants)  # before any clip streams
    results = _corpus_cells(
        video,
        {
            "VOXEL": {"abr": "abr_star"},
            "BOLA": {"abr": "bola", "reliability": "quic"},
        },
        clips, buffer_segments, seed=seed, body=_clip_cell,
    )
    sessions = {
        label: [cell["session"] for cell in cells]
        for label, cells in results.items()
    }
    return run_survey(
        sessions["VOXEL"], sessions["BOLA"],
        participants=participants, seed=seed,
    )


def fig14_mos(**kwargs) -> Dict[str, object]:
    """Fig. 14 (keywords of :func:`fig14_survey`): MOS and would-stop
    share per system, deltas, VOXEL preference."""
    result = fig14_survey(**kwargs)
    out: Dict[str, object] = {
        system: dict(mos, would_stop=result.would_stop[system])
        for system, mos in result.mos.items()
    }
    out["delta"] = {dim: result.mos_delta(dim) for dim in DIMENSIONS}
    out["participants"] = result.participants
    out["preference_voxel"] = result.preference_voxel
    return out


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
    return _system_rows(
        traces, videos, buffers, lambda trace: _BOLA_VS_VOXEL,
        queue_packets=queue_packets, repetitions=repetitions,
    )


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
    systems = {
        "VOXEL": {"reliability": "quic*"},
        "VOXEL rel": {"reliability": "quic*-rel"},
    }
    return _system_rows(
        traces, videos, buffers, lambda trace: systems,
        abr="abr_star", repetitions=repetitions,
    )


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
    results = _run_figure([
        (
            {"buffer": buffer_segments},
            ScenarioSpec(
                video=video, abr="abr_star", trace=trace,
                buffer_segments=buffer_segments, repetitions=repetitions,
            ),
        )
        for buffer_segments in buffers
    ])
    return [
        dict(keys, residual_loss_pct=result["residual_loss"] * 100.0)
        for keys, result in results
    ]


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
