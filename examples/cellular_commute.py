#!/usr/bin/env python3
"""Stress test over the 3G commute corpus plus a simulated user study.

Reproduces the spirit of Fig. 10 and Fig. 14 in one script: stream Big
Buck Bunny over a set of low-bandwidth 3G commute traces with a tiny
1-segment buffer, isolate the contribution of each ABR* ingredient
(BOLA -> BOLA-SSIM -> VOXEL), then ask a panel of simulated viewers
which stream they prefer.
"""

import numpy as np

from repro import ScenarioSpec, prepare_video
from repro.abr import make_abr
from repro.experiments.survey import DIMENSIONS, run_survey
from repro.network import riiser_3g_corpus
from repro.player import StreamingSession


def stream_corpus(prepared, abr_name, reliability, corpus):
    sessions = []
    for trace in corpus:
        abr = make_abr(abr_name, prepared=prepared)
        spec = ScenarioSpec(buffer_segments=1, reliability=reliability)
        sessions.append(StreamingSession(prepared, abr, trace, spec).run())
    return sessions


def main() -> None:
    prepared = prepare_video("bbb")
    corpus = riiser_3g_corpus(count=20)
    print(
        f"Streaming over {len(corpus)} 3G commute traces "
        f"(mean bandwidth {np.mean([t.mean_mbps() for t in corpus]):.1f} "
        "Mbps), 1-segment buffer\n"
    )

    all_sessions = {}
    for label, abr, reliability in (
        ("BOLA", "bola", "quic"),
        ("BOLA-SSIM", "bola_ssim", "quic*"),
        ("VOXEL", "abr_star", "quic*"),
    ):
        sessions = stream_corpus(prepared, abr, reliability, corpus)
        all_sessions[label] = sessions
        print(
            f"  {label:10s} mean bufRatio "
            f"{np.mean([s.buf_ratio for s in sessions]) * 100:5.1f}%  "
            f"mean SSIM {np.mean([s.mean_ssim for s in sessions]):.3f}  "
            f"data skipped "
            f"{np.mean([s.data_skipped_fraction for s in sessions]) * 100:4.1f}%"
        )

    print("\nSimulated 54-participant survey (VOXEL vs BOLA clips):")
    result = run_survey(
        all_sessions["VOXEL"], all_sessions["BOLA"], participants=54
    )
    for dim in DIMENSIONS:
        print(
            f"  {dim:10s} VOXEL {result.mos['VOXEL'][dim]:.2f} vs "
            f"BOLA {result.mos['BOLA'][dim]:.2f} "
            f"(delta {result.mos_delta(dim):+.2f})"
        )
    print(
        f"  {result.preference_voxel * 100:.0f}% of participants prefer "
        "the VOXEL stream."
    )


if __name__ == "__main__":
    main()
