#!/usr/bin/env python3
"""Low-latency / live-streaming-like scenario (small playback buffers).

The paper's headline use case: with buffers as small as one segment
(plus one in flight), traditional ABR over reliable transport has no
slack — a single bad download stalls playback.  This example sweeps
buffer sizes 1/2/3/7 on the challenging T-Mobile-like trace and compares
BOLA, BETA and VOXEL, mirroring Fig. 6d.
"""

import numpy as np

from repro import ScenarioSpec, prepare_video
from repro.abr import make_abr
from repro.network import get_trace
from repro.player import StreamingSession


def run_trials(prepared, abr_name, buffer_segments, reliability,
               repetitions=8, abr_kwargs=None):
    results = []
    trace = get_trace("tmobile")
    for i in range(repetitions):
        abr = make_abr(abr_name, prepared=prepared, **(abr_kwargs or {}))
        spec = ScenarioSpec(
            buffer_segments=buffer_segments, reliability=reliability
        )
        session = StreamingSession(
            prepared, abr, trace.shifted(i * trace.duration / repetitions),
            spec,
        )
        results.append(session.run())
    return results


def main() -> None:
    prepared = prepare_video("bbb")
    systems = {
        # Fig. 6d uses the bandwidth-safety-tuned VOXEL on T-Mobile.
        "BOLA": ("bola", "quic", None),
        "BETA": ("beta", "quic", None),
        "VOXEL": ("abr_star", "quic*", {"bandwidth_safety": 0.9}),
    }

    print("90th-percentile bufRatio (%) on T-Mobile-like LTE; "
          "8 trials per cell\n")
    header = f"{'buffer':>8s}" + "".join(f"{name:>10s}" for name in systems)
    print(header + f"{'VOXEL ssim':>12s}")
    for buffer_segments in (1, 2, 3, 7):
        row = f"{buffer_segments:>7d}s"
        voxel_ssim = 0.0
        for name, (abr, reliability, kwargs) in systems.items():
            sessions = run_trials(
                prepared, abr, buffer_segments, reliability,
                abr_kwargs=kwargs,
            )
            p90 = np.percentile([s.buf_ratio for s in sessions], 90) * 100
            row += f"{p90:10.2f}"
            if name == "VOXEL":
                voxel_ssim = np.mean([s.mean_ssim for s in sessions])
        print(row + f"{voxel_ssim:12.3f}")

    print(
        "\nVOXEL sustains near-zero rebuffering even at a 1-segment "
        "buffer by downloading important frames first, keeping partial "
        "segments, and skipping the unimportant tail when the network "
        "dips."
    )


if __name__ == "__main__":
    main()
