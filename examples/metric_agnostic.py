#!/usr/bin/env python3
"""QoE-metric agnosticism (§5.2, Fig. 7): optimize SSIM, VMAF or PSNR.

ABR* takes the QoE metric as a parameter; the manifest's quality map is
metric-convertible, so the same machinery optimizes any of the three.
This example streams the same scenario three times, each optimizing a
different metric, and reports rebuffering plus all three scores.
"""

import numpy as np

from repro import prepare_video, stream
from repro.qoe.metrics import PSNR, SSIM, VMAF


def main() -> None:
    prepared = prepare_video("bbb")
    metrics = {"SSIM": SSIM, "VMAF": VMAF, "PSNR": PSNR}

    print("VOXEL streaming BBB over Verizon-like LTE, 1-segment buffer,\n"
          "optimizing each QoE metric in turn:\n")
    print(
        f"{'optimized':>10s} {'bufRatio%':>10s} {'SSIM':>8s} "
        f"{'VMAF':>8s} {'PSNR dB':>8s}"
    )
    for name, metric in metrics.items():
        result = stream(
            prepared, abr="abr_star", trace="verizon", buffer_segments=1,
            abr_kwargs={"metric": metric},
        )
        ssim = result.metrics.mean_ssim
        print(
            f"{name:>10s} {result.metrics.buf_ratio * 100:10.2f} "
            f"{ssim:8.3f} {VMAF.from_ssim(ssim):8.1f} "
            f"{PSNR.from_ssim(ssim):8.1f}"
        )

    bola = stream(
        prepared, abr="bola", trace="verizon", buffer_segments=1,
        reliability="quic",
    )
    ssim = bola.metrics.mean_ssim
    print(
        f"{'BOLA ref':>10s} {bola.metrics.buf_ratio * 100:10.2f} "
        f"{ssim:8.3f} {VMAF.from_ssim(ssim):8.1f} "
        f"{PSNR.from_ssim(ssim):8.1f}"
    )
    print(
        "\nRebuffering stays low no matter which metric VOXEL optimizes "
        "— the decision machinery only needs a score-vs-bytes map."
    )


if __name__ == "__main__":
    main()
