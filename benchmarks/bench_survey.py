"""Benchmark for §5.3 / Fig. 14: the simulated user survey."""

from benchmarks.conftest import format_rows
from repro.experiments.figures import fig14_survey
from repro.experiments.survey import DIMENSIONS


def test_fig14_survey(benchmark):
    """Fig. 14: MOS deltas and the preference majority."""

    def run():
        return fig14_survey(clips=8, participants=54, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "dimension": dim,
            "VOXEL": result.mos["VOXEL"][dim],
            "BOLA": result.mos["BOLA"][dim],
            "delta": result.mos_delta(dim),
        }
        for dim in DIMENSIONS
    ]
    print(format_rows(
        rows, ["dimension", "VOXEL", "BOLA", "delta"],
        "Fig. 14: mean opinion scores (paper deltas: clarity -0.49, "
        "glitches -0.19, fluidity +1.7, experience +0.77)",
    ))
    print(
        f"Preference for VOXEL: {result.preference_voxel * 100:.0f}% "
        f"(paper: 84%); would stop: VOXEL "
        f"{result.would_stop['VOXEL'] * 100:.0f}% / BOLA "
        f"{result.would_stop['BOLA'] * 100:.0f}% (paper: 10% / 31%)"
    )
    # The paper's headline: a large majority prefers VOXEL, driven by
    # fluidity, while clarity dips slightly.
    assert result.preference_voxel > 0.6
    assert result.mos_delta("fluidity") > 0.5
    assert result.mos_delta("experience") > 0.0
    assert result.mos_delta("clarity") < 0.2
    assert result.would_stop["VOXEL"] < result.would_stop["BOLA"]
