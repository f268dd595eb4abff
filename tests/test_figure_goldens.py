"""Goldens of the paper's session figures at reduced arguments.

Each figure function that streams sessions runs here on ``bbb`` with
one video, one or two buffers and one repetition (BOLA only for Figs. 3
and 5, which keeps RobustMPC out; three 3G corpus traces for Fig. 10;
two clips for the Fig. 14 survey), inside its own metrics scope.  Two
digests pin a figure: one of what it returns (rows, CDFs, progressions;
floats as ``float.hex``, arrays as lists, key order kept) and one of the
scope's metrics dump.  A change to how figures run their cells must
leave both unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import figures
from repro.obs.metrics import scoped_registry

#: Figure function -> its reduced keyword arguments.
CASES = {
    "fig3_fig4_vanilla_quicstar": dict(
        videos=("bbb",), abrs=("bola",), traces=("tmobile",),
        buffers=(2,), repetitions=1,
    ),
    "fig5_cross_traffic_vanilla": dict(
        videos=("bbb",), abrs=("bola",), buffers=(2,), repetitions=1,
    ),
    "fig6_bufratio": dict(
        videos=("bbb",), traces=("tmobile",), buffers=(1,),
        repetitions=1,
    ),
    "fig7_metric_agnostic": dict(buffers=(1, 2), repetitions=1),
    "fig7d_data_skipped": dict(
        videos=("bbb",), buffers=(1,), repetitions=1,
    ),
    "fig8_bitrates": dict(
        videos=("bbb",), traces=("verizon",), buffers=(1,),
        repetitions=1,
    ),
    "fig9_ssim_cdfs": dict(combos=(("bbb", "tmobile", 1),), repetitions=1),
    "fig10_components": dict(trace_count=3),
    "fig11_synthetic": dict(repetitions=2),
    "fig11d_fig13_wild": dict(videos=("bbb",), buffers=(1,), repetitions=1),
    "fig12_cross_traffic": dict(
        videos=("bbb",), buffers=(1,), repetitions=1,
    ),
    "fig16_long_queue": dict(
        videos=("bbb",), traces=("verizon",), buffers=(1,),
        repetitions=1,
    ),
    "fig18cd_reliability_ablation": dict(
        videos=("bbb",), traces=("verizon",), buffers=(1,),
        repetitions=1,
    ),
    "selective_retransmission_residual": dict(buffers=(2,), repetitions=1),
}

#: Figure function -> (result digest, metrics-dump digest).  Fig. 11's
#: dump was pinned once its ``experiments.sessions`` labels named the
#: synthetic traces that ran (``constant:10.5``, ``step``) instead of the
#: spec's default ``verizon``, and Fig. 10's once they named
#: ``3g-corpus``; every other digest predates those changes.
GOLDEN = {
    "fig10_components": (
        "94c012a79aa980b57813cc83b6b5ef03a693b58f78a2b35d416edffd156166a5",
        "a05515de4faf0f654900bd67f350e5ae63b27213639f7bdf40dfa6bed81a702f",
    ),
    "fig11_synthetic": (
        "e15acbf89a50cbbf0c2a7b87dfb11f90a7f2c47b9383fd58af909e308567b7ca",
        "67b93851cc5690b7f37781d21f7fbf965041a2cd56b344cec433c0b0ae700185",
    ),
    "fig11d_fig13_wild": (
        "f71e425557d8a7342190bcb530c21a32be87a9ce637f4796a1acaf8a2bb1b74f",
        "5f6c5205893ca511d82c8913a954d7c80d99cbb322efd0f1a66fbcebae5bbeb1",
    ),
    "fig12_cross_traffic": (
        "67ee5f8f02f2ee5e944c596daaaf55a5ad49d542a001e1ca4d191f99f6a75185",
        "beb94987eb16006856a0795b87f21c60f7385e194ebfd1ae0ae61d30e24cf016",
    ),
    "fig16_long_queue": (
        "613734b00f9706ddd96a1ec55b91eb5741dad7a72005ac2ed67019f7427fc6cc",
        "1e266b795456c5bd742fd03d06dee852a6e76ab06167bbbab3d81765a7666eb7",
    ),
    "fig18cd_reliability_ablation": (
        "8e4a8d5355965304867aa93d971744998609a1c30da74fa5186cedd696c41c1f",
        "ef3a0e8a3248731a5e76c3474a04356dea2125b9a0e27a94868f043e62f47cde",
    ),
    "fig3_fig4_vanilla_quicstar": (
        "d2c5eac1df05d672e387e51257273512ee4a5c99ecf4ad53958d74fa0569f07a",
        "f10053f5b9ec030003492b4a8b2e87d6747366b3562effef7a2e2069711a61b1",
    ),
    "fig5_cross_traffic_vanilla": (
        "867707214cce3c6c5b2a5579edc1516d782ef1ac7baa6482a54e1a4f241bef49",
        "d26995cbfe18594eb769857e6dafb6427b2d5082c8025cdd1122dacffdb6ecef",
    ),
    "fig6_bufratio": (
        "22e6787fd893aeb181bb88c856b4c6000ca339e066de4631e7dc45cea4eb0e22",
        "2e8af73f584d8a59c56116cab2110493e2191b91191c53b2a45a066bdcda2a00",
    ),
    "fig7_metric_agnostic": (
        "66341d2ecc1c51438ead5c0288f56215d7852137a8a0b30d603780227c1ac54c",
        "b31e339bec132dd815253bf509aa8ec70ad9352ec55b5d0fee4dcb98f3031432",
    ),
    "fig7d_data_skipped": (
        "1e5bf6003c945ce39c3ecafc94699f2e02663eaf6bc08a977810de1c80916ed4",
        "d67769319cd0766895c3b28ef34f2f73d44bbba6fa0594fa59cbc184f1059ee4",
    ),
    "fig8_bitrates": (
        "4b869c5e5231fb83927aa8dcb99978f1fc829b478102d9d05a5adc2070b0dd44",
        "34d4a559c260a3d351a7ac22042b4c33fc0fe9abbb7c5639b1305d54dfafc1b7",
    ),
    "fig9_ssim_cdfs": (
        "d24b9a7300e7c6442e97e188964aceba8fedb45fd29b91a3fe331ebf725c9944",
        "2e8af73f584d8a59c56116cab2110493e2191b91191c53b2a45a066bdcda2a00",
    ),
    "selective_retransmission_residual": (
        "8716cb58428eb6be80da207fc5eb6e559e594b3187925382f6148a015cbda08e",
        "df63aae757717e00726e370af9738cab992415863cf5e080d708071cfa7f726f",
    ),
}


def _canonical(value):
    """A JSON-ready copy that keeps key order and every float bit."""
    if isinstance(value, dict):
        return [[key, _canonical(item)] for key, item in value.items()]
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def _digest(value) -> str:
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_golden(name):
    with scoped_registry() as registry:
        result = getattr(figures, name)(**CASES[name])
    result_sha, dump_sha = GOLDEN[name]
    assert _digest(result) == result_sha
    assert _digest(registry.dump()) == dump_sha


#: The Fig. 14 survey at two clips and ten participants: the digest of
#: its MOS, VOXEL preference and would-stop values, and of its metrics
#: dump (pinned once its ``experiments.sessions`` labels named
#: ``3g-corpus``).
SURVEY_GOLDEN = (
    "101601072ba4dda569a350d33fc62a2a8d5ab34124d648d61e4763bffb0d50a3",
    "32dddfef41487a9ee952c72fd571d013b25b9af4a69999049054ef78da34df74",
)


def test_fig14_survey_golden():
    from repro.experiments.figures import fig14_survey

    with scoped_registry() as registry:
        result = fig14_survey(clips=2, participants=10)
    values = [result.mos, result.preference_voxel, result.would_stop]
    assert _digest(values) == SURVEY_GOLDEN[0]
    assert _digest(registry.dump()) == SURVEY_GOLDEN[1]
