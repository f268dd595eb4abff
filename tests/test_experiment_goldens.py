"""Cross-commit goldens of the experiment engines' outputs.

The engines' worker-count tests compare two runs of one revision; these
digests pin the outputs themselves, so a refactor of the scenario types
or the fan-out plumbing cannot move a byte unnoticed:

* chaos rows (``run_chaos`` JSONL) on the tiny fixture, plain and with
  streaming rollups, at workers 1 and 2;
* the default 4-client multiclient mix: per-client rows and the
  interleaved session trace;
* ``compare()`` summaries and their scoped metrics dumps, at workers 1
  and 2;
* the summaries of two RobustMPC sessions on ``bbb``.
"""

import hashlib
import json

import pytest

from repro.core.api import stream_spec
from repro.core.spec import ScenarioSpec
from repro.experiments.chaos import run_chaos
from repro.experiments.multiclient import DEFAULT_SPECS, run_multiclient
from repro.experiments.runner import compare
from repro.experiments.sweep import rows_to_jsonl
from repro.obs.tracer import Tracer

GOLDEN_CHAOS_SHA = {
    False: "0f3e8d9d30f5b7f5c435a676593276d9be31b8730340f98887a91ce3808e2166",
    True: "b3e3eacddefb1110fd0a95f74051d1202159292d59ec1909243558010f451da0",
}

GOLDEN_MULTICLIENT_ROWS_SHA = (
    "0993b77fa6ee01c12d1fe1b1e6025a9f47d8ed9a3c48b07f1301b44a4f5aa6fa"
)
GOLDEN_MULTICLIENT_TRACE_SHA = (
    "6110b629c82a461cf76a325d892bf3961f3f927a2e8d0cadc05a3dd2dad3449d"
)

GOLDEN_COMPARE_SHA = (
    "cd251d3dd9a1783c47978d4757347002c489af7dad91c05841559d6731c18fb1"
)

#: (trace, reliability, buffer segments) -> sha256 of the session's
#: ``summary()`` JSON, as perfbench digests a session op.
GOLDEN_MPC_SUMMARY_SHA = {
    ("verizon", "quic*", 3):
        "de16b50ed407d5b1587f7a9c7553955f9a290de22e5553a8d7eef3177bff676b",
    ("tmobile", "quic", 1):
        "f0e878b29ba85160b14056760b951bd92b61ba92da17b5b0426bfa1c7ff33928",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rollup", [False, True])
def test_chaos_rows_golden(tiny_prepared, rollup, workers):
    rows = run_chaos(
        profiles=["mixed", "resets"], seeds=[0, 1],
        base={"video": "tinytest"},
        prepared_map={"tinytest": tiny_prepared},
        rollup=rollup, workers=workers,
    )
    assert _sha(rows_to_jsonl(rows)) == GOLDEN_CHAOS_SHA[rollup]


def test_default_multiclient_mix_golden():
    tracer = Tracer()
    result = run_multiclient(
        [spec.with_(seed=3) for spec in DEFAULT_SPECS], tracer=tracer
    )
    assert result.trace_name == "verizon"
    rows = json.dumps(result.rows(), sort_keys=True)
    assert _sha(rows) == GOLDEN_MULTICLIENT_ROWS_SHA
    assert _sha(tracer.to_jsonl()) == GOLDEN_MULTICLIENT_TRACE_SHA


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_summaries_golden(tiny_prepared, workers):
    base = ScenarioSpec(
        video="tinytest", trace="verizon", buffer_segments=1,
        repetitions=3, seed=0,
    )
    summaries = compare(
        base,
        {
            "BOLA/QUIC": {"abr": "bola", "reliability": "quic"},
            "BETA/QUIC": {"abr": "beta", "reliability": "quic"},
            "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
        },
        prepared=tiny_prepared,
        workers=workers,
    )
    payload = {
        label: {"row": summary.row(), "metrics": summary.metrics}
        for label, summary in summaries.items()
    }
    assert _sha(json.dumps(payload, sort_keys=True)) == GOLDEN_COMPARE_SHA


@pytest.mark.parametrize("cell", sorted(GOLDEN_MPC_SUMMARY_SHA))
def test_mpc_session_summary_golden(cell):
    trace, reliability, buffer_segments = cell
    metrics = stream_spec(ScenarioSpec(
        video="bbb", abr="mpc", trace=trace, reliability=reliability,
        buffer_segments=buffer_segments,
    )).metrics
    summary = json.dumps(metrics.summary(), sort_keys=True)
    assert _sha(summary) == GOLDEN_MPC_SUMMARY_SHA[cell]
