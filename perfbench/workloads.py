"""The three closed-loop workloads: set-up, ops and output checks.

Every workload issues its ops one after another from this process (a
closed loop: the next op starts when the previous one returns).  Ops
come in *rounds*, a fixed list of inputs derived from the workload seed
and the round index; a run repeats whole rounds until its time is up.

* ``prep_cold`` — offline preparation of a video not yet encoded in the
  process (video, prep and qoe layers).
* ``session_sweep`` — a figure-style grid of single sessions on prepared
  ``bbb``, three times per round (kernel, single-flow link, transport,
  ABR, player, qoe).
* ``fleet_chaos`` — sharded 64-client fleets under the ``mixed`` chaos
  profile on two forked workers (pool, shared link, faults, resilient
  transport, rollup/attribution observers).

Each op's output is reduced to a digest and compared with the golden
recorded for the same inputs in ``goldens.json``, when there is one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from typing import Callable, Dict, Iterator, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

#: Seed the goldens were recorded for (and the CLI's default).
DEFAULT_SEED = 0


class Op(NamedTuple):
    """One closed-loop operation: a label naming its inputs, and the call."""

    label: str
    call: Callable[[], object]


def manifest_digest(prepared) -> str:
    """sha256 of the serialized VOXEL manifest of a prepared video."""
    text = prepared.manifest.serialize()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens(path: str = GOLDENS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path) as handle:
        return json.load(handle)


def _check_prepared(prepared) -> None:
    """Raise unless the manifest covers every level and segment."""
    video = prepared.video
    levels = prepared.manifest.representations
    if len(levels) != video.num_levels or any(
            len(level.segments) != video.num_segments for level in levels):
        raise ValueError(f"manifest of {video.name!r} is incomplete")


class Workload:
    """Interface every workload implements."""

    name = ""
    #: Key of this workload's table in ``goldens.json``.
    golden_key = ""
    #: Whether ops fan out to a process pool (enables the serial
    #: reference run and the ``execution.*`` CPU metrics).
    fans_out = False
    #: Set-ups per run behind the median ``setup_s``: one in the
    #: measuring process, the rest in child processes that stop before
    #: the first op.  Only a set-up of imports alone is cheap enough to
    #: repeat.
    setup_repeats = 1

    def setup(self, goldens: Dict[str, Dict[str, str]]) -> List[str]:
        """Prepare the process; returns the set-up checks that failed."""
        import repro.core.api  # noqa: F401  (every op enters here)

        return []

    def begin_round(self) -> None:
        """Drop caches a repeated round would otherwise find warm."""

    def ops(self, seed: int, rnd: int) -> Iterator[Op]:
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def check(self, output) -> None:
        """Raise if the output is malformed (applies to every seed)."""

    def content_s(self, output) -> float:
        """Nominal seconds of video the op processed."""
        raise NotImplementedError


class PrepCold(Workload):
    """Cold offline preparation, one op per video.

    ``p9`` is near-static and tolerates dropping most of its frames, so
    its drop-curve searches run deepest.  ``bbb`` is prepared in the
    set-up of the other two workloads, so its cost shows in their
    ``setup_s``; a second cold video per round would not fit the time
    budget.
    """

    name = "prep_cold"
    golden_key = "manifests"
    setup_repeats = 7
    VIDEOS = ("p9",)

    def __init__(self):
        self._encodes = []

    def begin_round(self) -> None:
        from repro.video.library import clear_cache

        clear_cache()  # every op encodes as well as prepares

    def ops(self, seed: int, rnd: int) -> Iterator[Op]:
        for name in self.VIDEOS:
            yield Op(name, functools.partial(self._prepare, name))

    def _prepare(self, name: str):
        from repro.core.api import prepare_video

        prepared = prepare_video(name, cached=False)
        # Keep every encode alive, as a CLI process does.  The QoE
        # model caches decode contexts by ``id(frames)`` without holding
        # the frames, so a freed encode's addresses, reused by the next
        # one, would be served stale contexts and a wrong manifest.
        self._encodes.append(prepared.video)
        return prepared

    def digest(self, output) -> str:
        return manifest_digest(output)

    def check(self, output) -> None:
        _check_prepared(output)

    def content_s(self, output) -> float:
        return output.video.duration


def _prepare_bbb(goldens) -> tuple:
    """Encode and prepare ``bbb`` into the process cache; check it."""
    from repro.core.api import prepare_video

    prepared = prepare_video("bbb")
    failures = []
    expected = goldens.get("manifests", {}).get("bbb")
    if expected is not None and manifest_digest(prepared) != expected:
        failures.append("setup: bbb manifest differs from its golden")
    return prepared, failures


class SessionSweep(Workload):
    """Single sessions over a figure-style grid on prepared ``bbb``.

    Each (trace, reliability, buffer) group gets its own trace
    realisation, shared by the group's six ABR cells through the trace
    memo as ``repro figure`` shares it.  A round covers the grid three
    times with fresh realisations: 90 realisations keep the round's cost
    from hinging on a few lucky traces, and the median of 540 sessions
    barely moves with the seed.
    """

    name = "session_sweep"
    golden_key = "session_sweep"
    ABRS = ("abr_star", "bola", "bola_ssim", "beta", "tput", "panda")
    TRACES = ("3g", "att", "fcc", "tmobile", "verizon")
    RELIABILITY = ("quic*", "quic")
    BUFFERS = (1, 3, 7)
    PASSES = 3

    def setup(self, goldens) -> List[str]:
        from repro.core.api import stream_spec
        from repro.core.spec import ScenarioSpec

        self.prepared, failures = _prepare_bbb(goldens)
        # A first session of an (ABR, reliability) pair costs up to
        # 2.6x a warm one; users of a sweep pay that once, not per cell.
        for abr in self.ABRS:
            for reliability in self.RELIABILITY:
                stream_spec(
                    ScenarioSpec(video="bbb", abr=abr,
                                 reliability=reliability),
                    prepared=self.prepared,
                )
        return failures

    def begin_round(self) -> None:
        from repro.network.traces import clear_trace_cache

        clear_trace_cache()

    def ops(self, seed: int, rnd: int) -> Iterator[Op]:
        from repro.core.api import stream_spec
        from repro.core.spec import ScenarioSpec
        from repro.network.traces import get_trace

        group = 0
        for _ in range(self.PASSES):
            for trace in self.TRACES:
                for reliability in self.RELIABILITY:
                    for buffer in self.BUFFERS:
                        trace_seed = seed * 100_000 + rnd * 100 + group
                        group += 1
                        for abr in self.ABRS:
                            realisation = get_trace(trace, seed=trace_seed)
                            spec = ScenarioSpec(
                                video="bbb", abr=abr, trace=trace,
                                seed=trace_seed, reliability=reliability,
                                buffer_segments=buffer,
                            )
                            yield Op(
                                f"{abr}|{trace}#{trace_seed}|{reliability}"
                                f"|b{buffer}",
                                functools.partial(
                                    stream_spec, spec,
                                    prepared=self.prepared,
                                    network_trace=realisation,
                                ),
                            )

    def digest(self, output) -> str:
        text = json.dumps(output.metrics.summary(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def check(self, output) -> None:
        metrics = output.metrics
        if len(metrics.records) != output.prepared.video.num_segments:
            raise ValueError(
                f"session played {len(metrics.records)} of "
                f"{output.prepared.video.num_segments} segments"
            )
        for key, value in metrics.summary().items():
            if not math.isfinite(value):
                raise ValueError(f"session summary {key} = {value}")

    def content_s(self, output) -> float:
        return output.prepared.video.duration


class FleetChaos(Workload):
    """64-client fleets under mixed chaos, 8 shards on 2 workers.

    Eight clients per shard leave each about 1.25 Mbps, inside the
    ladder.  The parent prepares ``bbb`` and streams nothing, as
    ``repro fleet`` does, so forked children pay the same lazy warm-up
    CLI users pay.  Fleet seeds are spaced by 16 because a fleet's
    shard ``i`` uses trace seed ``seed + i``: adjacent seeds would
    share seven of eight shard traces.  A round makes four calls: a
    call's wall time hangs on the slowest shard of each wave, so it
    moves with the seed more than its CPU time does.
    """

    name = "fleet_chaos"
    golden_key = "fleet_chaos"
    fans_out = True
    CALLS_PER_ROUND = 4
    CLIENTS = 64
    SHARDS = 8
    WORKERS = 2

    def setup(self, goldens) -> List[str]:
        self.prepared, failures = _prepare_bbb(goldens)
        return failures

    def spec(self, fleet_seed: int):
        from repro.experiments.chaos import CHAOS_PROFILES
        from repro.experiments.fleet import FleetSpec

        return FleetSpec(
            clients=self.CLIENTS, shards=self.SHARDS, trace="verizon",
            seed=fleet_seed, faults=CHAOS_PROFILES["mixed"],
        )

    def op(self, fleet_seed: int, workers: int) -> Op:
        from repro.experiments.fleet import run_fleet

        return Op(f"fleet#{fleet_seed}",
                  functools.partial(run_fleet, self.spec(fleet_seed),
                                    workers=workers))

    def fleet_seed(self, seed: int, rnd: int, i: int) -> int:
        return seed * 100_000 + (rnd * self.CALLS_PER_ROUND + i) * 16

    def ops(self, seed: int, rnd: int) -> Iterator[Op]:
        for i in range(self.CALLS_PER_ROUND):
            yield self.op(self.fleet_seed(seed, rnd, i), self.WORKERS)

    def serial_op(self, seed: int) -> Op:
        """The first op of round 0, run in-process (``workers=1``)."""
        return self.op(self.fleet_seed(seed, 0, 0), workers=1)

    def digest(self, output) -> str:
        return output.fleet_hash()

    def check(self, output) -> None:
        if output.degraded is not None:
            raise ValueError(f"fleet degraded: {output.degraded}")
        if output.clients != self.CLIENTS:
            raise ValueError(f"fleet folded {output.clients} clients")

    def content_s(self, output) -> float:
        return output.clients * self.prepared.video.duration


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PrepCold, SessionSweep, FleetChaos)
}
