"""`ScenarioSpec`: one frozen, hashable cell of the evaluation space.

The paper's evaluation is a grid — {videos} x {ABRs} x {traces} x
{buffer sizes} x {QUIC, QUIC*} (§5) — and every experiment in this repo
is one point of that grid.  A :class:`ScenarioSpec` is the declarative,
JSON-serializable description of such a point: which video, which ABR
(with kwargs), which trace (with seed and shift), which transport
backend and reliability mode, and every session knob.

Specs are *frozen* and carry a **stable content hash**
(:meth:`ScenarioSpec.spec_hash`): the SHA-256 of the canonical JSON
serialization, independent of process, platform, and
``PYTHONHASHSEED``.  The hash keys sweep output rows and is stamped
into the trace header (``session_start.spec_hash``), so any recorded
artifact is traceable to its exact configuration.

Construction paths:

* ``ScenarioSpec(video="bbb", abr="bola", ...)`` in code,
* :meth:`ScenarioSpec.from_dict` / :meth:`from_json` for sweep files
  (unknown keys are rejected with a clear error),
* :meth:`ScenarioSpec.with_` for variants of a base scenario (the
  runner's ``compare``, sweep cells, fleet clients).

It is the only scenario type: the runner, sweeps, chaos cells and
multi-client shards all take specs.

The :class:`~repro.core.build.StackBuilder` turns a spec into a ready
:class:`~repro.player.session.StreamingSession`, which reads its player
and transport knobs from the spec itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.faults.spec import FaultSpec
from repro.qoe.metrics import METRICS, QoEMetric

#: Reliability modes: transport flavour x payload-reliability ablation.
#: "quic*" is VOXEL's partially reliable transport; "quic" is the plain
#: baseline; the "-rel" variants force the payload onto reliable streams
#: (the "VOXEL rel" ablation of §D).
RELIABILITY_MODES = ("quic*", "quic", "quic*-rel", "quic-rel")

#: Manifest fetch at session start (§4.1): "free" ignores the manifest's
#: cost (both systems of a pure-ABR comparison would pay it), "full"
#: downloads the whole VOXEL-enriched manifest before playback, and
#: "incremental" models DASH's MPD updates: only a window of metadata
#: gates startup.
MANIFEST_FETCH_MODES = ("free", "incremental", "full")


def _encode_value(value):
    """JSON-encode one spec value (QoE metric objects go by name)."""
    if isinstance(value, QoEMetric):
        return {"__qoe_metric__": value.name}
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value):
    if isinstance(value, dict):
        if set(value) == {"__qoe_metric__"}:
            return METRICS[value["__qoe_metric__"]]
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified streaming scenario (frozen, JSON-round-trippable).

    Component names (``abr``, ``trace``, ``backend``) are resolved
    against the registries at build time, so a spec can name components
    registered after the spec was written.
    """

    # What to stream and how to adapt.
    video: str = "bbb"
    abr: str = "abr_star"
    abr_kwargs: Dict = field(default_factory=dict)
    # The network underneath.
    trace: str = "verizon"
    seed: int = 0
    trace_shift_s: float = 0.0
    trace_kwargs: Dict = field(default_factory=dict)
    cross_traffic_mbps: Optional[float] = None
    link_mbps_under_cross: float = 20.0
    # Transport flavour: "round" is the fast per-RTT model, "packet"
    # the event-driven per-packet backend that validates it.
    backend: str = "round"  # transport backend registry key
    reliability: str = "quic*"  # see RELIABILITY_MODES
    # Player / session knobs, read by the session itself.
    buffer_segments: int = 3
    queue_packets: Optional[int] = 32
    base_rtt: float = 0.060
    selective_retransmission: bool = True
    retx_buffer_threshold: float = 0.5
    manifest_fetch: str = "free"  # see MANIFEST_FETCH_MODES
    manifest_window_segments: int = 4
    # Kept for the canonical JSON (every spec hash includes it); only
    # "ssim" is accepted, since sessions score SSIM whatever ABR* optimizes.
    metric: str = "ssim"
    server_voxel_aware: bool = True
    client_voxel_aware: bool = True
    # Evaluation protocol: repetitions with per-repetition trace shifts
    # (the paper's d/reps linear-shift protocol).
    repetitions: int = 1
    # Fault injection + client resilience.  All of these (and
    # ``trace_kwargs`` above) are omitted from the canonical JSON at
    # their defaults so pre-existing spec hashes stay unchanged.
    faults: Optional[Dict] = None
    request_timeout_s: Optional[float] = None
    retry_budget: int = 3
    retry_backoff_s: float = 0.5

    def __post_init__(self):
        if self.reliability not in RELIABILITY_MODES:
            raise ValueError(
                f"unknown reliability mode {self.reliability!r}; known: "
                f"{', '.join(RELIABILITY_MODES)}"
            )
        if not isinstance(self.metric, str) or self.metric.lower() != "ssim":
            raise ValueError(
                f"sessions are scored on SSIM, not {self.metric!r}: choose "
                "ABR*'s optimization metric with abr_kwargs={'metric': ...}"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.buffer_segments < 1:
            raise ValueError(
                f"buffer_segments must be >= 1, got {self.buffer_segments}"
            )
        if self.manifest_fetch not in MANIFEST_FETCH_MODES:
            raise ValueError(
                f"unknown manifest_fetch mode {self.manifest_fetch!r}; "
                f"known: {', '.join(MANIFEST_FETCH_MODES)}"
            )
        if self.faults is not None:
            # Structural validation only; injector kinds are checked
            # against the FAULTS registry by StackBuilder.validate.
            FaultSpec.from_dict(self.faults)
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0 when set")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")

    # ------------------------------------------------------------------
    @property
    def partially_reliable(self) -> bool:
        return self.reliability.startswith("quic*")

    @property
    def force_reliable_payload(self) -> bool:
        return self.reliability.endswith("-rel")

    def fault_spec(self) -> Optional[FaultSpec]:
        """The typed fault schedule, or None when faults are absent."""
        if self.faults is None:
            return None
        spec = FaultSpec.from_dict(self.faults)
        return None if spec.empty else spec

    def label(self) -> str:
        pr = "Q*" if self.partially_reliable else "Q"
        suffix = "+faults" if self.fault_spec() is not None else ""
        return (
            f"{self.video}/{self.abr}/{pr}/{self.trace}"
            f"/buf{self.buffer_segments}/{self.backend}{suffix}"
        )

    # ------------------------------------------------------------------
    #: Fields added after the hash format froze: omitted from the
    #: canonical JSON (and therefore the spec hash) while at their
    #: default, so scenarios that don't use them keep their pre-existing
    #: hashes.  ``faults`` additionally treats an empty event list as
    #: absent.
    _HASH_NEUTRAL_DEFAULTS = {
        "trace_kwargs": {},
        "faults": None,
        "request_timeout_s": None,
        "retry_budget": 3,
        "retry_backoff_s": 0.5,
    }

    def to_dict(self) -> Dict:
        """Plain JSON-ready dict (QoE metric objects encoded by name)."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._HASH_NEUTRAL_DEFAULTS:
                if value == self._HASH_NEUTRAL_DEFAULTS[f.name]:
                    continue
                if f.name == "faults" and self.fault_spec() is None:
                    continue
            data[f.name] = _encode_value(value)
        return data

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        """Build a spec from a mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ValueError(
                f"scenario spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s) {unknown}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**{k: _decode_value(v) for k, v in data.items()})

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """Stable 12-hex-digit content hash of the canonical JSON.

        Identical across processes and platforms: the serialization
        sorts keys and never touches Python's randomized ``hash()``.
        """
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:12]

    def __hash__(self) -> int:  # abr_kwargs is a dict; hash by content
        return hash(self.spec_hash())

    def with_(self, **overrides) -> "ScenarioSpec":
        """A copy with fields replaced (frozen-dataclass convenience)."""
        return replace(self, **overrides)
