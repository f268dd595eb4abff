"""Chaos sweep: named fault profiles against the streaming stack.

The resilience counterpart of :mod:`repro.experiments.sweep`, run on
its cell engine: every cell is one (fault profile x seed) combination —
a :class:`~repro.core.spec.ScenarioSpec` with ``faults`` set — streamed
end to end with the inline invariant auditor attached, so a chaos run
simultaneously measures *graceful degradation* (QoE, stalls, retries,
degraded segments under injected faults) and *correctness* (all trace
invariants — including retry accounting and shared-link conservation —
hold on every cell).

Profiles are plain :class:`~repro.faults.spec.FaultSpec` dicts; the
seeded placement machinery scatters each profile's windows differently
per scenario seed, so a handful of seeds covers faults hitting startup,
steady state, and the tail of the session.

CLI: ``repro faults --profiles blackouts,mixed --seeds 0,1,2
--check-invariants``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import stream_spec
from repro.core.spec import ScenarioSpec
from repro.experiments.execution import ExecutionPolicy
from repro.experiments.sweep import _run_cells
from repro.faults import FAULTS
from repro.obs.invariants import TraceAuditor
from repro.obs.tracer import Tracer
from repro.prep.prepare import PreparedVideo

#: Named fault schedules for chaos runs.  Each value is a FaultSpec
#: dict; counts/durations are sized for a few-minute session.
CHAOS_PROFILES: Dict[str, Dict] = {
    "blackouts": {"events": [
        {"kind": "blackout", "count": 2, "duration": 3.0},
    ]},
    "cliffs": {"events": [
        {"kind": "bandwidth_cliff", "count": 2, "factor": 0.1,
         "duration": 8.0},
    ]},
    "spikes": {"events": [
        {"kind": "rtt_spike", "count": 3, "extra": 0.25, "duration": 2.0},
    ]},
    "loss": {"events": [
        {"kind": "loss_burst", "count": 2, "rate": 0.25, "duration": 3.0},
    ]},
    "resets": {"events": [
        {"kind": "reset", "count": 3},
    ]},
    "stalls": {"events": [
        {"kind": "server_stall", "count": 2, "delay": 1.5,
         "duration": 4.0},
    ]},
    "mixed": {"events": [
        {"kind": "blackout", "count": 1, "duration": 3.0},
        {"kind": "reset", "count": 2},
        {"kind": "loss_burst", "count": 1, "rate": 0.2, "duration": 3.0},
        {"kind": "rtt_spike", "count": 1, "extra": 0.25, "duration": 2.0},
        {"kind": "server_stall", "count": 1, "delay": 1.5,
         "duration": 4.0},
    ]},
}

#: Spec fields every chaos cell starts from (overridable via ``base``).
DEFAULT_BASE: Dict = {
    "video": "bbb",
    "abr": "abr_star",
    "trace": "verizon",
    "request_timeout_s": 3.0,
    "retry_budget": 3,
}


def chaos_cells(
    profiles: Sequence[str],
    seeds: Sequence[int],
    base: Optional[Dict] = None,
) -> List[Tuple[str, ScenarioSpec]]:
    """Expand (profile x seed) into concrete scenario cells.

    Deterministic expansion order: profiles outermost, seeds inner —
    mirroring the sweep engine, so any worker count folds results
    identically.
    """
    fields = dict(DEFAULT_BASE)
    fields.update(base or {})
    cells: List[Tuple[str, ScenarioSpec]] = []
    for profile in profiles:
        if profile not in CHAOS_PROFILES:
            raise KeyError(
                f"unknown chaos profile {profile!r}; known: "
                f"{', '.join(sorted(CHAOS_PROFILES))}"
            )
        for seed in seeds:
            cell = dict(fields)
            cell["faults"] = CHAOS_PROFILES[profile]
            cell["seed"] = int(seed)
            cells.append((profile, ScenarioSpec.from_dict(cell)))
    return cells


def _audited_cell(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo],
    observers: List,
) -> Dict:
    """A chaos cell's body: one session streamed under the auditor."""
    auditor = TraceAuditor()
    tracer = Tracer(observers=[auditor.feed, *observers])
    result = stream_spec(spec, prepared=prepared, tracer=tracer)
    report = auditor.finalize()
    return {
        "summary": result.metrics.summary(),
        "audit": {
            "ok": report.ok,
            "events": report.events,
            "violations": [str(v) for v in report.violations],
        },
    }


def run_chaos(
    profiles: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    base: Optional[Dict] = None,
    workers: int = 1,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    rollup: bool = False,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    strict: bool = True,
) -> List[Dict]:
    """Execute a chaos sweep; one audited result row per cell.

    Cells run on the sweep's cell engine
    (:func:`~repro.experiments.sweep._run_cells`), so every knob below
    behaves exactly as in :func:`~repro.experiments.sweep.run_sweep`.

    Args:
        profiles: names from :data:`CHAOS_PROFILES` (default: all, in
            sorted order).
        seeds: scenario seeds — each scatters the profile's windows
            differently across the session.
        base: :class:`ScenarioSpec` field overrides layered over
            :data:`DEFAULT_BASE` (e.g. a different video or backend).
        workers: worker processes across cells; results fold in
            expansion order, so any worker count is byte-identical.
        prepared_map: ``video name -> PreparedVideo`` overriding the
            catalog (fixtures, benchmarks).
        rollup: attach a streaming rollup + causal attributor per cell;
            rows gain ``rollup`` and ``attribution`` keys (the default
            row content stays byte-identical).
        sample_rate: per-session head-sampling rate for the rollups.
        sample_seed: seed of the sampling hash.
        policy: supervision knobs (per-cell deadline, retry budget,
            backoff) for the resilient pool.
        checkpoint_dir: crash-safe spool directory; completed cell rows
            are spooled atomically and folded from disk on a re-run.
        strict: raise :class:`~repro.experiments.execution.ExecutionError`
            when a cell exhausts its retry budget; ``strict=False``
            yields ``degraded`` rows (profile, seed, attempts, causes)
            for the failed cells instead.

    Returns:
        One row per cell with the spec, its summary (including the
        resilience counters), and the invariant audit verdict; under an
        installed profiler, also a ``ledger`` (same shape as sweep
        ledgers).
    """
    if profiles is None:
        profiles = sorted(CHAOS_PROFILES)
    cells = chaos_cells(profiles, seeds, base)
    return _run_cells(
        [spec for _, spec in cells], _audited_cell, kind="chaos",
        identities=[
            {
                "spec_hash": spec.spec_hash(),
                "label": spec.label(),
                "profile": name,
                "seed": spec.seed,
                "spec": spec.to_dict(),
            }
            for name, spec in cells
        ],
        labels=[f"cell {name}/seed{spec.seed}" for name, spec in cells],
        workers=workers, prepared_map=prepared_map, rollup=rollup,
        sample_rate=sample_rate, sample_seed=sample_seed,
        policy=policy, checkpoint_dir=checkpoint_dir, strict=strict,
    )


def format_chaos_report(rows: Sequence[Dict]) -> str:
    """Human-readable chaos outcome: one line per cell plus a verdict."""
    lines = []
    bad = 0
    missing = 0
    for row in rows:
        if "degraded" in row:
            missing += 1
            block = row["degraded"]
            lines.append(
                f"{row['profile']:<10} seed {row['seed']:<3} "
                f"MISSING after {block['attempts']} attempt(s): "
                f"{', '.join(block['causes'])}"
            )
            continue
        s = row["summary"]
        audit = row["audit"]
        status = "ok" if audit["ok"] else "AUDIT-FAIL"
        if not audit["ok"]:
            bad += 1
        lines.append(
            f"{row['profile']:<10} seed {row['seed']:<3} "
            f"ssim {s['mean_ssim']:.3f}  bufRatio {s['buf_ratio']:.3f}  "
            f"timeouts {int(s.get('request_timeouts', 0))}  "
            f"resets {int(s.get('connection_resets', 0))}  "
            f"retries {int(s.get('retries', 0))}  "
            f"degraded {int(s.get('degraded_segments', 0))}  [{status}]"
        )
        for violation in audit["violations"]:
            lines.append(f"    {violation}")
    verdict = (
        f"{len(rows)} cells, {len(rows) - bad - missing} audits clean"
        + (f", {bad} FAILED" if bad else "")
        + (f", {missing} MISSING (degraded run)" if missing else "")
    )
    lines.append(verdict)
    return "\n".join(lines)


__all__ = [
    "CHAOS_PROFILES",
    "DEFAULT_BASE",
    "chaos_cells",
    "format_chaos_report",
    "run_chaos",
    "FAULTS",
]
