"""Perf ledger: the artifact a ``repro profile`` run emits.

A ledger is the JSON summary of one profiled workload
(:mod:`repro.obs.spans`):

* ``subsystems`` — per subsystem, the sampled CPU time (``self_s``,
  ``self_pct``, cumulative ``cum_s``, self ``samples``) beside the
  span tree's simulated seconds (``sim_s``) and span visits
  (``count``); only subsystems with samples or spans are listed;
* ``samples`` and ``cpu_s`` — the sample count and the sampled CPU
  seconds; a share ``p`` read from ``n`` samples is good to about
  ±√(p(1−p)/n);
* ``hotspots`` — the top sampled functions by self time, and
  ``stacks`` — ``[samples, seconds]`` per collapsed stack;
* ``wall_s``, ``sim_s`` and their ratio, the run's throughput;
* ``deterministic`` — the span tree and its sha256, byte-identical
  across runs and worker counts (samples never enter it).

Builders here; ``repro diff`` (:mod:`repro.obs.diff`) reads two
ledgers and attributes their wall-time delta to subsystems.  The
``meta`` block is the run stamp (:func:`run_stamp`).  The
collapsed-stack export (:func:`collapsed_stacks`) renders the sampled
stacks as ``a;b;c <microseconds>`` lines, the format both
``flamegraph.pl`` and speedscope import.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Dict, List, Optional

from repro.obs import spans
from repro.obs.spans import SpanProfiler

#: Version 2: subsystem times are sampled CPU seconds (version 1 held
#: probe wall time).
LEDGER_SCHEMA_VERSION = 2


def run_stamp() -> Dict[str, Optional[str]]:
    """``{python, platform, git_sha}`` of this run.

    Stamped as ``meta`` into perf ledgers, so archived results are
    traceable to the exact code that produced them.  ``git_sha`` is the
    HEAD of the source tree containing this module (not the caller's
    cwd), or None outside a git checkout.
    """
    import subprocess

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def profile_trials(
    spec,
    prepared=None,
    workers: int = 1,
):
    """Run a :class:`~repro.core.spec.ScenarioSpec`'s repetitions under
    a fresh profiler.

    Returns ``(profiler, summary, wall_s)`` — the folded profiler (rep
    profilers merged in repetition order by the runner), the
    :class:`~repro.experiments.runner.TrialSummary`, and the run's wall
    time.  The video is prepared before the profiler starts, so the
    ledger measures simulation, not one-time offline analysis.
    """
    from repro.experiments.runner import run_trials

    if prepared is None:
        from repro.prep.prepare import get_prepared

        prepared = get_prepared(spec.video)
    with spans.profiled() as profiler:
        t0 = time.perf_counter()
        summary = run_trials(spec, prepared=prepared, workers=workers)
    wall_s = max(time.perf_counter() - t0, 1e-9)
    return profiler, summary, wall_s


def build_ledger(
    profiler: SpanProfiler,
    wall_s: float,
    label: str = "",
    spec: Optional[Dict] = None,
    spec_hash: Optional[str] = None,
    top: int = 12,
    meta: bool = True,
) -> Dict:
    """Assemble the ledger dict from a folded profiler.

    ``wall_s`` is the whole run's wall time; subsystem shares are
    reported against the sampled CPU time.
    """
    table = profiler.subsystem_table()
    cpu_s = profiler.cpu_s
    subsystems = {
        name: dict(
            entry,
            self_pct=100.0 * entry["self_s"] / cpu_s if cpu_s > 0 else 0.0,
        )
        for name, entry in table.items()
    }
    sim_s = profiler.total_sim_s
    ledger = {
        "ledger_version": LEDGER_SCHEMA_VERSION,
        "label": label,
        "spec": spec,
        "spec_hash": spec_hash,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "samples": profiler.sample_count,
        "sim_s": sim_s,
        "sim_s_per_wall_s": sim_s / wall_s if wall_s > 0 else 0.0,
        "spans": profiler.total_spans,
        "span_nodes": profiler.node_count,
        "subsystems": subsystems,
        "hotspots": profiler.hotspots(top),
        "stacks": profiler.to_dict()["samples"],
        "deterministic": {
            "tree": profiler.tree_dict(),
            "hash": profiler.tree_hash(),
        },
    }
    if meta:
        ledger["meta"] = run_stamp()
    return ledger


def write_ledger(path: str, ledger: Dict) -> None:
    from repro.ioutil import atomic_write_json

    atomic_write_json(path, ledger)


def load_ledger(path: str) -> Dict:
    """Load and sanity-check a ledger file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: unparseable JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a perf ledger (expected an object)")
    version = payload.get("ledger_version")
    if version != LEDGER_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported ledger_version {version!r} "
            f"(expected {LEDGER_SCHEMA_VERSION})"
        )
    for key in ("wall_s", "subsystems"):
        if key not in payload:
            raise ValueError(f"{path}: ledger is missing {key!r}")
    return payload


def collapsed_stacks(ledger: Dict) -> str:
    """Collapsed-stack export of a ledger's sampled stacks.

    One ``outer;...;inner <microseconds>`` line per sampled stack with
    nonzero CPU time, outermost frame first — directly consumable by
    speedscope or ``flamegraph.pl``.
    """
    lines: List[str] = []
    for path, (_, seconds) in sorted(ledger.get("stacks", {}).items()):
        micros = int(round(float(seconds) * 1e6))
        if micros > 0:
            lines.append(f"{path} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_ledger(ledger: Dict, top: int = 10) -> str:
    """Human-readable ledger: subsystem table + hotspots + throughput."""
    lines = ["=== perf ledger ==="]
    if ledger.get("label"):
        lines.append(f"workload      {ledger['label']}")
    if ledger.get("spec_hash"):
        lines.append(f"spec_hash     {ledger['spec_hash']}")
    wall = float(ledger.get("wall_s", 0.0))
    sim = float(ledger.get("sim_s", 0.0))
    samples = int(ledger.get("samples", 0))
    lines.append(f"wall time     {wall:.3f} s")
    # The worst-case error of a share: ±√(p(1−p)/n) at p = 1/2.
    error = 50.0 / math.sqrt(samples) if samples else 100.0
    lines.append(
        f"cpu sampled   {float(ledger.get('cpu_s', 0.0)):.3f} s in "
        f"{samples} samples (shares within ±{error:.1f} points)"
    )
    lines.append(f"sim time      {sim:.3f} s")
    lines.append(
        f"throughput    {float(ledger.get('sim_s_per_wall_s', 0.0)):.1f} "
        "sim-seconds per wall-second"
    )
    lines.append(
        f"spans         {ledger.get('spans', 0)} "
        f"({ledger.get('span_nodes', 0)} tree nodes)"
    )
    det = ledger.get("deterministic", {})
    if det.get("hash"):
        lines.append(f"tree sha256   {det['hash']}")
    lines.append("")
    lines.append("--- subsystems (sampled CPU self time) ---")
    header = (
        f"{'subsystem':<12s} {'self':>10s} {'self%':>7s} "
        f"{'cumulative':>11s} {'samples':>8s} {'sim':>10s} "
        f"{'spans':>8s}"
    )
    lines.append(header)
    table = ledger.get("subsystems", {})
    for name in sorted(table, key=lambda n: (-table[n]["self_s"], n)):
        entry = table[name]
        lines.append(
            f"{name:<12s} {entry['self_s']:>9.4f}s "
            f"{entry['self_pct']:>6.1f}% {entry['cum_s']:>10.4f}s "
            f"{entry['samples']:>8d} {entry['sim_s']:>9.2f}s "
            f"{entry['count']:>8d}"
        )
    hotspots = ledger.get("hotspots", [])
    if hotspots:
        lines.append("")
        lines.append(f"--- hotspots (top {min(top, len(hotspots))}) ---")
        for spot in hotspots[:top]:
            lines.append(
                f"{spot['self_s']:>9.4f}s  {spot['samples']:>6d}x  "
                f"[{spot['subsystem']}] {spot['function']}"
            )
    return "\n".join(lines)


__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "build_ledger",
    "collapsed_stacks",
    "format_ledger",
    "load_ledger",
    "profile_trials",
    "write_ledger",
]
