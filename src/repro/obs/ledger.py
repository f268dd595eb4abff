"""Perf ledger: the artifact a ``repro profile`` run emits.

A ledger is the JSON summary of one profiled workload: per-subsystem
self/cumulative wall-time attribution, simulated-seconds-per-wall-second
throughput, top-N hotspots, the full span tree, and a ``deterministic``
block (sim-plane tree + sha256) that is byte-identical across runs and
worker counts — wall-time fields never enter the hashed view.

Builders here; ``repro diff`` (:mod:`repro.obs.diff`), the one
comparator of perf files, reads two ledgers and attributes their
wall-time delta to subsystems.  The ``meta`` block is the run stamp
bench payloads carry too (:func:`repro.obs.bench.run_stamp`).  The
collapsed-stack export (:func:`collapsed_stacks`) renders
``a;b;c <self-microseconds>`` lines, the format both ``flamegraph.pl``
and speedscope import.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import spans
from repro.obs.bench import run_stamp
from repro.obs.spans import SpanProfiler

LEDGER_SCHEMA_VERSION = 1


def profile_trials(
    spec,
    prepared=None,
    workers: int = 1,
):
    """Run a :class:`~repro.core.spec.ScenarioSpec`'s repetitions under
    a fresh span profiler.

    Returns ``(profiler, summary, wall_s)`` — the folded profiler (rep
    trees merged in repetition order by the runner), the
    :class:`~repro.experiments.runner.TrialSummary`, and the run's wall
    time.  The video is prepared before the wall clock starts, so the
    ledger's throughput figure measures simulation, not one-time
    offline analysis.
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

    ``wall_s`` is the whole run's wall time (span bookkeeping included),
    so subsystem shares are reported against the time actually covered
    by spans, and throughput against the run.
    """
    table = profiler.subsystem_table()
    total_self = sum(e["self_wall_s"] for e in table.values())
    subsystems = {}
    for name, entry in table.items():
        subsystems[name] = {
            "self_wall_s": entry["self_wall_s"],
            "self_pct": (
                100.0 * entry["self_wall_s"] / total_self
                if total_self > 0 else 0.0
            ),
            "wall_s": entry["wall_s"],
            "sim_s": entry["sim_s"],
            "count": entry["count"],
        }
    sim_s = profiler.total_sim_s
    ledger = {
        "ledger_version": LEDGER_SCHEMA_VERSION,
        "label": label,
        "spec": spec,
        "spec_hash": spec_hash,
        "wall_s": wall_s,
        "sim_s": sim_s,
        "sim_s_per_wall_s": sim_s / wall_s if wall_s > 0 else 0.0,
        "spans": profiler.total_spans,
        "span_nodes": profiler.node_count,
        "subsystems": subsystems,
        "hotspots": profiler.hotspots(top),
        "tree": profiler.to_dict(),
        "deterministic": {
            "tree": profiler.to_dict(deterministic=True),
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
        payload = json.load(handle)
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
    """Collapsed-stack export from a ledger's span tree.

    One ``path;to;span <self-microseconds>`` line per tree node with
    nonzero self time — directly consumable by speedscope or
    ``flamegraph.pl``.
    """
    lines: List[str] = []

    def visit(name: str, node: Dict, path: Tuple[str, ...]) -> None:
        path = path + (name,)
        micros = int(round(float(node.get("self_wall_s", 0.0)) * 1e6))
        if micros > 0:
            lines.append(";".join(path) + f" {micros}")
        for child_name in sorted(node.get("children", {})):
            visit(child_name, node["children"][child_name], path)

    root = ledger.get("tree", {}).get("tree", {})
    for child_name in sorted(root.get("children", {})):
        visit(child_name, root["children"][child_name], ())
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
    lines.append(f"wall time     {wall:.3f} s")
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
    lines.append("--- subsystems (self time) ---")
    header = (
        f"{'subsystem':<12s} {'self':>10s} {'self%':>7s} "
        f"{'cumulative':>11s} {'sim':>10s} {'count':>10s}"
    )
    lines.append(header)
    table = ledger.get("subsystems", {})
    for name in sorted(
        table, key=lambda n: (-table[n]["self_wall_s"], n)
    ):
        entry = table[name]
        lines.append(
            f"{name:<12s} {entry['self_wall_s']:>9.4f}s "
            f"{entry['self_pct']:>6.1f}% {entry['wall_s']:>10.4f}s "
            f"{entry['sim_s']:>9.2f}s {entry['count']:>10d}"
        )
    hotspots = ledger.get("hotspots", [])
    if hotspots:
        lines.append("")
        lines.append(f"--- hotspots (top {min(top, len(hotspots))}) ---")
        for spot in hotspots[:top]:
            lines.append(
                f"{spot['self_wall_s']:>9.4f}s  {spot['count']:>9d}x  "
                f"[{spot['subsystem']}] {spot['path']}"
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
