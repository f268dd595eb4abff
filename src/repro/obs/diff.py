"""``repro diff``: the one comparator of perf ledgers.

Compares two perf ledgers (the artifact ``repro profile`` writes) and
attributes the wall-time delta to subsystems by diffing the ledgers'
sampled CPU self-time tables.  The report — markdown and ``--json``
alike — names the subsystem whose self time grew the most: the prime
suspect.  A failed verdict exits 1, which makes ``repro diff BASE CUR
--threshold T`` the perf gate.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.ledger import load_ledger


def diff_ledgers(
    baseline: Dict,
    current: Dict,
    threshold_pct: float = 10.0,
) -> Dict[str, object]:
    """Diff two perf ledgers: totals, throughput, subsystem deltas.

    Fails (``failed=True``) when total wall time grew by at least
    ``threshold_pct`` percent.  ``top`` names the subsystem whose
    sampled self time grew the most.  ``unattributed_s`` is the share
    of the wall delta not explained by sampled CPU self time (waiting,
    sampling error) — a large value means the samples miss the
    regression, which is itself a finding.
    """
    if threshold_pct <= 0:
        raise ValueError("threshold must be positive")
    base_wall = float(baseline.get("wall_s", 0.0))
    cur_wall = float(current.get("wall_s", 0.0))
    wall_delta = cur_wall - base_wall
    wall_pct = wall_delta / base_wall * 100.0 if base_wall > 0 else 0.0
    base_table = baseline.get("subsystems", {})
    cur_table = current.get("subsystems", {})
    table: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(base_table) | set(cur_table)):
        b = float((base_table.get(name) or {}).get("self_s", 0.0))
        c = float((cur_table.get(name) or {}).get("self_s", 0.0))
        table[name] = {
            "baseline_s": b,
            "current_s": c,
            "delta_s": c - b,
            "delta_pct": (c - b) / b * 100.0 if b > 0 else 0.0,
        }
    top = max(
        table, key=lambda n: (table[n]["delta_s"], n), default=None
    )
    attributed = sum(entry["delta_s"] for entry in table.values())
    return {
        "kind": "ledger",
        "threshold_pct": float(threshold_pct),
        "failed": wall_pct >= threshold_pct,
        "baseline": {
            "label": baseline.get("label", ""),
            "wall_s": base_wall,
            "sim_s_per_wall_s": float(
                baseline.get("sim_s_per_wall_s", 0.0)
            ),
        },
        "current": {
            "label": current.get("label", ""),
            "wall_s": cur_wall,
            "sim_s_per_wall_s": float(
                current.get("sim_s_per_wall_s", 0.0)
            ),
        },
        "wall_delta_s": wall_delta,
        "wall_delta_pct": wall_pct,
        "subsystems": table,
        "top": top,
        "top_delta_s": table[top]["delta_s"] if top else 0.0,
        "unattributed_s": wall_delta - attributed,
    }


def diff_files(
    baseline_path: str,
    current_path: str,
    threshold_pct: float = 10.0,
) -> Dict[str, object]:
    """Load and diff two perf ledger files."""
    result = diff_ledgers(
        load_ledger(baseline_path), load_ledger(current_path),
        threshold_pct,
    )
    result["baseline_path"] = baseline_path
    result["current_path"] = current_path
    return result


def format_diff(result: Dict[str, object]) -> str:
    """Markdown report of a perf ledger diff."""
    base = result["baseline"]
    cur = result["current"]
    lines = [
        "## Perf diff",
        "",
        f"`{result.get('baseline_path', 'baseline')}` → "
        f"`{result.get('current_path', 'current')}` "
        f"(threshold {float(result['threshold_pct']):g}%)",
        "",
        f"Wall time {base['wall_s']:.3f}s → {cur['wall_s']:.3f}s "
        f"({float(result['wall_delta_pct']):+.1f}%); throughput "
        f"{base['sim_s_per_wall_s']:.1f} → "
        f"{cur['sim_s_per_wall_s']:.1f} sim-s/wall-s.",
    ]
    table = result["subsystems"]
    if table:
        lines.append("")
        lines.append("| subsystem | baseline | current | delta |")
        lines.append("|---|---:|---:|---:|")
        for name in sorted(
            table, key=lambda n: (-abs(table[n]["delta_s"]), n)
        ):
            entry = table[name]
            lines.append(
                f"| {name} | {entry['baseline_s']:.4f}s "
                f"| {entry['current_s']:.4f}s "
                f"| {entry['delta_s']:+.4f}s |"
            )
    top = result["top"]
    if top:
        lines.append("")
        lines.append(
            f"**Attribution:** the largest subsystem delta is `{top}` "
            f"({float(result['top_delta_s']):+.4f}s sampled self time)."
        )
    lines.append(
        f"Unattributed delta: {float(result['unattributed_s']):+.4f}s "
        "(outside sampled self time)."
    )
    lines.append("")
    if result["failed"]:
        lines.append("**Verdict: FAIL** — regression above threshold.")
    else:
        lines.append("**Verdict: ok** — no regression above threshold.")
    return "\n".join(lines)


__all__ = [
    "diff_files",
    "diff_ledgers",
    "format_diff",
]
