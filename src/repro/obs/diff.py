"""``repro diff``: the one comparator of perf files.

Compares two ``BENCH_*.json`` payloads or two perf ledgers (the
artifact ``repro profile`` writes) and attributes the wall-time delta
to subsystems.  Bench mode gives every benchmark a verdict and reads
the attribution off the ``macro.spans`` benchmark's subsystem table;
ledger mode diffs the ledgers' subsystem self-time tables directly.
Either way the report — markdown and ``--json`` alike — names the
subsystem whose self time grew the most: the prime suspect.  A failed
verdict exits 1, which makes ``repro diff BASE CUR --threshold T`` the
perf gate.

The file kind is sniffed from the payload (``ledger_version`` vs
``schema_version``/``benchmarks``), so ``repro diff A B`` needs no
format flag; mixing kinds is an error.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.bench import BENCH_SCHEMA_VERSION
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, load_ledger


class PerfDiffFormatError(ValueError):
    """A perf file is neither a bench payload nor a perf ledger."""


def _check_bench(path: str, payload: Dict) -> None:
    """Schema-check a bench payload, naming the first flaw found."""
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise PerfDiffFormatError(
            f"{path}: unsupported bench schema version {version!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise PerfDiffFormatError(
            f"{path}: bench payload has no 'benchmarks' map"
        )
    for name, stats in benchmarks.items():
        if not isinstance(stats, dict) or "wall_s" not in stats:
            raise PerfDiffFormatError(
                f"{path}: benchmark {name!r} has no 'wall_s'"
            )


def load_perf_file(path: str) -> Tuple[str, Dict]:
    """Load a perf file, sniffing its kind.

    Returns ``("bench", payload)`` or ``("ledger", payload)``; raises
    :class:`PerfDiffFormatError` for anything else.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise PerfDiffFormatError(f"{path}: unparseable JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise PerfDiffFormatError(f"{path}: not a JSON object")
    if "ledger_version" in raw:
        try:
            return "ledger", load_ledger(path)
        except ValueError as exc:
            raise PerfDiffFormatError(str(exc)) from None
    if "benchmarks" in raw or "schema_version" in raw:
        _check_bench(path, raw)
        return "bench", raw
    raise PerfDiffFormatError(
        f"{path}: neither a bench payload (schema_version/benchmarks) "
        f"nor a perf ledger (ledger_version {LEDGER_SCHEMA_VERSION})"
    )


def _subsystem_deltas(
    base: Dict[str, float],
    cur: Dict[str, float],
) -> Dict[str, object]:
    """Per-subsystem self-time deltas and the prime suspect.

    ``base`` and ``cur`` map subsystem names to self wall seconds;
    ``top`` names the subsystem whose self time grew the most.
    """
    table: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(base) | set(cur)):
        b = float(base.get(name, 0.0))
        c = float(cur.get(name, 0.0))
        table[name] = {"baseline_s": b, "current_s": c, "delta_s": c - b}
    top = max(
        table, key=lambda n: (table[n]["delta_s"], n), default=None
    )
    return {
        "subsystems": table,
        "top": top,
        "top_delta_s": table[top]["delta_s"] if top else 0.0,
    }


def _self_times(subsystems: Dict[str, Dict]) -> Dict[str, float]:
    return {
        name: (entry or {}).get("self_wall_s", 0.0)
        for name, entry in subsystems.items()
    }


def diff_ledgers(
    baseline: Dict,
    current: Dict,
    threshold_pct: float = 10.0,
) -> Dict[str, object]:
    """Diff two perf ledgers: totals, throughput, subsystem deltas.

    Fails (``failed=True``) when total wall time grew by at least
    ``threshold_pct`` percent.  ``unattributed_s`` is the share of the
    wall delta not explained by span self time (interpreter overhead,
    unspanned code) — a large value means the profiler is missing the
    regression, which is itself a finding.
    """
    if threshold_pct <= 0:
        raise ValueError("threshold must be positive")
    base_wall = float(baseline.get("wall_s", 0.0))
    cur_wall = float(current.get("wall_s", 0.0))
    wall_delta = cur_wall - base_wall
    wall_pct = wall_delta / base_wall * 100.0 if base_wall > 0 else 0.0
    attribution = _subsystem_deltas(
        _self_times(baseline.get("subsystems", {})),
        _self_times(current.get("subsystems", {})),
    )
    table = attribution["subsystems"]
    for entry in table.values():
        b = entry["baseline_s"]
        entry["delta_pct"] = entry["delta_s"] / b * 100.0 if b > 0 else 0.0
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
        **attribution,
        "unattributed_s": wall_delta - attributed,
    }


def diff_bench(
    baseline: Dict,
    current: Dict,
    threshold_pct: float = 10.0,
) -> Dict[str, object]:
    """Diff two bench payloads benchmark by benchmark.

    A benchmark regresses when its wall time grows by at least
    ``threshold_pct`` percent over the baseline.  Benchmarks only in the
    baseline are ``missing`` (a failure, so deleting a benchmark cannot
    hide its regression); benchmarks only in the current run are
    ``new`` (informational).  A current benchmark carrying a falsy
    ``audit_ok`` (the resilience macro audits its own trace) is
    ``broken`` — a correctness failure that gates regardless of speed.
    The subsystem attribution rides in from ``macro.spans`` when both
    payloads carry its flat ``subsystems`` table (``{name:
    self_wall_s}``).
    """
    if threshold_pct <= 0:
        raise ValueError("threshold must be positive")
    base_marks: Dict[str, Dict] = baseline["benchmarks"]
    cur_marks: Dict[str, Dict] = current["benchmarks"]
    rows: List[Dict[str, object]] = []
    counts: Dict[str, int] = {}
    for name in sorted(set(base_marks) | set(cur_marks)):
        base = base_marks.get(name)
        cur = cur_marks.get(name)
        base_s = float(base["wall_s"]) if base is not None else None
        cur_s = float(cur["wall_s"]) if cur is not None else None
        delta: Optional[float] = None
        if base is None:
            status = "new"
        elif cur is None:
            status = "missing"
        else:
            delta = (cur_s - base_s) / base_s * 100.0 if base_s > 0 else 0.0
            if not cur.get("audit_ok", True):
                status = "broken"
            elif delta >= threshold_pct:
                status = "regression"
            else:
                status = "ok"
        rows.append({
            "name": name,
            "baseline_s": base_s,
            "current_s": cur_s,
            "delta_pct": delta,
            "status": status,
        })
        counts[status] = counts.get(status, 0) + 1
    failed = any(
        row["status"] in ("regression", "missing", "broken") for row in rows
    )
    tables = [
        (marks.get("macro.spans") or {}).get("subsystems")
        for marks in (base_marks, cur_marks)
    ]
    attribution = (
        _subsystem_deltas(*tables)
        if all(isinstance(table, dict) for table in tables) else None
    )
    return {
        "kind": "bench",
        "threshold_pct": float(threshold_pct),
        "failed": failed,
        "comparison": {
            "threshold_pct": threshold_pct,
            "failed": failed,
            "counts": dict(sorted(counts.items())),
            "attribution": attribution,
            "rows": rows,
        },
        "subsystems": None,
        "top": None,
        "top_delta_s": 0.0,
        **(attribution or {}),
    }


def diff_files(
    baseline_path: str,
    current_path: str,
    threshold_pct: float = 10.0,
) -> Dict[str, object]:
    """Sniff, load, and diff two perf files of the same kind."""
    base_kind, baseline = load_perf_file(baseline_path)
    cur_kind, current = load_perf_file(current_path)
    if base_kind != cur_kind:
        raise PerfDiffFormatError(
            f"cannot diff a {base_kind} file against a {cur_kind} file "
            f"({baseline_path} vs {current_path})"
        )
    if base_kind == "ledger":
        result = diff_ledgers(baseline, current, threshold_pct)
    else:
        result = diff_bench(baseline, current, threshold_pct)
    result["baseline_path"] = baseline_path
    result["current_path"] = current_path
    return result


def _attribution_lines(result: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    table = result.get("subsystems")
    if isinstance(table, dict) and table:
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
    top = result.get("top")
    if top:
        lines.append("")
        lines.append(
            f"**Attribution:** the largest subsystem delta is `{top}` "
            f"({float(result['top_delta_s']):+.4f}s self time)."
        )
    elif result.get("kind") == "bench":
        lines.append("")
        lines.append(
            "**Attribution:** unavailable — one of the payloads lacks "
            "the `macro.spans` benchmark."
        )
    return lines


def format_diff(result: Dict[str, object]) -> str:
    """Markdown report of a perf diff (either kind)."""
    lines = ["## Perf diff"]
    lines.append("")
    lines.append(
        f"`{result.get('baseline_path', 'baseline')}` → "
        f"`{result.get('current_path', 'current')}` "
        f"(threshold {float(result['threshold_pct']):g}%)"
    )
    if result["kind"] == "ledger":
        base = result["baseline"]
        cur = result["current"]
        lines.append("")
        lines.append(
            f"Wall time {base['wall_s']:.3f}s → {cur['wall_s']:.3f}s "
            f"({float(result['wall_delta_pct']):+.1f}%); throughput "
            f"{base['sim_s_per_wall_s']:.1f} → "
            f"{cur['sim_s_per_wall_s']:.1f} sim-s/wall-s."
        )
        lines.extend(_attribution_lines(result))
        unattributed = float(result["unattributed_s"])
        lines.append(
            f"Unattributed delta: {unattributed:+.4f}s "
            "(outside span self time)."
        )
    else:
        comparison = result["comparison"]
        lines.append("")
        lines.append("| benchmark | baseline | current | delta | status |")
        lines.append("|---|---:|---:|---:|---|")
        for row in comparison["rows"]:
            base_s = (
                f"{row['baseline_s']:.4f}s"
                if row["baseline_s"] is not None else "—"
            )
            cur_s = (
                f"{row['current_s']:.4f}s"
                if row["current_s"] is not None else "—"
            )
            delta = (
                f"{row['delta_pct']:+.1f}%"
                if row["delta_pct"] is not None else "—"
            )
            lines.append(
                f"| {row['name']} | {base_s} | {cur_s} | {delta} "
                f"| {row['status']} |"
            )
        lines.extend(_attribution_lines(result))
    lines.append("")
    if result["failed"]:
        lines.append("**Verdict: FAIL** — regression above threshold.")
    else:
        lines.append("**Verdict: ok** — no regression above threshold.")
    return "\n".join(lines)


__all__ = [
    "PerfDiffFormatError",
    "diff_bench",
    "diff_files",
    "diff_ledgers",
    "format_diff",
    "load_perf_file",
]
