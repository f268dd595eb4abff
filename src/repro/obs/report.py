"""Deterministic run reports: trace or sweep/chaos JSONL in, markdown +
JSON out.

Backs the ``repro report`` CLI command.  The input kind is sniffed from
the first non-blank line:

* a trace event (``type``/``seq`` keys) — the file is streamed once
  through a :class:`~repro.obs.rollup.TraceRollup`, a
  :class:`~repro.obs.attribution.FleetAttributor`, and the invariant
  auditor, O(1) memory in trace length;
* a sweep/chaos result row (``spec_hash`` key) — rows are aggregated
  into cross-cell distributions, a fault-profile comparison (chaos),
  and a merged fleet rollup + attribution when the run collected them
  (``--rollup``).

Everything in the report is a pure function of the input file: no wall
clocks, no environment — the same input renders byte-identical markdown
and JSON, so reports can be diffed and committed as artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.attribution import (
    CAUSES,
    AttributionResult,
    FleetAttributor,
)
from repro.obs.events import SchemaError, iter_trace_events
from repro.obs.invariants import MultiSessionAuditor
from repro.obs.metrics import Histogram
from repro.obs.rollup import (
    DISTRIBUTIONS,
    TraceRollup,
    _distribution,
    merge_rollups,
)

REPORT_VERSION = 1

#: Rendering labels of the rollup distributions.
_DIST_LABELS = {
    "stall_seconds": "stall event (s)",
    "session_stall_s": "session stall (s)",
    "qoe_score": "QoE score (SSIM)",
    "buf_ratio": "bufRatio",
    "startup_delay_s": "startup delay (s)",
}


# ---------------------------------------------------------------------------
# Input sniffing and loading.
# ---------------------------------------------------------------------------
def _detect(path: str) -> str:
    """``"trace"`` or ``"rows"``, from the first non-blank line."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"line {number}: unparseable JSON: {exc}"
                ) from None
            if not isinstance(payload, dict):
                raise SchemaError(
                    f"line {number}: not a JSON object"
                )
            if "type" in payload and "seq" in payload:
                return "trace"
            if "spec_hash" in payload:
                return "rows"
            raise SchemaError(
                f"line {number}: neither a trace event nor a "
                f"sweep/chaos result row"
            )
    raise SchemaError("input file holds no JSON lines")


def _load_rows(path: str) -> List[Dict]:
    """Sweep/chaos rows, with line numbers on malformed input."""
    rows: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"line {number}: unparseable JSON: {exc}"
                ) from None
            if not isinstance(row, dict) or "spec_hash" not in row:
                raise SchemaError(
                    f"line {number}: not a sweep/chaos result row "
                    f"(missing spec_hash)"
                )
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Report building.
# ---------------------------------------------------------------------------
def build_report(
    path: str,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
) -> Dict[str, object]:
    """Build the report object for a trace file or sweep/chaos JSONL.

    Raises :class:`SchemaError` (with a line number) on malformed
    input and ``OSError`` on unreadable files — the CLI maps both to
    exit code 2.
    """
    kind = _detect(path)
    if kind == "trace":
        return _trace_report(path, sample_rate, sample_seed)
    return _rows_report(_load_rows(path), path)


def _trace_report(
    path: str, sample_rate: float, sample_seed: int
) -> Dict[str, object]:
    rollup = TraceRollup(sample_rate=sample_rate, sample_seed=sample_seed)
    fleet = FleetAttributor()
    auditor = MultiSessionAuditor()
    for event in iter_trace_events(path):
        rollup.feed(event)
        fleet.feed(event)
        auditor.feed(event)
    audit = auditor.finalize()
    combined = fleet.combined()
    sessions = {
        (sid if sid is not None else "-"): result.to_dict()
        for sid, result in fleet.results().items()
    }
    return {
        "report_version": REPORT_VERSION,
        "source": {
            "kind": "trace",
            "path": os.path.basename(path),
            "events": audit.events,
        },
        "rollup": rollup.summary(),
        "attribution": {
            "combined": combined.to_dict(),
            "sessions": sessions,
        },
        "audit": {
            "ok": audit.ok and combined.ok,
            "attribution_ok": combined.ok,
            "violations": [str(v) for v in audit.violations],
        },
    }


def _rows_report(rows: List[Dict], path: str) -> Dict[str, object]:
    if not rows:
        raise SchemaError("input file holds no result rows")
    kind = "chaos" if any("profile" in row for row in rows) else "sweep"
    # Degraded rows (cells quarantined by the supervised pool) carry no
    # summary; folding them as zeros would corrupt every distribution,
    # so they are excluded from the statistics and reported separately.
    whole = [row for row in rows if "degraded" not in row]
    qoe = Histogram()
    buf = Histogram()
    for row in whole:
        summary = row.get("summary") or {}
        if kind == "chaos":
            qoe.observe(float(summary.get("mean_ssim", 0.0)))
            buf.observe(float(summary.get("buf_ratio", 0.0)))
        else:
            qoe.observe(float(summary.get("ssim", 0.0)))
            buf.observe(float(summary.get("buf_ratio_mean", 0.0)))

    report: Dict[str, object] = {
        "report_version": REPORT_VERSION,
        "source": {
            "kind": kind,
            "path": os.path.basename(path),
            "cells": len(rows),
        },
        "cells": {
            "count": len(whole),
            "qoe_score": _distribution(qoe),
            "buf_ratio": _distribution(buf),
        },
    }
    if len(whole) < len(rows):
        report["degraded"] = {
            "completed": len(whole),
            "total": len(rows),
            "missing": [
                {
                    "spec_hash": row["spec_hash"],
                    "label": row.get("label", "-"),
                    "attempts": row["degraded"].get("attempts"),
                    "causes": row["degraded"].get("causes", []),
                }
                for row in rows if "degraded" in row
            ],
        }

    rollups = [
        row["rollup"] for row in rows if row.get("rollup") is not None
    ]
    if rollups:
        report["rollup"] = merge_rollups(rollups).summary()
    merged_attr = _merge_row_attributions(rows)
    if merged_attr is not None:
        report["attribution"] = {"combined": merged_attr.to_dict()}
    if kind == "chaos":
        report["profiles"] = _profile_comparison(rows)

    audited = [row for row in rows if "audit" in row]
    cells_ok = all(row["audit"]["ok"] for row in audited)
    attribution_ok = merged_attr.ok if merged_attr is not None else True
    report["audit"] = {
        "ok": cells_ok and attribution_ok,
        "attribution_ok": attribution_ok,
        "cells_audited": len(audited),
        "violations": [
            violation
            for row in audited
            for violation in row["audit"]["violations"]
        ],
    }
    return report


def _merge_row_attributions(
    rows: List[Dict],
) -> Optional[AttributionResult]:
    merged: Optional[AttributionResult] = None
    for row in rows:
        data = row.get("attribution")
        if data is None:
            continue
        result = AttributionResult.from_dict(data)
        if merged is None:
            merged = result
        else:
            merged.merge(result)
    return merged


def _profile_comparison(rows: List[Dict]) -> Dict[str, Dict]:
    """Per-profile aggregate table (chaos inputs), profiles sorted."""
    groups: Dict[str, List[Dict]] = {}
    for row in rows:
        if "degraded" in row:  # no summary to aggregate
            continue
        groups.setdefault(str(row.get("profile", "-")), []).append(row)
    out: Dict[str, Dict] = {}
    for profile in sorted(groups):
        members = groups[profile]
        summaries = [row.get("summary") or {} for row in members]
        count = len(members)
        audits = [row["audit"] for row in members if "audit" in row]
        out[profile] = {
            "cells": count,
            "mean_ssim": sum(
                float(s.get("mean_ssim", 0.0)) for s in summaries
            ) / count,
            "buf_ratio": sum(
                float(s.get("buf_ratio", 0.0)) for s in summaries
            ) / count,
            "request_timeouts": int(sum(
                s.get("request_timeouts", 0) for s in summaries
            )),
            "connection_resets": int(sum(
                s.get("connection_resets", 0) for s in summaries
            )),
            "retries": int(sum(s.get("retries", 0) for s in summaries)),
            "degraded_segments": int(sum(
                s.get("degraded_segments", 0) for s in summaries
            )),
            "audits_clean": sum(1 for a in audits if a["ok"]),
            "ok": all(a["ok"] for a in audits),
        }
    return out


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_markdown(report: Dict[str, object]) -> str:
    """Deterministic markdown artifact for one report object."""
    lines: List[str] = ["# repro report", ""]
    source = report["source"]
    if source["kind"] == "trace":
        lines.append(
            f"- **source**: trace `{source['path']}` "
            f"({source['events']} events)"
        )
    else:
        lines.append(
            f"- **source**: {source['kind']} results `{source['path']}` "
            f"({source['cells']} cells)"
        )
    audit = report["audit"]
    verdict = "ok" if audit["ok"] else "**FAILED**"
    lines.append(f"- **audit**: {verdict}")
    lines.append("")

    rollup = report.get("rollup")
    if rollup is not None:
        lines.extend(_render_rollup(rollup))
    attribution = report.get("attribution")
    if attribution is not None:
        lines.extend(_render_attribution(attribution["combined"]))
    cells = report.get("cells")
    if cells is not None:
        lines.extend(_render_cells(cells))
    profiles = report.get("profiles")
    if profiles is not None:
        lines.extend(_render_profiles(profiles))
    degraded = report.get("degraded")
    if degraded is not None:
        lines.extend(_render_degraded(degraded))
    lines.extend(_render_audit(audit))
    return "\n".join(lines) + "\n"


def _render_degraded(degraded: Dict) -> List[str]:
    lines = ["## Degraded run", ""]
    lines.append(
        f"**{degraded['completed']}/{degraded['total']} cells "
        f"completed** — the statistics above cover the completed "
        f"cells only."
    )
    lines.append("")
    lines.append("| cell | attempts | causes |")
    lines.append("|---|---|---|")
    for row in degraded["missing"]:
        causes = ", ".join(row.get("causes", [])) or "-"
        lines.append(
            f"| `{row['label']}` | {row['attempts']} | {causes} |"
        )
    lines.append("")
    return lines


def _render_rollup(rollup: Dict) -> List[str]:
    lines = ["## Fleet rollup", ""]
    lines.append(
        f"{rollup['events']}/{rollup['events_seen']} events aggregated "
        f"from {rollup['sessions_sampled']}/{rollup['sessions_seen']} "
        f"sessions (sample rate {_fmt(rollup['sample_rate'])}, "
        f"seed {rollup['sample_seed']})."
    )
    lines.append("")
    lines.append("| distribution | n | mean | p50 | p90 | p99 | p99.9 |")
    lines.append("|---|---|---|---|---|---|---|")
    for name in DISTRIBUTIONS:
        dist = rollup[name]
        lines.append(
            f"| {_DIST_LABELS[name]} | {int(dist['count'])} "
            f"| {_fmt(dist['mean'])} | {_fmt(dist['p50'])} "
            f"| {_fmt(dist['p90'])} | {_fmt(dist['p99'])} "
            f"| {_fmt(dist['p999'])} |"
        )
    lines.append("")
    lines.append(f"Jain fairness index: {rollup['jain_index']:.4f}")
    lines.append("")
    return lines


def _render_attribution(combined: Dict) -> List[str]:
    lines = ["## Stall attribution", ""]
    lines.append(
        "| cause | stall s | share | stall events | quality drops |"
    )
    lines.append("|---|---|---|---|---|")
    total = float(combined["total_stall"])
    for cause in CAUSES:
        seconds = float(combined["stall_seconds"][cause])
        share = seconds / total * 100.0 if total > 0 else 0.0
        lines.append(
            f"| {cause} | {_fmt(seconds)} | {share:.1f}% "
            f"| {combined['stall_events'][cause]} "
            f"| {combined['quality_drops'][cause]} |"
        )
    lines.append(
        f"| **total** | {_fmt(total)} | 100.0% "
        f"| {combined['total_stall_events']} "
        f"| {combined['total_drops']} |"
    )
    lines.append("")
    law = "holds" if combined["ok"] else "**VIOLATED**"
    lines.append(
        f"Partition law {law}: causes sum to "
        f"{_fmt(sum(float(combined['stall_seconds'][c]) for c in CAUSES))}s "
        f"against {_fmt(total)}s of stall "
        f"(residual {float(combined['residual']):+.2e}s)."
    )
    lines.append("")
    return lines


def _render_cells(cells: Dict) -> List[str]:
    lines = ["## Cell distributions", ""]
    lines.append("| metric | n | mean | p50 | p90 | p99 |")
    lines.append("|---|---|---|---|---|---|")
    for key, label in (
        ("qoe_score", "QoE score (SSIM)"),
        ("buf_ratio", "bufRatio"),
    ):
        dist = cells[key]
        lines.append(
            f"| {label} | {int(dist['count'])} | {_fmt(dist['mean'])} "
            f"| {_fmt(dist['p50'])} | {_fmt(dist['p90'])} "
            f"| {_fmt(dist['p99'])} |"
        )
    lines.append("")
    return lines


def _render_profiles(profiles: Dict[str, Dict]) -> List[str]:
    lines = ["## Fault-profile comparison", ""]
    lines.append(
        "| profile | cells | mean SSIM | mean bufRatio | timeouts "
        "| resets | retries | degraded | audits |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for profile, row in profiles.items():
        audits = f"{row['audits_clean']}/{row['cells']}"
        if not row["ok"]:
            audits = f"**{audits}**"
        lines.append(
            f"| {profile} | {row['cells']} | {row['mean_ssim']:.4f} "
            f"| {row['buf_ratio']:.4f} | {row['request_timeouts']} "
            f"| {row['connection_resets']} | {row['retries']} "
            f"| {row['degraded_segments']} | {audits} |"
        )
    lines.append("")
    return lines


def _render_audit(audit: Dict) -> List[str]:
    lines = ["## Invariant audit", ""]
    if audit["ok"]:
        lines.append("All invariants hold (attribution partition included).")
    else:
        lines.append(
            f"**{len(audit['violations'])} violation(s)** — "
            f"attribution partition "
            f"{'holds' if audit.get('attribution_ok') else 'VIOLATED'}."
        )
        for violation in audit["violations"][:20]:
            lines.append(f"- `{violation}`")
        if len(audit["violations"]) > 20:
            lines.append(
                f"- … {len(audit['violations']) - 20} more"
            )
    lines.append("")
    return lines


def report_to_json(report: Dict[str, object]) -> str:
    """Canonical JSON form (sorted keys, stable floats)."""
    return json.dumps(report, indent=2, sort_keys=True)
