"""Sweep engine: a declarative grid becomes scenarios becomes results.

The paper's evaluation is a cartesian grid — {videos} x {ABRs} x
{traces} x {buffers} x {QUIC, QUIC*} (§5).  A :class:`SweepSpec`
describes such a grid declaratively (base field overrides, per-field
value lists, plus explicit extra scenarios), :meth:`SweepSpec.expand`
turns it into concrete :class:`~repro.core.spec.ScenarioSpec` cells
(deduplicated by content hash), and :func:`run_sweep` executes every
cell through the experiment runner.  :func:`_run_cells` is the cell
engine underneath — validation, checkpoints, rollups, ledgers and the
fan-out over :func:`~repro.experiments.execution.execute` — shared
with the chaos sweep and the figures, with results folded in grid
order so any worker count produces byte-identical output.

Each scenario yields one JSONL row keyed by the spec's stable content
hash — the same hash the session stamps into its trace header
(``session_start.spec_hash``) — so sweep outputs, recorded traces, and
the grid file cross-reference each other::

    {"spec_hash": "6b1f...", "label": "bbb/bola/Q/verizon/buf3/round",
     "spec": {...}, "summary": {"buf_ratio_p90": ..., "ssim": ...}}

CLI: ``repro sweep --spec grid.json --workers 4 --out results.jsonl``
(or grid flags like ``--abrs bola,abr_star --buffers 1,3``);
``--dry-run`` prints the expansion without simulating.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.experiments.execution import (
    CheckpointStore,
    ExecutionError,
    ExecutionPolicy,
    execute,
)
from repro.experiments.runner import run_trials
from repro.obs import spans as _spans
from repro.obs.attribution import FleetAttributor
from repro.obs.ledger import build_ledger
from repro.obs.rollup import TraceRollup
from repro.prep.prepare import PreparedVideo, get_prepared

#: Keys a result row may carry.  ``summary`` is absent in --dry-run
#: rows; ``rollup`` and ``attribution`` appear only when the sweep ran
#: with streaming rollups enabled (``run_sweep(rollup=True)``), and
#: ``ledger`` only when the sweep ran under an installed profiler
#: (:func:`repro.obs.spans.profiled`).  A cell that exhausted its retry
#: budget in a non-strict run yields a ``degraded`` row instead: same
#: identity keys, a ``degraded`` block (attempts, causes) in place of
#: ``summary``.
ROW_KEYS = ("spec_hash", "label", "spec", "summary", "rollup",
            "attribution", "ledger", "degraded")

#: Keys every row's ``summary`` object carries (superset allowed).
SUMMARY_KEYS = (
    "buf_ratio_p90", "buf_ratio_mean", "buf_ratio_stderr",
    "bitrate_kbps", "ssim", "data_skipped", "repetitions",
)


@dataclass
class SweepSpec:
    """A declarative sweep: base overrides + grid axes + extras.

    ``base`` maps :class:`ScenarioSpec` fields to values applied to
    every cell; ``grid`` maps fields to value *lists* expanded
    cartesianly (in key insertion order, first key outermost);
    ``scenarios`` lists explicit extra cells (each a partial field
    mapping layered over ``base``).  Unknown field names are rejected
    when cells are instantiated.
    """

    name: str = "sweep"
    base: Dict = field(default_factory=dict)
    grid: Dict = field(default_factory=dict)
    scenarios: List[Dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"sweep spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {"name", "base", "grid", "scenarios"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SweepSpec field(s) {unknown}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        spec = cls(**data)
        for axis, values in spec.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"sweep grid axis {axis!r} must be a non-empty list"
                )
        return spec

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    def expand(self) -> List[ScenarioSpec]:
        """All concrete cells, deduplicated by content hash.

        Expansion order is deterministic: the cartesian product of the
        grid axes (first axis outermost), then the explicit scenarios.
        """
        cells: List[Dict] = []
        axes = list(self.grid)
        if axes:
            for combo in itertools.product(
                *(self.grid[axis] for axis in axes)
            ):
                fields = dict(self.base)
                fields.update(zip(axes, combo))
                cells.append(fields)
        elif self.base and not self.scenarios:
            cells.append(dict(self.base))
        for extra in self.scenarios:
            fields = dict(self.base)
            fields.update(extra)
            cells.append(fields)

        specs: List[ScenarioSpec] = []
        seen = set()
        for fields in cells:
            spec = ScenarioSpec.from_dict(fields)
            key = spec.spec_hash()
            if key not in seen:
                seen.add(key)
                specs.append(spec)
        return specs


# ---------------------------------------------------------------------------
def _identity(spec: ScenarioSpec) -> Dict:
    """The keys that name a sweep row's cell."""
    return {
        "spec_hash": spec.spec_hash(),
        "label": spec.label(),
        "spec": spec.to_dict(),
    }


def _trials_cell(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo],
    observers: List,
) -> Dict:
    """A sweep cell's body: all its repetitions, summarized."""
    summary = run_trials(
        spec, prepared=prepared, workers=1, observers=observers
    )
    return {
        "summary": dict(summary.row(), repetitions=len(summary.sessions))
    }


def sweep_run_key(
    specs: Sequence[ScenarioSpec],
    rollup: bool = False,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
    kind: str = "sweep",
) -> str:
    """Checkpoint-spool identity of one cell list + row shape.

    Covers every input that determines the task list or the shape of a
    row: the ordered cell hashes plus the rollup/sampling knobs.  A
    spool written under one key cannot be resumed under another — that
    would fold rows from a different run.  The spool itself adds
    whether the run is profiled (:class:`CheckpointStore`).
    """
    digest = hashlib.sha256()
    digest.update(
        f"{kind}:rollup={int(rollup)}:rate={float(sample_rate)!r}:"
        f"seed={int(sample_seed)}".encode()
    )
    for spec in specs:
        digest.update(b"|")
        digest.update(spec.spec_hash().encode())
    return f"{kind}:{digest.hexdigest()[:16]}"


def _run_cells(
    specs: Sequence[ScenarioSpec],
    body: Callable[[ScenarioSpec, Optional[PreparedVideo], List], Dict],
    *,
    kind: str,
    identities: Sequence[Dict],
    labels: Sequence[str],
    workers: int = 1,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    rollup: bool = False,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    strict: bool = True,
) -> List[Dict]:
    """The cell engine under :func:`run_sweep`, chaos sweeps and figures.

    Validates every cell and pre-warms the catalog videos, then runs
    ``body(spec, prepared, observers)`` per cell through
    :func:`~repro.experiments.execution.execute`, which folds each
    cell's metrics (and, under an installed profiler, its profiler)
    into the caller's in cell order, so any worker count computes
    identical rows, metrics and span trees.  A row is the cell's
    ``identities`` entry plus the body's keys, plus ``rollup`` and
    ``attribution`` (a streaming rollup and causal attributor handed
    to the body as ``observers``) under ``rollup``, and a ``ledger`` of
    the cell's own profiler when the caller has one installed.
    ``kind`` names the checkpoint spool (:func:`sweep_run_key`);
    ``labels`` name the cells in failures.  A cell that exhausts its
    retry budget raises under ``strict`` and otherwise yields its
    identity plus a ``degraded`` block.
    """
    specs = list(specs)
    for spec in specs:
        StackBuilder(spec, prepared_map=prepared_map).validate()
    # Pre-warm the catalog cache so fork()ed workers inherit every
    # prepared video by memory snapshot instead of re-preparing.
    for video in dict.fromkeys(spec.video for spec in specs):
        if prepared_map is None or video not in prepared_map:
            get_prepared(video)
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = CheckpointStore(
            checkpoint_dir,
            run_key=sweep_run_key(
                specs, rollup=rollup, sample_rate=sample_rate,
                sample_seed=sample_seed, kind=kind,
            ),
            tasks=len(specs),
        )

    def cell(index: int) -> Dict:
        spec = specs[index]
        prepared = (prepared_map or {}).get(spec.video)
        observers: List = []
        if rollup:
            trace_rollup = TraceRollup(
                sample_rate=sample_rate, sample_seed=sample_seed
            )
            fleet = FleetAttributor()
            observers = [trace_rollup.feed, fleet.feed]
        t0 = time.perf_counter()
        result = body(spec, prepared, observers)
        wall_s = time.perf_counter() - t0
        row = dict(identities[index], **result)
        if rollup:
            row["rollup"] = trace_rollup.to_dict()
            row["attribution"] = fleet.combined().to_dict()
        # Under a profiler, execute() runs each cell under its own.
        profiler = _spans.current()
        if profiler is not None:
            row["ledger"] = build_ledger(
                profiler, wall_s, label=spec.label(),
                spec_hash=spec.spec_hash(), meta=False,
            )
        return row

    outcome = execute(
        cell,
        range(len(specs)),
        workers=workers,
        policy=policy,
        labels=labels,
        checkpoint=checkpoint,
    )
    if strict and outcome.failures:
        raise ExecutionError(outcome.failures, total=len(specs))
    rows = list(outcome.results)
    for failure in outcome.failures:
        rows[failure.index] = dict(
            identities[failure.index],
            degraded={
                "attempts": failure.attempts,
                "causes": list(failure.causes),
            },
        )
    return rows


def run_sweep(
    sweep: Union[SweepSpec, Sequence[ScenarioSpec]],
    workers: int = 1,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    rollup: bool = False,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    strict: bool = True,
) -> List[Dict]:
    """Execute every cell of a sweep; one result row per scenario.

    Args:
        sweep: a :class:`SweepSpec` (expanded here) or an explicit
            scenario list.
        workers: worker processes across cells; any K produces rows
            byte-identical to ``workers=1`` (cells are independent and
            results are folded in expansion order).
        prepared_map: ``video name -> PreparedVideo`` overriding the
            catalog (fixtures, benchmarks).
        rollup: attach a streaming :class:`TraceRollup` and causal
            attributor to every cell; rows gain serialized ``rollup``
            and ``attribution`` keys (``summary`` stays byte-identical
            to a plain run).
        sample_rate: per-session head-sampling rate for the rollups
            (hash-keyed, so the sampled set is worker-count invariant).
        sample_seed: seed of the sampling hash.
        policy: supervision knobs (per-cell deadline, retry budget,
            backoff) for the resilient pool.
        checkpoint_dir: crash-safe spool directory; completed cell rows
            are written atomically as they land (keyed by
            :func:`sweep_run_key`) and already-spooled cells are folded
            from disk on a re-run instead of re-simulating.
        strict: raise :class:`~repro.experiments.execution.ExecutionError`
            when a cell exhausts its retry budget.  With
            ``strict=False`` failed cells yield ``degraded`` rows
            (identity keys plus attempts/causes, no ``summary``) and
            the remaining rows stay valid.

    Returns:
        One row per scenario, in expansion order, each keyed by the
        spec's stable content hash.  Under an installed profiler
        (:func:`repro.obs.spans.profiled`) every cell runs under its
        own and its row gains a ``ledger`` key (sampled CPU per
        subsystem, hotspots, span tree — ``summary`` stays
        byte-identical to a plain run, and the ledger's
        ``deterministic`` block is worker-count invariant).
    """
    specs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
    return _run_cells(
        specs, _trials_cell, kind="sweep",
        identities=[_identity(spec) for spec in specs],
        labels=[f"cell {spec.label()}" for spec in specs],
        workers=workers, prepared_map=prepared_map, rollup=rollup,
        sample_rate=sample_rate, sample_seed=sample_seed,
        policy=policy, checkpoint_dir=checkpoint_dir, strict=strict,
    )


def dry_run_rows(
    sweep: Union[SweepSpec, Sequence[ScenarioSpec]],
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
) -> List[Dict]:
    """Expand and validate without simulating: rows minus ``summary``.

    Every component name is resolved against the registries, so a typo
    in a grid file fails here rather than mid-sweep.
    """
    specs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
    rows = []
    for spec in specs:
        StackBuilder(spec, prepared_map=prepared_map).validate()
        rows.append(_identity(spec))
    return rows


# ---------------------------------------------------------------------------
def rows_to_jsonl(rows: Sequence[Dict]) -> str:
    """Serialize rows as canonical JSONL (one compact object per line)."""
    return "\n".join(
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in rows
    ) + ("\n" if rows else "")


def parse_rows_jsonl(lines: Iterable[str]) -> List[Dict]:
    """Parse a sweep JSONL output (no validation; see validate_rows)."""
    rows = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"unparseable sweep row on line {i + 1}: {exc}"
            ) from None
    return rows


def validate_rows(rows: Sequence[Dict], require_summary: bool = True) -> int:
    """Validate sweep rows against the output schema; returns the count.

    Checks per row: the key set, that ``spec`` round-trips through
    :class:`ScenarioSpec` to exactly ``spec_hash`` (so the hash keying
    the row is honest), that ``label`` matches the spec, and that the
    summary carries numeric values for every expected aggregate.
    Raises ``ValueError`` on the first violation.
    """
    seen_hashes = set()
    for i, row in enumerate(rows):
        where = f"sweep row {i}"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: not a JSON object")
        required = {"spec_hash", "label", "spec"}
        if require_summary and "degraded" not in row:
            required.add("summary")
        missing = sorted(required - set(row))
        if missing:
            raise ValueError(f"{where}: missing key(s) {missing}")
        extra = sorted(set(row) - set(ROW_KEYS))
        if extra:
            raise ValueError(f"{where}: unknown key(s) {extra}")
        if "degraded" in row:
            block = row["degraded"]
            if "summary" in row:
                raise ValueError(
                    f"{where}: carries both summary and degraded"
                )
            if (
                not isinstance(block, dict)
                or not isinstance(block.get("attempts"), int)
                or not isinstance(block.get("causes"), list)
            ):
                raise ValueError(
                    f"{where}: degraded block must carry attempts "
                    f"(int) and causes (list)"
                )
        spec = ScenarioSpec.from_dict(row["spec"])
        if spec.spec_hash() != row["spec_hash"]:
            raise ValueError(
                f"{where}: spec_hash {row['spec_hash']!r} does not match "
                f"the spec's content hash {spec.spec_hash()!r}"
            )
        if row["label"] != spec.label():
            raise ValueError(
                f"{where}: label {row['label']!r} does not match the "
                f"spec's label {spec.label()!r}"
            )
        if row["spec_hash"] in seen_hashes:
            raise ValueError(
                f"{where}: duplicate spec_hash {row['spec_hash']!r}"
            )
        seen_hashes.add(row["spec_hash"])
        if "summary" in row:
            summary = row["summary"]
            if not isinstance(summary, dict):
                raise ValueError(f"{where}: summary is not an object")
            for key in SUMMARY_KEYS:
                if key not in summary:
                    raise ValueError(
                        f"{where}: summary missing {key!r}"
                    )
                if not isinstance(summary[key], (int, float)):
                    raise ValueError(
                        f"{where}: summary[{key!r}] is not numeric"
                    )
    return len(rows)


__all__ = [
    "ROW_KEYS",
    "SUMMARY_KEYS",
    "SweepSpec",
    "run_sweep",
    "sweep_run_key",
    "dry_run_rows",
    "rows_to_jsonl",
    "parse_rows_jsonl",
    "validate_rows",
]
