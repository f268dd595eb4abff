"""Experiment harness: runner, per-figure reproductions, user survey.

Every experiment is described by a :class:`~repro.core.spec.ScenarioSpec`
(a fleet by a :class:`FleetSpec` of them), and every fan-out goes
through :func:`execute`.
"""

from repro.experiments.execution import (
    EXIT_DEGRADED,
    CheckpointError,
    CheckpointStore,
    ExecutionError,
    ExecutionInterrupted,
    ExecutionPolicy,
    MapOutcome,
    TaskFailure,
    WorkerFaultInjector,
    execute,
    install_worker_fault,
    supervised_map,
)
from repro.experiments.fleet import (
    ClientGroup,
    FleetResult,
    FleetSpec,
    expand_population,
    format_fleet_report,
    run_fleet,
)
from repro.experiments.multiclient import (
    MulticlientResult,
    Shard,
    build_shard,
    run_multiclient,
)
from repro.experiments.runner import (
    TrialSummary,
    compare,
    run_trials,
)
from repro.experiments.survey import DIMENSIONS, SurveyResult, run_survey
from repro.experiments.sweep import (
    SweepSpec,
    dry_run_rows,
    run_sweep,
    validate_rows,
)
from repro.experiments import figures
from repro.experiments.figures import fig14_survey

__all__ = [
    "EXIT_DEGRADED",
    "CheckpointError",
    "CheckpointStore",
    "ClientGroup",
    "ExecutionError",
    "ExecutionInterrupted",
    "ExecutionPolicy",
    "MapOutcome",
    "TaskFailure",
    "WorkerFaultInjector",
    "execute",
    "install_worker_fault",
    "supervised_map",
    "FleetResult",
    "FleetSpec",
    "MulticlientResult",
    "Shard",
    "TrialSummary",
    "build_shard",
    "compare",
    "expand_population",
    "format_fleet_report",
    "run_fleet",
    "run_multiclient",
    "run_trials",
    "SweepSpec",
    "dry_run_rows",
    "run_sweep",
    "validate_rows",
    "DIMENSIONS",
    "SurveyResult",
    "fig14_survey",
    "run_survey",
    "figures",
]
