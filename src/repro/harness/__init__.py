"""Experiment harness: runners and reporting for every paper figure."""

from repro.harness.breakdown import LatencyBreakdown, measure_breakdown
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.fault_sweep import fault_degradation_sweep, run_fault_point
from repro.harness.journal import (
    JOURNAL_FORMAT,
    JournalState,
    RunJournal,
    load_journal_state,
    replay_journal,
    validate_journal,
)
from repro.harness.cache import (
    QuarantinedTrial,
    TrialCache,
    is_quarantined,
    partition_quarantined,
    result_content_hash,
)
from repro.harness.parallel import (
    SweepInterrupted,
    TrialBackoff,
    TrialRunner,
    TrialTimeoutError,
    WorkerCrashError,
    run_trials,
)
from repro.harness.spec import TrialSpec, journal_trial_key
from repro.harness.load_sweep import (
    DEFAULT_RATES,
    figure1_network,
    figure3_network,
    figure3_sweep,
    load_trial_specs,
    run_load_point,
)
from repro.harness.reporting import (
    ascii_chart,
    format_percentiles,
    format_quarantine_report,
    format_series,
    format_stage_heatmap,
    format_table,
    format_trial_event,
    progress_printer,
    results_to_series,
)
from repro.harness.saturation import (
    run_saturation_point,
    saturation_point,
    saturation_search,
)
from repro.harness.sweeps import SWEEPS, sweep_specs

__all__ = [
    "DEFAULT_RATES",
    "ExperimentResult",
    "JOURNAL_FORMAT",
    "JournalState",
    "LatencyBreakdown",
    "QuarantinedTrial",
    "RunJournal",
    "SWEEPS",
    "SweepInterrupted",
    "TrialBackoff",
    "TrialCache",
    "TrialRunner",
    "TrialSpec",
    "TrialTimeoutError",
    "WorkerCrashError",
    "ascii_chart",
    "measure_breakdown",
    "fault_degradation_sweep",
    "figure1_network",
    "figure3_network",
    "figure3_sweep",
    "format_percentiles",
    "format_quarantine_report",
    "format_series",
    "format_stage_heatmap",
    "format_table",
    "format_trial_event",
    "is_quarantined",
    "journal_trial_key",
    "load_journal_state",
    "load_trial_specs",
    "partition_quarantined",
    "progress_printer",
    "replay_journal",
    "result_content_hash",
    "results_to_series",
    "run_experiment",
    "run_fault_point",
    "run_load_point",
    "run_saturation_point",
    "run_trials",
    "saturation_point",
    "saturation_search",
    "sweep_specs",
    "validate_journal",
]
