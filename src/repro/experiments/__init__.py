"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments.fig5_1 import (
    PerfWattComparison,
    run_fig5_1,
    run_perf_watt_comparison,
)
from repro.experiments.fig5_2 import gain_compression, run_fig5_2
from repro.experiments.fig5_3 import DISTANCES, DistanceSweep, run_fig5_3
from repro.experiments.fig5_4 import (
    CASES,
    MultiAppComparison,
    case_label,
    run_fig5_4,
)
from repro.experiments.fig5_5_7 import (
    BEHAVIOUR_VERSIONS,
    BehaviourRun,
    run_behaviour,
    run_fig5_5_7,
)
from repro.experiments.metrics import (
    AppRunMetrics,
    RunMetrics,
    geomean_across,
    normalize_to_baseline,
)
from repro.experiments.runner import (
    RunConfig,
    RunOutcome,
    RunShape,
    build_target,
    clear_max_rate_cache,
    measure_max_rate,
    run,
)
from repro.experiments.accuracy import (
    AccuracyReport,
    StateAccuracy,
    evaluate_accuracy,
)
from repro.experiments.pareto import (
    ParetoFrontier,
    ParetoPoint,
    build_frontier,
)
from repro.experiments.repetition import (
    Spread,
    compare_with_spread,
    repeat_single,
    significantly_better,
    spread_of,
)
from repro.experiments.serialize import (
    behaviour_to_dict,
    comparison_to_dict,
    dump_json,
    load_json,
    multi_comparison_to_dict,
    run_metrics_from_dict,
    run_metrics_to_dict,
    sweep_to_dict,
)
from repro.experiments.table3_1 import build_table, regime_of, render_table
from repro.experiments.versions import (
    MULTI_APP_VERSIONS,
    SINGLE_APP_VERSIONS,
    attach_multi_app_version,
    attach_single_app_version,
    version_label,
)

__all__ = [
    "AccuracyReport",
    "AppRunMetrics",
    "ParetoFrontier",
    "ParetoPoint",
    "StateAccuracy",
    "build_frontier",
    "evaluate_accuracy",
    "BEHAVIOUR_VERSIONS",
    "BehaviourRun",
    "CASES",
    "DISTANCES",
    "DistanceSweep",
    "MULTI_APP_VERSIONS",
    "MultiAppComparison",
    "PerfWattComparison",
    "RunConfig",
    "RunMetrics",
    "RunOutcome",
    "RunShape",
    "SINGLE_APP_VERSIONS",
    "Spread",
    "behaviour_to_dict",
    "compare_with_spread",
    "comparison_to_dict",
    "dump_json",
    "load_json",
    "multi_comparison_to_dict",
    "repeat_single",
    "run_metrics_from_dict",
    "run_metrics_to_dict",
    "significantly_better",
    "spread_of",
    "sweep_to_dict",
    "attach_multi_app_version",
    "attach_single_app_version",
    "build_table",
    "build_target",
    "case_label",
    "clear_max_rate_cache",
    "gain_compression",
    "geomean_across",
    "measure_max_rate",
    "normalize_to_baseline",
    "regime_of",
    "render_table",
    "run",
    "run_behaviour",
    "run_fig5_1",
    "run_fig5_2",
    "run_fig5_3",
    "run_fig5_4",
    "run_fig5_5_7",
    "run_perf_watt_comparison",
    "version_label",
]
