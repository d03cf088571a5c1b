"""Result rendering: the paper's tables and figures from measured data."""

from repro.analysis.breakdown import (
    PhaseBreakdown,
    chrome_phase_events,
    measure_breakdown,
    measure_breakdown_by_pid,
    render_breakdown,
)
from repro.analysis.export import config_to_dict, export_results, load_results
from repro.analysis.energy import EnergyEstimate, PowerModel, estimate_energy
from repro.analysis.figures import ascii_plot, crossover_point, plateau_value, render_fig5
from repro.analysis.metrics import (
    HistogramSummary,
    RunReport,
    UtilizationSummary,
    build_run_report,
    render_json,
    render_openmetrics,
    report_from_json,
)
from repro.analysis.serving import (
    RequestRecord,
    ServingResult,
    TrafficConfig,
    generate_arrivals,
    run_serving,
    saturation_point,
    sweep_latency_vs_load,
)
from repro.analysis.sweep import parallel_map, resolve_workers
from repro.analysis.tables import (
    render_table,
    table1_system_spec,
    table2_prior_work,
    table3_roundtrips,
    table4_bfs,
)

__all__ = [
    "render_table",
    "table1_system_spec",
    "table2_prior_work",
    "table3_roundtrips",
    "table4_bfs",
    "ascii_plot",
    "render_fig5",
    "crossover_point",
    "plateau_value",
    "PowerModel",
    "EnergyEstimate",
    "estimate_energy",
    "config_to_dict",
    "export_results",
    "load_results",
    "PhaseBreakdown",
    "chrome_phase_events",
    "measure_breakdown",
    "measure_breakdown_by_pid",
    "render_breakdown",
    "parallel_map",
    "resolve_workers",
    "HistogramSummary",
    "RunReport",
    "UtilizationSummary",
    "build_run_report",
    "render_json",
    "render_openmetrics",
    "report_from_json",
    "TrafficConfig",
    "RequestRecord",
    "ServingResult",
    "generate_arrivals",
    "run_serving",
    "sweep_latency_vs_load",
    "saturation_point",
]
