"""Google-clusterdata-like trace substrate.

The paper analyzes the public Google cluster trace (Section III).  That trace
is a multi-gigabyte download unavailable offline, so this package provides a
statistically calibrated synthetic equivalent (see DESIGN.md, section 2) plus
the schema, I/O, timeline and statistics tooling the rest of HARMONY needs.
"""

from repro.trace.schema import (
    PriorityGroup,
    SchedulingClass,
    Task,
    Job,
    MachineType,
    Trace,
    PRIORITY_GROUPS,
    NUM_PRIORITIES,
)
from repro.trace.generator import (
    SyntheticTraceConfig,
    PriorityGroupProfile,
    TracePlan,
    generate_trace,
    google_like_machine_census,
    plan_from_params,
    plan_params,
    plan_trace,
    stream_trace,
)
from repro.trace.reader import save_trace, load_trace, save_tasks_csv, load_tasks_csv
from repro.trace.sanitize import (
    SanitizationReport,
    sanitize_tasks_csv,
    sanitize_trace,
)
from repro.trace.workload import (
    ArrivalSeries,
    bin_arrivals,
    arrival_rate_series,
    demand_timeseries,
)
from repro.trace.statistics import (
    empirical_cdf,
    duration_cdf_by_group,
    size_scatter_by_group,
    machine_census_table,
    trace_summary,
)
from repro.trace.validation import (
    CalibrationCheck,
    CalibrationReport,
    validate_trace,
)

__all__ = [
    "PriorityGroup",
    "SchedulingClass",
    "Task",
    "Job",
    "MachineType",
    "Trace",
    "PRIORITY_GROUPS",
    "NUM_PRIORITIES",
    "SyntheticTraceConfig",
    "PriorityGroupProfile",
    "TracePlan",
    "generate_trace",
    "google_like_machine_census",
    "plan_from_params",
    "plan_params",
    "plan_trace",
    "stream_trace",
    "save_trace",
    "load_trace",
    "save_tasks_csv",
    "load_tasks_csv",
    "SanitizationReport",
    "sanitize_tasks_csv",
    "sanitize_trace",
    "ArrivalSeries",
    "bin_arrivals",
    "arrival_rate_series",
    "demand_timeseries",
    "empirical_cdf",
    "duration_cdf_by_group",
    "size_scatter_by_group",
    "machine_census_table",
    "trace_summary",
    "CalibrationCheck",
    "CalibrationReport",
    "validate_trace",
]
