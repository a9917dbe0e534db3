"""PERFRECUP: the multisource data aggregation, analysis, and
visualization engine — the paper's core contribution (§III-D).

Pipeline: :meth:`RunData.load` ingests one run's artifacts (Mofka
streams, Darshan logs, text logs, provenance document) from a run
directory or a live instrumented run; the columnar
:class:`EventStore` partitions the event stream by type once; the view
builders turn it into uniform :class:`Table`s sharing identifier
columns; the correlation layer fuses I/O onto tasks via hostname +
pthread ID + timestamps; and the analysis modules reproduce every
figure-level result of the paper's evaluation (phases/variability, I/O
timelines, communication scatter, parallel coordinates, warning
distributions, per-task lineage, cross-run scheduling comparison, FAIR
checks).

The documented entry point is :class:`AnalysisSession` — a memoized
facade that caches every view and derived analysis per run, with
:func:`sessions_for` turning many runs into their sessions::

    from repro.core import AnalysisSession
    session = AnalysisSession.of(result.data)   # or a run-dir path
    tasks = session.task_view()                 # built once, cached

The ``task_view(run)``-style free functions completed their
deprecation cycle and were removed; every view is reached through a
session (``AnalysisSession.of(source).view(name)``).
"""

from .categories import (
    category_across_runs,
    category_io_profile,
    category_profile,
)
from .commstats import comm_scatter, comm_summary, slow_small_messages
from .correlate import fuse_io_with_tasks, per_task_io, unattributed_io
from .critical_path import CriticalHop, critical_path, critical_path_summary
from .data_plane import data_plane_report, data_plane_view
from .fair import (
    IDENTIFIER_REGISTRY,
    check_interoperability,
    identifier_coverage,
    shared_identifiers,
)
from .eventstore import EventStore
from .gaps import format_gap_report, metadata_gaps
from .hotspots import heatmap_similarity, io_hotspots
from .html_report import html_report, write_html_report
from .ingest import RunData
from .session import AnalysisSession, sessions_for
from .parallel_coords import (
    RECOMMENDED_CHUNK_BYTES,
    longest_categories,
    oversized_tasks,
    parallel_coordinates,
)
from .phases import PhaseBreakdown, phase_breakdown
from .provenance import render_provenance, task_provenance
from .report import format_bar, format_records, format_table
from .resilience import (
    RECOVERY_STIMULI,
    resilience_report,
    resilience_view,
)
from .scheduling import compare_runs, order_distance, placement_agreement
from .table import Table
from .timeline import IOPhase, detect_phases, io_timeline
from .utilization import (
    overall_utilization,
    utilization_timeline,
    worker_utilization,
)
from .variability import (
    MetricStats,
    phase_variability,
    prefix_duration_variability,
    summarize_metric,
    variability_report,
)
from .views import VIEW_NAMES
from .warnings_analysis import (
    correlate_warnings_with_tasks,
    warning_histogram,
    warnings_in_window,
)
from .viz import (
    SVGCanvas,
    fig3_svg,
    fig4_svg,
    fig5_svg,
    fig6_svg,
    fig7_svg,
    heatmap_svg,
    write_svg,
)
from .zoom import WindowSummary, zoom

__all__ = [
    "AnalysisSession",
    "EventStore",
    "IDENTIFIER_REGISTRY",
    "VIEW_NAMES",
    "WindowSummary",
    "sessions_for",
    "variability_report",
    "category_across_runs",
    "category_io_profile",
    "category_profile",
    "zoom",
    "CriticalHop",
    "critical_path",
    "critical_path_summary",
    "overall_utilization",
    "utilization_timeline",
    "worker_utilization",
    "SVGCanvas",
    "fig3_svg",
    "fig4_svg",
    "fig5_svg",
    "fig6_svg",
    "fig7_svg",
    "heatmap_svg",
    "write_svg",
    "html_report",
    "format_gap_report",
    "metadata_gaps",
    "heatmap_similarity",
    "io_hotspots",
    "write_html_report",
    "IOPhase",
    "MetricStats",
    "PhaseBreakdown",
    "RECOMMENDED_CHUNK_BYTES",
    "RunData",
    "Table",
    "check_interoperability",
    "comm_scatter",
    "comm_summary",
    "compare_runs",
    "correlate_warnings_with_tasks",
    "data_plane_report",
    "data_plane_view",
    "detect_phases",
    "format_bar",
    "format_records",
    "format_table",
    "fuse_io_with_tasks",
    "identifier_coverage",
    "io_timeline",
    "longest_categories",
    "order_distance",
    "oversized_tasks",
    "parallel_coordinates",
    "per_task_io",
    "phase_breakdown",
    "phase_variability",
    "placement_agreement",
    "prefix_duration_variability",
    "RECOVERY_STIMULI",
    "render_provenance",
    "resilience_report",
    "resilience_view",
    "shared_identifiers",
    "slow_small_messages",
    "summarize_metric",
    "task_provenance",
    "unattributed_io",
    "warning_histogram",
    "warnings_in_window",
]
