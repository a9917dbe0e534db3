"""Cross-run variability statistics.

The paper's stated goal is to "determine which tasks, task behaviors,
and system characteristics are responsible for the largest variations
during multiple executions of the same set of codes in the same
configurations" (§I).  This module provides the aggregate layer: given
per-run metric values it computes the mean/std/extremes/CV that drive
the Fig.-3 error bars, and per-prefix duration variability tables that
point at the task categories behind the spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .phases import PhaseBreakdown
from .session import sessions_for
from .table import Table

__all__ = ["MetricStats", "summarize_metric", "phase_variability",
           "prefix_duration_variability", "variability_report"]


@dataclass(frozen=True)
class MetricStats:
    """Distribution summary of one metric over repeated runs."""

    name: str
    n: int
    mean: float
    std: float
    min: float
    max: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/mean); 0 when mean is 0."""
        return self.std / self.mean if self.mean else 0.0

    @property
    def spread(self) -> float:
        """Max-min range."""
        return self.max - self.min

    def as_dict(self) -> dict:
        return {
            "metric": self.name, "n": self.n, "mean": self.mean,
            "std": self.std, "min": self.min, "max": self.max,
            "cv": self.cv,
        }


def summarize_metric(name: str, values: Sequence[float]) -> MetricStats:
    """Distribution summary (n/mean/std/min/max) of one metric."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError(f"no values for metric {name}")
    return MetricStats(
        name=name, n=int(arr.size), mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()), max=float(arr.max()),
    )


def phase_variability(breakdowns: Iterable[PhaseBreakdown]) -> dict:
    """Fig.-3 series: per-phase stats over repetitions of one workflow.

    Returns ``{phase: MetricStats}`` for the raw durations plus
    ``normalized`` entries giving each phase's mean fraction of the
    mean wall time (the y-axis normalisation of Fig. 3).
    """
    breakdowns = list(breakdowns)
    if not breakdowns:
        raise ValueError("no runs")
    out: dict = {}
    for phase in ("io", "communication", "computation", "total"):
        values = [getattr(b, phase) for b in breakdowns]
        out[phase] = summarize_metric(phase, values)
    mean_total = out["total"].mean or 1.0
    out["normalized"] = {
        phase: out[phase].mean / mean_total
        for phase in ("io", "communication", "computation", "total")
    }
    out["normalized_err"] = {
        phase: out[phase].std / mean_total
        for phase in ("io", "communication", "computation", "total")
    }
    return out


def prefix_duration_variability(task_views: Iterable[Table]) -> Table:
    """Which task categories vary the most across runs?

    Input: one task view per run.  Output columns: prefix, n_runs,
    mean_total_duration, std_total_duration, cv — sorted by descending
    CV so the largest contributors to irreproducibility lead.
    """
    per_run_totals: dict[str, list[float]] = {}
    views = list(task_views)
    for view in views:
        groups = view.groupby("prefix")
        for prefix, sub in groups.items():
            per_run_totals.setdefault(prefix, []).append(
                float(np.sum(sub["duration"]))
            )
    rows = []
    for prefix, totals in per_run_totals.items():
        stats = summarize_metric(prefix, totals)
        rows.append({
            "prefix": prefix, "n_runs": stats.n,
            "mean_total_duration": stats.mean,
            "std_total_duration": stats.std, "cv": stats.cv,
        })
    table = Table.from_records(rows, columns=[
        "prefix", "n_runs", "mean_total_duration", "std_total_duration",
        "cv",
    ])
    return table.sort_by("cv", descending=True)


def variability_report(sources: Sequence) -> dict:
    """One-call cross-run variability study over many runs.

    ``sources`` may be run-directory paths, ``RunData``/``RunResult``
    objects, or sessions; results follow input order, so the
    statistics are deterministic.  Returns::

        {"sessions":   [AnalysisSession, ...],
         "phases":     phase_variability(...) output,
         "by_prefix":  prefix_duration_variability(...) Table}
    """
    sessions = sessions_for(sources)
    breakdowns = [session.phase_breakdown() for session in sessions]
    views = [session.task_view() for session in sessions]
    return {
        "sessions": sessions,
        "phases": phase_variability(breakdowns),
        "by_prefix": prefix_duration_variability(views),
    }
