"""The memoized analysis facade: one coherent API over PERFRECUP.

The paper's value proposition is *interactive* slicing of multi-source
run data (§III-D, §V): the same views are requested over and over —
per figure, per zoom window, per repetition of a variability study.
:class:`AnalysisSession` makes that cheap.  It wraps one immutable
:class:`~repro.core.ingest.RunData` and caches

* every named view (``task``, ``io``, ``comm``, ...) built by the
  columnar builders in :mod:`repro.core.views`, and
* arbitrary derived analyses via :meth:`cached`, keyed by name —

so a 50-repetition XGBoost study pays each view's construction cost
once per run instead of once per analysis.  Caching is safe because a
run, once loaded, never changes; if you must mutate, load a fresh
``RunData``.

:func:`sessions_for` turns many sources into their sessions, in input
order, so downstream statistics stay deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .ingest import RunData
from .table import Table
from .views import VIEW_BUILDERS, VIEW_NAMES

__all__ = ["AnalysisSession", "sessions_for"]


class AnalysisSession:
    """Cached, columnar analysis facade over one immutable run.

    Use :meth:`AnalysisSession.of` to get the canonical session of a
    ``RunData`` (one per run object, created on first use)::

        session = AnalysisSession.of(result.data)
        tasks = session.task_view()       # built once
        tasks is session.task_view()      # True — cache hit
        breakdown = session.phase_breakdown()
    """

    #: The nine canonical view names, in build order.
    VIEW_NAMES = VIEW_NAMES

    def __init__(self, run: RunData):
        self.run = run
        self._views: dict[str, Table] = {}
        self._derived: dict[str, object] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def of(cls, source, client=None) -> "AnalysisSession":
        """The canonical session for ``source``.

        ``source`` may be an existing session (returned unchanged), a
        :class:`RunData` (its per-object session is created on first
        call and reused after), or anything :meth:`RunData.load`
        accepts (run-directory path, live ``InstrumentedRun``).
        """
        if isinstance(source, cls):
            return source
        if not isinstance(source, RunData):
            data = getattr(source, "data", None)
            source = data if isinstance(data, RunData) \
                else RunData.load(source, client=client)
        session = getattr(source, "_analysis_session", None)
        if session is None:
            session = cls(source)
            source._analysis_session = session
        return session

    # -- views -------------------------------------------------------------
    def view(self, name: str) -> Table:
        """The named view, built on first request and cached."""
        table = self._views.get(name)
        if table is None:
            try:
                builder = VIEW_BUILDERS[name]
            except KeyError:
                raise KeyError(
                    f"unknown view {name!r}; have {list(VIEW_NAMES)}"
                ) from None
            table = builder(self.run)
            self._views[name] = table
        return table

    def task_view(self) -> Table:
        return self.view("task")

    def transition_view(self) -> Table:
        return self.view("transition")

    def io_view(self) -> Table:
        return self.view("io")

    def comm_view(self) -> Table:
        return self.view("comm")

    def warning_view(self) -> Table:
        return self.view("warning")

    def spill_view(self) -> Table:
        return self.view("spill")

    def steal_view(self) -> Table:
        return self.view("steal")

    def dependency_view(self) -> Table:
        return self.view("dependency")

    def log_view(self) -> Table:
        return self.view("log")

    def metrics_view(self) -> Table:
        """Sampled telemetry series (time/metric/kind/labels/value).

        Empty when the run executed without a telemetry bundle.  Not
        one of the nine canonical provenance views — telemetry is
        optional — but cached with the same discipline.
        """
        return self.cached("metrics_view", lambda: Table.from_records(
            self.run.metrics,
            columns=("time", "metric", "kind", "labels", "value"),
        ))

    def resilience_view(self) -> Table:
        """Injected-fault rows (fault_id/kind/target/worker/...).

        Empty when the run executed without a fault schedule.  Like
        :meth:`metrics_view`, not one of the nine canonical views —
        fault injection is optional — but cached identically.
        """
        from .resilience import resilience_view
        return resilience_view(self)

    def resilience_report(self) -> dict:
        """Cached recovery statistics (retries, recomputes, TTR)."""
        from .resilience import resilience_report
        return resilience_report(self)

    def data_plane_view(self) -> Table:
        """Proxy put/resolve/evict rows (key/backend/worker/...).

        Empty when the run executed without the pass-by-reference data
        plane (:mod:`repro.proxystore`).  Like :meth:`resilience_view`,
        not one of the nine canonical views — the data plane is
        optional — but cached identically.
        """
        from .data_plane import data_plane_view
        return data_plane_view(self)

    def data_plane_report(self) -> dict:
        """Cached per-backend traffic/saved-time accounting."""
        from .data_plane import data_plane_report
        return data_plane_report(self)

    def all_views(self) -> dict[str, Table]:
        """All nine views as ``{name: Table}`` (each built once)."""
        return {name: self.view(name) for name in VIEW_NAMES}

    # -- derived analyses --------------------------------------------------
    def cached(self, key: str, build: Callable[[], object]):
        """Memoize an arbitrary derived analysis under ``key``.

        ``build`` runs at most once per session; later calls return the
        stored object.  Analysis modules use this to make their free
        functions session-aware (e.g. ``phase_breakdown``).
        """
        marker = object()
        value = self._derived.get(key, marker)
        if value is marker:
            value = build()
            self._derived[key] = value
        return value

    def phase_breakdown(self):
        """Cached Fig.-3 phase decomposition of this run."""
        from .phases import phase_breakdown
        return phase_breakdown(self)

    def critical_path_summary(self) -> dict:
        """Cached critical-path aggregate of this run."""
        from .critical_path import critical_path_summary
        return critical_path_summary(self)

    def metadata_gaps(self) -> dict:
        """Cached metadata-gap audit of this run."""
        from .gaps import metadata_gaps
        return metadata_gaps(self)

    def cache_info(self) -> dict:
        """Cache occupancy (views built, derived analyses stored)."""
        return {
            "views_built": sorted(self._views),
            "derived_keys": sorted(self._derived),
        }

    @property
    def wall_time(self) -> float:
        return self.run.wall_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AnalysisSession run_index={self.run.run_index} "
                f"views={len(self._views)}/{len(VIEW_NAMES)} cached>")


# ---------------------------------------------------------------------------
# multi-run
# ---------------------------------------------------------------------------

def sessions_for(sources: Iterable) -> list["AnalysisSession"]:
    """Sessions for many sources, in input order.

    ``sources`` elements may be anything :meth:`AnalysisSession.of`
    accepts (paths, ``RunData``, ``RunResult``-likes, sessions).
    """
    return [AnalysisSession.of(source) for source in sources]
