"""Tests for the time-window zoom and per-category analyses."""

import numpy as np
import pytest

from repro.core import (
    AnalysisSession,
    category_across_runs,
    category_io_profile,
    category_profile,
    RunData,
    zoom,
)
from repro.dasklike import IOOp, TaskGraph, TaskSpec

from tests.helpers import drive_instrumented, make_instrumented


@pytest.fixture(scope="module")
def run_data():
    env, cluster, run = make_instrumented(seed=19)
    cluster.pfs.create_file("/lus/z.bin", 32 * 2**20)
    tasks = [
        TaskSpec(key=(f"load-11223344", i), compute_time=0.05,
                 reads=(IOOp("/lus/z.bin", "read", i * 2**20, 2**20),),
                 output_nbytes=2**20)
        for i in range(8)
    ] + [
        TaskSpec(key=(f"proc-55667788", i), deps=((f"load-11223344", i),),
                 compute_time=0.3, output_nbytes=2**19)
        for i in range(8)
    ] + [
        TaskSpec(key="agg-99aabbcc",
                 deps=tuple((f"proc-55667788", i) for i in range(8)),
                 compute_time=0.1, output_nbytes=64),
    ]
    graph = TaskGraph(tasks)
    client, _ = drive_instrumented(env, run, graph, optimize=False)
    return RunData.load(run, client=client)


class TestZoom:
    def test_full_window_covers_everything(self, run_data):
        summary = zoom(run_data, 0.0, run_data.wall_time + 1)
        assert summary.stats["n_tasks_active"] == 17
        assert summary.stats["io_ops"] == 8
        assert summary.stats["io_bytes"] == 8 * 2**20

    def test_narrow_window_filters(self, run_data):
        tasks = AnalysisSession.of(run_data).task_view()
        loads = tasks.filter(np.array(
            [p == "load" for p in tasks["prefix"]]))
        load_end = float(np.max(loads["stop"]))
        summary = zoom(run_data, 0.0, load_end * 0.5)
        assert summary.stats["n_tasks_active"] < 17
        assert "agg" not in summary.stats["prefixes_active"]

    def test_disjoint_window_is_empty(self, run_data):
        summary = zoom(run_data, run_data.wall_time + 100,
                       run_data.wall_time + 200)
        assert summary.stats["n_tasks_active"] == 0
        assert summary.stats["io_ops"] == 0
        assert summary.stats["comm_count"] == 0

    def test_overlapping_tasks_included(self, run_data):
        """A task spanning the window boundary still counts."""
        tasks = AnalysisSession.of(run_data).task_view()
        mid_task = tasks.sort_by("start").row(5)
        mid = (mid_task["start"] + mid_task["stop"]) / 2
        summary = zoom(run_data, mid, mid + 1e-4)
        keys = set(summary.tasks["key"])
        assert mid_task["key"] in keys

    def test_invalid_window_rejected(self, run_data):
        with pytest.raises(ValueError):
            zoom(run_data, 5.0, 5.0)

    def test_stats_internally_consistent(self, run_data):
        summary = zoom(run_data, 0.0, run_data.wall_time + 1)
        assert summary.stats["io_rate"] > 0
        assert summary.stats["busy_threads"] <= 4 * 4  # workers x threads
        assert len(summary.io) == summary.stats["io_ops"]


class TestCategoryProfile:
    def test_profile_columns_and_order(self, run_data):
        profile = category_profile(AnalysisSession.of(run_data).task_view())
        assert len(profile) == 3
        totals = list(profile["total_duration"])
        assert totals == sorted(totals, reverse=True)
        row = {r["category"]: r for r in profile.to_records()}
        assert row["load"]["n"] == 8
        assert row["proc"]["p95"] >= row["proc"]["p50"]

    def test_io_profile_attributes_to_load(self, run_data):
        profile = category_io_profile(AnalysisSession.of(run_data).task_view(),
                                      AnalysisSession.of(run_data).io_view())
        assert len(profile) == 1
        row = profile.row(0)
        assert row["category"] == "load"
        assert row["io_ops"] == 8
        assert row["bytes_read"] == 8 * 2**20
        assert row["ops_per_task"] == 1.0

    def test_across_runs_variability(self):
        views = []
        for k in range(3):
            env, cluster, run = make_instrumented(seed=19, run_index=k)
            graph = TaskGraph([
                TaskSpec(key=(f"work-deadbee1", i), compute_time=0.2,
                         output_nbytes=100)
                for i in range(12)
            ])
            client, _ = drive_instrumented(env, run, graph,
                                           optimize=False)
            data = RunData.load(run, client=client)
            views.append(AnalysisSession.of(data).task_view())
        table = category_across_runs(views)
        row = table.row(0)
        assert row["category"] == "work"
        assert row["n_runs"] == 3
        assert row["mean_count"] == 12.0
        assert row["duration_cv"] >= 0.0
        assert row["placement_spread"] > 1.0
