"""Integration tests: the PERFRECUP pipeline over instrumented runs."""

import numpy as np
import pytest

from repro.core import (
    AnalysisSession,
    check_interoperability,
    comm_scatter,
    comm_summary,
    compare_runs,
    detect_phases,
    fuse_io_with_tasks,
    identifier_coverage,
    io_timeline,
    longest_categories,
    parallel_coordinates,
    per_task_io,
    phase_breakdown,
    phase_variability,
    render_provenance,
    RunData,
    task_provenance,
    unattributed_io,
    warning_histogram,
)
from repro.dasklike import IOOp, TaskGraph, TaskSpec

from tests.helpers import drive_instrumented, make_instrumented


def io_workload(cluster, n_files=4, width=4, token="cafe0001"):
    """Files read by per-file tasks, transformed, then reduced."""
    tasks = []
    for i in range(n_files):
        path = f"/lus/img{i}.tif"
        cluster.pfs.create_file(path, 8 * 2**20)
        tasks.append(TaskSpec(
            key=(f"imread-{token}", i), compute_time=0.02,
            reads=tuple(IOOp(path, "read", k * 2**20, 2**20)
                        for k in range(8)),
            output_nbytes=8 * 2**20,
        ))
    for i in range(n_files):
        tasks.append(TaskSpec(
            key=(f"normalize-{token}", i), deps=((f"imread-{token}", i),),
            compute_time=0.2, output_nbytes=8 * 2**20,
        ))
    tasks.append(TaskSpec(
        key=f"stats-{token}",
        deps=tuple((f"normalize-{token}", i) for i in range(n_files)),
        compute_time=0.05, output_nbytes=256,
    ))
    return TaskGraph(tasks)


@pytest.fixture(scope="module")
def run_data():
    env, cluster, run = make_instrumented(seed=11)
    client, _ = drive_instrumented(env, run, io_workload(cluster),
                                   optimize=False)
    return RunData.load(run, client=client)


class TestViews:
    def test_task_view_complete(self, run_data):
        tasks = AnalysisSession.of(run_data).task_view()
        assert len(tasks) == 9
        assert all(tasks["stop"] >= tasks["start"])
        assert set(tasks.unique("prefix")) == {"imread", "normalize",
                                               "stats"}

    def test_transition_view_has_both_sides(self, run_data):
        transitions = AnalysisSession.of(run_data).transition_view()
        sources = set(transitions.unique("source"))
        assert "scheduler" in sources
        assert len(sources) > 1

    def test_io_view_matches_darshan(self, run_data):
        io = AnalysisSession.of(run_data).io_view()
        assert len(io) == 32  # 4 files x 8 reads
        assert set(io.unique("op")) == {"read"}

    def test_dependency_view(self, run_data):
        deps = AnalysisSession.of(run_data).dependency_view()
        stats_row = deps.filter(
            np.array([k == "stats-cafe0001" for k in deps["key"]]))
        assert stats_row["n_deps"][0] == 4

    def test_warning_and_comm_views_load(self, run_data):
        # These may be sparse in a short run but must have the schema.
        warnings = AnalysisSession.of(run_data).warning_view()
        comms = AnalysisSession.of(run_data).comm_view()
        assert "kind" in warnings.column_names
        assert "same_node" in comms.column_names


class TestCorrelation:
    def test_all_io_attributed_to_imread(self, run_data):
        fused = fuse_io_with_tasks(AnalysisSession.of(run_data).task_view(), AnalysisSession.of(run_data).io_view())
        assert len(unattributed_io(fused)) == 0
        prefixes = {p for p in fused["prefix"]}
        assert prefixes == {"imread"}

    def test_per_task_io_totals(self, run_data):
        fused = fuse_io_with_tasks(AnalysisSession.of(run_data).task_view(), AnalysisSession.of(run_data).io_view())
        per_task = per_task_io(fused)
        assert len(per_task) == 4
        assert all(per_task["n_reads"] == 8)
        assert all(per_task["bytes_read"] == 8 * 2**20)
        assert all(per_task["io_time"].astype(float) > 0)

    def test_io_time_consistent_with_task_records(self, run_data):
        tasks = AnalysisSession.of(run_data).task_view()
        fused = fuse_io_with_tasks(tasks, AnalysisSession.of(run_data).io_view())
        per_task = per_task_io(fused)
        joined = per_task.join(tasks.select(["key", "io_time"]),
                               on=["key"], suffix="_task")
        for row in joined.to_records():
            assert row["io_time"] == pytest.approx(row["io_time_task"],
                                                   rel=1e-6)


class TestPhases:
    def test_breakdown_positive(self, run_data):
        b = phase_breakdown(run_data)
        assert b.io > 0
        assert b.computation > 0
        assert b.total > 0
        assert b.n_tasks == 9
        assert b.n_io_ops == 32

    def test_normalization(self, run_data):
        norm = phase_breakdown(run_data).normalized()
        assert norm["total"] == 1.0
        assert 0 < norm["computation"]


class TestFigureAnalyses:
    def test_io_timeline_series(self, run_data):
        timeline = io_timeline(AnalysisSession.of(run_data).io_view())
        assert len(timeline) == 32
        assert all(0 <= r <= 1 for r in timeline["rel_size"])
        starts = list(timeline["start"])
        assert starts == sorted(starts)

    def test_detect_phases_finds_reads(self, run_data):
        phases = detect_phases(AnalysisSession.of(run_data).io_view(), gap=5.0, min_ops=2)
        assert phases
        assert phases[0].op == "read"

    def test_comm_scatter_and_summary(self, run_data):
        comms = AnalysisSession.of(run_data).comm_view()
        scatter = comm_scatter(comms)
        assert set(scatter.column_names) == {
            "nbytes", "duration", "same_node", "same_switch", "start"}
        summary = comm_summary(comms)
        assert summary["n_total"] == len(comms)

    def test_parallel_coordinates(self, run_data):
        coords = parallel_coordinates(AnalysisSession.of(run_data).task_view())
        assert len(coords) == 9
        top = longest_categories(AnalysisSession.of(run_data).task_view(), top=2)
        assert len(top) == 2

    def test_warning_histogram_schema(self, run_data):
        hist = warning_histogram(AnalysisSession.of(run_data).warning_view(), bucket=10.0)
        assert set(hist.column_names) == {"bucket_start", "kind", "count"}


class TestProvenance:
    def test_full_lineage_document(self, run_data):
        doc = task_provenance(run_data, "('imread-cafe0001', 0)")
        assert doc["task_graph_index"] == 0
        assert doc["dependencies"] == []
        assert doc["execution"]["thread_id"] is not None
        assert len(doc["io_records"]) == 8
        states = [(s["from"], s["to"]) for s in doc["states"]]
        assert ("released", "waiting") in states
        assert any(to == "memory" for _, to in states)

    def test_dependent_task_lists_deps(self, run_data):
        doc = task_provenance(run_data, "stats-cafe0001")
        assert len(doc["dependencies"]) == 4
        assert doc["io_records"] == []

    def test_render_is_textual(self, run_data):
        text = render_provenance(
            task_provenance(run_data, "('imread-cafe0001', 1)"))
        assert "states" in text
        assert "I/O records" in text

    def test_unknown_key_raises(self, run_data):
        with pytest.raises(KeyError):
            task_provenance(run_data, "no-such-key")


class TestFAIR:
    def test_every_view_pair_joinable(self):
        rows = check_interoperability()
        assert all(row["joinable"] for row in rows)
        io_task = next(r for r in rows
                       if r["pair"] == ("io", "task"))
        assert io_task["strong"]

    def test_identifier_coverage_on_real_views(self, run_data):
        coverage = identifier_coverage(AnalysisSession.of(run_data).task_view(), "task")
        assert all(coverage.values())
        coverage_io = identifier_coverage(AnalysisSession.of(run_data).io_view(), "io")
        assert coverage_io["thread"] and coverage_io["hostname"]


class TestCrossRun:
    def test_phase_variability_and_scheduling_comparison(self):
        breakdowns, views = [], []
        for k in range(3):
            env, cluster, run = make_instrumented(seed=11, run_index=k)
            client, _ = drive_instrumented(
                env, run, io_workload(cluster), optimize=False)
            data = RunData.load(run, client=client)
            breakdowns.append(phase_breakdown(data))
            views.append(AnalysisSession.of(data).task_view())
        stats = phase_variability(breakdowns)
        assert stats["total"].n == 3
        assert stats["total"].mean > 0
        assert stats["normalized"]["total"] == 1.0
        comparison = compare_runs(views)
        assert len(comparison) == 3  # 3 pairs
        for row in comparison.to_records():
            assert 0.0 <= row["placement_agreement"] <= 1.0
            assert 0.0 <= row["order_distance"] <= 1.0
