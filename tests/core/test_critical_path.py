"""Tests for critical-path and utilization analyses."""

import numpy as np
import pytest

from repro.core import (
    AnalysisSession,
    critical_path,
    critical_path_summary,
    overall_utilization,
    RunData,
    Table,
    utilization_timeline,
    worker_utilization,
)
from repro.dasklike import TaskGraph, TaskSpec

from tests.helpers import drive_instrumented, make_instrumented


@pytest.fixture(scope="module")
def chain_run():
    """A deliberately serial chain plus parallel side work."""
    env, cluster, run = make_instrumented(seed=29)
    tasks = [TaskSpec(key=("side-aa118822", i), compute_time=0.05,
                      output_nbytes=10) for i in range(6)]
    prev = None
    for i in range(5):
        spec = TaskSpec(
            key=(f"chain-bb229933", i),
            deps=(prev,) if prev is not None else (),
            compute_time=0.4, output_nbytes=1024,
        )
        tasks.append(spec)
        prev = spec.key
    client, _ = drive_instrumented(env, run, TaskGraph(tasks),
                                   optimize=False)
    return RunData.load(run, client=client)


class TestCriticalPath:
    def test_chain_is_the_critical_path(self, chain_run):
        chain = critical_path(chain_run)
        prefixes = [h.prefix for h in chain]
        assert all(p == "chain" for p in prefixes)
        assert len(chain) == 5

    def test_chain_ordered_and_causal(self, chain_run):
        chain = critical_path(chain_run)
        for a, b in zip(chain, chain[1:]):
            assert a.stop <= b.start + 1e-9
            assert b.gap >= 0

    def test_summary_accounts_span(self, chain_run):
        summary = critical_path_summary(chain_run)
        assert summary["length"] == 5
        assert summary["execution"] > 0
        assert summary["gap"] >= 0
        # Execution + gaps of the chain ≈ the chain's span.
        assert summary["execution"] + summary["gap"] == pytest.approx(
            summary["span"], rel=0.05)
        assert "chain" in summary["by_prefix"]

    def test_empty_run(self):
        summary = critical_path_summary(RunData())
        assert summary["length"] == 0


class TestUtilization:
    def tasks(self):
        return Table.from_records([
            dict(key="a", group="a", prefix="p", worker="w0",
                 hostname="h0", thread_id=1, start=0.0, stop=2.0,
                 duration=2.0, output_nbytes=1, graph_index=0,
                 compute_time=2.0, io_time=0.0, n_reads=0, n_writes=0),
            dict(key="b", group="b", prefix="p", worker="w0",
                 hostname="h0", thread_id=2, start=0.0, stop=1.0,
                 duration=1.0, output_nbytes=1, graph_index=0,
                 compute_time=1.0, io_time=0.0, n_reads=0, n_writes=0),
            dict(key="c", group="c", prefix="p", worker="w1",
                 hostname="h1", thread_id=3, start=1.0, stop=2.0,
                 duration=1.0, output_nbytes=1, graph_index=0,
                 compute_time=1.0, io_time=0.0, n_reads=0, n_writes=0),
        ])

    def test_timeline_buckets(self):
        timeline = utilization_timeline(self.tasks(), n_threads_total=4,
                                        bucket=1.0)
        assert len(timeline) == 2
        # Bucket 0: tasks a+b busy -> 2 thread-seconds of 4.
        assert timeline["busy_thread_seconds"][0] == pytest.approx(2.0)
        assert timeline["utilization"][0] == pytest.approx(0.5)
        # Bucket 1: a+c -> 2 of 4.
        assert timeline["utilization"][1] == pytest.approx(0.5)

    def test_worker_utilization(self):
        per_worker = worker_utilization(self.tasks(), threads_per_worker=2)
        rows = {r["worker"]: r for r in per_worker.to_records()}
        assert rows["w0"]["busy_seconds"] == pytest.approx(3.0)
        assert rows["w0"]["utilization"] == pytest.approx(3.0 / 4.0)
        assert rows["w1"]["n_tasks"] == 1

    def test_overall(self):
        value = overall_utilization(self.tasks(), n_threads_total=4,
                                    wall_time=2.0)
        assert value == pytest.approx(4.0 / 8.0)

    def test_empty(self):
        empty = Table.from_records([], columns=self.tasks().column_names)
        assert overall_utilization(empty, 8, 10.0) == 0.0
        assert len(utilization_timeline(empty, 8)) == 0

    def test_low_utilization_for_short_workflow(self, chain_run):
        """The coordination-dominated chain leaves threads idle."""
        tasks = AnalysisSession.of(chain_run).task_view()
        value = overall_utilization(tasks, n_threads_total=16,
                                    wall_time=chain_run.wall_time)
        assert 0 < value < 0.5
