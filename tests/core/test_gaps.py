"""Tests for the metadata-gap audit (research question 4)."""

import pytest

from repro.core import RunData, format_gap_report, metadata_gaps
from repro.dasklike import IOOp, TaskGraph, TaskSpec

from tests.helpers import drive_instrumented, make_instrumented


def io_graph(cluster, token="9a9a9a9a"):
    cluster.pfs.create_file(f"/lus/gap-{token}.bin", 8 * 2**20)
    return TaskGraph([
        TaskSpec(key=(f"load-{token}", i), compute_time=0.02,
                 reads=(IOOp(f"/lus/gap-{token}.bin", "read",
                             (i % 8) * 2**20, 2**19),),
                 output_nbytes=2**19)
        for i in range(16)
    ])


class TestCleanRun:
    def test_healthy_run_is_clean(self):
        env, cluster, run = make_instrumented(seed=47)
        client, _ = drive_instrumented(env, run, io_graph(cluster),
                                       optimize=False)
        gaps = metadata_gaps(RunData.load(run, client=client))
        assert gaps["clean"], gaps
        assert gaps["unattributed_io_ops"]["count"] == 0
        report = format_gap_report(gaps)
        assert "CLEAN" in report


class TestDetectsTruncation:
    def test_dxt_truncation_flagged(self):
        env, cluster, run = make_instrumented(seed=47, dxt_buffer_limit=1)
        client, _ = drive_instrumented(env, run, io_graph(cluster),
                                       optimize=False)
        gaps = metadata_gaps(RunData.load(run, client=client))
        assert not gaps["clean"]
        assert gaps["dxt_truncation"]["truncated"]
        assert "GAPS FOUND" in format_gap_report(gaps)


class TestDetectsErredTasks:
    def test_failed_tasks_explained_by_errors(self):
        env, cluster, run = make_instrumented(seed=47)
        graph = TaskGraph([
            TaskSpec(key="ok-8b8b8b8b", compute_time=0.02,
                     output_nbytes=1),
            TaskSpec(key="bad-8b8b8b8b",
                     reads=(IOOp("/lus/missing.bin", "read", 0, 10),),
                     output_nbytes=1),
        ])
        client = run.client()

        def driver():
            yield env.process(client.connect())
            try:
                yield env.process(client.compute(graph, optimize=False))
            except FileNotFoundError:
                pass
            yield env.timeout(2.0)
            yield env.process(run.drain())

        env.run(until=env.process(driver()))
        gaps = metadata_gaps(RunData.load(run, client=client))
        snr = gaps["submitted_never_ran"]
        assert snr["count"] == 1
        assert snr["explained_by_errors"] == 1
        assert snr["unexplained"] == []
        # Errors are accounted for, so the run still audits clean.
        assert gaps["clean"]


class TestEmptyRun:
    def test_empty_rundata(self):
        gaps = metadata_gaps(RunData())
        assert gaps["unattributed_io_ops"]["count"] == 0
        assert isinstance(format_gap_report(gaps), str)
