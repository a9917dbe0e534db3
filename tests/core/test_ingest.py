"""Tests for RunData ingestion edge cases."""

import pytest

from repro.core import RunData
from repro.dasklike import TaskGraph, TaskSpec
from repro.workflows import (
    ImageProcessingWorkflow,
    ResNet152Workflow,
    XGBoostWorkflow,
    run_workflow,
)

from tests.helpers import drive_instrumented, make_instrumented

#: The three paper workflows at a scale small enough for tier-1.
WORKFLOWS = {
    "imageprocessing": lambda: ImageProcessingWorkflow(scale=0.05),
    "resnet152": lambda: ResNet152Workflow(scale=0.03),
    "xgboost": lambda: XGBoostWorkflow(scale=0.05),
}


class TestEmptyRunData:
    def test_defaults(self):
        data = RunData()
        assert data.events == []
        assert data.wall_time == 0.0
        assert data.events_of_type("task_run") == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunData.from_directory(str(tmp_path / "nope"))


class TestLiveVsDisk:
    def test_live_and_disk_agree(self, tmp_path):
        env, cluster, run = make_instrumented(seed=41)
        graph = TaskGraph([
            TaskSpec(key=("w-ee55aa11", i), compute_time=0.05,
                     output_nbytes=100)
            for i in range(6)
        ])
        client, _ = drive_instrumented(env, run, graph, optimize=False)
        live = RunData.from_live(run, client)
        run_dir = run.persist(str(tmp_path / "run"), client=client)
        disk = RunData.from_directory(run_dir)

        assert live.events == disk.events
        assert live.logs == disk.logs
        assert live.wall_time == pytest.approx(disk.wall_time)
        assert live.darshan.total_io_ops == disk.darshan.total_io_ops
        assert disk.provenance["seed"] == 41

    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    def test_paper_workflow_live_equals_reloaded(self, name, tmp_path):
        # The live path hands out the broker's own dicts; the reloaded
        # path decodes the persisted stream.  Same values, same order.
        result = run_workflow(WORKFLOWS[name](), seed=11,
                              persist_dir=str(tmp_path))
        live, disk = result.data, RunData.load(result.run_dir)
        assert len(live.events) > 100
        assert live.events == disk.events
        assert live.logs == disk.logs

    def test_wall_time_spans_first_to_last_observation(self):
        env, cluster, run = make_instrumented(seed=41)
        graph = TaskGraph([TaskSpec(key="solo-ff66bb22",
                                    compute_time=0.5, output_nbytes=1)])
        client, _ = drive_instrumented(env, run, graph, optimize=False)
        data = RunData.from_live(run, client)
        assert data.wall_time > 0.5  # at least the task itself

    def test_events_of_type_filters(self):
        env, cluster, run = make_instrumented(seed=41)
        graph = TaskGraph([TaskSpec(key="one-cc77dd33",
                                    compute_time=0.01, output_nbytes=1)])
        client, _ = drive_instrumented(env, run, graph, optimize=False)
        data = RunData.from_live(run, client)
        assert len(data.events_of_type("task_run")) == 1
        assert data.events_of_type("bogus-type") == []
